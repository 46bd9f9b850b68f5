import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatsat.kvformat import BLOCK_ROWS, dump_kv, format_rows, format_value, parse_kv

# any float64: every bit pattern (each NaN payload, subnormal and both
# zeros), and hypothesis's own floats, which favour edge values
any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def test_round_trip_with_comments():
    text = dump_kv({"a": 1.5, "b": "hello", "c": True}, header="two\nlines")
    assert text.startswith("# two\n# lines\n")
    parsed = parse_kv(text)
    assert parsed == {"a": "1.5", "b": "hello", "c": "true"}


def test_float_precision_survives():
    x = 0.1 + 0.2
    assert float(parse_kv(dump_kv({"x": x}))["x"]) == x


def test_inline_comment_and_blank_lines():
    parsed = parse_kv("\n# full comment\nkey = 3  # trailing\n\n")
    assert parsed == {"key": "3"}


def test_sequences_join_with_commas():
    assert format_value((1.0, 2.5)) == "1, 2.5"


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="key = value"):
        parse_kv("just some words\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_kv("a = 1\na = 2\n")


def test_bad_key_rejected():
    with pytest.raises(ValueError, match="bad key"):
        parse_kv("a b = 1\n")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(any_float, min_size=cols, max_size=cols), min_size=1, max_size=20)
    )
)
def test_format_rows_matches_format_value_per_cell(rows):
    """The array kernel against its oracle: each cell byte for byte as
    format_value formats it, joined by "," within a row, then the row's
    tail."""
    tails = [f";{k}\n" for k in range(len(rows))]
    want = "".join(",".join(map(format_value, row)) + tail for row, tail in zip(rows, tails))
    assert b"".join(format_rows(np.array(rows), tails)) == want.encode()


def test_format_rows_in_blocks():
    x = np.arange(2 * BLOCK_ROWS + 1, dtype=float)[:, None] / 7.0
    blocks = list(format_rows(x, ["\n"] * len(x)))
    assert [b.count(b"\n") for b in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 1]
    assert b"".join(blocks).decode().splitlines() == [format_value(v) for v in x[:, 0].tolist()]
