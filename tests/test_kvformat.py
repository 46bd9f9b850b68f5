import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatsat import CSV_COLUMNS
from flatsat.kvformat import _CELL, BLOCK_ROWS, dump_kv, format_rows, format_value, parse_kv

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
    # input it cannot write is rejected before the first block: a tail
    # count off by one either way across several blocks, and an x not 2-D
    rows = 4 * BLOCK_ROWS + 88
    col = np.arange(float(rows))[:, None]
    for x, n_tails in [(col, rows - 1), (col, rows + 1), (col[:, 0], rows), (np.float64(1.0), 0)]:
        blocks = format_rows(x, ["\n"] * n_tails)
        with pytest.raises(ValueError, match=re.escape(
            f"need a 2-D x and one tail per row: x {np.shape(x)}, {n_tails} tails"
        )):
            next(blocks)


def test_block_stays_below_the_mmap_threshold():
    """One block of a trace's float columns (all but the three string tail
    columns) is a template of _CELL bytes per cell, and tobytes() copies it:
    at or below glibc's default 128 KiB mmap threshold, malloc reuses the
    pages of the last block instead of mapping fresh ones."""
    float_columns = len(CSV_COLUMNS) - 3
    assert float_columns == 18
    assert BLOCK_ROWS * float_columns * _CELL <= 128 * 1024
