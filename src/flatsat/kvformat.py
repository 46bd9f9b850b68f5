"""Minimal key = value text format shared by certificate and config files.

Grammar: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored; an inline ``#`` starts a comment unless the value is
needed verbatim (values never contain ``#``). Keys are lowercase identifiers.
Values are stored as strings; the reader of each file converts them.
Floats are written with 17 significant digits so files round-trip exactly.

:func:`format_rows` writes the same 17-digit format for a whole float array
as array code; the trace CSV writer uses it.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["dump_kv", "parse_kv", "format_value", "format_rows", "non_negative_int"]


def non_negative_int(s: str) -> int:
    """A sampler seed, read from a config file, a certificate file or a flag:
    numpy's ``default_rng`` rejects a negative one. argparse names it in its
    error message."""
    value = int(s)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(format_value(x) for x in value)
    return str(value)


# rows per block of format_rows: the trace's 18 float columns take 18 * _CELL * 128 = 110 592
# bytes of template, and its tobytes() copy as much, both below glibc's 128 KiB mmap threshold,
# so malloc reuses their pages instead of mapping fresh ones for every block
BLOCK_ROWS = 128

# One fixed 48-byte template per cell, six 8-byte words: the sign, "0.000",
# then the 17 digits each followed by a dot slot (the first digit in word 0,
# four digits in each of words 1 to 4), then "e", the exponent sign, two
# exponent digits, the separator and padding. A keep-mask looked up by
# (exponent, significant digits) zeroes the bytes '%.17g' drops, and the
# zero bytes are deleted: no formatted float contains one.
_CELL = 48
_SEP = 44
# exponents with two digits; beyond them '%.17g' needs three
_X_MIN, _X_MAX = -99, 99
# |x| strictly inside these doubles has its '%.17g' exponent in that range
_FAST_MIN, _FAST_MAX = 1e-99, 1e99
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a 53-bit mantissa
# rounding is left to '%.17g' where the fraction is this close to one half,
# 128 times _scaled's error bound
_TIE_MARGIN = 2.0**-40


class _Tables(NamedTuple):
    # 10**k = hi + lo for k = 16 - X, X in [_X_MIN - 2, _X_MAX + 2], and hi
    # split for Dekker's product: hi = hi_big + hi_small
    hi: np.ndarray
    lo: np.ndarray
    hi_big: np.ndarray
    hi_small: np.ndarray
    lead: np.ndarray  # word 0 by the first digit: "-0.000", the digit, "."
    quad: np.ndarray  # words 1 to 4 by value: four digits, each with a "."
    quad_zeros: np.ndarray  # trailing zeros of the four digits (4 for 0000)
    exp: np.ndarray  # word 5 by X - _X_MIN: "e", sign, two digits (or none), ","
    # the keep-mask by (X - _X_MIN) * 18 + significant digits; it keeps all
    # of word 5
    keep: np.ndarray


def _words(rows) -> np.ndarray:
    """One 8-byte word per row of 8 bytes."""
    return np.array(rows, dtype=np.uint8).view(np.uint64)[:, 0]


@functools.cache
def _tables() -> _Tables:
    """Built on first use, so that importing the module costs nothing, and
    from exact integers: Python's int division rounds correctly."""
    hi, lo = [], []
    for k in range(16 - _X_MAX - 2, 16 - _X_MIN + 3):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = _SPLITTER * hi
    hi_big = c - (c - hi)

    # keep[X, s]: the bytes that '%.17g' keeps for a value with exponent X
    # and s significant digits (1 to 17); the sign byte is set per cell
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None]
    sig = np.arange(18)[None, :]
    keep = np.zeros((x.size, 18, _CELL), dtype=np.uint8)
    keep[..., 40:] = 1
    fixed = (x >= -4) & (x < 17)
    small = fixed & (x < 0)  # "0." and -X-1 zeros before the digits
    keep[..., 1] = keep[..., 2] = small
    for z in range(3):
        keep[..., 3 + z] = small & (z < -x - 1)
    n_digits = np.where(fixed & (x >= 0), np.maximum(sig, x + 1), sig)
    # the one dot: after the units digit, when digits follow it
    units = np.where(fixed, np.maximum(x, 0), 0)
    for j in range(17):
        keep[..., 6 + 2 * j] = j < n_digits
        keep[..., 7 + 2 * j] = (j == units) & ~small & (sig > units + 1)

    v = np.arange(10_000)[:, None]
    quad = np.full((10_000, 8), ord("."), dtype=np.uint8)
    quad[:, ::2] = v // [1000, 100, 10, 1] % 10 + ord("0")
    exp = [b"\0" * 4 if -4 <= x < 17 else b"e%+03d" % x for x in range(_X_MIN, _X_MAX + 1)]
    return _Tables(
        hi=hi,
        lo=np.array(lo),
        hi_big=hi_big,
        hi_small=hi - hi_big,
        lead=_words([list(b"-0.000%d." % d) for d in range(10)]),
        quad=quad.view(np.uint64)[:, 0],
        quad_zeros=np.sum(v % [10, 100, 1000, 10_000] == 0, axis=1, dtype=np.uint8),
        exp=_words([list(e + b",\0\0\0") for e in exp]),
        keep=(keep * 255).view(np.uint64).reshape(-1, _CELL // 8),
    )


def _scaled(mag, x_exp, tab: _Tables):
    """``mag * 10**(16 - x_exp)`` as an unevaluated sum ``p + t`` of doubles.

    ``mag * hi`` is split exactly into ``p + e`` by Dekker's product
    (Shewchuk's ordering), and ``t = e + mag * lo``. Where the result is
    below 2**57, ``p`` is an integer once it is at least 2**53, ``|t| < 32``
    and ``|p + t - mag * 10**k| < 2**-47``: ``hi + lo`` misses ``10**k`` by
    at most 2**-106 of it (2**-49 after scaling), and rounding ``mag * lo``
    (below 16) and ``e + mag * lo`` (below 32) adds at most 2**-49 and
    2**-48."""
    i = _X_MAX + 2 - x_exp  # the row of k = 16 - x_exp
    h, hb, hs = tab.hi.take(i), tab.hi_big.take(i), tab.hi_small.take(i)
    c = _SPLITTER * mag
    mb = c - (c - mag)
    ms = mag - mb
    p = mag * h
    e = ms * hs - (((p - mb * hb) - ms * hb) - mb * hs)
    return p, e + mag * tab.lo.take(i)


def _format_block(x: np.ndarray, tails: Sequence[str]) -> bytes:
    """Rows of floats ``x`` (2-D) as CSV text: see :func:`format_rows`."""
    tab = _tables()
    rows, cols = x.shape
    x = x.ravel()
    mag = np.abs(x)
    fast = (mag > _FAST_MIN) & (mag < _FAST_MAX)
    mag = np.where(fast, mag, 1.0)

    # 1. The 17-digit integer D and the exponent X. X is fixed from the
    # truncated value of mag * 10**(16 - X), which must have 17 digits (the
    # differences p - 10**16 and p - 10**17 are exact where they decide the
    # sign, so each test holds for p + t exactly). log10 is off by at most
    # one, near powers of ten. Where the exact value is within the error
    # bound of 10**16 or 10**17, either X rounds to the same digits.
    x_exp = np.floor(np.log10(mag)).astype(np.int64)
    p, t = _scaled(mag, x_exp, tab)
    up = (p - 1e17) + t >= 0
    moved = np.flatnonzero(up | ((p - 1e16) + t < 0))
    if moved.size:
        x_exp[moved] += np.where(up[moved], 1, -1)
        p[moved], t[moved] = _scaled(mag[moved], x_exp[moved], tab)
    # round half to even: t is within 2**-47 of its exact value, so the
    # rounding is decided only where the fraction is clearly away from one
    # half; the rest, the ties among them, go to '%.17g'
    r = np.rint(t)
    big = p.astype(np.int64) + r.astype(np.int64)
    top = big == 10**17
    big[top] = 10**16
    x_exp[top] += 1
    ok = fast & (np.abs(t - r) < 0.5 - _TIE_MARGIN)
    ok &= (big >= 10**16) & (big < 10**17) & (np.abs(x_exp) <= _X_MAX)
    bad = np.flatnonzero(~ok)
    big[bad] = 10**16
    x_exp[bad] = 0

    # 2. The template, six words per cell, masked by the keep-mask of the
    # cell's exponent and significant digits.
    head, low = np.divmod(big, 10**8)
    first, high = np.divmod(head, 10**8)
    q1, q2 = np.divmod(high, 10**4)
    q3, q4 = np.divmod(low, 10**4)
    words = np.empty((x.size, _CELL // 8), dtype=np.uint64)
    words[:, 0] = tab.lead.take(first)
    words[:, 1] = tab.quad.take(q1)
    words[:, 2] = tab.quad.take(q2)
    words[:, 3] = tab.quad.take(q3)
    words[:, 4] = tab.quad.take(q4)
    words[:, 5] = tab.exp.take(x_exp - _X_MIN)
    z1, z2, z3, z4 = (tab.quad_zeros.take(q) for q in (q1, q2, q3, q4))
    zeros = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    words &= tab.keep.take((x_exp - _X_MIN) * 18 + 17 - zeros, axis=0)
    cells = words.view(np.uint8)
    cells[:, 0] = np.signbit(x) * ord("-")
    # zero, inf, nan, exponents of three digits and near-ties
    for i, value in zip(bad.tolist(), x[bad].tolist()):
        s = format_value(value).encode()
        cells[i, :_SEP] = 0
        cells[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)

    # 3. The kept bytes: cells joined by ",", each row's last one ended by
    # a newline that marks where its tail goes.
    cells.reshape(rows, cols, _CELL)[:, -1, _SEP] = ord("\n")
    parts = [b""] * (2 * rows)
    parts[::2] = cells.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    parts[1::2] = [s.encode() for s in tails]
    return b"".join(parts)


def format_rows(x: np.ndarray, tails: Sequence[str]) -> Iterator[bytes]:
    """The rows of the 2-D float array ``x`` as UTF-8 CSV text, in blocks of
    :data:`BLOCK_ROWS` rows: each row's floats joined by ``,``, each
    formatted byte for byte as :func:`format_value` formats it
    (``'%.17g'``), then the row's string from ``tails`` (a row's remaining
    cells and its newline).

    Array code does the formatting: it finds each cell's 17-digit integer
    and exponent with a double-double product (see :func:`_scaled`), and
    keeps the bytes of '%.17g' from one fixed template. Python's own
    formatting takes the cells the kernel leaves: zero, inf, nan, exponents
    of three digits and near-ties such as ``2**-25``. An ``x`` that is not
    2-D, or a tail count other than its row count, is a ValueError before
    the first block."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or len(tails) != len(x):
        raise ValueError(f"need a 2-D x and one tail per row: x {x.shape}, {len(tails)} tails")
    for start in range(0, len(x), BLOCK_ROWS):
        yield _format_block(x[start : start + BLOCK_ROWS], tails[start : start + BLOCK_ROWS])


def dump_kv(pairs: dict, header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"# {line}".rstrip() for line in header.splitlines())
    for key, value in pairs.items():
        lines.append(f"{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_kv(text: str) -> dict[str, str]:
    """Parse the format back to a string-valued dict.

    Raises ValueError on malformed lines or duplicate keys.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key.replace("_", "").isalnum():
            raise ValueError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out
