"""Minimal key = value text format shared by certificate and config files.

Grammar: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored; an inline ``#`` starts a comment unless the value is
needed verbatim (values never contain ``#``). Keys are lowercase identifiers.
Values are stored as strings; the reader of each file converts them.
Floats are written with 17 significant digits so files round-trip exactly.
"""

from __future__ import annotations

__all__ = ["dump_kv", "parse_kv", "format_value"]


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(format_value(x) for x in value)
    return str(value)


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
