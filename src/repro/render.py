"""The one way a state dict reaches text.

Every plane's ``stats()`` — and every report built from such dicts — is
printed by :func:`render`, whose rules are:

* a list of dicts prints as a table, one column per key;
* a dict of dicts prints as a table keyed by its first column;
* a dict's scalars print as one line of ``key=value`` pairs;
* any other nested value recurses under a ``key:`` heading;
* ``None`` (and an empty list or dict) prints as ``-``;
* a float prints to four decimals, trailing zeros dropped (:func:`cell`).

:func:`format_table` is the one table function; the experiment tables of
:mod:`repro.bench` print through it too.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

__all__ = ["cell", "format_table", "render"]


def format_table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def cell(value: Any) -> str:
    """One scalar as text; the renderer's float rule lives here only."""
    if value is None or (isinstance(value, (Mapping, list, tuple)) and not value):
        return "-"
    if isinstance(value, float):
        text = f"{value:.4f}".rstrip("0")
        return text + "0" if text.endswith(".") else text
    if isinstance(value, (list, tuple)):
        return ",".join(cell(item) for item in value)
    return str(value)


def render(value: Any, name: str | None = None) -> str:
    """``value`` as text, under the heading ``name`` when given."""
    return "\n".join(_lines(value, name, ""))


def _scalar(value: Any) -> bool:
    """A value :func:`cell` prints whole: not a container, an empty one,
    or a list of non-containers."""
    if isinstance(value, Mapping):
        return not value
    if isinstance(value, (list, tuple)):
        return not any(isinstance(item, (Mapping, list, tuple)) for item in value)
    return True


def _flat(value: Any) -> bool:
    return isinstance(value, Mapping) and all(map(_scalar, value.values()))


def _lines(value: Any, name: str | None, indent: str) -> list[str]:
    if _scalar(value):
        return [indent + (cell(value) if name is None else f"{name}={cell(value)}")]
    if _flat(value):
        return [indent + ("" if name is None else f"{name}: ") + _pairs(value)]
    lines = [] if name is None else [f"{indent}{name}:"]
    inner = indent if name is None else indent + "  "
    rows = list(value.values()) if isinstance(value, Mapping) else list(value)
    if all(map(_flat, rows)):
        columns = list(dict.fromkeys(key for row in rows for key in row))
        body = [[cell(row.get(key)) for key in columns] for row in rows]
        header = [str(key) for key in columns]
        if isinstance(value, Mapping):
            header, body = ["name", *header], [[str(k), *r] for k, r in zip(value, body)]
        table = format_table(header, body).splitlines()
        return lines + [(inner + line).rstrip() for line in table]
    if not isinstance(value, Mapping):
        value = {str(index): item for index, item in enumerate(value)}
    scalars = {key: item for key, item in value.items() if _scalar(item)}
    if scalars:
        lines.append(inner + _pairs(scalars))
    for key, item in value.items():
        if not _scalar(item):
            lines += _lines(item, str(key), inner)
    return lines


def _pairs(values: Mapping[Any, Any]) -> str:
    return " ".join(f"{key}={cell(value)}" for key, value in values.items())
