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

:func:`numbers` reads the same dicts as metric series, with the same
idea of a table: a row is told apart by a label, never by a name.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

__all__ = ["cell", "format_table", "numbers", "render"]


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


def numbers(
    stats: Mapping[str, Any], path: str, labels: Mapping[str, str] | None = None
) -> Iterator[tuple[str, Mapping[str, str], int | float]]:
    """Every number in the state dict ``stats`` as ``(series, labels,
    value)``, the series named ``<path>.<dotted key path>`` and labelled
    by ``labels`` plus the rows of the tables it sits in:

    * an int or float (not a bool) is one number;
    * a nested dict of dicts is a table: each key becomes a ``name`` label;
    * a list of dicts whose first column holds distinct strings is a
      table labelled by that column (``worker=…``, ``class=…``);
    * any other dict extends the path by its keys;
    * strings, bools, ``None`` and every other list hold no number, so a
      list that grows with the run (cuts, fault windows) adds no series.
    """
    labels = labels or {}
    for key, item in stats.items():
        where = f"{path}.{key}"
        if type(item) is int or type(item) is float:
            yield where, labels, item
        elif isinstance(item, Mapping):
            if item and all(isinstance(row, Mapping) for row in item.values()):
                for name, row in item.items():
                    yield from numbers(row, where, {**labels, "name": str(name)})
            else:
                yield from numbers(item, where, labels)
        elif isinstance(item, (list, tuple)) and item and all(
            isinstance(row, Mapping) and row for row in item
        ):
            column = next(iter(item[0]))
            keys = [row.get(column) for row in item]
            if all(isinstance(k, str) for k in keys) and len(set(keys)) == len(keys):
                for row, label in zip(item, keys):
                    yield from numbers(row, where, {**labels, column: label})
