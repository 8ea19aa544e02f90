"""State typing for OaaS classes.

An OaaS class declares its structured state as a list of *key
specifications* (``keySpecs`` in the paper's Listing 1).  Each key has a
name and a data type; ``FILE`` keys denote unstructured data kept in the
S3-style object store (§III-D), every other type lives in the
distributed structured-state store.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ValidationError

__all__ = ["DataType", "KeySpec", "StateSpec"]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


class DataType(str, enum.Enum):
    """Supported data types for object state keys."""

    INT = "INT"
    FLOAT = "FLOAT"
    STR = "STR"
    BOOL = "BOOL"
    JSON = "JSON"
    #: Unstructured data held in object storage and referenced by key.
    FILE = "FILE"

    @classmethod
    def parse(cls, raw: str) -> "DataType":
        """Parse a type token, tolerating the paper's ``File Image`` style
        annotations by taking the first word, case-insensitively."""
        token = str(raw).strip().split()[0].upper() if str(raw).strip() else ""
        try:
            return cls(token)
        except ValueError:
            raise ValidationError(
                f"unknown data type {raw!r}; expected one of "
                f"{', '.join(m.value for m in cls)}"
            ) from None

    def accepts(self, value: object) -> bool:
        """Whether a Python value is admissible for this type."""
        if value is None:
            return True
        if self is DataType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.STR:
            return isinstance(value, str)
        if self is DataType.BOOL:
            return isinstance(value, bool)
        if self is DataType.JSON:
            return isinstance(value, (dict, list, str, int, float, bool))
        if self is DataType.FILE:
            # FILE values are object-store keys (strings) managed by the
            # platform; user code never stores raw bytes in object state.
            return isinstance(value, str)
        return False  # pragma: no cover - exhaustive above


@dataclass(frozen=True)
class KeySpec:
    """Specification of one state key of a class."""

    name: str
    dtype: DataType = DataType.JSON
    default: object = None
    doc: str = ""

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValidationError(f"invalid state key name {self.name!r}")
        if self.default is not None and not self.dtype.accepts(self.default):
            raise ValidationError(
                f"default {self.default!r} is not a valid {self.dtype.value} "
                f"for key {self.name!r}"
            )

    @property
    def is_file(self) -> bool:
        return self.dtype is DataType.FILE


@dataclass(frozen=True)
class StateSpec:
    """The full structured-state schema of a class."""

    key_specs: tuple[KeySpec, ...] = field(default_factory=tuple)
    #: name -> spec, built once: every commit looks its keys up here.
    _by_name: dict[str, KeySpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.key_specs]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValidationError(f"duplicate state keys: {sorted(duplicates)}")
        object.__setattr__(self, "_by_name", {spec.name: spec for spec in self.key_specs})

    def __iter__(self):
        return iter(self.key_specs)

    def __len__(self) -> int:
        return len(self.key_specs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.key_specs)

    @property
    def file_keys(self) -> tuple[str, ...]:
        """Names of the unstructured (object-store) keys."""
        return tuple(spec.name for spec in self.key_specs if spec.is_file)

    @property
    def data_keys(self) -> tuple[str, ...]:
        """Names of the structured keys."""
        return tuple(spec.name for spec in self.key_specs if not spec.is_file)

    def get(self, name: str) -> KeySpec | None:
        return self._by_name.get(name)

    def defaults(self) -> dict[str, object]:
        """Initial structured state for a fresh object."""
        return {
            spec.name: spec.default
            for spec in self.key_specs
            if not spec.is_file and spec.default is not None
        }

    def validate_state(self, state: Mapping[str, object]) -> None:
        """Check a structured-state dict against the schema.

        Unknown keys are rejected; FILE keys may not appear (they are
        managed through the object store, not object state writes).
        """
        by_name = self._by_name
        for key, value in state.items():
            spec = by_name.get(key)
            if spec is None:
                raise ValidationError(f"unknown state key {key!r}")
            if spec.is_file:
                raise ValidationError(
                    f"key {key!r} is FILE-typed; write it through the "
                    "object-store API, not structured state"
                )
            if not spec.dtype.accepts(value):
                raise ValidationError(
                    f"value {value!r} is not a valid {spec.dtype.value} for "
                    f"key {key!r}"
                )

    def merged_with(self, child: "StateSpec") -> "StateSpec":
        """Combine a parent schema with a child schema (inheritance).

        The child may add keys and may *redeclare* a parent key only with
        an identical type (narrowing state types would break parent
        methods operating on the object).
        """
        merged: list[KeySpec] = list(self.key_specs)
        index = {spec.name: i for i, spec in enumerate(merged)}
        for spec in child.key_specs:
            if spec.name in index:
                existing = merged[index[spec.name]]
                if existing.dtype is not spec.dtype:
                    raise ValidationError(
                        f"state key {spec.name!r} redeclared with type "
                        f"{spec.dtype.value}, parent has {existing.dtype.value}"
                    )
                merged[index[spec.name]] = spec
            else:
                index[spec.name] = len(merged)
                merged.append(spec)
        return StateSpec(tuple(merged))
