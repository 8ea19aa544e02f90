"""Cloud object instances.

An *object* is an instance of an OaaS class: an identity, a version
counter for optimistic concurrency, a structured-state dict, and
references (object-store keys) for each unstructured FILE entry.

Records are plain data; all behaviour (validation against the class
schema, method dispatch) lives in the control plane and the invoker.
"""

from __future__ import annotations

import itertools
import uuid
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.errors import ValidationError

__all__ = ["ObjectRecord", "new_object_id", "deterministic_object_ids"]

_id_counter = itertools.count(1)

#: A mapping parameter's default (copied by the constructor).
_EMPTY: Mapping[str, Any] = MappingProxyType({})


def new_object_id() -> str:
    """A fresh globally-unique object id."""
    return uuid.uuid4().hex


def deterministic_object_ids(prefix: str = "obj"):
    """An id factory yielding ``prefix-1``, ``prefix-2``, ... — used by
    simulations and tests that need reproducible identities."""
    counter = itertools.count(1)

    def make() -> str:
        return f"{prefix}-{next(counter)}"

    return make


@dataclass(frozen=True, init=False)
class ObjectRecord:
    """One object's durable representation.

    Attributes:
        id: object identity, unique within the platform.
        cls: name of the object's class.
        version: optimistic-concurrency counter, bumped on every commit.
        state: structured state (JSON-like values keyed by state key).
        files: FILE state-key name → object-store key.

    Built on every load and commit, so the constructor is written out:
    it validates, copies both mappings and fills the instance in one
    ``__dict__`` update.
    """

    id: str
    cls: str
    version: int = 0
    state: Mapping[str, Any] = field(default_factory=dict)
    files: Mapping[str, str] = field(default_factory=dict)

    def __init__(
        self,
        id: str,
        cls: str,
        version: int = 0,
        state: Mapping[str, Any] = _EMPTY,
        files: Mapping[str, str] = _EMPTY,
    ) -> None:
        if not id:
            raise ValidationError("object id must be non-empty")
        if not cls:
            raise ValidationError("object class must be non-empty")
        if version < 0:
            raise ValidationError(f"object version must be >= 0, got {version}")
        self.__dict__.update(
            id=id, cls=cls, version=version, state=dict(state), files=dict(files)
        )

    def get(self, key: str, default: Any = None) -> Any:
        return self.state.get(key, default)

    def with_updates(
        self,
        state_updates: Mapping[str, Any] | None = None,
        file_updates: Mapping[str, str] | None = None,
    ) -> "ObjectRecord":
        """A new record with updates applied and the version bumped."""
        if not state_updates and not file_updates:
            return self
        state = dict(self.state)
        state.update(state_updates or {})
        files = dict(self.files)
        files.update(file_updates or {})
        return type(self)(self.id, self.cls, self.version + 1, state, files)

    # -- persistence codec -------------------------------------------------

    def to_doc(self) -> dict[str, Any]:
        """Serialize for the document store."""
        return {
            "id": self.id,
            "cls": self.cls,
            "version": self.version,
            "state": dict(self.state),
            "files": dict(self.files),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ObjectRecord":
        """Deserialize a document-store record."""
        try:
            return cls(
                id=doc["id"],
                cls=doc["cls"],
                version=int(doc["version"]),
                state=doc.get("state", {}),
                files=doc.get("files", {}),
            )
        except KeyError as exc:
            raise ValidationError(f"object document missing field {exc}") from exc
