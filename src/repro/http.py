"""The REST surface's request/response pair — a leaf module.

Kept free of every other ``repro`` import so the gateway, the asyncio
HTTP front and each plane's :meth:`~repro.plane.Plane.admin_route` can
all build responses without importing one another.  Re-exported from
:mod:`repro.platform.gateway`, where callers import them from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

__all__ = ["HttpRequest", "HttpResponse"]

#: A mapping parameter's default (copied by the constructors).
_EMPTY: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True, init=False)
class HttpRequest:
    """A minimal HTTP request representation.

    Both types are built on every request, so their constructors are
    written out: each fills the instance in one ``__dict__`` update and
    copies its mappings."""

    method: str
    path: str
    body: Mapping[str, Any] = field(default_factory=dict)
    #: Request headers (case-insensitive; normalised to lower-case).
    #: The federation plane reads ``x-origin-zone`` for geo-routing.
    headers: Mapping[str, str] = field(default_factory=dict)

    def __init__(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] = _EMPTY,
        headers: Mapping[str, str] = _EMPTY,
    ) -> None:
        self.__dict__.update(
            method=method.upper(),
            path=path,
            body=dict(body),
            headers={k.lower(): v for k, v in dict(headers).items()} if headers else {},
        )


@dataclass(frozen=True, init=False)
class HttpResponse:
    """A minimal HTTP response representation."""

    status: int
    body: Mapping[str, Any] = field(default_factory=dict)

    def __init__(self, status: int, body: Mapping[str, Any] = _EMPTY) -> None:
        self.__dict__.update(status=status, body=dict(body))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300
