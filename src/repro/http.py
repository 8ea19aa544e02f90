"""The REST surface's request/response pair — a leaf module.

Kept free of every other ``repro`` import so the gateway, the asyncio
HTTP front and each plane's :meth:`~repro.plane.Plane.admin_route` can
all build responses without importing one another.  Re-exported from
:mod:`repro.platform.gateway`, where callers import them from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["HttpRequest", "HttpResponse"]


@dataclass(frozen=True)
class HttpRequest:
    """A minimal HTTP request representation."""

    method: str
    path: str
    body: Mapping[str, Any] = field(default_factory=dict)
    #: Request headers (case-insensitive; normalised to lower-case).
    #: The federation plane reads ``x-origin-zone`` for geo-routing.
    headers: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", self.method.upper())
        object.__setattr__(self, "body", dict(self.body))
        object.__setattr__(
            self, "headers", {k.lower(): v for k, v in dict(self.headers).items()}
        )


@dataclass(frozen=True)
class HttpResponse:
    """A minimal HTTP response representation."""

    status: int
    body: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", dict(self.body))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300
