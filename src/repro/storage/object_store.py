"""S3-protocol object storage for unstructured state (paper §III-D).

FILE-typed state keys live here, not in the structured tier.  The store
implements the parts of the S3 protocol the platform relies on:
buckets, object put/get/delete, and **presigned URLs** — HMAC-signed,
expiring URLs that let developer code access exactly one object without
ever holding the store's secret key ("presigned URL technique ...
without sharing the secret key and avoiding leaking sensitive
information").

Timed variants model transfer cost so the ABL-PRESIGN ablation can
compare the direct (presigned) data path against proxying bytes through
the platform.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Generator
from urllib.parse import parse_qs, quote, unquote, urlparse

from repro.errors import BucketNotFoundError, KeyNotFoundError, PresignedUrlError, StorageError
from repro.sim.kernel import Environment, Process

__all__ = ["ObjectStoreModel", "StoredObject", "ObjectStore", "PresignedUrl"]


@dataclass(frozen=True)
class ObjectStoreModel:
    """Service model: per-operation latency plus serialization time."""

    op_latency_s: float = 0.0008
    bandwidth_bps: float = 2.5e8  # ~2 Gbit/s per stream

    def transfer_time(self, nbytes: int) -> float:
        base = self.op_latency_s
        if self.bandwidth_bps:
            base += nbytes / self.bandwidth_bps
        return base


@dataclass(frozen=True)
class StoredObject:
    """An object version at rest."""

    bucket: str
    key: str
    data: bytes
    content_type: str = "application/octet-stream"
    etag: str = ""

    @property
    def size(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class PresignedUrl:
    """A parsed presigned URL."""

    bucket: str
    key: str
    method: str
    expires_at: float
    signature: str

    def render(self) -> str:
        # The key is percent-encoded with no safe characters so that
        # slashes (including leading ones) and URL metacharacters
        # round-trip exactly.
        return (
            f"s3://{self.bucket}/{quote(self.key, safe='')}"
            f"?method={self.method}&expires={self.expires_at!r}"
            f"&signature={self.signature}"
        )

    @classmethod
    def parse(cls, url: str) -> "PresignedUrl":
        parsed = urlparse(url)
        if parsed.scheme != "s3" or not parsed.netloc:
            raise PresignedUrlError(f"malformed presigned URL: {url!r}")
        query = parse_qs(parsed.query)
        path = parsed.path[1:] if parsed.path.startswith("/") else parsed.path
        try:
            return cls(
                bucket=parsed.netloc,
                key=unquote(path),
                method=query["method"][0],
                expires_at=float(query["expires"][0]),
                signature=query["signature"][0],
            )
        except (KeyError, IndexError, ValueError) as exc:
            raise PresignedUrlError(f"malformed presigned URL: {url!r}") from exc


class ObjectStore:
    """An S3-like object store with presigned access."""

    def __init__(
        self,
        env: Environment,
        model: ObjectStoreModel | None = None,
        secret_key: bytes = b"oparaca-dev-secret",
    ) -> None:
        self.env = env
        self.model = model or ObjectStoreModel()
        self._secret = secret_key
        self._buckets: dict[str, dict[str, StoredObject]] = {}
        self.presigned_used = 0

    # -- buckets -----------------------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        if not bucket:
            raise StorageError("bucket name must be non-empty")
        self._buckets.setdefault(bucket, {})

    def bucket_exists(self, bucket: str) -> bool:
        return bucket in self._buckets

    def _table(self, bucket: str) -> dict[str, StoredObject]:
        table = self._buckets.get(bucket)
        if table is None:
            raise BucketNotFoundError(f"no bucket {bucket!r}")
        return table

    # -- instant (authenticated) operations ---------------------------------

    def put_object(
        self, bucket: str, key: str, data: bytes, content_type: str = "application/octet-stream"
    ) -> StoredObject:
        """Authenticated put (platform-internal path, no timing)."""
        if not key:
            raise StorageError("object key must be non-empty")
        if not isinstance(data, (bytes, bytearray)):
            raise StorageError(f"object data must be bytes, got {type(data).__name__}")
        etag = hashlib.md5(bytes(data)).hexdigest()
        obj = StoredObject(bucket, key, bytes(data), content_type, etag)
        self._table(bucket)[key] = obj
        return obj

    def get_object(self, bucket: str, key: str) -> StoredObject:
        """Authenticated get; raises :class:`KeyNotFoundError` if absent."""
        obj = self._table(bucket).get(key)
        if obj is None:
            raise KeyNotFoundError(f"no object {bucket!r}/{key!r}")
        return obj

    def head_object(self, bucket: str, key: str) -> StoredObject | None:
        return self._table(bucket).get(key)

    def delete_object(self, bucket: str, key: str) -> None:
        """Delete an object; raises :class:`KeyNotFoundError` if absent
        (and :class:`BucketNotFoundError` for an unknown bucket), so
        callers see the same typed errors as :meth:`get_object`."""
        if self._table(bucket).pop(key, None) is None:
            raise KeyNotFoundError(f"no object {bucket!r}/{key!r}")

    def list_objects(self, bucket: str, prefix: str = "") -> list[str]:
        return sorted(k for k in self._table(bucket) if k.startswith(prefix))

    # -- presigned access ----------------------------------------------------

    def _sign(self, bucket: str, key: str, method: str, expires_at: float) -> str:
        message = f"{method}\n{bucket}\n{key}\n{expires_at!r}".encode()
        return hmac.new(self._secret, message, hashlib.sha256).hexdigest()

    def presign(
        self, bucket: str, key: str, method: str = "GET", expires_in_s: float = 900.0
    ) -> str:
        """Issue a presigned URL for one object and method.

        The URL embeds an HMAC over (method, bucket, key, expiry) — the
        secret never leaves the store.
        """
        method = method.upper()
        if method not in ("GET", "PUT"):
            raise PresignedUrlError(f"presign supports GET/PUT, got {method!r}")
        if expires_in_s <= 0:
            raise PresignedUrlError(f"expires_in_s must be > 0, got {expires_in_s}")
        self._table(bucket)  # bucket must exist
        expires_at = self.env.now + expires_in_s
        return PresignedUrl(
            bucket, key, method, expires_at, self._sign(bucket, key, method, expires_at)
        ).render()

    def _verify(self, url: str, method: str) -> PresignedUrl:
        parsed = PresignedUrl.parse(url)
        expected = self._sign(parsed.bucket, parsed.key, parsed.method, parsed.expires_at)
        if not hmac.compare_digest(expected, parsed.signature):
            raise PresignedUrlError("presigned URL signature mismatch")
        if parsed.method != method.upper():
            raise PresignedUrlError(
                f"presigned URL allows {parsed.method}, attempted {method.upper()}"
            )
        # Exact-boundary semantics: a URL presented at its expiry
        # instant is already expired (the lifetime is [issue, expiry)).
        if self.env.now >= parsed.expires_at:
            raise PresignedUrlError("presigned URL has expired")
        return parsed

    def presigned_get(self, url: str) -> StoredObject:
        """Use a presigned GET URL (unauthenticated caller)."""
        parsed = self._verify(url, "GET")
        self.presigned_used += 1
        return self.get_object(parsed.bucket, parsed.key)

    def presigned_put(
        self, url: str, data: bytes, content_type: str = "application/octet-stream"
    ) -> StoredObject:
        """Use a presigned PUT URL (unauthenticated caller)."""
        parsed = self._verify(url, "PUT")
        self.presigned_used += 1
        return self.put_object(parsed.bucket, parsed.key, data, content_type)

    # -- timed data path (simulation) ----------------------------------------

    def get_timed(self, bucket: str, key: str) -> Process:
        """Timed download; resolves to the :class:`StoredObject`."""
        return self.env.process(self._get_timed(bucket, key))

    def _get_timed(self, bucket: str, key: str) -> Generator:
        obj = self.get_object(bucket, key)
        yield self.env.timeout(self.model.transfer_time(obj.size))
        return obj

    def put_timed(
        self, bucket: str, key: str, data: bytes, content_type: str = "application/octet-stream"
    ) -> Process:
        """Timed upload; resolves to the stored object."""
        return self.env.process(self._put_timed(bucket, key, data, content_type))

    def _put_timed(self, bucket: str, key: str, data: bytes, content_type: str) -> Generator:
        yield self.env.timeout(self.model.transfer_time(len(data)))
        return self.put_object(bucket, key, data, content_type)

    def presigned_get_timed(self, url: str) -> Process:
        """Timed presigned download (the client's direct data path)."""
        return self.env.process(self._presigned_get_timed(url))

    def _presigned_get_timed(self, url: str) -> Generator:
        obj = self.presigned_get(url)
        yield self.env.timeout(self.model.transfer_time(obj.size))
        return obj

    def presigned_put_timed(
        self, url: str, data: bytes, content_type: str = "application/octet-stream"
    ) -> Process:
        """Timed presigned upload (the client's direct data path)."""
        return self.env.process(self._presigned_put_timed(url, data, content_type))

    def _presigned_put_timed(self, url: str, data: bytes, content_type: str) -> Generator:
        yield self.env.timeout(self.model.transfer_time(len(data)))
        return self.presigned_put(url, data, content_type)
