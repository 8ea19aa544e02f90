"""The scheduler/worker wire protocol.

Typed messages for the control-plane conversation plus a
length-prefixed JSON codec.  A *frame* is a 4-byte big-endian payload
length followed by the UTF-8 JSON encoding of the message's wire dict;
every wire dict carries a ``"type"`` discriminator.  The codec is
transport-agnostic — :class:`FrameDecoder` feeds on arbitrary byte
chunks (a TCP stream, a loopback pipe, a test buffer) and yields
complete messages.

Fencing rides on the wire: every worker→scheduler message after
registration carries the worker's **epoch** (assigned by the scheduler
in :class:`RegisterAck`).  A message whose epoch does not match the
scheduler's current epoch for that registration is from a fenced past —
a zombie connection the scheduler already declared dead — and is
discarded without touching the ledger.
"""

from __future__ import annotations

import json
import struct
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, ClassVar, Iterator

from repro.errors import TransportError, ValidationError

__all__ = [
    "Message",
    "Register",
    "RegisterAck",
    "Ready",
    "Heartbeat",
    "Install",
    "InstallAck",
    "Dispatch",
    "Executing",
    "Complete",
    "DrainCmd",
    "Drained",
    "decode_message",
    "encode_frame",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
]

#: Upper bound on one frame's payload; a larger announced length means a
#: corrupt or hostile peer, not a big message.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct(">I")
#: ``json.dumps`` with these arguments builds this encoder on every call.
_ENCODE_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


@dataclass(frozen=True)
class Message:
    """Base class for wire messages; subclasses set ``TYPE``."""

    TYPE: ClassVar[str] = ""

    def to_wire(self) -> dict[str, Any]:
        """The message's own fields plus ``"type"`` — one flat dict, the
        values shared with the message rather than copied: whoever built
        the message is about to turn it into bytes."""
        wire = {name: getattr(self, name) for name in _WIRE_FIELDS[type(self)]}
        wire["type"] = self.TYPE
        return wire


# -- worker → scheduler ------------------------------------------------------


@dataclass(frozen=True)
class Register(Message):
    """Ask to join the pool under ``worker`` (epoch comes back in the ack)."""

    TYPE: ClassVar[str] = "register"
    worker: str
    node: str | None = None


@dataclass(frozen=True)
class Ready(Message):
    """Initial installs finished; the worker may receive dispatches."""

    TYPE: ClassVar[str] = "ready"
    worker: str
    epoch: int


@dataclass(frozen=True)
class Heartbeat(Message):
    TYPE: ClassVar[str] = "heartbeat"
    worker: str
    epoch: int


@dataclass(frozen=True)
class InstallAck(Message):
    """One class runtime finished installing on the worker."""

    TYPE: ClassVar[str] = "install_ack"
    worker: str
    epoch: int
    cls: str


@dataclass(frozen=True)
class Executing(Message):
    """The worker started executing a dispatched item (moves it from the
    scheduler's queued view to in-flight, so rebinds skip it)."""

    TYPE: ClassVar[str] = "executing"
    worker: str
    epoch: int
    request_id: str


@dataclass(frozen=True)
class Complete(Message):
    """One dispatched invocation finished on the worker."""

    TYPE: ClassVar[str] = "complete"
    worker: str
    epoch: int
    request_id: str
    ok: bool
    output: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    error_type: str | None = None


@dataclass(frozen=True)
class Drained(Message):
    """The work loop emptied out after a drain command."""

    TYPE: ClassVar[str] = "drained"
    worker: str
    epoch: int


# -- scheduler → worker ------------------------------------------------------


@dataclass(frozen=True)
class RegisterAck(Message):
    """Registration verdict: the assigned epoch plus the classes to
    install before reporting ready.  ``error`` set means rejected."""

    TYPE: ClassVar[str] = "register_ack"
    worker: str
    epoch: int
    classes: tuple[str, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class Install(Message):
    """Install one (newly deployed) class runtime."""

    TYPE: ClassVar[str] = "install"
    cls: str


@dataclass(frozen=True)
class Dispatch(Message):
    """One invocation, fenced by the epoch it was dispatched under."""

    TYPE: ClassVar[str] = "dispatch"
    request_id: str
    object_id: str
    fn_name: str
    epoch: int
    seq: int
    cls: str | None = None
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DrainCmd(Message):
    """Finish the in-flight item, then report drained and retire."""

    TYPE: ClassVar[str] = "drain"


_MESSAGE_TYPES: dict[str, type[Message]] = {
    cls.TYPE: cls
    for cls in (
        Register,
        RegisterAck,
        Ready,
        Heartbeat,
        Install,
        InstallAck,
        Dispatch,
        Executing,
        Complete,
        DrainCmd,
        Drained,
    )
}


#: The codec's tables, built once: what each message class puts on the
#: wire, which of those a frame may not leave out, and which are used
#: as JSON objects unchecked once decoded.  (A field added to a message
#: shows up here by itself.)
_WIRE_FIELDS: dict[type[Message], tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in _MESSAGE_TYPES.values()
}
_REQUIRED_FIELDS: dict[type[Message], frozenset[str]] = {
    cls: frozenset(
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    )
    for cls in _MESSAGE_TYPES.values()
}
_OBJECT_FIELDS: dict[type[Message], tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.default_factory is dict)
    for cls in _MESSAGE_TYPES.values()
}


def decode_message(wire: dict[str, Any]) -> Message:
    """Rebuild a typed message from its wire dict."""
    kind = wire.get("type")
    cls = _MESSAGE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown message type {kind!r}")
    kwargs = {name: wire[name] for name in _WIRE_FIELDS[cls] if name in wire}
    missing = _REQUIRED_FIELDS[cls] - kwargs.keys()
    if missing:
        raise ValidationError(
            f"{kind} message missing fields: {', '.join(sorted(missing))}"
        )
    for name in _OBJECT_FIELDS[cls]:
        if not isinstance(kwargs.get(name, {}), dict):
            raise ValidationError(f"{kind} message field {name!r} is not an object")
    if cls is RegisterAck and isinstance(kwargs.get("classes"), list):
        kwargs["classes"] = tuple(kwargs["classes"])
    return cls(**kwargs)


def encode_frame(message: Message) -> bytes:
    """One wire frame: 4-byte big-endian length + JSON payload."""
    payload = _ENCODE_JSON(message.to_wire()).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder: feed byte chunks, iterate messages.

    Keeps partial frames across feeds, so it works over any chunking a
    stream produces.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Message]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise TransportError(
                    f"announced frame of {length} bytes exceeds MAX_FRAME_BYTES"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_LENGTH.size : end])
            del self._buffer[:end]
            try:
                wire = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise TransportError(f"undecodable frame payload: {exc}") from exc
            if not isinstance(wire, dict):
                raise TransportError(
                    f"frame payload is a JSON {type(wire).__name__}, not an object"
                )
            yield decode_message(wire)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
