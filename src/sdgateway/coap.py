"""CoAP message model and wire codec.

Implements the RFC 7252 subset this project needs (base header, token,
delta-encoded options, payload marker) plus Observe (RFC 7641), Block1
(RFC 7959) and four experimental-range options carrying binding
descriptors.  Messages are immutable values; encode/decode are pure
functions, safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple, Optional, Tuple

COAP_VERSION = 1
COAP_PORT = 5683

# RFC 7252 transmission parameters.  ACK_TIMEOUT is raised above the RFC
# default of 2 s so that a loss-free five-hop duty-cycled round trip
# (worst case 2500 ms under the bundled link model) never triggers a
# spurious retransmission.
ACK_TIMEOUT_MS = 3000.0
MAX_RETRANSMIT = 4
EXCHANGE_LIFETIME_MS = 247_000.0

# Resource on the gateway that booting nodes announce themselves to.
REGISTRATION_PATH = "sd/register"


class MalformedFrame(ValueError):
    """Bytes that cannot be parsed as a CoAP frame."""


class InvariantViolation(ValueError):
    """A message value that violates an encoding invariant."""


class MsgType(IntEnum):
    CON = 0
    NON = 1
    ACK = 2
    RST = 3


_MSG_TYPES = tuple(MsgType)  # indexed by the 2-bit wire value


# Method and response codes, class.detail packed into one byte.
EMPTY = 0x00
GET = 0x01
POST = 0x02
PUT = 0x03
DELETE = 0x04
CREATED = 0x41            # 2.01
DELETED = 0x42            # 2.02
CHANGED = 0x44            # 2.04
CONTENT = 0x45            # 2.05
CONTINUE = 0x5F           # 2.31
BAD_REQUEST = 0x80        # 4.00
NOT_FOUND = 0x84          # 4.04
METHOD_NOT_ALLOWED = 0x85 # 4.05

_REQUEST_CODES = (GET, POST, PUT, DELETE)


def is_request(code: int) -> bool:
    return code in _REQUEST_CODES


def is_response(code: int) -> bool:
    return (code >> 5) in (2, 4, 5)


def code_valid(code: int) -> bool:
    cls, detail = code >> 5, code & 0x1F
    if cls == 0:
        return detail <= 4
    return cls in (2, 4, 5)


_METHOD_NAMES = {EMPTY: "EMPTY", GET: "GET", POST: "POST", PUT: "PUT", DELETE: "DELETE"}


def code_str(code: int) -> str:
    if code in _METHOD_NAMES:
        return _METHOD_NAMES[code]
    return f"{code >> 5}.{code & 0x1F:02d}"


class Endpoint(NamedTuple):
    addr: str
    port: int = COAP_PORT

    def __str__(self) -> str:
        return f"{self.addr}:{self.port}"


# Option numbers.
OPT_OBSERVE = 6
OPT_URI_PATH = 11
OPT_CONTENT_FORMAT = 12
OPT_MAX_AGE = 14
OPT_URI_QUERY = 15
OPT_BLOCK1 = 27
# Elective, experimental-range options for binding descriptors.  Elective
# numbers keep decoders that do not know them tolerant (they pass the
# option through opaquely instead of rejecting the message).
OPT_BIND_DEST_ADDR = 2048
OPT_BIND_DEST_RESOURCE = 2050
OPT_BIND_PMIN = 2052
OPT_BIND_PMAX = 2054

_BINDING_OPTS = frozenset({OPT_BIND_DEST_ADDR, OPT_BIND_DEST_RESOURCE,
                           OPT_BIND_PMIN, OPT_BIND_PMAX})
_URI_OPTS = frozenset({OPT_URI_PATH, OPT_URI_QUERY})
# Options that may appear at most once in a message.
_SINGLE_OPTS = frozenset({OPT_OBSERVE, OPT_CONTENT_FORMAT, OPT_MAX_AGE, OPT_BLOCK1}) | _BINDING_OPTS

OBSERVE_DEREGISTER_VALUE = 1
OBSERVE_MAX = 0xFFFFFF  # 3-byte option


class Block1(NamedTuple):
    """Block1 descriptor: block number, more-follows flag, block size."""

    num: int
    more: bool
    size: int


@dataclass(frozen=True)
class BindingInfo:
    """Server-to-server push relationship installed by a third party."""

    dest_addr: str
    dest_resource: str
    pmin: int = 0       # seconds, minimum interval between pushes
    pmax: int = 86400   # seconds, maximum silence before a refresh push


@dataclass(frozen=True)
class OptionSet:
    uri_path: Tuple[str, ...] = ()
    uri_query: Tuple[str, ...] = ()
    observe: Optional[int] = None
    block1: Optional[Block1] = None
    max_age: Optional[int] = None
    content_format: Optional[int] = None
    binding: Optional[BindingInfo] = None
    # Unrecognized options, preserved opaquely as (number, value) pairs.
    extra: Tuple[Tuple[int, bytes], ...] = ()

    def path_str(self) -> str:
        return "/".join(self.uri_path)

    def query_value(self, key: str) -> Optional[str]:
        prefix = key + "="
        for q in self.uri_query:
            if q.startswith(prefix):
                return q[len(prefix):]
        return None


@dataclass(frozen=True)
class CoapMessage:
    msg_type: MsgType
    code: int
    mid: int
    token: bytes = b""
    options: OptionSet = field(default_factory=OptionSet)
    payload: bytes = b""

    def short(self) -> str:
        parts = [f"{self.msg_type.name}-{code_str(self.code)}", f"mid={self.mid}"]
        if self.token:
            parts.append(f"tok={self.token.hex()}")
        if self.options.uri_path:
            parts.append(f"uri={self.options.path_str()}")
        if self.options.observe is not None:
            parts.append(f"obs={self.options.observe}")
        if self.options.block1 is not None:
            b = self.options.block1
            parts.append(f"blk1={b.num}/{int(b.more)}/{b.size}")
        if self.payload:
            parts.append(f"len={len(self.payload)}")
        return " ".join(parts)


class InteractionKind(Enum):
    PUT_REQUEST = "PutRequest"
    OBSERVE_REGISTER = "ObserveRegister"
    OBSERVE_DEREGISTER = "ObserveDeregister"
    BINDING_REQUEST = "BindingRequest"
    DEPLOY_BLOCK = "DeployBlock"
    NOTIFICATION = "Notification"
    RESET_SIGNAL = "ResetSignal"
    ACK_SIGNAL = "AckSignal"
    OTHER = "Other"


def _uint_bytes(value: int) -> bytes:
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _uint_value(data: bytes, max_len: int, what: str) -> int:
    if len(data) > max_len:
        raise MalformedFrame(f"{what} option longer than {max_len} bytes")
    return int.from_bytes(data, "big")


def _validate(msg: CoapMessage) -> None:
    if not 0 <= msg.mid <= 0xFFFF:
        raise InvariantViolation(f"mid out of range: {msg.mid}")
    if len(msg.token) > 8:
        raise InvariantViolation(f"token longer than 8 bytes: {len(msg.token)}")
    if not code_valid(msg.code):
        raise InvariantViolation(f"invalid code 0x{msg.code:02x}")
    o = msg.options
    if msg.code == EMPTY:
        if msg.token or msg.payload or o != OptionSet():
            raise InvariantViolation("EMPTY message must carry no token, options or payload")
        if msg.msg_type is MsgType.NON:
            raise InvariantViolation("NON message must not be EMPTY")
    if msg.msg_type is MsgType.RST and msg.code != EMPTY:
        raise InvariantViolation("RST must be EMPTY")
    if msg.msg_type is MsgType.ACK and msg.code != EMPTY and not is_response(msg.code):
        raise InvariantViolation("ACK must be EMPTY or carry a response code")
    validate_options(o)


def validate_options(o: OptionSet) -> None:
    """Raise InvariantViolation for an option value `encode` cannot carry."""
    if o.observe is not None and not 0 <= o.observe <= OBSERVE_MAX:
        raise InvariantViolation(f"observe value out of range: {o.observe}")
    if o.content_format is not None and not 0 <= o.content_format <= 0xFFFF:
        raise InvariantViolation("content-format out of range")
    if o.max_age is not None and not 0 <= o.max_age <= 0xFFFFFFFF:
        raise InvariantViolation("max-age out of range")
    for seg in o.uri_path + o.uri_query:
        if len(seg.encode("utf-8")) > 255:
            raise InvariantViolation("uri segment longer than 255 bytes")
    if o.block1 is not None:
        b = o.block1
        if b.size not in (16, 32, 64, 128, 256, 512, 1024):
            raise InvariantViolation(f"block1 size not a power of two in 16..1024: {b.size}")
        if not 0 <= b.num <= 0xFFFFF:
            raise InvariantViolation("block1 number out of range")
    if o.binding is not None:
        bi = o.binding
        if not bi.dest_resource:
            raise InvariantViolation("binding dest_resource empty")
        if bi.pmin > bi.pmax:
            raise InvariantViolation("binding pmin > pmax")
        if min(bi.pmin, bi.pmax) < 0 or max(bi.pmin, bi.pmax) > 0xFFFFFFFF:
            raise InvariantViolation("binding interval out of range")


def _wire_options(o: OptionSet) -> list[tuple[int, bytes]]:
    out: list[tuple[int, bytes]] = []
    if o.observe is not None:
        out.append((OPT_OBSERVE, _uint_bytes(o.observe)))
    out.extend((OPT_URI_PATH, seg.encode("utf-8")) for seg in o.uri_path)
    if o.content_format is not None:
        out.append((OPT_CONTENT_FORMAT, _uint_bytes(o.content_format)))
    if o.max_age is not None:
        out.append((OPT_MAX_AGE, _uint_bytes(o.max_age)))
    out.extend((OPT_URI_QUERY, seg.encode("utf-8")) for seg in o.uri_query)
    if o.block1 is not None:
        b = o.block1
        szx = b.size.bit_length() - 5
        out.append((OPT_BLOCK1, _uint_bytes((b.num << 4) | (int(b.more) << 3) | szx)))
    if o.binding is not None:
        bi = o.binding
        out.append((OPT_BIND_DEST_ADDR, bi.dest_addr.encode("utf-8")))
        out.append((OPT_BIND_DEST_RESOURCE, bi.dest_resource.encode("utf-8")))
        out.append((OPT_BIND_PMIN, _uint_bytes(bi.pmin)))
        out.append((OPT_BIND_PMAX, _uint_bytes(bi.pmax)))
    out.extend(o.extra)
    out.sort(key=lambda pair: pair[0])  # stable: repeated numbers keep order
    return out


def _nibble(value: int) -> tuple[int, bytes]:
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    return 14, (value - 269).to_bytes(2, "big")


def encode(msg: CoapMessage) -> bytes:
    """Serialize a message to RFC 7252 wire format (version 1)."""
    _validate(msg)
    buf = bytearray()
    buf.append((COAP_VERSION << 6) | (msg.msg_type << 4) | len(msg.token))
    buf.append(msg.code)
    buf += msg.mid.to_bytes(2, "big")
    buf += msg.token
    prev = 0
    for number, value in _wire_options(msg.options):
        if len(value) > 65535 + 269:
            raise InvariantViolation("option value too long")
        dn, dx = _nibble(number - prev)
        ln, lx = _nibble(len(value))
        buf.append((dn << 4) | ln)
        buf += dx + lx + value
        prev = number
    if msg.payload:
        buf.append(0xFF)
        buf += msg.payload
    return bytes(buf)


def _ext(nibble: int, data: bytes, i: int) -> tuple[int, int]:
    if nibble < 13:
        return nibble, i
    if nibble == 13:
        if i >= len(data):
            raise MalformedFrame("truncated extended option field")
        return 13 + data[i], i + 1
    if nibble == 14:
        if i + 2 > len(data):
            raise MalformedFrame("truncated extended option field")
        return 269 + int.from_bytes(data[i:i + 2], "big"), i + 2
    raise MalformedFrame("reserved option nibble 15")


def _text(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"{what} option is not valid UTF-8") from exc


def _fold_options(raw: list[tuple[int, bytes]]) -> OptionSet:
    path: list[str] = []
    query: list[str] = []
    extra: list[tuple[int, bytes]] = []
    singles: dict[int, bytes] = {}
    for number, value in raw:
        if number in _URI_OPTS:
            (path if number == OPT_URI_PATH else query).append(_text(value, "uri"))
        elif number in _SINGLE_OPTS:
            if number in singles:
                raise MalformedFrame(f"repeated non-repeatable option {number}")
            singles[number] = value
        else:
            extra.append((number, value))

    observe = block1 = max_age = content_format = None
    if OPT_OBSERVE in singles:
        observe = _uint_value(singles[OPT_OBSERVE], 3, "observe")
    if OPT_CONTENT_FORMAT in singles:
        content_format = _uint_value(singles[OPT_CONTENT_FORMAT], 2, "content-format")
    if OPT_MAX_AGE in singles:
        max_age = _uint_value(singles[OPT_MAX_AGE], 4, "max-age")
    if OPT_BLOCK1 in singles:
        v = _uint_value(singles[OPT_BLOCK1], 3, "block1")
        szx = v & 0x7
        if szx == 7:
            raise MalformedFrame("block1 SZX 7 is reserved")
        block1 = Block1(num=v >> 4, more=bool(v & 0x8), size=16 << szx)

    binding = None
    if not _BINDING_OPTS.isdisjoint(singles):
        if OPT_BIND_DEST_ADDR not in singles or OPT_BIND_DEST_RESOURCE not in singles:
            raise MalformedFrame("binding options present but destination incomplete")
        binding = BindingInfo(
            dest_addr=_text(singles[OPT_BIND_DEST_ADDR], "binding dest"),
            dest_resource=_text(singles[OPT_BIND_DEST_RESOURCE], "binding resource"),
            pmin=_uint_value(singles.get(OPT_BIND_PMIN, b""), 4, "pmin"),
            pmax=_uint_value(singles.get(OPT_BIND_PMAX, b"\x01\x51\x80"), 4, "pmax"),
        )
        if not binding.dest_resource:
            raise MalformedFrame("binding dest_resource empty")
        if binding.pmin > binding.pmax:
            raise MalformedFrame("binding pmin > pmax")

    return OptionSet(
        uri_path=tuple(path),
        uri_query=tuple(query),
        observe=observe,
        block1=block1,
        max_age=max_age,
        content_format=content_format,
        binding=binding,
        extra=tuple(extra),
    )


_NO_OPTIONS = OptionSet()  # immutable, so every option-less message can share it


def decode(data: bytes) -> CoapMessage:
    """Parse wire bytes into a message, raising MalformedFrame on any
    framing violation.  decode(encode(m)) == m for every valid m."""
    if len(data) < 4:
        raise MalformedFrame(f"frame shorter than minimum header: {len(data)} bytes")
    b0 = data[0]
    if b0 >> 6 != COAP_VERSION:
        raise MalformedFrame(f"unsupported version {b0 >> 6}")
    msg_type = _MSG_TYPES[(b0 >> 4) & 0x3]
    tkl = b0 & 0xF
    if tkl > 8:
        raise MalformedFrame(f"token length {tkl} reserved")
    code = data[1]
    if not code_valid(code):
        raise MalformedFrame(f"invalid code 0x{code:02x}")
    mid = int.from_bytes(data[2:4], "big")
    if len(data) < 4 + tkl:
        raise MalformedFrame("truncated token")
    token = data[4:4 + tkl]

    i = 4 + tkl
    number = 0
    raw: list[tuple[int, bytes]] = []
    payload = b""
    while i < len(data):
        b = data[i]
        i += 1
        if b == 0xFF:
            if i == len(data):
                raise MalformedFrame("payload marker with empty payload")
            payload = data[i:]
            break
        delta, i = _ext(b >> 4, data, i)
        length, i = _ext(b & 0xF, data, i)
        number += delta
        if i + length > len(data):
            raise MalformedFrame("truncated option value")
        raw.append((number, data[i:i + length]))
        i += length

    options = _fold_options(raw) if raw else _NO_OPTIONS

    if code == EMPTY:
        if tkl or raw or payload:
            raise MalformedFrame("EMPTY message with token, options or payload")
        if msg_type is MsgType.NON:
            raise MalformedFrame("EMPTY NON message")
    if msg_type is MsgType.RST and code != EMPTY:
        raise MalformedFrame("RST with non-EMPTY code")
    if msg_type is MsgType.ACK and code != EMPTY and not is_response(code):
        raise MalformedFrame("ACK carrying a request code")

    return CoapMessage(msg_type=msg_type, code=code, mid=mid, token=token,
                       options=options, payload=payload)


def classify(msg: CoapMessage) -> InteractionKind:
    """Map a decoded message to the interaction kind the gateway acts on.

    Total and deterministic; anything without dynamic-state relevance
    falls through to OTHER.  A GET carrying both observe and binding
    options is always a BindingRequest, never an ObserveRegister.
    """
    if msg.msg_type is MsgType.RST:
        return InteractionKind.RESET_SIGNAL
    if msg.code == EMPTY:
        if msg.msg_type is MsgType.ACK:
            return InteractionKind.ACK_SIGNAL
        return InteractionKind.OTHER
    o = msg.options
    if msg.code == GET:
        if o.observe is not None and o.binding is not None:
            return InteractionKind.BINDING_REQUEST
        if o.observe == OBSERVE_DEREGISTER_VALUE:
            return InteractionKind.OBSERVE_DEREGISTER
        if o.observe is not None:
            return InteractionKind.OBSERVE_REGISTER
        return InteractionKind.OTHER
    if msg.code in (PUT, POST) and o.block1 is not None:
        return InteractionKind.DEPLOY_BLOCK
    if msg.code == PUT:
        return InteractionKind.PUT_REQUEST
    if is_response(msg.code) and o.observe is not None:
        return InteractionKind.NOTIFICATION
    return InteractionKind.OTHER


def registration_request(mid: int) -> CoapMessage:
    """Confirmable boot announcement a node sends to the gateway; the
    node address travels implicitly as the frame source."""
    return CoapMessage(
        msg_type=MsgType.CON,
        code=POST,
        mid=mid,
        options=OptionSet(uri_path=tuple(REGISTRATION_PATH.split("/"))),
    )


def empty_ack(mid: int) -> CoapMessage:
    return CoapMessage(msg_type=MsgType.ACK, code=EMPTY, mid=mid)


def reset_for(mid: int) -> CoapMessage:
    return CoapMessage(msg_type=MsgType.RST, code=EMPTY, mid=mid)


class MidAllocator:
    """Per-endpoint message-id counter seeded from the scenario RNG, so a
    reboot visibly re-initializes the MID space."""

    def __init__(self, rng) -> None:
        self._next = rng.randrange(0x10000)
        self.first = self._next

    def next_mid(self) -> int:
        value = self._next
        self._next = (value + 1) & 0xFFFF
        return value


_DECODE = object()


def summarize(raw: bytes, msg=_DECODE) -> str:
    """Best-effort one-line description of a frame; never raises.

    `msg` is a parse of `raw` the caller already holds, or None when `raw`
    is known to be malformed; without it `raw` is decoded here."""
    if msg is _DECODE:
        try:
            msg = decode(raw)
        except MalformedFrame:
            msg = None
    return f"malformed[{len(raw)}B]" if msg is None else msg.short()
