"""CoAP message model and wire codec.

Implements the RFC 7252 subset this project needs (base header, token,
delta-encoded options, payload marker) plus Observe (RFC 7641), Block1
(RFC 7959) and four experimental-range options carrying binding
descriptors.  Messages are immutable values; encode/decode are pure
functions, safe to call from any thread.  Each message rule is stated
once, in the checks `encode` runs, so that it accepts a message exactly
when `decode(encode(m)) == m`.  `decode` ends in the same checks: it
accepts exactly the frames whose message `encode` can send again.

A run sees few distinct option blocks, so each distinct one is encoded
and parsed once, through two bounded `functools.lru_cache`s:
`_option_entry` by the option set's value, `_option_set` by its bytes.
The miss paths are the only encoder and parser, and no cache changes an
output: a value equal to a cached key gives the same bytes or message as
a cold call.  So the miss paths read option numbers as the ints they
equal (`True` as 1) and Block1 descriptors by position, since a
`NamedTuple` equals a plain tuple of the same fields.  Failures are never
cached, and an option set whose hash raises (an unhashable value, or a
writable `memoryview`) is no cache key: `_option_lookup`, where `encode`,
`parse_encoded`, `request` and `response_options` look a set up, sends
such a set through the miss path alone, whose checks reject every value
of the wrong shape with InvariantViolation.  Every parse takes
its `OptionSet` from `_option_entry`, so the parses of equal option sets
hold one object, whichever cache evicted what.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import IntEnum
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
# Module-level names for the members the codec tests on every frame: a
# global read, not an enum member read (about 4x the cost).
_CON, _NON, _ACK, _RST = _MSG_TYPES
_TYPE_NAMES = tuple(t.name for t in MsgType)

# Distinct option blocks each codec cache holds.  A benchmark run sees at
# most a few dozen; beyond the size the least recently used are dropped.
OPTION_CACHE_SIZE = 256


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


# The methods (class 0, detail 1-31), the responses (classes 2, 4 and 5)
# and with them EMPTY: sets, so that `encode` tests a code without a call.
_REQUEST_CODES = frozenset(range(1, 32))
_RESPONSE_CODES = frozenset(cls << 5 | detail for cls in (2, 4, 5) for detail in range(32))
_VALID_CODES = _REQUEST_CODES | _RESPONSE_CODES | {EMPTY}


def is_request(code: int) -> bool:
    return code in _REQUEST_CODES


def is_response(code: int) -> bool:
    return code in _RESPONSE_CODES


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


class OptionSet(NamedTuple):
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


_NO_OPTIONS = OptionSet()  # immutable, so every option-less message can share it


class CoapMessage(NamedTuple):
    msg_type: MsgType
    code: int
    mid: int
    token: bytes = b""
    options: OptionSet = _NO_OPTIONS
    payload: bytes = b""

    def short(self) -> str:
        """One line of text; equal messages give the same text (`True` as 1)."""
        uri_path, _, observe, block1, *_ = self.options
        text = f"{_TYPE_NAMES[self.msg_type]}-{code_str(self.code)} mid={self.mid}"
        if self.token:
            text += f" tok={self.token.hex()}"
        if uri_path:
            text += " uri=" + "/".join(uri_path)
        if observe is not None:
            text += f" obs={int(observe)}"
        if block1 is not None:
            num, more, size = block1
            text += f" blk1={int(num)}/{int(more)}/{int(size)}"
        if self.payload:
            text += f" len={len(self.payload)}"
        return text


def _uint(value, what: str, top: Optional[int] = None) -> int:
    """`value` as an int in [0, top], else InvariantViolation.  A value of
    another type that equals such an int passes as that int (`True` as 1,
    `1.0` as 1), so equal option sets encode alike."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = -1
    if number != value or number < 0 or (top is not None and number > top):
        raise InvariantViolation(f"{what} out of range: {value}")
    return number


def _uint_bytes(value: int) -> bytes:
    value = int(value)
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _uint_value(data: bytes, max_len: int, what: str) -> int:
    if len(data) > max_len:
        raise MalformedFrame(f"{what} option longer than {max_len} bytes")
    return int.from_bytes(data, "big")


# Each field's exact type, as `decode` gives it, in the order `_validate`
# names a wrong one; an option set of other sequences is no cache key.
_FIELD_TYPES = tuple((name, operator.attrgetter(name), kind) for name, kind in (
    ("msg_type", MsgType), ("code", int), ("mid", int), ("token", bytes),
    ("options", OptionSet), ("options.uri_path", tuple), ("options.uri_query", tuple),
    ("options.extra", tuple), ("payload", bytes)))


def _validate(msg: CoapMessage) -> None:
    msg_type, code, mid, token, options, payload = msg
    if not (type(msg_type) is MsgType and type(code) is type(mid) is int
            and type(token) is type(payload) is bytes and type(options) is OptionSet
            and type(options[0]) is type(options[1]) is type(options[7]) is tuple):
        for name, field, kind in _FIELD_TYPES:
            if type(field(msg)) is not kind:
                raise InvariantViolation(f"{name} not {kind.__name__}: {field(msg)!r}")
    if not 0 <= mid <= 0xFFFF:
        raise InvariantViolation(f"mid out of range: {mid}")
    if len(token) > 8:
        raise InvariantViolation(f"token longer than 8 bytes: {len(token)}")
    if code not in _VALID_CODES:
        raise InvariantViolation(f"invalid code 0x{code:02x}")
    if code != EMPTY and (msg_type is _CON or msg_type is _NON):
        return  # a CON or NON request or response: no rule below applies
    if code == EMPTY:
        if token or payload or (options is not _NO_OPTIONS and options != _NO_OPTIONS):
            raise InvariantViolation("EMPTY message must carry no token, options or payload")
        if msg_type is _NON:
            raise InvariantViolation("NON message must not be EMPTY")
    if msg_type is _RST and code != EMPTY:
        raise InvariantViolation("RST must be EMPTY")
    if msg_type is _ACK and code != EMPTY and code not in _RESPONSE_CODES:
        raise InvariantViolation("ACK must be EMPTY or carry a response code")


def _utf8(text, what: str) -> bytes:
    """`text`, a `str` without a lone surrogate, in UTF-8."""
    if isinstance(text, str):
        try:
            return text.encode("utf-8")
        except UnicodeEncodeError:
            pass
    raise InvariantViolation(f"{what} not UTF-8 text: {text!r}")


def validate_options(o: OptionSet) -> None:
    """Raise InvariantViolation for an option value `encode` cannot carry,
    of any shape or type: it raises nothing else."""
    uri_path, uri_query, observe, block1, max_age, content_format, binding, extra = o
    if not (isinstance(uri_path, tuple) and isinstance(uri_query, tuple)
            and isinstance(extra, tuple)):
        raise InvariantViolation(f"uri path, uri query or extra options not a tuple: {o}")
    if observe is not None:
        _uint(observe, "observe value", OBSERVE_MAX)
    if content_format is not None:
        _uint(content_format, "content-format", 0xFFFF)
    if max_age is not None:
        _uint(max_age, "max-age", 0xFFFFFFFF)
    for seg in uri_path + uri_query:
        if len(_utf8(seg, "uri segment")) > 255:
            raise InvariantViolation("uri segment longer than 255 bytes")
    if block1 is not None:
        if not (isinstance(block1, tuple) and len(block1) == 3):
            raise InvariantViolation(f"block1 not a (num, more, size) tuple: {block1!r}")
        num, more, size = block1
        if size not in (16, 32, 64, 128, 256, 512, 1024):
            raise InvariantViolation(f"block1 size not a power of two in 16..1024: {size}")
        _uint(num, "block1 number", 0xFFFFF)
        _uint(more, "block1 more flag", 1)
    if binding is not None:
        if not isinstance(binding, BindingInfo):
            raise InvariantViolation(f"binding not a BindingInfo: {binding!r}")
        _utf8(binding.dest_addr, "binding dest_addr")
        if not _utf8(binding.dest_resource, "binding dest_resource"):
            raise InvariantViolation("binding dest_resource empty")
        if (_uint(binding.pmin, "binding interval", 0xFFFFFFFF)
                > _uint(binding.pmax, "binding interval", 0xFFFFFFFF)):
            raise InvariantViolation("binding pmin > pmax")
    for entry in extra:
        # A value equal to bytes, such as a `memoryview` of them, shares their cache entry.
        if not (isinstance(entry, tuple) and len(entry) == 2
                and isinstance(entry[1], (bytes, memoryview))):
            raise InvariantViolation(f"extra option not a (number, bytes) pair: {entry!r}")
        _uint(entry[0], "option number")


def _wire_options(o: OptionSet) -> list[tuple[int, bytes]]:
    # Only for options that passed validate_options.
    uri_path, uri_query, observe, block1, max_age, content_format, binding, extra = o
    out: list[tuple[int, bytes]] = []
    if observe is not None:
        out.append((OPT_OBSERVE, _uint_bytes(observe)))
    out.extend((OPT_URI_PATH, seg.encode("utf-8")) for seg in uri_path)
    if content_format is not None:
        out.append((OPT_CONTENT_FORMAT, _uint_bytes(content_format)))
    if max_age is not None:
        out.append((OPT_MAX_AGE, _uint_bytes(max_age)))
    out.extend((OPT_URI_QUERY, seg.encode("utf-8")) for seg in uri_query)
    if block1 is not None:
        num, more, size = block1
        szx = int(size).bit_length() - 5
        out.append((OPT_BLOCK1, _uint_bytes((int(num) << 4) | (int(more) << 3) | szx)))
    if binding is not None:
        out.append((OPT_BIND_DEST_ADDR, binding.dest_addr.encode("utf-8")))
        out.append((OPT_BIND_DEST_RESOURCE, binding.dest_resource.encode("utf-8")))
        out.append((OPT_BIND_PMIN, _uint_bytes(binding.pmin)))
        out.append((OPT_BIND_PMAX, _uint_bytes(binding.pmax)))
    if extra:
        # The known options above are already in ascending order.
        out.extend((int(number), value) for number, value in extra)
        out.sort(key=lambda pair: pair[0])  # stable: repeated numbers keep order
    return out


def _nibble(value: int) -> tuple[int, bytes]:
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    return 14, (value - 269).to_bytes(2, "big")


@functools.lru_cache(maxsize=OPTION_CACHE_SIZE)
def _option_entry(o: OptionSet) -> tuple[bytes, OptionSet]:
    """The options of `o` in wire format and the `OptionSet` that every
    parse of options equal to `o` holds: the parse of those bytes, equal to
    `o`.  It raises InvariantViolation for options that validate_options
    rejects or whose bytes do not parse back to `o`, such as an `extra`
    option with a known number or `extra` options out of ascending order."""
    validate_options(o)
    buf = bytearray()
    prev = 0
    for number, value in _wire_options(o):
        if len(value) > 65535 + 269:
            raise InvariantViolation("option value too long")
        dn, dx = _nibble(number - prev)
        ln, lx = _nibble(len(value))
        buf.append((dn << 4) | ln)
        buf += dx + lx + value
        prev = number
    block = bytes(buf)
    try:
        parsed = _option_set(block) if block else _NO_OPTIONS
    except (MalformedFrame, InvariantViolation) as exc:
        raise InvariantViolation(f"options do not decode: {exc}") from None
    if parsed != o:
        raise InvariantViolation(f"options decode as other values: {parsed}")
    return block, parsed


def _option_lookup(o: OptionSet) -> tuple[bytes, OptionSet]:
    """`_option_entry(o)`, through the miss path alone when `o` is no cache
    key: its hash raises TypeError for an unhashable value and ValueError
    for a writable `memoryview`."""
    try:
        return _option_entry(o)
    except (TypeError, ValueError):
        return _option_entry.__wrapped__(o)


def encode(msg: CoapMessage) -> bytes:
    """Serialize a message to RFC 7252 wire format (version 1), if and only
    if `decode(encode(msg)) == msg`; raise InvariantViolation otherwise."""
    _validate(msg)
    msg_type, code, mid, token, options, payload = msg
    head = bytes(((COAP_VERSION << 6) | (msg_type << 4) | len(token), code, mid >> 8, mid & 0xFF))
    block = _option_lookup(options)[0]
    if payload:
        return b"".join((head, token, block, b"\xff", payload))
    return b"".join((head, token, block))


def _ext(nibble: int, data: bytes, i: int) -> tuple[int, int]:
    # Only for a nibble of 13 or more: its value from the extended bytes.
    if nibble == 13:
        if i >= len(data):
            raise MalformedFrame("truncated extended option field")
        return 13 + data[i], i + 1
    if nibble == 14:
        if i + 2 > len(data):
            raise MalformedFrame("truncated extended option field")
        return 269 + int.from_bytes(data[i:i + 2], "big"), i + 2
    raise MalformedFrame("reserved option nibble 15")


def _walk_options(data: bytes, i: int, raw: Optional[list] = None) -> int:
    """Check the option headers from `data[i]` on and return where the
    options end: at the payload marker or the end of `data`.  Each
    (number, value) is appended to `raw` when it is given."""
    number = 0
    end = len(data)
    while i < end:
        b = data[i]
        if b == 0xFF:
            return i
        i += 1
        delta, length = b >> 4, b & 0xF
        if delta >= 13:
            delta, i = _ext(delta, data, i)
        if length >= 13:
            length, i = _ext(length, data, i)
        if i + length > end:
            raise MalformedFrame("truncated option value")
        if raw is not None:
            number += delta
            raw.append((number, data[i:i + length]))
        i += length
    return i


def _text(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"{what} option is not valid UTF-8") from exc


@functools.lru_cache(maxsize=OPTION_CACHE_SIZE)
def _option_set(block: bytes) -> OptionSet:
    """The options in a block of option bytes that `_walk_options` passed,
    checked by validate_options.  A parse holds not this set but the
    `_option_entry` of its value."""
    raw: list[tuple[int, bytes]] = []
    _walk_options(block, 0, raw)
    options = _fold_options(raw)
    validate_options(options)
    return options


# Every cache of the codec, for a reader that needs them cold.
OPTION_CACHES = (_option_entry, _option_set)


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

    return OptionSet(tuple(path), tuple(query), observe, block1, max_age, content_format,
                     binding, tuple(extra))


def decode(data: bytes) -> CoapMessage:
    """Parse wire bytes into a message, raising MalformedFrame on any
    framing violation and on a message that breaks a rule `encode` checks,
    so encode(decode(b)) never raises, and decode(encode(m)) == m for every
    m that `encode` accepts."""
    if type(data) is not bytes:
        data = bytes(data)  # so that the option block is hashable
    if len(data) < 4:
        raise MalformedFrame(f"frame shorter than minimum header: {len(data)} bytes")
    b0 = data[0]
    if b0 >> 6 != COAP_VERSION:
        raise MalformedFrame(f"unsupported version {b0 >> 6}")
    start = 4 + (b0 & 0xF)
    if len(data) < start:
        raise MalformedFrame("truncated token")

    end = _walk_options(data, start)
    payload = b""
    if end < len(data):
        if end + 1 == len(data):
            raise MalformedFrame("payload marker with empty payload")
        payload = data[end + 1:]
    try:
        options = (_option_entry(_option_set(data[start:end]))[1] if end > start
                   else _NO_OPTIONS)
        msg = CoapMessage(_MSG_TYPES[(b0 >> 4) & 0x3], data[1], (data[2] << 8) | data[3],
                          data[4:start], options, payload)
        _validate(msg)
    except InvariantViolation as exc:
        raise MalformedFrame(str(exc)) from exc
    return msg


def parse_encoded(msg: CoapMessage) -> CoapMessage:
    """`decode(encode(msg))`, made without the bytes; it raises what
    `encode(msg)` raises.  The parse holds the `OptionSet` `decode` would:
    it is `msg` itself when `msg` holds that very set (`_NO_OPTIONS`, or the
    set `_option_entry` caches, as `request` gives), else `msg` with that
    set, made without the NamedTuple's Python-level `__new__`."""
    _validate(msg)
    msg_type, code, mid, token, options, payload = msg
    if options is _NO_OPTIONS:
        return msg
    canonical = _option_lookup(options)[1]
    if canonical is options:
        return msg
    return tuple.__new__(CoapMessage, (msg_type, code, mid, token, canonical, payload))


def request(msg_type: MsgType, code: int, mid: int, path: str, *, token: bytes = b"",
            payload: bytes = b"", uri_query=(), observe=None, block1=None, max_age=None,
            content_format=None, binding=None, extra=()) -> CoapMessage:
    """A request for `path`, the one place a path becomes Uri-Path options:
    one per segment, none for the empty path (RFC 7252 section 6.4).  It
    holds the option set `_option_entry` caches, so it is its own parse,
    and options `encode` cannot carry raise InvariantViolation here."""
    uri_path = tuple(path.split("/")) if path else ()
    options = tuple.__new__(OptionSet, (
        uri_path, uri_query, observe, block1, max_age, content_format, binding, extra))
    options = _option_lookup(options)[1]
    return tuple.__new__(CoapMessage, (msg_type, code, mid, token, options, payload))


def registration_request(mid: int) -> CoapMessage:
    """Confirmable boot announcement a node sends to the gateway; the
    node address travels implicitly as the frame source."""
    return request(_CON, POST, mid, REGISTRATION_PATH)


def next_observe(value: int) -> int:
    """The Observe value after `value`, modulo 2^24 (RFC 7641 section 4.4).
    It skips 1, the deregister value, so that a replayed registration that
    carries it never reads as a cancellation (gaps are legal)."""
    value = (value + 1) & OBSERVE_MAX
    return 2 if value == OBSERVE_DEREGISTER_VALUE else value


def response_options(observe=None, max_age=None, block1=None) -> OptionSet:
    """The options of a response, as the set `_option_entry` caches, looked
    up without the NamedTuple's Python-level keyword `__new__`."""
    options = tuple.__new__(OptionSet, ((), (), observe, block1, max_age, None, None, ()))
    return _option_lookup(options)[1]


def empty_ack(mid: int) -> CoapMessage:
    return tuple.__new__(CoapMessage, (_ACK, EMPTY, mid, b"", _NO_OPTIONS, b""))


def reset_for(mid: int) -> CoapMessage:
    return CoapMessage(msg_type=MsgType.RST, code=EMPTY, mid=mid)


class MidAllocator:
    """Per-endpoint message-id counter seeded from the scenario RNG, so a
    reboot visibly re-initializes the MID space."""

    def __init__(self, rng) -> None:
        self._next = rng.randrange(0x10000)

    def next_mid(self) -> int:
        value = self._next
        self._next = (value + 1) & 0xFFFF
        return value


def summarize(raw: bytes) -> str:
    """Best-effort one-line description of a frame; never raises."""
    try:
        return decode(raw).short()
    except MalformedFrame:
        return f"malformed[{len(raw)}B]"
