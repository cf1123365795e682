import dataclasses
import random
import re

import pytest

from msggen import random_message
from sdgateway import coap
from sdgateway.coap import (
    CHANGED,
    CONTENT,
    EMPTY,
    GET,
    POST,
    PUT,
    BindingInfo,
    Block1,
    CoapMessage,
    Endpoint,
    InteractionKind,
    InvariantViolation,
    MalformedFrame,
    MidAllocator,
    MsgType,
    OptionSet,
    classify,
    decode,
    encode,
    next_observe,
    registration_request,
    request,
    summarize,
)
from sdgateway.lln import Frame


def test_empty_ack_is_minimal_four_byte_frame():
    frame = encode(CoapMessage(MsgType.ACK, EMPTY, mid=12855))
    assert frame == bytes([0x60, 0x00, 0x32, 0x37])
    assert len(frame) == 4


def test_observe_get_roundtrips_byte_identically():
    msg = CoapMessage(MsgType.CON, GET, mid=55541, token=bytes.fromhex("0b2a"),
                      options=OptionSet(uri_path=("gpio", "btn"), observe=0))
    frame = encode(msg)
    again = decode(frame)
    assert again == msg and decode(bytearray(frame)) == msg
    assert encode(again) == frame


def _naive_option_walk(frame):
    # Independent minimal dissector: header, token, then raw option list.
    tkl = frame[0] & 0xF
    i = 4 + tkl
    number = 0
    options = []
    while i < len(frame):
        b = frame[i]
        i += 1
        if b == 0xFF:
            break
        delta, length = b >> 4, b & 0xF
        if delta == 13:
            delta = 13 + frame[i]; i += 1
        elif delta == 14:
            delta = 269 + int.from_bytes(frame[i:i + 2], "big"); i += 2
        if length == 13:
            length = 13 + frame[i]; i += 1
        elif length == 14:
            length = 269 + int.from_bytes(frame[i:i + 2], "big"); i += 2
        number += delta
        options.append((number, frame[i:i + length]))
        i += length
    return options


def test_notification_frame_readable_by_independent_dissector():
    msg = CoapMessage(MsgType.CON, CONTENT, mid=12855, token=bytes.fromhex("0b2a"),
                      options=OptionSet(observe=10, max_age=60), payload=b"24")
    frame = encode(msg)
    options = dict(_naive_option_walk(frame))
    assert options[6] == bytes([10])      # Observe: 10
    assert options[14] == bytes([60])     # Max-Age: 60
    assert decode(frame) == msg


def test_roundtrip_randomized_messages():
    rng = random.Random(0xC0A9)
    for _ in range(2000):
        msg = random_message(rng)
        assert decode(encode(msg)) == msg


def test_reencode_is_byte_stable():
    rng = random.Random(17)
    for _ in range(500):
        frame = encode(random_message(rng))
        assert encode(decode(frame)) == frame


def test_unknown_elective_option_preserved_opaquely():
    # Hand-built frame with option 65000 (delta nibble 14, two ext bytes).
    ext = (65000 - 269).to_bytes(2, "big")
    frame = bytes([0x40, 0x01, 0x00, 0x01, 0xE2]) + ext + b"\xab\xcd"
    msg = decode(frame)
    assert msg.options.extra == ((65000, b"\xab\xcd"),)
    assert encode(msg) == frame


@pytest.mark.parametrize("data", [
    b"", b"\x40", b"\x40\x01\x00",                    # below minimum header
    bytes([0x80, 0x01, 0x00, 0x01]),                  # version 2
    bytes([0x49, 0x01, 0x00, 0x01]) + b"x" * 9,       # TKL 9
    bytes([0x42, 0x01, 0x00, 0x01, 0x41]),            # truncated token
    bytes([0x40, 0x01, 0x00, 0x01, 0x11]),            # truncated option value
    bytes([0x40, 0x01, 0x00, 0x01, 0xD1]),            # truncated extended delta
    bytes([0x40, 0x01, 0x00, 0x01, 0xFF]),            # payload marker, no payload
    bytes([0x40, 0x01, 0x00, 0x01, 0xF1, 0x00]),      # reserved delta nibble 15
    bytes([0x40, 0x25, 0x00, 0x01]),                  # reserved code class 1
    bytes([0x60, 0x01, 0x00, 0x01]),                  # ACK carrying a request code
    bytes([0x70, 0x45, 0x00, 0x01]),                  # RST with non-empty code
    bytes([0x50, 0x00, 0x00, 0x01]),                  # EMPTY NON
    pytest.param(bytes([0x40, 0x03, 0x00, 0x01, 0xBD, 243]) + b"p" * 256,
                 id="uri-path-256B"),                 # a segment encode refuses
    pytest.param(bytes([0x40, 0x03, 0x00, 0x01, 0xDD, 2, 243]) + b"q" * 256,
                 id="uri-query-256B"),
])
def test_decode_rejects_malformed(data):
    with pytest.raises(MalformedFrame):
        decode(data)


def test_decoder_survives_random_bytes():
    # Whatever decode accepts, encode can send again.
    rng = random.Random(99)
    frames = [rng.randbytes(rng.randint(0, 64)) for _ in range(2000)]
    for _ in range(2000):  # valid frames with one byte changed
        data = bytearray(encode(random_message(rng)))
        data[rng.randrange(len(data))] = rng.randrange(256)
        frames.append(bytes(data))
    for data in frames:
        try:
            msg = decode(data)
        except MalformedFrame:
            continue
        assert isinstance(msg, CoapMessage)
        assert decode(encode(msg)) == msg


# Option values that equal no value `encode` can carry, of types it does not
# expect.  Each raises InvariantViolation, and the cache tests meet them.
BAD_OPTIONS = [
    OptionSet(observe=0, binding=BindingInfo("aaaa::2", "led", pmin=None)),
    OptionSet(observe=0, binding=BindingInfo("aaaa::2", "led", pmin="x")),
    OptionSet(observe=0, binding=BindingInfo(None, "led")),
    OptionSet(observe=0, binding=BindingInfo("\ud800", "led")),
    OptionSet(uri_path=(5,)),
    OptionSet(uri_path=("a", "\ud800")),
    OptionSet(uri_query=("k=\udfff",)),
    OptionSet(uri_path=["a"]),
    OptionSet(extra=((60, b"x", b"y"),)),
    OptionSet(extra=((60, "x"),)),
]

# Option values of the wrong shape: unhashable, so no cache key, or
# hashable but not read by position as `encode` reads them.  Each raises
# InvariantViolation, from the cache lookup as from the miss path.
WRONG_SHAPES = [
    {"uri_path": (["a"],)},
    {"observe": [1]},
    {"block1": [0, False, 64]},
    {"extra": ((60, bytearray(b"x")),)},
    {"block1": (0, False)},
    {"observe": 0, "binding": "aaaa::2 led"},
    {"uri_query": ["a"]},
]
BAD_OPTIONS += [OptionSet(**fields) for fields in WRONG_SHAPES]


@pytest.mark.parametrize("msg", [
    CoapMessage(MsgType.CON, GET, 1, token=b"123456789"),
    CoapMessage(MsgType.CON, GET, 1, options=OptionSet(observe=0x1000000)),
    CoapMessage(MsgType.CON, EMPTY, 1, payload=b"x"),
    CoapMessage(MsgType.NON, EMPTY, 1),
    CoapMessage(MsgType.RST, CONTENT, 1),
    CoapMessage(MsgType.ACK, GET, 1),
    CoapMessage(MsgType.CON, PUT, 1, options=OptionSet(block1=Block1(0, False, 24))),
    CoapMessage(MsgType.CON, GET, 1, options=OptionSet(
        observe=0, binding=BindingInfo("aaaa::2", "led", pmin=10, pmax=5))),
    CoapMessage(MsgType.CON, PUT, 1, options=OptionSet(extra=((2048, bytes(65535 + 270)),))),
] + [CoapMessage(MsgType.CON, PUT, 1, options=o) for o in BAD_OPTIONS])
def test_encode_rejects_invariant_violations(msg):
    with pytest.raises(InvariantViolation):
        encode(msg)


@pytest.mark.parametrize("fields", WRONG_SHAPES, ids=repr)
def test_every_entry_point_rejects_an_option_value_of_the_wrong_shape(fields):
    msg = CoapMessage(MsgType.CON, PUT, 1, options=OptionSet(**fields))
    with pytest.raises(InvariantViolation):
        encode(msg)
    with pytest.raises(InvariantViolation):
        Frame.of(msg, Endpoint("cccc::3"), Endpoint("aaaa::2"))
    with pytest.raises(InvariantViolation):
        coap.validate_options(msg.options)
    if "uri_path" not in fields:  # `request` makes the path itself
        with pytest.raises(InvariantViolation):
            request(MsgType.CON, PUT, 1, "a", **fields)
    if fields.keys() <= {"observe", "block1"}:  # options `response_options` takes
        with pytest.raises(InvariantViolation):
            coap.response_options(**fields)


# Each field's exact type, in the order the type rule is checked.
FIELD_TYPES = [("msg_type", MsgType), ("code", int), ("mid", int), ("token", bytes),
               ("options", OptionSet), ("options.uri_path", tuple),
               ("options.uri_query", tuple), ("options.extra", tuple), ("payload", bytes)]


def _rfc_rule_broken(msg) -> str | None:
    # The type rule, then every header rule `_validate` enforces, each
    # tested in turn with no shortcut, and the message of the first one
    # broken.
    for name, kind in FIELD_TYPES:
        value = msg
        for part in name.split("."):
            value = getattr(value, part)
        if type(value) is not kind:
            return f"{name} not {kind.__name__}: {value!r}"
    if not 0 <= msg.mid <= 0xFFFF:
        return f"mid out of range: {msg.mid}"
    if len(msg.token) > 8:
        return f"token longer than 8 bytes: {len(msg.token)}"
    if msg.code >> 5 not in (0, 2, 4, 5):  # RFC 7252 section 12.1: the other classes are reserved
        return f"invalid code 0x{msg.code:02x}"
    if msg.code == EMPTY and (msg.token or msg.payload or msg.options != coap._NO_OPTIONS):
        return "EMPTY message must carry no token, options or payload"
    if msg.code == EMPTY and msg.msg_type == MsgType.NON:
        return "NON message must not be EMPTY"
    if msg.msg_type == MsgType.RST and msg.code != EMPTY:
        return "RST must be EMPTY"
    if msg.msg_type == MsgType.ACK and msg.code != EMPTY and not coap.is_response(msg.code):
        return "ACK must be EMPTY or carry a response code"
    return None


def test_encode_raises_each_broken_rule():
    # Every field must have the exact type `decode` gives it, checked
    # first: a plain int as a type, a bool or a float equal to a valid
    # value as a code or MID, a `str`, `bytearray` or `memoryview` token or
    # payload, a plain tuple as the options or a list as their path, query
    # or unknown options is named in the error, a falsy one too.  Then `_validate` returns early
    # for a CON or NON message with a request or response code; over header
    # fields on both sides of every rule, the shortcut skips none of them.
    rng = random.Random(0x7E57)
    types = list(MsgType) + [0, 1, 2, 3, 7, -1]
    codes = [EMPTY, GET, 0x04, 0x05, 0x1F, 0x20, CONTENT, 0x5F, 0x60, 0x80, 0xA0, 0xBF, 0xC0, 0xFF]
    msgs = [CoapMessage(7, GET, 1), CoapMessage(-1, GET, 1),
            CoapMessage(3, CONTENT, 1), CoapMessage(2, GET, 1),
            CoapMessage(1.0, GET, 1), CoapMessage(MsgType.NON, 1.0, 1),
            CoapMessage(MsgType.NON, GET, 1.0), CoapMessage(True, GET, 1),
            CoapMessage(MsgType.NON, True, 1), CoapMessage(MsgType.NON, GET, True),
            CoapMessage(MsgType.NON, 1.5, 1), CoapMessage(MsgType.NON, GET, "1"),
            CoapMessage(MsgType.NON, GET, 1, token="ab"),
            CoapMessage(MsgType.NON, GET, 1, payload="ab"),
            CoapMessage(MsgType.NON, GET, 1, token=bytearray(b"ab")),
            CoapMessage(MsgType.NON, GET, 1, payload=bytearray(b"ab")),
            CoapMessage(MsgType.NON, GET, 1, token=memoryview(b"ab")),
            CoapMessage(MsgType.NON, GET, 1, payload=memoryview(b"ab")),
            CoapMessage(MsgType.NON, GET, 1, token=5),
            CoapMessage(MsgType.NON, GET, 1, token=None),
            CoapMessage(MsgType.NON, GET, 1, payload=0),
            CoapMessage(MsgType.NON, GET, 1, payload=""),
            CoapMessage(MsgType.NON, GET, 1, options=tuple(OptionSet(uri_path=("s",)))),
            CoapMessage(MsgType.NON, GET, 1, options=OptionSet(uri_path=["s"])),
            CoapMessage(MsgType.NON, GET, 1, options=OptionSet(uri_query=["k=v"])),
            CoapMessage(MsgType.NON, GET, 1, options=OptionSet(extra=[(60, b"x")]))]
    msgs += [CoapMessage(rng.choice(types), rng.choice(codes),
                         rng.choice([-1, 0, 7, 0xFFFF, 0x10000]),
                         rng.randbytes(rng.choice([0, 1, 8, 9])),
                         rng.choice([coap._NO_OPTIONS, OptionSet(uri_path=("s",))]),
                         rng.choice([b"", b"x"])) for _ in range(3000)]
    checked = raised = 0
    for msg in msgs:
        broken = _rfc_rule_broken(msg)
        if broken is None:
            assert encode(msg)[1] == msg.code
        else:
            with pytest.raises(InvariantViolation) as got:
                encode(msg)
            assert str(got.value) == broken
            raised += 1
        checked += 1
    assert 0 < raised < checked
    assert encode(CoapMessage(MsgType.NON, GET, 1)).hex() == "50010001"


def test_every_method_code_is_a_request_that_roundtrips():
    # RFC 7252 sections 5.8, 5.9 and 12.1: every class-0 code past EMPTY is
    # a method, the four this codec names and those it does not; classes
    # 2, 4 and 5 are responses, and classes 1, 3, 6 and 7 are reserved.
    for code in range(256):
        method, response = code >> 5 == 0 and code != EMPTY, code >> 5 in (2, 4, 5)
        assert (coap.is_request(code), coap.is_response(code)) == (method, response), code
        msg = CoapMessage(MsgType.CON, code, 7, token=b"\x01",
                          options=OptionSet(uri_path=("s",)))
        if method or response:
            assert decode(encode(msg)) == msg
        else:  # EMPTY with a token and options, or a reserved class
            with pytest.raises(InvariantViolation):
                encode(msg)
    with pytest.raises(InvariantViolation):  # class 1 is reserved
        encode(CoapMessage(MsgType.CON, 0x20, 7))


def test_classify_table():
    get = lambda **kw: CoapMessage(MsgType.CON, GET, 7, token=b"\x01", options=OptionSet(**kw))
    binding = BindingInfo("aaaa::9", "a/led", 1, 60)
    cases = [
        (get(uri_path=("gpio", "btn"), observe=0), InteractionKind.OBSERVE_REGISTER),
        (get(uri_path=("s", "t"), observe=1), InteractionKind.OBSERVE_DEREGISTER),
        (get(uri_path=("s", "t"), observe=12), InteractionKind.OBSERVE_REGISTER),
        (get(uri_path=("s", "t")), InteractionKind.OTHER),
        (get(uri_path=("s", "t"), observe=0, binding=binding), InteractionKind.BINDING_REQUEST),
        (CoapMessage(MsgType.CON, PUT, 7, options=OptionSet(uri_path=("a", "lb"))),
         InteractionKind.PUT_REQUEST),
        (CoapMessage(MsgType.CON, PUT, 7,
                     options=OptionSet(uri_path=("ldr",), block1=Block1(0, True, 64))),
         InteractionKind.DEPLOY_BLOCK),
        (CoapMessage(MsgType.CON, POST, 7,
                     options=OptionSet(uri_path=("ldr",), block1=Block1(1, False, 64))),
         InteractionKind.DEPLOY_BLOCK),
        (CoapMessage(MsgType.CON, POST, 7), InteractionKind.OTHER),
        (CoapMessage(MsgType.CON, CONTENT, 7, options=OptionSet(observe=12)),
         InteractionKind.NOTIFICATION),
        (CoapMessage(MsgType.ACK, CONTENT, 7, options=OptionSet(observe=0)),
         InteractionKind.NOTIFICATION),
        (CoapMessage(MsgType.ACK, CHANGED, 7), InteractionKind.OTHER),
        (CoapMessage(MsgType.ACK, EMPTY, 7), InteractionKind.ACK_SIGNAL),
        (CoapMessage(MsgType.RST, EMPTY, 7), InteractionKind.RESET_SIGNAL),
        (CoapMessage(MsgType.CON, EMPTY, 7), InteractionKind.OTHER),
    ]
    for msg, expected in cases:
        assert classify(msg) is expected, msg.short()


def test_classify_is_deterministic_and_prefers_binding():
    rng = random.Random(5)
    for _ in range(500):
        msg = random_message(rng)
        kind = classify(msg)
        assert kind is classify(msg)
        if (msg.code == GET and msg.options.observe is not None
                and msg.options.binding is not None):
            assert kind is InteractionKind.BINDING_REQUEST


def test_registration_request_shape():
    msg = registration_request(mid=4711)
    assert msg.msg_type is MsgType.CON
    assert msg.code == POST
    assert msg.options.uri_path == ("sd", "register")
    assert msg.mid == 4711
    assert decode(encode(msg)) == msg


@pytest.mark.parametrize("msg_type,code,path,fields,wire", [
    (MsgType.CON, PUT, "", {}, "40030001"),
    (MsgType.CON, PUT, "a/b", dict(payload=b"5", content_format=50), "40030001b16101621132ff35"),
    (MsgType.NON, GET, "a//b", {}, "50010001b161000162"),
], ids=["empty", "two-segments", "empty-segment"])
def test_request_makes_one_uri_path_option_per_segment(msg_type, code, path, fields, wire):
    # RFC 7252 section 6.4: the empty path is sent with no Uri-Path option.
    msg = request(msg_type, code, 1, path, **fields)
    assert encode(msg).hex() == wire
    assert msg.options.path_str() == path


@pytest.mark.parametrize("value,after", [
    (0, 2), (1, 2), (2, 3), (0xFFFFFE, 0xFFFFFF), (0xFFFFFF, 0),
])
def test_next_observe_wraps_at_2_24_and_skips_the_deregister_value(value, after):
    assert next_observe(value) == after


def test_mid_allocator_monotonic_and_wrapping():
    alloc = MidAllocator(random.Random(3))
    first = alloc.next_mid()
    assert alloc.next_mid() == (first + 1) & 0xFFFF
    alloc._next = 0xFFFF
    assert alloc.next_mid() == 0xFFFF
    assert alloc.next_mid() == 0


def test_two_boots_reseed_distinct_mids():
    rng = random.Random(12)
    first = MidAllocator(rng).next_mid()
    second = MidAllocator(rng).next_mid()
    assert first != second


def test_summarize_never_raises():
    assert summarize(b"\x01\x02") == "malformed[2B]"
    frame = encode(CoapMessage(MsgType.CON, GET, 9, options=OptionSet(uri_path=("a",))))
    assert "GET" in summarize(frame)


# Unknown options numbered below and between the known ones, in ascending
# order, with a repeated number whose two values must keep their order.
EXTRAS = ((1, b"\x01"), (8, b"e1"), (8, b"e2"), (13, b"m"), (60, b"size"), (2049, b"x"))
# The same options out of order, which would decode in another order.
EXTRAS_OUT_OF_ORDER = [
    ((60, b"size"), (2049, b"x"), (1, b"\x01"), (8, b"e1"), (13, b"m"), (8, b"e2")),
    ((1, b"\x01"), (8, b"e1"), (8, b"e2"), (13, b"m"), (2049, b"x"), (60, b"size")),
]
ALL_KNOWN = OptionSet(uri_path=("a", "lb"), uri_query=("k=v",), observe=5, content_format=0,
                      max_age=60, block1=Block1(2, True, 64))
WITH_BINDING = OptionSet(uri_path=("s",), observe=0, binding=BindingInfo("aaaa::2", "led", 1, 60))


# The expected bytes are what an encoder that sorts every option list
# produces for these messages.
@pytest.mark.parametrize("code,mid,token,options,payload,wire", [
    (PUT, 300, b"\x0b", ALL_KNOWN, b"10",
     "4103012c0b61055161026c6210213c136b3d76c12aff3130"),
    (PUT, 300, b"\x0b", ALL_KNOWN._replace(extra=EXTRAS), b"10",
     "4103012c0b110151052265310265323161026c6210116d113c136b3d76c12ad41473697a65e106b878ff3130"),
    (GET, 301, b"", WITH_BINDING, b"",
     "4001012d605173e706e8616161613a3a32236c65642101213c"),
    (GET, 301, b"", WITH_BINDING._replace(extra=EXTRAS), b"",
     "4001012d1101502265310265323173216dd42273697a65e706b7616161613a3a321178136c65642101213c"),
])
def test_options_encode_in_ascending_order(code, mid, token, options, payload, wire):
    msg = CoapMessage(MsgType.CON, code, mid, token=token, options=options, payload=payload)
    frame = encode(msg)
    assert frame.hex() == wire
    numbers = [number for number, _ in _naive_option_walk(frame)]
    assert numbers == sorted(numbers)
    assert decode(frame) == msg and encode(decode(frame)) == frame
    # Extras decode in wire order: sorted by number, repeats in given order.
    # Given in another order they would not decode as given, so they raise.
    for extra in EXTRAS_OUT_OF_ORDER if options.extra else ():
        with pytest.raises(InvariantViolation):
            encode(msg._replace(options=options._replace(extra=extra)))


def test_messages_and_frames_reject_attribute_assignment():
    msg = CoapMessage(MsgType.CON, GET, 1, options=OptionSet(uri_path=("a",)))
    frame = Frame(encode(msg), Endpoint("cccc::3", 60001), Endpoint("aaaa::2"))
    for value, attr in ((msg, "mid"), (msg.options, "observe"), (frame, "raw"),
                        (frame, "parsed")):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.dst = None
    assert not hasattr(frame, "__dict__")


# -- the option caches --------------------------------------------------------

CACHES = coap.OPTION_CACHES


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def outcome(fn, value):
    """What `fn(value)` gives: its result with its repr, or the exception's
    type and message."""
    try:
        result = fn(value)
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return type(exc), str(exc)
    return result, repr(result)


def short(msg):
    return msg.short()


def mutated(rng, frame):
    data = bytearray(frame)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.5 and data:
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif roll < 0.75:
            data.insert(rng.randint(0, len(data)), rng.randrange(256))
        elif data:
            del data[rng.randrange(len(data))]
    return bytes(data)


def tuple_options(**kw):
    # A plain tuple that equals the OptionSet of the same fields.
    return tuple(OptionSet(**kw))


# Option sets that equal each other but differ in the types of their values.
EQUAL_BUT_TYPED = [
    (OptionSet(observe=1), OptionSet(observe=True)),
    (OptionSet(observe=0), OptionSet(observe=False)),
    (OptionSet(observe=2), OptionSet(observe=2.0)),
    (OptionSet(block1=Block1(3, True, 64)), OptionSet(block1=Block1(3, 1, 64))),
    (OptionSet(block1=Block1(3, False, 64)), OptionSet(block1=Block1(3, 0.0, 64.0))),
    (OptionSet(block1=Block1(3, True, 64)), OptionSet(block1=(3, True, 64))),
    (OptionSet(uri_path=("a",), max_age=60), tuple_options(uri_path=("a",), max_age=60)),
    (OptionSet(content_format=0), OptionSet(content_format=False)),
    (OptionSet(uri_path=("s",), observe=0, binding=BindingInfo("aaaa::2", "led", 1, 60)),
     OptionSet(uri_path=("s",), observe=0, binding=BindingInfo("aaaa::2", "led", True, 60.0))),
    (OptionSet(extra=((60, b"x"),)), OptionSet(extra=((60.0, b"x"),))),
    # A writable memoryview has no hash, and raises ValueError for one.
    (OptionSet(extra=((60, b"x"),)), OptionSet(extra=((60, memoryview(bytearray(b"x"))),))),
]


def typed_id(pair):
    """The second set's repr, without the address a memoryview's shows."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(pair[1]))


def codec_inputs():
    rng = random.Random(0x0C4E)
    messages = [random_message(rng) for _ in range(400)]
    messages += [CoapMessage(MsgType.CON, PUT, 7, token=b"\x01", options=o, payload=b"1")
                 for pair in EQUAL_BUT_TYPED for o in pair]
    messages += [CoapMessage(MsgType.CON, GET, 8, options=OptionSet(observe=observe))
                 for observe in (1.5, -1, "1", float("nan"), 0x1000000)]
    messages += [CoapMessage(MsgType.CON, PUT, 9, options=o) for o in BAD_OPTIONS]
    frames = []
    for msg in messages:
        try:
            frames.append(encode(msg))
        except InvariantViolation:
            pass
    frames += [mutated(rng, frames[rng.randrange(len(frames))]) for _ in range(600)]
    frames += [rng.randbytes(rng.randint(0, 24)) for _ in range(300)]
    return messages, frames


def test_caches_never_change_an_output():
    messages, frames = codec_inputs()
    calls = [(encode, m) for m in messages] + [(short, m) for m in messages]
    calls += [(decode, f) for f in frames]
    cold = []
    for fn, value in calls:
        clear_caches()
        cold.append(outcome(fn, value))
    warm = [outcome(fn, value) for fn, value in calls]  # warmed by the calls before
    again = [outcome(fn, value) for fn, value in calls]
    assert warm == cold and again == cold
    assert all(cache.cache_info().hits for cache in CACHES)
    decoded = [result for (fn, _), (result, _) in zip(calls, cold)
               if fn is decode and isinstance(result, CoapMessage)]
    assert len(decoded) > 200


@pytest.mark.parametrize("first_second", [0, 1])
@pytest.mark.parametrize("pair", EQUAL_BUT_TYPED, ids=typed_id)
def test_equal_keys_of_other_types_give_the_cold_output(pair, first_second):
    first, second = pair if first_second == 0 else pair[::-1]
    assert first == second
    msgs = [CoapMessage(MsgType.CON, PUT, 9, options=o, payload=b"v") for o in (first, second)]
    cold = []
    for msg in msgs:
        clear_caches()
        cold.append((outcome(encode, msg), outcome(short, msg)))
    clear_caches()
    warm = [(outcome(encode, msg), outcome(short, msg)) for msg in msgs]
    assert warm == cold
    # Equal option sets encode and render alike, whatever the types of
    # their values.  A plain tuple is no `OptionSet`: it renders alike, but
    # `encode` rejects it, cold and warm.
    assert cold[0][1] == cold[1][1]
    sets = [encoded for o, (encoded, _) in zip((first, second), cold) if type(o) is OptionSet]
    assert all(encoded == sets[0] for encoded in sets)
    assert decode(sets[0][0]).options == first
    for o, (encoded, _) in zip((first, second), cold):
        if type(o) is not OptionSet:
            assert encoded[0] is InvariantViolation


def test_request_parses_an_extra_value_in_a_writable_memoryview_as_its_bytes():
    via_bytes, via_view = (request(MsgType.CON, PUT, 9, "a", extra=((60, value),))
                           for value in (b"x", memoryview(bytearray(b"x"))))
    assert via_view == via_bytes and type(via_view.options.extra[0][1]) is bytes


def test_caches_stay_bounded_and_outputs_right():
    clear_caches()
    size = coap.OPTION_CACHE_SIZE
    assert all(cache.cache_info().maxsize == size for cache in CACHES)
    msgs = [CoapMessage(MsgType.CON, CONTENT, n & 0xFFFF, token=b"\x07",
                        options=OptionSet(observe=n, max_age=60), payload=b"%d" % n)
            for n in range(2 * size + 10)]
    for _ in range(2):  # the second pass meets entries the first one evicted
        for n, msg in enumerate(msgs):
            frame = encode(msg)
            assert decode(frame) == msg
            assert msg.short() == f"CON-2.05 mid={n} tok=07 obs={n} len={len(msg.payload)}"
            assert all(cache.cache_info().currsize <= size for cache in CACHES)
    assert all(cache.cache_info().currsize == size for cache in CACHES)


def test_frames_with_the_same_option_bytes_share_one_option_set():
    options = OptionSet(uri_path=("cfg", "r0"), content_format=0)
    a = Frame(encode(CoapMessage(MsgType.CON, PUT, 1, b"\x01", options, b"5")),
              Endpoint("cccc::3", 60001), Endpoint("aaaa::2"))
    b = Frame(encode(CoapMessage(MsgType.NON, POST, 2, b"", options, b"")),
              Endpoint("cccc::4", 60002), Endpoint("aaaa::3"))
    assert a.parsed.options is b.parsed.options
    assert a.parsed.options == options and a.parsed.options is not options


# -- a frame built from a message ------------------------------------------------

# Messages whose fields have other types than `decode` gives, or whose
# options would not decode as given: `decode` would reject their bytes or
# parse them to other values.  `encode` rejects each of them.
ODD_MESSAGES = [
    CoapMessage(MsgType.CON, True, 5, options=OptionSet(uri_path=("a",))),  # code GET
    CoapMessage(MsgType.CON, PUT, True, payload=b"x"),  # MID 1
    CoapMessage(1, EMPTY, 5),  # EMPTY NON
    CoapMessage(3, GET, 5),  # RST with a request code
    CoapMessage(2, GET, 5),  # ACK with a request code
    CoapMessage(4, GET, 5),  # no type: too wide for the type's two bits
    CoapMessage(MsgType.NON, CONTENT, 6, token=bytearray(b"\x01"), payload=bytearray(b"yz")),
    CoapMessage(MsgType.NON, CONTENT, 7, payload=memoryview(b"ab")),
    CoapMessage(MsgType.CON, PUT, 8, options=OptionSet(extra=((11, b"\xff"),))),
    CoapMessage(MsgType.CON, GET, 9, options=OptionSet(observe=3, extra=((6, b"\x01"),))),
    CoapMessage(MsgType.CON, PUT, 10, options=OptionSet(extra=((27, b"\x07"),)), payload=b"1"),
    CoapMessage(MsgType.CON, PUT, 11, options=OptionSet(extra=((2048, b"a"),))),
    CoapMessage(MsgType.CON, PUT, 12, options=OptionSet(extra=((14, bytes(5)),))),
    CoapMessage(MsgType.CON, PUT, 0x10000),
    # Options that would parse to other values.
    CoapMessage(MsgType.CON, PUT, 13, options=OptionSet(extra=((12, b"\x00\x01"),))),
    CoapMessage(MsgType.CON, GET, 14, options=OptionSet(extra=((2050, b"r"), (2048, b"a")))),
]


def frame_outcome(build, msg):
    """What `build(msg)` gives: the frame's bytes and addresses, the
    repr and field types of its parse and whether the parse holds the
    options `decode` returns; or the exception's type and message."""
    try:
        frame = build(msg)
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return type(exc), str(exc)
    parsed = frame.parsed
    if parsed is None:
        return frame.raw, frame.src, frame.dst, None
    return (frame.raw, frame.src, frame.dst, repr(parsed),
            [type(value) for value in parsed], parsed.options is decode(frame.raw).options)


def test_frame_of_is_the_frame_of_the_encoded_bytes():
    messages, _ = codec_inputs()
    src, dst = Endpoint("cccc::3", 60001), Endpoint("aaaa::2")
    kinds = []
    for msg in messages + ODD_MESSAGES:
        built = frame_outcome(lambda m: Frame(encode(m), src, dst), msg)
        assert frame_outcome(lambda m: Frame.of(m, src, dst), msg) == built, msg
        kinds.append("raised" if len(built) == 2 else "malformed" if built[-1] is None
                     else "parsed")
        if kinds[-1] == "parsed":  # every message `encode` accepts round-trips
            assert built[-1] is True and decode(built[0]) == msg
    # A parse, or no frame: no built frame is malformed.
    assert kinds.count("parsed") > 300 and kinds.count("malformed") == 0
    assert kinds[-len(ODD_MESSAGES):] == ["raised"] * len(ODD_MESSAGES)
    assert kinds.count("raised") >= 9 + len(ODD_MESSAGES)
