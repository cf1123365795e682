"""The State Directory: replayable dynamic-state entries derived purely
from intercepted packets and their direction of travel.

Entries mirror what the destination node will hold in volatile memory:
PUT values, observe relationships (with live observe/retransmit
counters), binding descriptors and deployed-module records.  All
mutation goes through the two intercept operations; reads are snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Optional, Tuple

from .coap import (
    MAX_RETRANSMIT,
    BindingInfo,
    CoapMessage,
    Endpoint,
    InteractionKind,
    classify,
)


class EntryType(IntEnum):
    PUT = 2
    OBSERVE = 5
    BIND = 6
    DEPLOY = 7


class DeployMode(Enum):
    FILENAME_ONLY = "filename"   # node reloads the module from its own flash
    BLOCK_CAPTURE = "blocks"     # gateway replays the whole block transfer


class EffectKind(Enum):
    CREATED = "Created"
    UPDATED = "Updated"
    REMOVED = "Removed"
    NO_EFFECT = "NoEffect"


class RegistrationStatus(Enum):
    NEW = "new"
    KNOWN_EMPTY = "known_empty"
    KNOWN_WITH_STATE = "known_with_state"


@dataclass(slots=True)
class DeployInfo:
    filename: str
    loader_path: str
    blocks: Optional[Tuple[bytes, ...]] = None  # present only in block-capture mode
    block_size: int = 0  # the transfer's Block1 size, which a block replay reuses


@dataclass(slots=True)
class SDEntry:
    entry_type: EntryType
    client: Endpoint
    server: Endpoint
    uri_path: str
    token: bytes = b""
    mid: int = 0
    observe_counter: int = 0
    retransmit_counter: int = 0
    value: bytes = b""
    content_format: Optional[int] = None
    binding: Optional[BindingInfo] = None
    deploy: Optional[DeployInfo] = None
    created_at: float = 0.0
    updated_at: float = 0.0
    key: tuple = field(default=(), repr=False, compare=False)  # its key, for `holds`


class DirectoryInvariantError(RuntimeError):
    """A directory entry or effect broke an invariant.  Raised, not
    asserted, so the check survives `python -O`."""


class SDEffect:
    """An intercept's effect: `entry` is None exactly when `kind` is NO_EFFECT."""

    __slots__ = ("kind", "entry")

    def __init__(self, kind: EffectKind, entry: Optional[SDEntry] = None) -> None:
        if (kind is _NONE) != (entry is None):
            raise DirectoryInvariantError(f"{kind.value} effect with entry {entry!r}")
        self.kind, self.entry = kind, entry


class StateDirectory:
    """Gateway-resident store of replayable dynamic states.

    A single logical state machine: callers must serialize mutations
    (the simulator's event loop does).  `clock` supplies simulated time
    for the created/updated stamps.

    Each entry is stored under its identity key, `(EntryType, *identity)`:
    PUT (server, uri), OBSERVE (client, server, uri), BIND (server, uri,
    dest, resource), DEPLOY (server, filename).  A repeat request updates
    the entry in place and keeps its replay position; remove-then-recreate
    moves it to the end.
    """

    def __init__(self, clock: Callable[[], float] = lambda: 0.0, *,
                 deploy_mode: DeployMode = DeployMode.FILENAME_ONLY,
                 trace=None) -> None:
        # Creation-ordered, and the same entries again per server address.
        self._entries: dict[tuple, SDEntry] = {}
        self._by_server: dict[str, dict[tuple, SDEntry]] = {}
        self.known_nodes: set[str] = set()
        self.deploy_mode = deploy_mode
        self._clock = clock
        self._trace = trace
        # Partial block transfers, keyed (client, server, loader path).
        self._pending_blocks: dict[tuple[Endpoint, Endpoint, str], list[bytes]] = {}

    @property
    def entries(self) -> list[SDEntry]:
        """Every entry, in creation order (a copy)."""
        return list(self._entries.values())

    # -- collection ----------------------------------------------------

    def intercept_from_internet(self, msg: CoapMessage, src: Endpoint, dst: Endpoint) -> SDEffect:
        """Inspect a packet heading into the LLN.  Never blocks or
        mutates the packet; only the directory may change."""
        collect = _COLLECT.get(classify(msg))
        effect = NO_EFFECT if collect is None else collect(self, msg, src, dst,
                                                           msg.options.path_str())
        return self._done("in", effect)

    def intercept_from_lln(self, msg: CoapMessage, src: Endpoint, dst: Endpoint) -> SDEffect:
        """Inspect a packet leaving the LLN.  Only observe notifications
        (and their retransmissions) have an effect."""
        if classify(msg) is not _NOTIFICATION:
            return self._done("lln", NO_EFFECT)
        key = self._find_observe(dst, src, "token", msg.token)
        if key is None:
            # Collection is driven by requests; a stray notification
            # never creates state.
            return self._done("lln", NO_EFFECT)
        entry = self._entries[key]
        if msg.mid == entry.mid:
            entry.retransmit_counter += 1
            entry.updated_at = self._clock()
            if entry.retransmit_counter >= MAX_RETRANSMIT:
                effect = self._remove(key, "retransmit")
            else:
                effect = SDEffect(_UPDATED, entry)
        else:
            entry.observe_counter = msg.options.observe or 0
            entry.mid = msg.mid
            entry.retransmit_counter = 0
            entry.updated_at = self._clock()
            effect = SDEffect(_UPDATED, entry)
        return self._done("lln", effect)

    # -- queries -------------------------------------------------------

    def entries_for_server(self, server_addr: str) -> list[SDEntry]:
        """The server's entries, in creation order (a copy)."""
        return list(self._by_server.get(server_addr, {}).values())

    def holds(self, entry: SDEntry) -> bool:
        """Whether `entry` itself is still stored: not removed, and not
        replaced by a newer entry under its key."""
        return self._entries.get(entry.key) is entry

    def register_node(self, node_addr: str) -> RegistrationStatus:
        known = node_addr in self.known_nodes
        self.known_nodes.add(node_addr)
        if node_addr in self._by_server:
            return RegistrationStatus.KNOWN_WITH_STATE
        return RegistrationStatus.KNOWN_EMPTY if known else RegistrationStatus.NEW

    def snapshot_lines(self) -> list[str]:
        """One tab-separated line per entry, stable field order, addresses
        in canonical text form.  Used by the harness for assertions."""
        lines = []
        for e in self._entries.values():
            binding = "-"
            if e.binding is not None:
                b = e.binding
                binding = f"{b.dest_addr},{b.dest_resource},{b.pmin},{b.pmax}"
            deploy = "-"
            if e.deploy is not None:
                nblocks = len(e.deploy.blocks) if e.deploy.blocks is not None else 0
                deploy = f"{e.deploy.filename},{e.deploy.loader_path},{nblocks}"
            cf = "-" if e.content_format is None else str(e.content_format)
            lines.append("\t".join([
                str(int(e.entry_type)), str(e.client), str(e.server), e.uri_path,
                e.token.hex() or "-", str(e.mid), str(e.observe_counter),
                str(e.retransmit_counter), e.value.hex() or "-", cf,
                binding, deploy, f"{e.created_at:.3f}", f"{e.updated_at:.3f}",
            ]))
        return lines

    def write_snapshot(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.snapshot_lines():
                fh.write(line + "\n")

    # -- internals -----------------------------------------------------

    def _upsert(self, key: tuple, msg: CoapMessage, src: Endpoint, dst: Endpoint,
                uri: str, **fields) -> SDEffect:
        """Create the entry for `key`, or update it in place.  `fields` are
        the type's own data.  An update keeps the original `uri_path` and
        takes the latest client endpoint, which wins the replay spoof (an
        OBSERVE key holds its client, so there it stays the same)."""
        now = self._clock()
        entry = self._entries.get(key)
        if entry is None:
            entry = SDEntry(key[0], src, dst, uri, token=msg.token, mid=msg.mid,
                            created_at=now, updated_at=now, key=key, **fields)
            self._entries[key] = entry
            self._by_server.setdefault(dst.addr, {})[key] = entry
            return SDEffect(_CREATED, entry)
        for name, value in fields.items():
            setattr(entry, name, value)
        entry.client = src
        entry.token = msg.token
        entry.mid = msg.mid
        entry.updated_at = now
        return SDEffect(_UPDATED, entry)

    # What an inbound packet of each collected kind does, as one call of
    # (msg, src, dst, uri): see `_COLLECT`.

    def _put(self, msg, src, dst, uri) -> SDEffect:
        return self._upsert((EntryType.PUT, dst, uri), msg, src, dst, uri,
                            value=msg.payload, content_format=msg.options.content_format)

    def _observe(self, msg, src, dst, uri) -> SDEffect:
        return self._upsert((EntryType.OBSERVE, src, dst, uri), msg, src, dst, uri)

    def _deregister(self, msg, src, dst, uri) -> SDEffect:
        return self._remove((EntryType.OBSERVE, src, dst, uri), "deregister")

    def _bind(self, msg, src, dst, uri) -> SDEffect:
        info = msg.options.binding
        return self._upsert((EntryType.BIND, dst, uri, info.dest_addr, info.dest_resource),
                            msg, src, dst, uri, binding=info)

    def _reset(self, msg, src, dst, uri) -> SDEffect:
        return self._remove(self._find_observe(src, dst, "mid", msg.mid), "rst")

    def _find_observe(self, client: Endpoint, server: Endpoint, field: str, value) -> Optional[tuple]:
        """Key of the first OBSERVE entry, in creation order, of `client`
        at `server` whose `field` equals `value`."""
        for key, e in self._by_server.get(server.addr, {}).items():
            if (e.entry_type is EntryType.OBSERVE and e.client == client
                    and e.server == server and getattr(e, field) == value):
                return key
        return None

    def _deploy_block(self, msg, src, dst, uri) -> SDEffect:
        block = msg.options.block1
        key = (src, dst, uri)
        if block.num == 0:
            self._pending_blocks[key] = [msg.payload]
            buf = self._pending_blocks[key]
        else:
            buf = self._pending_blocks.get(key)
            if buf is None or block.num != len(buf):
                # Retransmitted or orphaned fragment; stop-and-wait transfers
                # only ever append the next expected block.
                return NO_EFFECT
            buf.append(msg.payload)
        if block.more:
            return NO_EFFECT  # entry materializes only when the last block passes
        del self._pending_blocks[key]
        filename = msg.options.query_value("file")
        if not filename:
            return NO_EFFECT
        blocks = tuple(buf) if self.deploy_mode is DeployMode.BLOCK_CAPTURE else None
        return self._upsert((EntryType.DEPLOY, dst, filename), msg, src, dst, uri,
                            deploy=DeployInfo(filename, uri, blocks, block.size))

    def _client_ack(self, msg, src, dst, uri) -> SDEffect:
        key = self._find_observe(src, dst, "mid", msg.mid)
        if key is None or self._entries[key].retransmit_counter == 0:
            return NO_EFFECT
        entry = self._entries[key]
        entry.retransmit_counter = 0
        entry.updated_at = self._clock()
        return SDEffect(_UPDATED, entry)

    def _remove(self, key: Optional[tuple], reason: str) -> SDEffect:
        entry = self._entries.pop(key, None)
        if entry is None:
            return NO_EFFECT
        bucket = self._by_server[entry.server.addr]
        del bucket[key]
        if not bucket:
            del self._by_server[entry.server.addr]
        if self._trace is not None:
            self._trace.emit("sd_remove", reason, int(entry.entry_type), entry.server.addr,
                             entry.uri_path, entry.mid, entry.retransmit_counter)
        return SDEffect(_REMOVED, entry)

    def _done(self, direction: str, effect: SDEffect) -> SDEffect:
        """Trace the intercept's effect and check the one entry it touched."""
        e = effect.entry
        if e is None:
            return effect
        if self._trace is not None:
            self._trace.emit("sd", direction, effect.kind, int(e.entry_type),
                             e.client, e.server, e.uri_path, e.observe_counter, e.mid,
                             e.retransmit_counter)
        if e.entry_type is EntryType.OBSERVE:
            ok = e.retransmit_counter <= MAX_RETRANSMIT
        elif e.entry_type is EntryType.PUT:
            ok = e.observe_counter == 0
        elif e.entry_type is EntryType.BIND:
            ok = e.binding is not None
        else:
            ok = e.deploy is not None
        if not ok:
            raise DirectoryInvariantError(f"corrupt {e.entry_type.name} entry: {e!r}")
        return effect


# The directory's action on an inbound packet, by its interaction kind: one
# dict lookup per packet, not a test against each kind (an enum member read
# costs about 4x a global read).  Other kinds have no effect.
_COLLECT = {
    InteractionKind.PUT_REQUEST: StateDirectory._put,
    InteractionKind.OBSERVE_REGISTER: StateDirectory._observe,
    InteractionKind.OBSERVE_DEREGISTER: StateDirectory._deregister,
    InteractionKind.BINDING_REQUEST: StateDirectory._bind,
    InteractionKind.DEPLOY_BLOCK: StateDirectory._deploy_block,
    InteractionKind.RESET_SIGNAL: StateDirectory._reset,
    InteractionKind.ACK_SIGNAL: StateDirectory._client_ack,
}
_NOTIFICATION = InteractionKind.NOTIFICATION  # the one kind an outbound packet acts on
_CREATED, _UPDATED, _REMOVED, _NONE = EffectKind  # global reads, not enum member reads
NO_EFFECT = SDEffect(_NONE)  # the one effect without an entry, shared
