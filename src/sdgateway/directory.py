"""The State Directory: replayable dynamic-state entries derived purely
from intercepted packets and their direction of travel.

Entries mirror what the destination node will hold in volatile memory:
PUT values, observe relationships (with live observe/retransmit
counters), binding descriptors and deployed-module records.  Each entry
keeps the latest request that made its state, the intercepted message
itself, and in block-capture mode a deploy keeps its transfer's block
requests too; a replay is that request again with a fresh MID.  All
mutation goes through the two intercept operations; reads are snapshots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Optional, Tuple

from .coap import (
    EXCHANGE_LIFETIME_MS,
    MAX_RETRANSMIT,
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
class SDEntry:
    entry_type: EntryType
    client: Endpoint
    server: Endpoint
    uri_path: str  # the path of the request that created the entry
    request: CoapMessage  # the latest request for the entry's key, as intercepted
    mid: int = 0  # the request's MID, then an OBSERVE entry's latest notification's
    observe_counter: int = 0
    retransmit_counter: int = 0
    # A block-capture deploy's block requests, the last one `request`.
    blocks: Optional[Tuple[CoapMessage, ...]] = None
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
        # Partial block transfers, keyed (client, server, loader path): when
        # a block last continued each, and its block requests so far.
        self._pending_blocks: dict[tuple[Endpoint, Endpoint, str],
                                   tuple[float, list[CoapMessage]]] = {}

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
        key = self._find_observe(dst, src, _TOKEN, msg.token)
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
            r, o = e.request, e.request.options
            value = cf = binding = deploy = "-"
            if e.entry_type is EntryType.PUT:
                value = r.payload.hex() or "-"
                cf = "-" if o.content_format is None else str(o.content_format)
            elif e.entry_type is EntryType.BIND:
                b = o.binding
                binding = f"{b.dest_addr},{b.dest_resource},{b.pmin},{b.pmax}"
            elif e.entry_type is EntryType.DEPLOY:
                deploy = f"{o.query_value('file')},{o.path_str()},{len(e.blocks or ())}"
            lines.append("\t".join([
                str(int(e.entry_type)), str(e.client), str(e.server), e.uri_path,
                r.token.hex() or "-", str(e.mid), str(e.observe_counter),
                str(e.retransmit_counter), value, cf,
                binding, deploy, f"{e.created_at:.3f}", f"{e.updated_at:.3f}",
            ]))
        return lines

    def write_snapshot(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.snapshot_lines():
                fh.write(line + "\n")

    # -- internals -----------------------------------------------------

    def _upsert(self, key: tuple, msg: CoapMessage, src: Endpoint, dst: Endpoint,
                uri: str, blocks: Optional[tuple] = None) -> SDEffect:
        """Create the entry for `key` from the request `msg`, or update it
        in place.  An update keeps the original `uri_path` and takes the
        request, its MID, and the latest client endpoint, which wins the
        replay spoof (an OBSERVE key holds its client, so there it stays the
        same)."""
        now = self._clock()
        entry = self._entries.get(key)
        if entry is None:
            entry = SDEntry(key[0], src, dst, uri, msg, msg.mid, blocks=blocks,
                            created_at=now, updated_at=now, key=key)
            self._entries[key] = entry
            self._by_server.setdefault(dst.addr, {})[key] = entry
            return SDEffect(_CREATED, entry)
        entry.client = src
        entry.request = msg
        entry.mid = msg.mid
        entry.blocks = blocks
        entry.updated_at = now
        return SDEffect(_UPDATED, entry)

    # What an inbound packet of each collected kind does, as one call of
    # (msg, src, dst, uri): see `_COLLECT`.

    def _put(self, msg, src, dst, uri) -> SDEffect:
        return self._upsert((EntryType.PUT, dst, uri), msg, src, dst, uri)

    def _observe(self, msg, src, dst, uri) -> SDEffect:
        return self._upsert((EntryType.OBSERVE, src, dst, uri), msg, src, dst, uri)

    def _deregister(self, msg, src, dst, uri) -> SDEffect:
        return self._remove((EntryType.OBSERVE, src, dst, uri), "deregister")

    def _bind(self, msg, src, dst, uri) -> SDEffect:
        info = msg.options.binding
        return self._upsert((EntryType.BIND, dst, uri, info.dest_addr, info.dest_resource),
                            msg, src, dst, uri)

    def _reset(self, msg, src, dst, uri) -> SDEffect:
        return self._remove(self._find_observe(src, dst, _MID, msg.mid), "rst")

    def _find_observe(self, client: Endpoint, server: Endpoint, field, value) -> Optional[tuple]:
        """Key of the first OBSERVE entry, in creation order, of `client`
        at `server` whose `field(entry)` equals `value`."""
        for key, e in self._by_server.get(server.addr, {}).items():
            if (e.entry_type is EntryType.OBSERVE and e.client == client
                    and e.server == server and field(e) == value):
                return key
        return None

    def _deploy_block(self, msg, src, dst, uri) -> SDEffect:
        block = msg.options.block1
        key, now = (src, dst, uri), self._clock()
        if block.num == 0:
            # A new transfer drops those no block has continued for the
            # exchange lifetime: their client gave up long before.
            stale = now - EXCHANGE_LIFETIME_MS
            self._pending_blocks = {k: p for k, p in self._pending_blocks.items()
                                    if p[0] > stale}
            buf = [msg]
        else:
            pending = self._pending_blocks.get(key)
            if pending is None or block.num != len(pending[1]):
                # Retransmitted or orphaned fragment; stop-and-wait transfers
                # only ever append the next expected block.
                return NO_EFFECT
            buf = pending[1]
            buf.append(msg)
        if block.more:
            self._pending_blocks[key] = (now, buf)
            return NO_EFFECT  # entry materializes only when the last block passes
        self._pending_blocks.pop(key, None)
        filename = msg.options.query_value("file")
        if not filename:
            return NO_EFFECT
        blocks = tuple(buf) if self.deploy_mode is DeployMode.BLOCK_CAPTURE else None
        return self._upsert((EntryType.DEPLOY, dst, filename), msg, src, dst, uri, blocks)

    def _client_ack(self, msg, src, dst, uri) -> SDEffect:
        key = self._find_observe(src, dst, _MID, msg.mid)
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
            ok = e.request.options.binding is not None
        else:
            ok = bool(e.request.options.query_value("file"))
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
# What `_find_observe` matches a notification and a client's RST or ACK on.
_TOKEN, _MID = operator.attrgetter("request.token"), operator.attrgetter("mid")
_CREATED, _UPDATED, _REMOVED, _NONE = EffectKind  # global reads, not enum member reads
NO_EFFECT = SDEffect(_NONE)  # the one effect without an entry, shared
