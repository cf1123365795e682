"""Transparent crash-recovery gateway for CoAP constrained networks.

A gateway-resident State Directory inspects all client/node traffic,
stores replayable dynamic-state entries, detects node reboots via
proactive registration, and replays the original requests to restore
the node.  Everything runs inside a deterministic discrete-event
simulator of lossy multi-hop links.
"""

from .coap import (
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
)
from .directory import DeployMode, EffectKind, EntryType, SDEffect, SDEntry, StateDirectory

__version__ = "0.1.0"
