"""Canonical semantic digests of guest state (epoch attestation).

The wire transport's per-chunk checksums (PR 5) prove the *bytes*
arrived; they say nothing about whether the bytes *mean* the same guest
after a Xen→KVM translation, a torn apply, or replica-side memory rot.
This module hashes the *semantic* content instead: guest state is
canonicalised through the translator's common intermediate
representation — per-vCPU architectural items, architectural device
records, the masked feature set, the memory geometry — and folded into
a Merkle root.  Because both hypervisor formats round-trip losslessly
through that representation, the primary (hashing its pre-translation
payload) and the replica (hashing its post-translation payload) compute
the same root if and only if translation preserved the guest.

Canonicalisation rules (DESIGN §18):

* one leaf per vCPU over ``VcpuArchState.canonical_items()`` (GP and
  control registers in canonical order, segments/MSRs sorted, LAPIC and
  timer tuples, the raw XSAVE bytes, the online flag);
* one leaf per device over ``(kind, instance, sorted(fields))`` — the
  format-neutral device state, never the format's framing keys;
* one metadata leaf over ``(sorted(features), memory_pages)``;
* one memory leaf over the epoch's dirty-page extent (page count +
  sorted dirty chunk ids).  The replica cannot re-derive this from its
  state payload, so the attestation carries the leaf itself and the
  replica folds it back into the root it recomputes;
* every value is type-tagged and length-prefixed before hashing, so no
  two distinct canonical forms can collide by concatenation.

The encoder is flat: :func:`_encode` walks nested values with an
explicit stack and dispatches on ``type(value)`` through one module
dict, emitting exactly the bytes the recursive definition above
implies (a sequence is ``t<count>:`` followed by its items' encodings,
so it can be streamed).  A type missing from the dict — an ``int`` or
``str`` subclass such as an ``IntEnum`` member — takes the ``isinstance``
order of that definition, ``bool`` before ``int``; anything else raises
``TypeError``.  :func:`vcpu_leaf` skips the generic walk: it formats the
ASCII part of the vCPU's encoding from its fields as one ``str``, with
precomputed key prefixes, and appends the raw XSAVE bytes.  If any
field is not the exact type that path assumes (``int`` registers, MSRs,
segments, LAPIC and TSC fields; ``bool`` ``enabled``/``online``; a
``float`` ``system_time_base``; ``bytes`` XSAVE) it falls back to the
generic encoder over ``canonical_items()``, so a type-swapped field
still gets its own tag.

Nothing is cached.  Python's ``==`` treats ``True``, ``1`` and ``1.0``
as equal and hashes them alike, and the type tags exist to tell those
apart, so a value-keyed memo could map a corrupted state onto a clean
leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterable, List, Optional, Sequence

from ..vm.vcpu import (
    CONTROL_REGISTERS,
    GP_REGISTERS,
    SegmentDescriptor,
    VcpuArchState,
)

#: Digest width (bytes) of every leaf and interior node.
DIGEST_SIZE = 16


def _encode_int(value) -> bytes:
    body = str(value).encode("ascii")
    return b"i%d:%s" % (len(body), body)


def _encode_float(value) -> bytes:
    body = repr(value).encode("ascii")
    return b"f%d:%s" % (len(body), body)


def _encode_str(value) -> bytes:
    body = value.encode("utf-8")
    return b"s%d:%s" % (len(body), body)


def _encode_bytes(value) -> bytes:
    return b"y%d:%s" % (len(value), bytes(value))


# Container markers: what the walk does instead of emitting bytes.
_SEQUENCE = "sequence"
_SET = "set"
_MAPPING = "mapping"

#: ``type(value)`` → scalar encoder or container marker.  The order is
#: the ``isinstance`` order a subclass is matched in: ``bool`` before
#: ``int``, since ``bool`` is an ``int`` subclass.
_ENCODERS = {
    type(None): lambda value: b"n:",
    bool: lambda value: b"b1" if value else b"b0",
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    tuple: _SEQUENCE,
    list: _SEQUENCE,
    set: _SET,
    frozenset: _SET,
    dict: _MAPPING,
}


def _encoder_of_subclass(value):
    """The encoder for a type missing from ``_ENCODERS`` (e.g. ``IntEnum``)."""
    for base, encoder in _ENCODERS.items():
        if isinstance(value, base):
            return encoder
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def _encode(value) -> bytes:
    """Type-tagged, length-prefixed canonical encoding of one value."""
    out: List[bytes] = []
    pending = [value]
    while pending:
        item = pending.pop()
        encoder = _ENCODERS.get(type(item))
        if encoder is None:
            encoder = _encoder_of_subclass(item)
        if encoder is _SEQUENCE:
            out.append(b"t%d:" % len(item))
            pending.extend(reversed(item))
        elif encoder is _SET:
            pending.append(tuple(sorted(item)))
        elif encoder is _MAPPING:
            pending.append(tuple(sorted(item.items())))
        else:
            out.append(encoder(item))
    return b"".join(out)


def _pair_prefix(key: str) -> str:
    """A ``(key, value)`` pair's encoding up to the value (ASCII key)."""
    return "t2:s%d:%s" % (len(key), key)


# The vCPU fast path lays the encoding out as ``prefixes[k]`` then the
# kth int field, for every int field in ``canonical_items()`` order; a
# prefix holds the pair and tuple headers (and the ``enabled`` bool)
# that come before its int.
_FIXED_PREFIXES = [
    _pair_prefix("index"),
    *(_pair_prefix(f"gp.{name}") for name in GP_REGISTERS),
    *(_pair_prefix(f"cr.{name}") for name in CONTROL_REGISTERS),
]
#: Seven LAPIC ints open the ``lapic`` tuple; ``enabled`` closes it
#: and is emitted ahead of the ``timer`` prefix.
_LAPIC_PREFIXES = (_pair_prefix("lapic") + "t8:",) + ("",) * 6
_TIMER_PREFIX = _pair_prefix("timer") + "t3:"
_XSAVE_PREFIX = _pair_prefix("xsave")
_ONLINE, _OFFLINE = b"t2:s6:onlineb1", b"t2:s6:onlineb0"
#: ``"i<n>:"``, the header of an int whose decimal form is n long.
_INT_HEADS = tuple("i%d:" % n for n in range(64))


def _vcpu_payload(vcpu) -> Optional[bytes]:
    """``_encode(tuple(vcpu.canonical_items()))``, formatted straight
    from the fields; ``None`` when a field is not the exact type this
    path assumes (the caller then takes the generic encoder)."""
    if type(vcpu) is not VcpuArchState:
        return None
    segments, msrs = vcpu.segments, vcpu.msrs
    lapic, timer = vcpu.lapic, vcpu.timer
    seg_names = sorted(segments)
    msr_ids = sorted(msrs)
    descriptors = [segments[name] for name in seg_names]
    if not (
        set(map(type, seg_names)) <= {str}
        and all(name.isascii() for name in seg_names)
        and set(map(type, descriptors)) <= {SegmentDescriptor}
        and set(map(type, msr_ids)) <= {int}
        and type(lapic.enabled) is bool
        and type(vcpu.online) is bool
        and type(timer.system_time_base) is float
        and type(vcpu.xsave_area) is bytes
    ):
        return None
    ints = [vcpu.index]
    ints += map(vcpu.gp.__getitem__, GP_REGISTERS)
    ints += map(vcpu.control.__getitem__, CONTROL_REGISTERS)
    for seg in descriptors:
        ints += (seg.selector, seg.base, seg.limit, seg.attributes)
    ints += map(msrs.__getitem__, msr_ids)
    ints += (
        lapic.apic_id,
        lapic.apic_base_msr,
        lapic.tpr,
        lapic.timer_divide,
        lapic.timer_initial_count,
        lapic.timer_current_count,
        lapic.lvt_timer,
        timer.tsc_offset,
        timer.tsc_frequency_khz,
    )
    if set(map(type, ints)) != {int}:
        return None
    prefixes = _FIXED_PREFIXES.copy()
    for name in seg_names:
        prefixes += ("t2:s%d:seg.%st4:" % (len(name) + 4, name), "", "", "")
    prefixes += [
        "t2:s%d:msr.%s" % (len(key) + 4, key)
        for key in map("%#x".__mod__, msr_ids)
    ]
    prefixes += _LAPIC_PREFIXES
    prefixes += (("b1" if lapic.enabled else "b0") + _TIMER_PREFIX, "")
    # One item per prefix outside the segments, plus each segment, the
    # MSRs and the lapic, timer, xsave and online pairs.
    items = len(_FIXED_PREFIXES) + len(seg_names) + len(msr_ids) + 4
    digits = list(map(str, ints))
    pieces = [None] * (3 * len(digits) + 1)
    pieces[0] = "t%d:" % items
    pieces[1::3] = prefixes
    try:
        pieces[2::3] = map(_INT_HEADS.__getitem__, map(len, digits))
    except IndexError:  # an int too wide for the header table
        return None
    pieces[3::3] = digits
    stb = repr(timer.system_time_base)
    xsave = vcpu.xsave_area
    pieces += ("f%d:%s" % (len(stb), stb), _XSAVE_PREFIX, "y%d:" % len(xsave))
    online = _ONLINE if vcpu.online else _OFFLINE
    return "".join(pieces).encode("ascii") + xsave + online


def _leaf(kind: bytes, payload: bytes) -> bytes:
    return blake2b(
        b"leaf:" + kind + b":" + payload, digest_size=DIGEST_SIZE
    ).digest()


def vcpu_leaf(vcpu) -> bytes:
    """Digest of one vCPU's architectural state."""
    payload = _vcpu_payload(vcpu)
    if payload is None:
        payload = _encode(tuple(vcpu.canonical_items()))
    return _leaf(b"vcpu", payload)


def device_leaf(device: dict) -> bytes:
    """Digest of one format-neutral device record."""
    return _leaf(
        b"device",
        _encode(
            (
                device["kind"],
                device["instance"],
                tuple(sorted(device["fields"].items())),
            )
        ),
    )


def meta_leaf(features: Iterable[str], memory_pages: int) -> bytes:
    """Digest of the platform metadata both formats must preserve."""
    return _leaf(b"meta", _encode((tuple(sorted(features)), memory_pages)))


def memory_leaf(dirty_pages: int, chunk_ids: Sequence[int]) -> str:
    """Hex digest of the epoch's dirty-page extent (primary-side only)."""
    payload = _encode(
        (int(dirty_pages), tuple(int(chunk) for chunk in chunk_ids))
    )
    return _leaf(b"memory", payload).hex()


def merkle_root(leaves: Sequence[bytes]) -> str:
    """Fold leaves pairwise into one hex root."""
    if not leaves:
        return _leaf(b"empty", b"").hex()
    level: List[bytes] = list(leaves)
    while len(level) > 1:
        paired = []
        for index in range(0, len(level) - 1, 2):
            paired.append(
                blake2b(
                    b"node:" + level[index] + level[index + 1],
                    digest_size=DIGEST_SIZE,
                ).digest()
            )
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0].hex()


def state_leaves(state) -> List[bytes]:
    """The ordered leaves of one ``IntermediateState``."""
    leaves = [meta_leaf(state.features, state.memory_pages)]
    leaves += [vcpu_leaf(vcpu) for vcpu in state.vcpus]
    leaves += [device_leaf(device) for device in state.devices]
    return leaves


def semantic_root(state, memory_leaf_hex: str) -> str:
    """The Merkle root over a state's leaves plus the memory leaf."""
    return merkle_root(state_leaves(state) + [bytes.fromhex(memory_leaf_hex)])


@dataclass(frozen=True)
class EpochAttestation:
    """The digest the primary ships with one checkpoint epoch."""

    epoch: int
    #: Merkle root over state leaves + memory leaf.
    root: str
    #: The dirty-extent leaf, carried so the replica can rebuild the
    #: root from state it *can* recompute.
    memory_leaf: str
    vcpus: int
    devices: int


def attest_state(
    state, epoch: int, dirty_pages: int, chunk_ids: Sequence[int] = ()
) -> EpochAttestation:
    """Attest one pre-translation canonical state for ``epoch``."""
    memory = memory_leaf(dirty_pages, chunk_ids)
    return EpochAttestation(
        epoch=epoch,
        root=semantic_root(state, memory),
        memory_leaf=memory,
        vcpus=len(state.vcpus),
        devices=len(state.devices),
    )
