"""Semantic digests: canonical encoding, Merkle folding, attestation.

The digest contract the whole integrity overlay rests on: the primary
hashes its *pre-translation* canonical state, the replica recomputes
from its *post-translation* state, and the roots agree exactly when
the translation preserved the guest.
"""

import copy
import enum

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import GIB, build_testbed
from repro.hypervisor import KvmHypervisor, XenHypervisor
from repro.integrity.digest import (
    attest_state,
    device_leaf,
    memory_leaf,
    merkle_root,
    meta_leaf,
    semantic_root,
    state_leaves,
    vcpu_leaf,
    _encode,
    _leaf,
    _vcpu_payload,
)
from repro.replication import StateTranslator
from repro.simkernel import Simulation
from repro.vm import (
    CONTROL_REGISTERS,
    GP_REGISTERS,
    LapicState,
    SegmentDescriptor,
    TimerState,
    VcpuArchState,
    sample_running_state,
)


def oracle_encode(value) -> bytes:
    """The recursive reference encoding the flat encoder must match."""
    if value is None:
        return b"n:"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        body = str(value).encode("ascii")
        return b"i%d:%s" % (len(body), body)
    if isinstance(value, float):
        body = repr(value).encode("ascii")
        return b"f%d:%s" % (len(body), body)
    if isinstance(value, str):
        body = value.encode("utf-8")
        return b"s%d:%s" % (len(body), body)
    if isinstance(value, (bytes, bytearray)):
        return b"y%d:%s" % (len(value), bytes(value))
    if isinstance(value, (tuple, list)):
        parts = [oracle_encode(item) for item in value]
        return b"t%d:%s" % (len(parts), b"".join(parts))
    if isinstance(value, (set, frozenset)):
        return oracle_encode(tuple(sorted(value)))
    if isinstance(value, dict):
        return oracle_encode(tuple(sorted(value.items())))
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def build_env():
    sim = Simulation(seed=0)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    kvm = KvmHypervisor(sim, testbed.secondary)
    return sim, xen, kvm


@pytest.fixture
def env():
    return build_env()


@pytest.fixture
def translator():
    return StateTranslator()


def make_state(env, translator, vcpus=2):
    _sim, xen, kvm = env
    vm = xen.create_vm("g", vcpus=vcpus, memory_bytes=GIB)
    StateTranslator.prepare_guest(vm, xen, kvm)
    payload = xen.extract_guest_state(vm)
    return translator.parse(payload), payload


class TestCanonicalEncoding:
    def test_types_are_tagged(self):
        # A bool is an int subclass but must never encode as one, and
        # the string "1" must never collide with the integer 1.
        assert _encode(True) != _encode(1)
        assert _encode(False) != _encode(0)
        assert _encode("1") != _encode(1)
        assert _encode(1.0) != _encode(1)

    def test_length_prefix_prevents_concatenation_collisions(self):
        assert _encode(("ab", "c")) != _encode(("a", "bc"))
        assert _encode((1, 23)) != _encode((12, 3))

    def test_sets_and_dicts_are_order_free(self):
        assert _encode({"b", "a"}) == _encode({"a", "b"})
        assert _encode({"x": 1, "y": 2}) == _encode({"y": 2, "x": 1})

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError):
            _encode(object())


class TestMerkleRoot:
    def test_empty_and_singleton(self):
        assert merkle_root([]) != merkle_root([b"\x00" * 16])
        leaf = b"\x01" * 16
        assert merkle_root([leaf]) == leaf.hex()

    def test_order_sensitive(self):
        a, b = b"\x01" * 16, b"\x02" * 16
        assert merkle_root([a, b]) != merkle_root([b, a])

    def test_odd_leaf_counts_fold(self):
        leaves = [bytes([i]) * 16 for i in range(5)]
        root = merkle_root(leaves)
        assert len(root) == 32  # 16-byte digest, hex
        assert root != merkle_root(leaves[:4])


class TestAttestation:
    def test_same_state_same_root(self, env, translator):
        state, _ = make_state(env, translator)
        a = attest_state(state, epoch=3, dirty_pages=10, chunk_ids=(1, 2))
        b = attest_state(state, epoch=3, dirty_pages=10, chunk_ids=(1, 2))
        assert a.root == b.root
        assert a.memory_leaf == b.memory_leaf

    def test_dirty_extent_is_part_of_the_root(self, env, translator):
        state, _ = make_state(env, translator)
        a = attest_state(state, epoch=1, dirty_pages=10, chunk_ids=(1,))
        b = attest_state(state, epoch=1, dirty_pages=11, chunk_ids=(1,))
        assert a.root != b.root

    def test_translation_preserves_the_root(self, env, translator):
        """The replica recomputes the primary's root across formats."""
        _sim, _xen, kvm = env
        state, payload = make_state(env, translator)
        attestation = attest_state(state, epoch=0, dirty_pages=4)
        translated = translator.translate(payload, kvm)
        replica_state = translator.parse(translated, use_cache=False)
        assert (
            semantic_root(replica_state, attestation.memory_leaf)
            == attestation.root
        )

    def test_register_flip_changes_the_root(self, env, translator):
        state, _ = make_state(env, translator)
        attestation = attest_state(state, epoch=0, dirty_pages=4)
        state.vcpus[0].control["cr3"] ^= 1 << 12
        assert (
            semantic_root(state, attestation.memory_leaf) != attestation.root
        )

    def test_device_truncation_changes_the_root(self, env, translator):
        state, _ = make_state(env, translator)
        assert state.devices, "expected device records in the sample state"
        attestation = attest_state(state, epoch=0, dirty_pages=4)
        state.devices[0]["fields"] = {}
        assert (
            semantic_root(state, attestation.memory_leaf) != attestation.root
        )

    def test_leaf_layout_counts_every_component(self, env, translator):
        state, _ = make_state(env, translator, vcpus=3)
        leaves = state_leaves(state)
        # meta + one per vCPU + one per device.
        assert len(leaves) == 1 + 3 + len(state.devices)

    def test_memory_leaf_is_pure(self):
        assert memory_leaf(5, (1, 2)) == memory_leaf(5, (1, 2))
        assert memory_leaf(5, (1, 2)) != memory_leaf(5, (2, 1))


#: Leaf and root hex of the fixed guest below (Xen, 2 vCPUs, 1 GiB,
#: simulation seed 0), pinned so an encoder rewrite must stay
#: byte-identical: the same roots on both sides of every translation
#: and the same seeded campaign results.
GOLDEN_META = "bed7884b09f5219c6d87ed0c7c57fd7c"
GOLDEN_VCPUS = (
    "191827a2f105b02bc2ce43f35983603c",
    "9b0158478a35cc085d116cf365b5512b",
)
GOLDEN_DEVICES = (
    "f3330b1ddd0c5b8818a654509d7366ca",
    "970aa47fc9a796be31016a3b799f1088",
    "4fa3dca964009ffdee883e82e7eec66a",
)
GOLDEN_MEMORY = "5f047e1e2e9f4a0a58c94bec2629b179"
GOLDEN_ROOT = "554c1fef0cbc2be8faa59bf33a30c3f2"


class TestGoldenLeaves:
    @pytest.fixture
    def both_sides(self, env, translator):
        """The Xen guest's parsed state and its KVM translation's."""
        _sim, _xen, kvm = env
        state, payload = make_state(env, translator)
        translated = translator.translate(payload, kvm)
        return state, translator.parse(translated, use_cache=False)

    @pytest.mark.parametrize("side", [0, 1], ids=["xen", "kvm"])
    def test_every_leaf_kind_is_pinned(self, both_sides, side):
        state = both_sides[side]
        assert meta_leaf(state.features, state.memory_pages).hex() == (
            GOLDEN_META
        )
        assert tuple(vcpu_leaf(v).hex() for v in state.vcpus) == (
            GOLDEN_VCPUS
        )
        assert tuple(device_leaf(d).hex() for d in state.devices) == (
            GOLDEN_DEVICES
        )
        memory = memory_leaf(4, (3, 1, 7))
        assert memory == GOLDEN_MEMORY
        assert semantic_root(state, memory) == GOLDEN_ROOT


class Vector(enum.IntEnum):
    """An ``int`` subclass: it takes the ``isinstance`` fallback."""

    TIMER = 0xEF
    WIDE = 2**70


def encoding_or_error(encode, value):
    try:
        return encode(value)
    except TypeError:
        return TypeError


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.binary(),
    st.binary().map(bytearray),
    st.sampled_from(list(Vector)),
)
nested_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.sets(st.integers()),
        st.sets(st.text()),
        st.frozensets(st.floats(allow_nan=False)),
        st.sets(st.one_of(st.integers(), st.text()), max_size=3),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
    ),
    max_leaves=24,
)


class TestFlatEncoderMatchesOracle:
    @given(value=nested_values)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_bytes_as_the_recursive_encoder(self, value):
        # A set mixing ints and strs cannot be sorted: both must raise.
        assert encoding_or_error(_encode, value) == encoding_or_error(
            oracle_encode, value
        )

    @pytest.mark.parametrize(
        "value",
        [object(), numpy.int64(1), (1, [object()]), {"k": numpy.int64(1)}],
        ids=["object", "numpy-int64", "nested-object", "nested-numpy"],
    )
    def test_unencodable_values_raise_type_error(self, value):
        for encode in (_encode, oracle_encode):
            with pytest.raises(TypeError):
                encode(value)

    def test_int_enum_takes_the_int_branch(self):
        assert _encode(Vector.TIMER) == oracle_encode(Vector.TIMER)
        assert _encode(Vector.TIMER)[:1] == b"i"


def oracle_vcpu_leaf(vcpu) -> bytes:
    return _leaf(b"vcpu", oracle_encode(tuple(vcpu.canonical_items())))


u64 = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def vcpu_states(draw, ints=u64, names=st.sampled_from(["cs", "ds", "tr"])):
    """A vCPU of exact field types (the fast path's input)."""
    segments = {
        draw(names): SegmentDescriptor(
            selector=draw(ints),
            base=draw(ints),
            limit=draw(ints),
            attributes=draw(ints),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    }
    msrs = {
        draw(ints): draw(ints)
        for _ in range(draw(st.integers(min_value=0, max_value=10)))
    }
    lapic = LapicState(
        apic_id=draw(ints),
        apic_base_msr=draw(ints),
        tpr=draw(ints),
        timer_divide=draw(ints),
        timer_initial_count=draw(ints),
        timer_current_count=draw(ints),
        lvt_timer=draw(ints),
        enabled=draw(st.booleans()),
    )
    timer = TimerState(
        tsc_offset=draw(ints),
        tsc_frequency_khz=draw(ints),
        system_time_base=draw(st.floats()),
    )
    return VcpuArchState(
        index=draw(ints),
        gp={name: draw(ints) for name in GP_REGISTERS},
        control={name: draw(ints) for name in CONTROL_REGISTERS},
        segments=segments,
        msrs=msrs,
        lapic=lapic,
        timer=timer,
        xsave_area=draw(st.binary(max_size=600)),
        online=draw(st.booleans()),
    )


class TestVcpuFastPath:
    @given(vcpu=vcpu_states())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_fast_path_matches_the_oracle(self, vcpu):
        payload = _vcpu_payload(vcpu)
        assert payload is not None, "exact-typed state left the fast path"
        assert payload == oracle_encode(tuple(vcpu.canonical_items()))
        assert vcpu_leaf(vcpu) == oracle_vcpu_leaf(vcpu)

    @given(
        vcpu=vcpu_states(
            ints=st.one_of(st.integers(), st.integers(min_value=10**70)),
            names=st.text(max_size=4),
        )
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_any_int_width_and_segment_name_matches_the_oracle(self, vcpu):
        # Negative and over-64-bit fields, ints wider than the header
        # table and non-ASCII segment names: fast path or fallback, the
        # leaf is the oracle's.
        assert vcpu_leaf(vcpu) == oracle_vcpu_leaf(vcpu)

    def test_sampled_states_take_the_fast_path(self):
        for seed in range(20):
            vcpu = sample_running_state(seed % 4, seed=seed)
            assert _vcpu_payload(vcpu) == oracle_encode(
                tuple(vcpu.canonical_items())
            )

    @pytest.mark.parametrize(
        "swap",
        [
            lambda v: setattr(v, "online", 1),
            lambda v: setattr(v.lapic, "enabled", 0),
            lambda v: setattr(v.timer, "system_time_base", 5),
            lambda v: v.gp.__setitem__("rax", True),
        ],
        ids=["online=1", "enabled=0", "int-system-time", "bool-rax"],
    )
    def test_type_swapped_fields_take_the_fallback(self, swap):
        twin = sample_running_state(1, seed=9)
        twin.lapic.enabled = False
        twin.timer.system_time_base = 5.0
        twin.gp["rax"] = 1
        swapped = copy.deepcopy(twin)
        swap(swapped)
        assert _vcpu_payload(swapped) is None
        assert vcpu_leaf(swapped) == oracle_vcpu_leaf(swapped)
        assert swapped.equivalent_to(twin)  # Python == cannot tell them apart
        assert vcpu_leaf(swapped) != vcpu_leaf(twin)


@pytest.fixture(scope="module")
def guest():
    """A parsed guest state, its memory leaf and its clean root."""
    state, _payload = make_state(build_env(), StateTranslator())
    memory = memory_leaf(4, (3, 1, 7))
    return state, memory, semantic_root(state, memory)


def flip(value: int, bit: int) -> int:
    return value ^ (1 << bit)


class TestDetectionProperty:
    """Any single semantic mutation changes the root."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_one_mutation_changes_the_root(self, guest, data):
        clean_state, memory, root = guest
        state = copy.deepcopy(clean_state)
        vcpu = data.draw(st.sampled_from(state.vcpus))
        bit = data.draw(st.integers(min_value=0, max_value=63))
        kind = data.draw(
            st.sampled_from(
                ["gp", "cr", "msr", "seg", "lapic", "tsc", "online",
                 "device", "feature"]
            )
        )
        if kind == "gp":
            name = data.draw(st.sampled_from(GP_REGISTERS))
            vcpu.gp[name] = flip(vcpu.gp[name], bit)
        elif kind == "cr":
            name = data.draw(st.sampled_from(CONTROL_REGISTERS))
            vcpu.control[name] = flip(vcpu.control[name], bit)
        elif kind == "msr":
            msr = data.draw(st.sampled_from(sorted(vcpu.msrs)))
            vcpu.msrs[msr] = flip(vcpu.msrs[msr], bit)
        elif kind == "seg":
            name = data.draw(st.sampled_from(sorted(vcpu.segments)))
            seg = vcpu.segments[name]
            field = data.draw(
                st.sampled_from(["selector", "base", "limit", "attributes"])
            )
            setattr(seg, field, flip(getattr(seg, field), bit))
        elif kind == "lapic":
            field = data.draw(
                st.sampled_from(
                    ["apic_id", "apic_base_msr", "tpr", "timer_divide",
                     "timer_initial_count", "timer_current_count",
                     "lvt_timer"]
                )
            )
            setattr(vcpu.lapic, field, flip(getattr(vcpu.lapic, field), bit))
        elif kind == "tsc":
            field = data.draw(
                st.sampled_from(["tsc_offset", "tsc_frequency_khz"])
            )
            setattr(vcpu.timer, field, flip(getattr(vcpu.timer, field), bit))
        elif kind == "online":
            vcpu.online = not vcpu.online
        elif kind == "device":
            device = data.draw(st.sampled_from(state.devices))
            device["fields"] = {}
        else:
            feature = data.draw(st.sampled_from(sorted(state.features)))
            state.features = state.features - {feature}
        assert semantic_root(state, memory) != root
