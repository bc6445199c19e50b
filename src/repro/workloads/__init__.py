"""Guest workloads: the paper's Table 4 benchmark suite."""

from .base import IdleWorkload, Workload
from .kvstore import (
    DEFAULT_COMPACTION_FANIN,
    DEFAULT_MEMTABLE_LIMIT,
    MiniLSM,
    SSTable,
    load_records,
    record_key,
)
from .membench import FULL_LOAD_TOUCH_RATE, LoadPhase, MemoryMicrobenchmark
from .sockperf import (
    SOCKPERF_LOADS,
    SockperfClient,
    SockperfConfig,
    SockperfServerWorkload,
)
from .trace import TraceSample, TraceWorkload, load_trace, parse_trace
from .spec import SPEC_PROFILES, SpecProfile, SpecWorkload
from .ycsb import (
    CORE_WORKLOADS,
    DEFAULT_RECORD_BYTES,
    DEFAULT_RECORD_COUNT,
    YcsbMix,
    YcsbWorkload,
)

__all__ = [
    "CORE_WORKLOADS",
    "DEFAULT_COMPACTION_FANIN",
    "DEFAULT_MEMTABLE_LIMIT",
    "DEFAULT_RECORD_BYTES",
    "DEFAULT_RECORD_COUNT",
    "FULL_LOAD_TOUCH_RATE",
    "IdleWorkload",
    "LoadPhase",
    "MemoryMicrobenchmark",
    "MiniLSM",
    "SOCKPERF_LOADS",
    "SPEC_PROFILES",
    "SSTable",
    "SockperfClient",
    "SockperfConfig",
    "SockperfServerWorkload",
    "SpecProfile",
    "SpecWorkload",
    "TraceSample",
    "TraceWorkload",
    "Workload",
    "YcsbMix",
    "YcsbWorkload",
    "load_records",
    "load_trace",
    "parse_trace",
    "record_key",
]
