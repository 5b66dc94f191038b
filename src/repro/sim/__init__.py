"""Machine substrate: caches, cores, DVFS, energy, and the analytic model."""

from repro.sim.config import (
    CACHEGRIND_LIKE,
    CacheSpec,
    CoreSpec,
    DRAMSpec,
    MachineSpec,
    SANDY_BRIDGE_E5_2670,
    scaled_machine,
)
from repro.sim.cache import Cache, CacheStats
from repro.sim.fastcache import FastCache, make_cache
from repro.sim.hierarchy import CoreHierarchy, HierarchyResult, SocketSim
from repro.sim.multicore import (
    MulticoreTraceSim,
    ThreadPlacement,
    partition_rows,
    partition_rows_cyclic,
)
from repro.sim.parallel import (
    pack_miss_stream,
    run_parallel,
    unpack_miss_stream,
)
from repro.sim.cpu import cycles_per_iteration, hoisted_index_ops, kernel_compute_seconds
from repro.sim.dram import dram_power_watts, effective_bandwidth_gbps, memory_seconds
from repro.sim.dvfs import (
    FixedGovernor,
    Governor,
    ONDEMAND,
    OndemandGovernor,
    make_governor,
)
from repro.sim.energy import (
    EnergyBreakdown,
    PowerBreakdown,
    PowerModelParams,
    power_breakdown,
    voltage,
)
from repro.sim.locality import LocalityMeter, RunLengthStats, run_lengths
from repro.sim.rapl import RAPL_ENERGY_UNIT_J, RaplCounter, unwrap_counter
from repro.sim.powermeter import PowerMeter, WallReading
from repro.sim.timeline import PowerPhase, PowerTimeline, run_timeline
from repro.sim.stackdist import (
    COLD,
    miss_curve,
    reuse_distances,
    reuse_distances_fenwick,
)
from repro.sim.analytic import (
    DEFAULT_MISS_MODELS,
    MissModelParams,
    PerformanceModel,
    RunPrediction,
    calibrate_miss_model,
    misses_per_iteration,
)

__all__ = [
    "CacheSpec",
    "CoreSpec",
    "DRAMSpec",
    "MachineSpec",
    "SANDY_BRIDGE_E5_2670",
    "CACHEGRIND_LIKE",
    "scaled_machine",
    "Cache",
    "CacheStats",
    "FastCache",
    "make_cache",
    "CoreHierarchy",
    "SocketSim",
    "HierarchyResult",
    "MulticoreTraceSim",
    "ThreadPlacement",
    "partition_rows",
    "partition_rows_cyclic",
    "run_parallel",
    "pack_miss_stream",
    "unpack_miss_stream",
    "cycles_per_iteration",
    "hoisted_index_ops",
    "kernel_compute_seconds",
    "effective_bandwidth_gbps",
    "memory_seconds",
    "dram_power_watts",
    "Governor",
    "FixedGovernor",
    "OndemandGovernor",
    "make_governor",
    "ONDEMAND",
    "PowerModelParams",
    "PowerBreakdown",
    "EnergyBreakdown",
    "power_breakdown",
    "voltage",
    "RaplCounter",
    "unwrap_counter",
    "RAPL_ENERGY_UNIT_J",
    "PowerMeter",
    "WallReading",
    "MissModelParams",
    "DEFAULT_MISS_MODELS",
    "misses_per_iteration",
    "PerformanceModel",
    "RunPrediction",
    "calibrate_miss_model",
    "PowerPhase",
    "PowerTimeline",
    "run_timeline",
    "reuse_distances",
    "reuse_distances_fenwick",
    "miss_curve",
    "COLD",
    "LocalityMeter",
    "RunLengthStats",
    "run_lengths",
]
