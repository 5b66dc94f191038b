"""Machine specifications (paper Table II) and scaled miniatures.

:data:`SANDY_BRIDGE_E5_2670` models the paper's test platform: two Xeon
E5-2670 sockets (8 cores each), private 32 KB L1d and 256 KB L2 per core, a
shared 20 MB L3 per socket, and 8x8 GB DDR3-1600 (4 channels per socket).

Because exhaustive trace-driven simulation at the paper's problem sizes is
infeasible in pure Python (2^30..2^36 accesses), :func:`scaled_machine`
produces a proportionally shrunken machine: cache capacities divided by a
power-of-two factor with associativity and line size preserved, so a
problem of side ``n / sqrt(factor)`` exercises the same capacity ratios
``u = working set / cache`` as the full-size problem — the scaling-collapse
variable the analytic model is calibrated on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import SimulationError
from repro.util.bits import is_pow2

__all__ = [
    "CacheSpec",
    "CoreSpec",
    "DRAMSpec",
    "MachineSpec",
    "SANDY_BRIDGE_E5_2670",
    "CACHEGRIND_LIKE",
    "scaled_machine",
]


@dataclass(frozen=True)
class CacheSpec:
    """One cache level.

    ``latency_cycles`` is the load-to-use latency seen on a hit at this
    level; ``size_bytes`` / ``line_bytes`` / ``assoc`` define the geometry
    (sets are derived and must come out a power of two).
    """

    name: str
    size_bytes: int
    line_bytes: int = 64
    assoc: int = 8
    latency_cycles: int = 4

    def __post_init__(self):
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.assoc <= 0:
            raise SimulationError(f"invalid cache spec {self!r}")
        if not is_pow2(self.line_bytes):
            raise SimulationError(f"line_bytes must be a power of two: {self!r}")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise SimulationError(
                f"{self.name}: size must be a multiple of line_bytes*assoc"
            )
        if not is_pow2(self.n_sets):
            raise SimulationError(f"{self.name}: set count must be a power of two")

    @property
    def n_lines(self) -> int:
        """Total number of lines."""
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.n_lines // self.assoc


@dataclass(frozen=True)
class CoreSpec:
    """Per-core execution parameters.

    ``issue_width`` is sustained scalar ALU ops per cycle; ``fma_cycles``
    the effective cycles of the inner loop's multiply-add chain;
    ``branch_miss_penalty`` cycles per mispredicted branch with
    ``branch_miss_rate`` the misprediction probability of the Hilbert
    rotation branches; ``mlp`` the number of outstanding misses a core
    overlaps (load buffers / prefetch streams).
    """

    issue_width: float = 2.0
    fma_cycles: float = 3.0
    loop_overhead_cycles: float = 3.0
    branch_miss_penalty: float = 15.0
    branch_miss_rate: float = 0.10
    mlp: float = 10.0


@dataclass(frozen=True)
class DRAMSpec:
    """Memory subsystem parameters (per socket unless stated)."""

    latency_ns: float = 100.0
    bandwidth_gbps: float = 40.0  # sustained per socket (4ch DDR3-1600)
    numa_remote_latency_factor: float = 1.5
    dimms_total: int = 8
    background_watts_per_dimm: float = 1.8
    access_watts_per_gbps: float = 0.25


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine: sockets x cores, cache hierarchy, DRAM, DVFS.

    The three cache levels share one ``line_bytes``: each level replays
    the line numbers of the level above as its own.
    """

    name: str
    sockets: int
    cores_per_socket: int
    l1: CacheSpec
    l2: CacheSpec
    l3: CacheSpec  # shared per socket
    core: CoreSpec = field(default_factory=CoreSpec)
    dram: DRAMSpec = field(default_factory=DRAMSpec)
    #: Fixed DVFS operating points in GHz (paper Table III).
    frequencies_ghz: tuple[float, ...] = (1.2, 1.8, 2.6)
    #: Memory bus clock in GHz (DDR3-1600: 0.8 GHz bus, 1600 MT/s); the
    #: paper's energy knee appears once core clock exceeds 1.6 "GHz".
    memory_clock_ghz: float = 1.6
    #: Maximum all-core turbo frequency (ondemand governor headroom).
    turbo_allcore_ghz: float = 3.0
    #: Maximum single-core turbo frequency.
    turbo_1core_ghz: float = 3.3

    def __post_init__(self):
        if self.sockets <= 0 or self.cores_per_socket <= 0:
            raise SimulationError("sockets and cores_per_socket must be positive")
        if not self.l1.line_bytes == self.l2.line_bytes == self.l3.line_bytes:
            raise SimulationError(
                f"{self.name}: cache levels must share one line size, got "
                f"{self.l1.line_bytes}/{self.l2.line_bytes}/"
                f"{self.l3.line_bytes} B"
            )

    @property
    def total_cores(self) -> int:
        """Cores across all sockets."""
        return self.sockets * self.cores_per_socket

    def llc_aggregate_bytes(self, sockets_used: int) -> int:
        """Combined last-level cache of the sockets in use."""
        if not 1 <= sockets_used <= self.sockets:
            raise SimulationError(
                f"sockets_used {sockets_used} out of range 1..{self.sockets}"
            )
        return sockets_used * self.l3.size_bytes


#: The paper's platform (Table II).  The L3 is modelled at 20 MB, 20-way —
#: 2.5 MB slice per core as on Sandy Bridge EP.
SANDY_BRIDGE_E5_2670 = MachineSpec(
    name="2x Xeon E5-2670 (Sandy Bridge EP)",
    sockets=2,
    cores_per_socket=8,
    l1=CacheSpec("L1d", 32 * 1024, 64, 8, latency_cycles=4),
    l2=CacheSpec("L2", 256 * 1024, 64, 8, latency_cycles=12),
    l3=CacheSpec("L3", 20 * 1024 * 1024, 64, 20, latency_cycles=35),
)

#: Valgrind/cachegrind's default two-level model (D1 + LL) shrunk for
#: scaled runs is derived from this via :func:`scaled_machine`.
CACHEGRIND_LIKE = MachineSpec(
    name="cachegrind D1/LL model",
    sockets=1,
    cores_per_socket=1,
    l1=CacheSpec("D1", 32 * 1024, 64, 8, latency_cycles=1),
    l2=CacheSpec("L2", 256 * 1024, 64, 8, latency_cycles=10),
    l3=CacheSpec("LL", 20 * 1024 * 1024, 64, 20, latency_cycles=35),
)


def scaled_machine(base: MachineSpec, factor: int, name: str | None = None) -> MachineSpec:
    """Shrink every cache of ``base`` by ``factor`` (a power of two).

    Associativity and line size are preserved (so geometry effects like
    conflict misses keep the same character); only the set counts shrink.
    DRAM bandwidth and latencies are left untouched — the scaled machine is
    used for *miss-count* calibration, not absolute timing.
    """
    if factor <= 0 or not is_pow2(factor):
        raise SimulationError(f"factor must be a positive power of two, got {factor}")

    def shrink(spec: CacheSpec) -> CacheSpec:
        new_size = spec.size_bytes // factor
        min_size = spec.line_bytes * spec.assoc
        if new_size < min_size:
            # Clamp by reducing associativity down to direct-mapped rather
            # than refusing: tiny caches remain simulable.
            assoc = max(1, new_size // spec.line_bytes)
            new_size = max(spec.line_bytes * assoc, spec.line_bytes)
            return replace(spec, size_bytes=new_size, assoc=assoc)
        return replace(spec, size_bytes=new_size)

    return replace(
        base,
        name=name or f"{base.name} / {factor}",
        l1=shrink(base.l1),
        l2=shrink(base.l2),
        l3=shrink(base.l3),
    )
