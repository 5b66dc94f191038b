"""ABL-BLK: the ATLAS story at miss level — blocked kernels in the exact
cache simulator (naive vs tiled vs cache-oblivious recursive)."""

from repro.sim import CacheSpec, MachineSpec, SocketSim
from repro.trace import (
    MatmulTraceSpec,
    lower_chunks,
    naive_matmul_trace,
    recursive_matmul_trace,
    tiled_matmul_trace,
)


def _machine():
    return MachineSpec(
        name="mini", sockets=1, cores_per_socket=1,
        l1=CacheSpec("L1", 512, 64, 1),
        l2=CacheSpec("L2", 2048, 64, 8),
        l3=CacheSpec("L3", 32 * 1024, 64, 16),
    )


def _misses(gen):
    s = SocketSim(_machine(), 1)
    for segment in lower_chunks(gen, 64):
        s.access_lines(0, *segment)
    return s.result().l3.misses


def test_blocked_kernel_misses(benchmark, report):
    spec = MatmulTraceSpec.uniform(64, "rm")

    def run():
        return {
            "naive": _misses(naive_matmul_trace(spec)),
            "tiled(16)": _misses(tiled_matmul_trace(spec, 16)),
            "recursive(16)": _misses(recursive_matmul_trace(spec, 16)),
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{k:>14s}: {v:9,d} LL misses" for k, v in out.items()]
    lines.append("")
    lines.append("Explicit blocking slashes misses ~25x; the cache-oblivious")
    lines.append("recursion matches it WITHOUT knowing the cache size — the")
    lines.append("algorithmic basis of the paper's ATLAS gap and of curve")
    lines.append("layouts' architecture independence.")
    report("ABL-BLK — BLOCKED-KERNEL MISS COUNTS (exact simulation)",
           "\n".join(lines))
    assert out["tiled(16)"] < out["naive"] / 10
