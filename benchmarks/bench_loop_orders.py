"""ABL-LOOP: loop-order x layout miss matrix (exact simulation).

The paper fixes the ijk order; this ablation shows why the *layout*
result is robust to that choice: row-major's misses swing wildly with the
loop order (the textbook ikj fix), while the Morton layout's miss counts
barely move — curve storage is oblivious to the loop nest, not just to
the cache parameters.
"""

from repro.sim import CacheSpec, MachineSpec, SocketSim
from repro.trace import MatmulTraceSpec, lower_chunks, naive_matmul_trace


def _machine():
    return MachineSpec(
        name="mini", sockets=1, cores_per_socket=1,
        l1=CacheSpec("L1", 512, 64, 1),
        l2=CacheSpec("L2", 2048, 64, 8),
        l3=CacheSpec("L3", 32 * 1024, 64, 16),
    )


def _misses(spec, loop_order):
    s = SocketSim(_machine(), 1)
    chunks = naive_matmul_trace(spec, rows=[31, 32], loop_order=loop_order)
    for segment in lower_chunks(chunks, 64):
        s.access_lines(0, *segment)
    return s.result().l3.misses


def test_loop_order_matrix(benchmark, report):
    def run():
        out = {}
        for layout in ("rm", "mo", "ho"):
            spec = MatmulTraceSpec.uniform(64, layout)
            for lo in ("ijk", "ikj", "jki"):
                out[(layout, lo)] = _misses(spec, lo)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'layout':>7s} {'ijk':>9s} {'ikj':>9s} {'jki':>9s} {'max/min':>8s}"]
    for layout in ("rm", "mo", "ho"):
        vals = [out[(layout, lo)] for lo in ("ijk", "ikj", "jki")]
        spread = max(vals) / min(vals)
        lines.append(
            f"{layout.upper():>7s} " + " ".join(f"{v:9,d}" for v in vals)
            + f" {spread:8.1f}"
        )
    lines.append("")
    lines.append("LL misses, 2 sampled rows of a 64x64 problem, 32 KB LL.")
    report("ABL-LOOP — LOOP ORDER x LAYOUT (LL misses)", "\n".join(lines))
