"""The serial loop ``MulticoreTraceSim.run`` used to take, kept as the oracle.

Before every run went through :func:`repro.sim.parallel.run_parallel`,
a run without ``workers`` generated each thread's byte-address chunks
live with :func:`~repro.trace.matmul_trace.naive_matmul_trace` and pulled
the threads round-robin, one chunk at a time: each chunk was mapped to
L1 line numbers, replayed through the thread's private L1 and L2, and
its L2 misses straight into the socket's L3.  :func:`oracle_run` is that
loop, on a sim's own caches, and every run of the suites is compared to
it: the result and the post-run contents of every cache, with or
without workers or a trace cache, across carried-state runs and degraded
ones.

The comparison helpers (:func:`result_key`, :func:`cache_contents`,
:func:`assert_same_contents`) live here too, so every suite compares the
same way.
"""

import numpy as np

from repro.sim import CacheSpec, HierarchyResult, MachineSpec, MulticoreTraceSim
from repro.trace.matmul_trace import naive_matmul_trace


def machine():
    # 2 sockets x 8 cores so the paper's 1s/2d/8s placements all fit.
    return MachineSpec(
        name="mini16",
        sockets=2,
        cores_per_socket=8,
        l1=CacheSpec("L1", 512, 64, 2),
        l2=CacheSpec("L2", 2048, 64, 4),
        l3=CacheSpec("L3", 16 * 1024, 64, 8),
    )


def oracle_run(sim: MulticoreTraceSim, rows=None) -> HierarchyResult:
    """One pass of the deleted serial loop on ``sim``'s caches."""
    generators = [
        naive_matmul_trace(sim.spec, rows=trows, cols_per_chunk=sim.cols_per_chunk)
        for trows in sim._thread_rows(rows)
    ]
    shift = np.uint64(sim.machine.l1.line_bytes.bit_length() - 1)
    live = list(range(sim.placement.threads))
    while live:
        finished = []
        for t in live:
            try:
                chunk = next(generators[t])
            except StopIteration:
                finished.append(t)
                continue
            socket, core = sim.placement.assignments[t]
            s = sim.sockets[socket]
            l1, l2 = s.cores[core].l1, s.cores[core].l2
            lines, w, tags = l1.access_lines(chunk.addr >> shift, chunk.is_write, chunk.tag)
            if len(lines):
                lines, w, tags = l2.access_lines(lines, w, tags)
            s.absorb_miss_stream(lines, w, tags)
        for t in finished:
            live.remove(t)
    return sim.result()


def oracle(machine, spec, threads=1, sockets_used=1, runs=(None,), **kwargs):
    """A fresh sim (``kwargs``: its layout options, e.g. ``schedule``)
    after one :func:`oracle_run` per entry of ``runs`` (each
    a ``rows`` argument); the state carries from run to run."""
    sim = MulticoreTraceSim(machine, spec, threads, sockets_used, **kwargs)
    for rows in runs:
        oracle_run(sim, rows)
    return sim


def stats_key(cs):
    return (
        cs.accesses, cs.write_accesses, cs.hits, cs.misses, cs.read_misses,
        cs.write_misses, cs.evictions, cs.writebacks, cs.prefetches,
        cs.tag_accesses.tolist(), cs.tag_read_misses.tolist(),
        cs.tag_write_misses.tolist(),
    )


def result_key(r):
    """Every counter of every level, per-tag attribution included."""
    return (
        stats_key(r.l1), stats_key(r.l2), stats_key(r.l3),
        r.dram_lines, r.dram_writeback_lines, r.line_bytes,
    )


def cache_contents(sim):
    """Post-run cache state of every level of every socket."""
    out = []
    for s in sim.sockets:
        for core in s.cores:
            for level in (core.l1, core.l2):
                snap = level.state_snapshot()
                snap.pop("stats")
                out.append(snap)
        snap = s.l3.state_snapshot()
        snap.pop("stats")
        out.append(snap)
    return out


def assert_same_contents(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa["kind"] == sb["kind"]
        if sa["kind"] == "fast":
            np.testing.assert_array_equal(sa["stack"], sb["stack"])
            np.testing.assert_array_equal(sa["dirty"], sb["dirty"])
        else:
            assert sa["sets"] == sb["sets"]
            assert sa["dirty"] == sb["dirty"]


def assert_matches_oracle(sim, ref):
    """``sim`` equals the oracle sim ``ref``: result and every cache."""
    assert result_key(sim.result()) == result_key(ref.result())
    assert_same_contents(cache_contents(sim), cache_contents(ref))
