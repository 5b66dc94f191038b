"""PAPI-like event sets."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.perf import EventSet, events_from_hierarchy
from repro.sim import CacheSpec, MachineSpec, SocketSim
from repro.trace import TraceChunk, lower_chunks


class TestEventSet:
    def test_lifecycle(self):
        es = EventSet()
        es.add_event("PAPI_L1_DCM")
        es.start()
        es.accumulate("PAPI_L1_DCM", 42)
        out = es.stop()
        assert out["PAPI_L1_DCM"] == 42

    def test_read_is_delta_since_start(self):
        es = EventSet()
        es.add_event("PAPI_L3_TCM")
        es.accumulate("PAPI_L3_TCM", 100)  # before start
        es.start()
        es.accumulate("PAPI_L3_TCM", 7)
        assert es.read()["PAPI_L3_TCM"] == 7

    def test_unknown_event_rejected(self):
        with pytest.raises(SimulationError):
            EventSet().add_event("PAPI_BOGUS")

    def test_double_start_rejected(self):
        es = EventSet()
        es.start()
        with pytest.raises(SimulationError):
            es.start()

    def test_stop_without_start(self):
        with pytest.raises(SimulationError):
            EventSet().stop()

    def test_add_while_running(self):
        es = EventSet()
        es.start()
        with pytest.raises(SimulationError):
            es.add_event("PAPI_L1_DCM")

    def test_negative_increment(self):
        es = EventSet()
        es.add_event("PAPI_L1_DCM")
        with pytest.raises(SimulationError):
            es.accumulate("PAPI_L1_DCM", -1)

    def test_accumulate_unregistered(self):
        es = EventSet()
        with pytest.raises(SimulationError):
            es.accumulate("PAPI_L1_DCM", 1)


class TestHierarchyMapping:
    def test_event_values(self):
        m = MachineSpec(
            name="t", sockets=1, cores_per_socket=1,
            l1=CacheSpec("L1", 2048, 64, 4),
            l2=CacheSpec("L2", 2048, 64, 4),
            l3=CacheSpec("L3", 4096, 64, 4),
        )
        s = SocketSim(m, 1)
        chunks = [
            TraceChunk.reads(np.arange(16, dtype=np.uint64) * 64),
            TraceChunk.writes(np.array([0])),
        ]
        for segment in lower_chunks(chunks, 64):
            s.access_lines(0, *segment)
        ev = events_from_hierarchy(s.result())
        assert ev["PAPI_L1_DCM"] == 16  # write hits line 0
        assert ev["PAPI_LD_INS"] == 16
        assert ev["PAPI_SR_INS"] == 1
        assert ev["PAPI_L3_TCM"] == ev["PAPI_L3_DCR"]
