"""Unit tests for the core: predictor, functional units, OoO timing model."""

import pytest

from repro.common.config import machine_for, BranchPredictorConfig, CoreConfig
from repro.cpu.branch_predictor import TwoLevelGAs
from repro.cpu.core import OoOCore, PimBackend
from repro.cpu.functional_units import FunctionalUnits
from repro.cpu.isa import (
    PimInstruction,
    PimOp,
    Uop,
    UopClass,
    alu,
    branch,
    load,
    pim,
    store,
)


class _InstantMemory:
    """Hierarchy stub: loads take `latency`, stores accept immediately."""

    def __init__(self, latency=50):
        self.latency = latency
        self.loads = []
        self.stores = []

    def load(self, cycle, address, size, pc=0):
        self.loads.append((cycle, address, size))
        return cycle + self.latency

    def store(self, cycle, address, size, pc=0):
        self.stores.append((cycle, address, size))
        return cycle + 1


class _RecordingBackend(PimBackend):
    max_outstanding = 4

    def __init__(self, latency=100):
        self.latency = latency
        self.submissions = []

    def submit(self, uop, cycle):
        self.submissions.append((cycle, uop))
        return cycle + self.latency, cycle + self.latency


def make_core(backend=None, memory=None):
    config = machine_for("x86")
    return OoOCore(config, memory or _InstantMemory(), pim_backend=backend)


class TestBranchPredictor:
    def setup_method(self):
        self.predictor = TwoLevelGAs(BranchPredictorConfig())

    def test_learns_bias(self):
        for _ in range(50):
            self.predictor.update(0x10, taken=False)
        correct = sum(self.predictor.update(0x10, taken=False) for _ in range(100))
        assert correct == 100

    def test_first_taken_misses_btb(self):
        assert not self.predictor.update(0x20, taken=True)

    def test_learns_taken_loop(self):
        for _ in range(20):
            self.predictor.update(0x30, taken=True)
        assert self.predictor.update(0x30, taken=True)

    def test_accuracy_metric(self):
        for _ in range(10):
            self.predictor.update(0x40, taken=False)
        assert 0.0 <= self.predictor.stats.get("accuracy") <= 1.0

    def test_alternating_pattern_learnable(self):
        # Two-level history should learn a strict alternation.
        for _ in range(64):
            self.predictor.update(0x50, taken=True)
            self.predictor.update(0x50, taken=False)
        hits = 0
        for _ in range(32):
            hits += self.predictor.update(0x50, taken=True)
            hits += self.predictor.update(0x50, taken=False)
        assert hits > 48  # >75 % on the learned pattern


class TestFunctionalUnits:
    def setup_method(self):
        self.units = FunctionalUnits(CoreConfig())

    def test_latencies_match_table1(self):
        assert self.units.latency_of(UopClass.INT_ALU) == 1
        assert self.units.latency_of(UopClass.INT_MUL) == 3
        assert self.units.latency_of(UopClass.INT_DIV) == 32
        assert self.units.latency_of(UopClass.FP_MUL) == 5

    def test_three_int_alus(self):
        starts = [self.units.execute(UopClass.INT_ALU, 0)[0] for _ in range(4)]
        assert starts == [0, 0, 0, 1]

    def test_divider_not_pipelined(self):
        first = self.units.execute(UopClass.INT_DIV, 0)
        second = self.units.execute(UopClass.INT_DIV, 0)
        assert second[0] >= first[0] + 32

    def test_pipelined_mul(self):
        first = self.units.execute(UopClass.INT_MUL, 0)
        second = self.units.execute(UopClass.INT_MUL, 0)
        assert second[0] == first[0] + 1  # new op every cycle

    def test_nop_free(self):
        assert self.units.execute(UopClass.NOP, 7) == (7, 7)


class TestOoOCore:
    def test_independent_alu_throughput(self):
        core = make_core()
        # 600 independent single-cycle ALU ops on a 6-wide machine with
        # 3 ALUs: throughput bound is 3/cycle.
        trace = [alu(pc=i % 7, dst=100 + i) for i in range(600)]
        result = core.run(trace)
        assert result.cycles < 600  # far better than serial
        assert result.cycles >= 200  # but bounded by the 3 ALUs

    def test_dependence_chain_serialises(self):
        core = make_core()
        trace = [alu(pc=1, srcs=(100,), dst=100) for _ in range(300)]
        result = core.run(trace)
        assert result.cycles >= 300  # 1 cycle each, fully serial

    def test_load_latency_respected(self):
        memory = _InstantMemory(latency=200)
        core = make_core(memory=memory)
        trace = [load(pc=1, address=0x1000, size=8, dst=100),
                 alu(pc=2, srcs=(100,), dst=101)]
        result = core.run(trace)
        assert result.cycles >= 200

    def test_independent_loads_overlap(self):
        memory = _InstantMemory(latency=200)
        core = make_core(memory=memory)
        trace = [load(pc=1, address=0x1000 + 64 * i, size=8, dst=100 + i)
                 for i in range(10)]
        result = core.run(trace)
        assert result.cycles < 10 * 200  # memory-level parallelism

    def test_store_accesses_cache_at_commit(self):
        memory = _InstantMemory()
        core = make_core(memory=memory)
        core.run([store(pc=1, address=0x40, size=8)])
        assert len(memory.stores) == 1

    def test_store_to_load_forwarding(self):
        memory = _InstantMemory(latency=500)
        core = make_core(memory=memory)
        trace = [store(pc=1, address=0x80, size=8),
                 load(pc=2, address=0x80, size=8, dst=100)]
        result = core.run(trace)
        assert result.cycles < 100  # no 500-cycle memory trip
        assert core.stats.get("store_forwards") == 1

    def test_forwarding_requires_covering_size(self):
        memory = _InstantMemory(latency=500)
        core = make_core(memory=memory)
        trace = [store(pc=1, address=0x80, size=4),
                 load(pc=2, address=0x80, size=8, dst=100)]
        result = core.run(trace)
        assert result.cycles >= 500  # partial store cannot forward

    def test_mispredict_costs_cycles(self):
        # Random directions mispredict often; compare to a biased branch.
        def run(pattern):
            core = make_core()
            trace = []
            for i in range(400):
                trace.append(alu(pc=1, dst=100))
                trace.append(branch(pc=2, taken=pattern(i), srcs=(100,)))
            return core.run(trace).cycles

        biased = run(lambda i: False)
        noisy = run(lambda i: (i * 2654435761) % 3 == 0)
        assert noisy > biased

    def test_pim_requires_backend(self):
        core = make_core(backend=None)
        inst = PimInstruction(PimOp.LOCK)
        with pytest.raises(RuntimeError):
            core.run([pim(pc=1, instruction=inst)])

    def test_pim_nonspeculative_waits_for_branches(self):
        backend = _RecordingBackend(latency=10)
        memory = _InstantMemory(latency=300)
        core = make_core(backend=backend, memory=memory)
        trace = [
            load(pc=1, address=0x100, size=8, dst=100),
            branch(pc=2, taken=False, srcs=(100,)),  # resolves at ~300
            pim(pc=3, instruction=PimInstruction(PimOp.LOCK)),
        ]
        core.run(trace)
        assert backend.submissions[0][0] >= 300

    def test_pim_speculative_ignores_branches(self):
        backend = _RecordingBackend(latency=10)
        memory = _InstantMemory(latency=300)
        core = make_core(backend=backend, memory=memory)
        inst = PimInstruction(PimOp.HMC_LOADCMP, address=0, size=64,
                              returns_value=True)
        trace = [
            load(pc=1, address=0x100, size=8, dst=100),
            branch(pc=2, taken=False, srcs=(100,)),
            pim(pc=3, instruction=inst, dst=101),
        ]
        core.run(trace)
        assert backend.submissions[0][0] < 300

    def test_pim_window_throttles(self):
        backend = _RecordingBackend(latency=1000)
        core = make_core(backend=backend)
        inst = PimInstruction(PimOp.HMC_LOADCMP, address=0, size=64)
        core.run([pim(pc=1, instruction=inst) for _ in range(8)])
        # max_outstanding=4: the 5th op waits for the 1st to complete.
        fifth = backend.submissions[4][0]
        assert fifth >= 1000

    def test_rob_bounds_inflight(self):
        memory = _InstantMemory(latency=1000)
        core = make_core(memory=memory)
        # 400 independent loads: ROB (168) forces waves of completion.
        trace = [load(pc=1, address=64 * i, size=8, dst=100 + (i % 64))
                 for i in range(400)]
        result = core.run(trace)
        assert result.cycles >= 3000  # ceil(400/168)-ish waves of 1000

    def test_ipc_metric(self):
        core = make_core()
        result = core.run([alu(pc=i % 5, dst=100 + i) for i in range(100)])
        assert result.stats.get("ipc") > 0
