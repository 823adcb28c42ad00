"""Machine configuration: every row of the paper's Table I as dataclasses.

Two presets are provided:

* :func:`paper_config` — the exact parameters of Table I (16 cores,
  40 MB L3, 8 GB HMC, 1 GB TPC-H).  Faithful, but a full run at this
  scale is slow in a Python timing model.
* :func:`scaled_config` — the default for tests/benches: identical
  latencies, widths, policies and ratios, with cache *capacities* and the
  dataset shrunk by the same factor so that the working-set :
  cache-capacity relationship (which drives every qualitative result in
  the paper) is preserved.

Experiments accept either preset; EXPERIMENTS.md records which was used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from .units import GIB, KIB, MIB


@dataclass(frozen=True)
class FunctionalUnitSpec:
    """One class of execution units: how many and how slow."""

    count: int
    latency: int  # core cycles
    pipelined: bool = True  # can accept a new op every cycle


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table I, "OoO Execution Cores")."""

    num_cores: int = 16
    frequency_ghz: float = 2.0
    issue_width: int = 6
    fetch_bytes: int = 16
    fetch_buffer_entries: int = 18
    decode_buffer_entries: int = 28
    rob_entries: int = 168
    mob_read_entries: int = 64
    mob_write_entries: int = 36
    branches_per_fetch: int = 1
    front_end_depth: int = 8  # fetch->dispatch pipeline latency, cycles
    mispredict_penalty: int = 14  # redirect cost after branch resolution
    avg_uop_bytes: int = 4  # mean x86 uop footprint for the 16 B fetch limit
    # Load/store units: 1 each, 1-cycle (Table I).
    load_units: FunctionalUnitSpec = FunctionalUnitSpec(1, 1)
    store_units: FunctionalUnitSpec = FunctionalUnitSpec(1, 1)
    # Integer: 3 ALU (1 cy), 1 MUL (3 cy), 1 DIV (32 cy).
    int_alu: FunctionalUnitSpec = FunctionalUnitSpec(3, 1)
    int_mul: FunctionalUnitSpec = FunctionalUnitSpec(1, 3)
    int_div: FunctionalUnitSpec = FunctionalUnitSpec(1, 32, pipelined=False)
    # Floating point: 1 ALU (3 cy), 1 MUL (5 cy), 1 DIV (10 cy).
    fp_alu: FunctionalUnitSpec = FunctionalUnitSpec(1, 3)
    fp_mul: FunctionalUnitSpec = FunctionalUnitSpec(1, 5)
    fp_div: FunctionalUnitSpec = FunctionalUnitSpec(1, 10, pipelined=False)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Two-level GAs predictor with a BTB (Table I)."""

    btb_entries: int = 4096
    btb_ways: int = 4
    history_bits: int = 12
    pht_entries: int = 4096  # pattern history table of 2-bit counters


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int  # core cycles, tag+data on a hit
    line_bytes: int = 64
    mshr_request: int = 10
    mshr_write: int = 10
    mshr_eviction: int = 10
    ports: int = 2
    prefetcher: str = "none"  # "none" | "stride" | "stream"
    prefetch_degree: int = 4
    inclusive: bool = False
    banks: int = 1

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size/ways/line."""
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets * self.ways * self.line_bytes != self.size_bytes:
            raise ValueError(f"{self.name}: size not divisible by ways*line")
        return sets


@dataclass(frozen=True)
class HmcConfig:
    """HMC v2.1 cube parameters (Table I, "HMC v2.1")."""

    num_vaults: int = 32
    banks_per_vault: int = 8
    total_size_bytes: int = 8 * GIB
    row_buffer_bytes: int = 256
    dram_frequency_mhz: float = 166.0
    burst_bytes: int = 8  # bus width per bus cycle
    core_to_bus_ratio: int = 2  # data bus runs at core_freq / 2
    num_links: int = 4
    link_frequency_ghz: float = 8.0
    link_lane_bytes: int = 2  # bytes serialised per link cycle (16 lanes)
    request_header_bytes: int = 16  # HMC packet header+tail (one FLIT)
    link_latency_core_cycles: int = 24  # SerDes + traversal, each direction
    # DRAM timings: Table I "CAS, RP, RCD, RAS, CWD (9-9-9-24-7)".
    t_cas: int = 9
    t_rp: int = 9
    t_rcd: int = 9
    t_ras: int = 24
    t_cwd: int = 7
    # Clock domain of the timing counts above.  "bus" (default) reads
    # them at the 1 GHz data-bus clock (tRCD = 9 ns — in line with real
    # DRAM and with the paper's relative results); "array" reads them at
    # the literal 166 MHz array clock (tRCD = 54 ns), which makes every
    # access ~5x slower than contemporaneous DRAM.  See DESIGN.md §4 and
    # the timing-domain ablation bench.
    timing_domain: str = "bus"
    # Per-vault PIM functional units (logical bitwise & integer), 1 core cycle.
    vault_fu_latency: int = 1
    # Operation sizes supported by the extended HMC ISA, bytes.
    op_sizes: Tuple[int, ...] = (16, 32, 64, 128, 256)
    # Outstanding extended-ISA instructions the memory controller tracks
    # (the window that bounds the HMC baseline's streaming parallelism).
    # The paper does not report the depth; 12 calibrates Figure 3a's
    # tuple-at-a-time ratios toward the paper's (HMC-64B 1.5x slower than
    # x86-64B here vs the paper's 2.19x, HMC-256B still winning) while
    # keeping Figure 3c's HMC-256B@32x speedup near the paper's 5.15x.
    isa_window: int = 12


@dataclass(frozen=True)
class PimLogicConfig:
    """HIVE/HIPE logic-layer parameters (Table I, "HIVE Logic"/"HIPE Logic")."""

    name: str = "hive"
    frequency_ghz: float = 1.0
    # Latencies in core cycles (Table I gives them in cpu-cycles already).
    int_alu_latency: int = 2
    int_mul_latency: int = 6
    int_div_latency: int = 40
    fp_alu_latency: int = 10
    fp_mul_latency: int = 10
    fp_div_latency: int = 40
    op_sizes: Tuple[int, ...] = (16, 32, 64, 128, 256)
    register_count: int = 36
    register_bytes: int = 256
    instruction_buffer_entries: int = 32
    predication: bool = False  # True for HIPE
    # When True, a partially matching predicated load transfers only the
    # matching lanes' bytes instead of the whole region.  The paper's
    # HIPE squashes only fully-dead regions (hence its modest 3-5 % DRAM
    # energy saving); per-lane gathering is provided as an extension.
    partial_predicated_loads: bool = False

    @property
    def register_file_bytes(self) -> int:
        """Total register-bank capacity (paper: 36 x 256 B = 9 KB)."""
        return self.register_count * self.register_bytes


@dataclass(frozen=True)
class EnergyConfig:
    """Energy model constants.

    DRAM numbers follow published HMC/DDR estimates (activate energy per
    row, per-byte read/write energy, background power per bank); the link
    and SRAM numbers are in line with the 3.7 pJ/bit HMC link figure and
    CACTI-class cache energies.  Absolute joules are not the reproduction
    target — the paper reports *relative* DRAM energy (1–5 % deltas),
    which emerge from the activate/read/write counts and the
    background-power x runtime term.
    """

    dram_activate_pj: float = 40.0  # per row activation (256 B row)
    dram_read_pj_per_byte: float = 4.0
    dram_write_pj_per_byte: float = 4.4
    dram_background_mw_per_bank: float = 0.02
    link_pj_per_byte: float = 30.0  # ~3.7 pJ/bit HMC SerDes
    cache_l1_pj_per_access: float = 20.0
    cache_l2_pj_per_access: float = 60.0
    cache_l3_pj_per_access: float = 300.0
    core_pj_per_uop: float = 80.0
    pim_alu_pj_per_byte: float = 0.8
    pim_regfile_pj_per_access: float = 8.0


@dataclass(frozen=True)
class MachineConfig:
    """A complete evaluated system: core + caches + HMC + optional PIM."""

    name: str
    core: CoreConfig
    branch_predictor: BranchPredictorConfig
    l1: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    hmc: HmcConfig
    pim: PimLogicConfig | None = None
    energy: EnergyConfig = field(default_factory=EnergyConfig)

    def cache_levels(self) -> Tuple[CacheConfig, CacheConfig, CacheConfig]:
        """The three levels, closest to the core first."""
        return (self.l1, self.l2, self.l3)


def _table1_caches(scale: int) -> Dict[str, CacheConfig]:
    """The three Table I cache levels, capacities divided by ``scale``."""
    return {
        "l1": CacheConfig(
            name="L1",
            size_bytes=max(4 * KIB, 32 * KIB // scale),
            ways=8,
            latency=2,
            mshr_request=10,
            mshr_write=10,
            mshr_eviction=10,
            prefetcher="stride",
            prefetch_degree=2,
        ),
        "l2": CacheConfig(
            name="L2",
            size_bytes=max(16 * KIB, 256 * KIB // scale),
            ways=8,
            latency=4,
            mshr_request=20,
            mshr_write=20,
            mshr_eviction=10,
            prefetcher="stream",
            prefetch_degree=8,
        ),
        "l3": CacheConfig(
            name="L3",
            size_bytes=max(64 * KIB, 40 * MIB // scale),
            ways=16,
            latency=6,
            banks=16,
            mshr_request=64,
            mshr_write=64,
            mshr_eviction=64,
            inclusive=True,
        ),
    }


def paper_config() -> MachineConfig:
    """Exact Table I machine (x86 baseline system)."""
    caches = _table1_caches(scale=1)
    return MachineConfig(
        name="x86",
        core=CoreConfig(),
        branch_predictor=BranchPredictorConfig(),
        l1=caches["l1"],
        l2=caches["l2"],
        l3=caches["l3"],
        hmc=HmcConfig(),
    )


#: Default shrink factor for the scaled preset.  The paper streams a
#: ~6 M-row (384 MB NSM) table against a 40 MB L3 (ratio ~10:1).  The
#: scaled preset keeps that ratio at ~64 K rows (4 MB NSM) with a 512 KB
#: L3 — the same "working set >> LLC" regime.
DEFAULT_SCALE = 80


def scaled_config(scale: int = DEFAULT_SCALE) -> MachineConfig:
    """Table I with cache capacities divided by ``scale`` (latencies kept)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    base = paper_config()
    caches = _table1_caches(scale=scale)
    return replace(base, l1=caches["l1"], l2=caches["l2"], l3=caches["l3"])


def hive_logic_config() -> PimLogicConfig:
    """Table I "HIVE Logic" row (the paper's balanced redesign)."""
    return PimLogicConfig(name="hive", predication=False)


def hipe_logic_config() -> PimLogicConfig:
    """Table I "HIPE Logic" row: HIVE plus predication support."""
    return PimLogicConfig(name="hipe", predication=True)


def reduced_cube_config(
    arch: str,
    scale: int = DEFAULT_SCALE,
    num_vaults: int = 8,
    banks_per_vault: int = 2,
) -> MachineConfig:
    """A machine with a reduced cube interleave and miniature caches.

    The steady-state replay layer's structural period is one full
    vault x bank sweep of the slowest address stream (256 B x vaults x
    banks per region); shrinking the interleave from 32x8 to 8x2 cuts
    that period 16-fold.  The caches shrink with it so their fill/drain
    transients (an L3-sized working-set turnover must complete before
    the steady state exists) fit test-sized row counts.  Used by the
    replay engagement tests and the CI de-periodisation canary —
    experiment results always use the full Table I machines.
    """
    base = machine_for(arch, scale)
    return replace(
        base,
        l1=replace(base.l1, size_bytes=2 * KIB),
        l2=replace(base.l2, size_bytes=4 * KIB),
        l3=replace(base.l3, size_bytes=8 * KIB),
        hmc=replace(base.hmc, num_vaults=num_vaults,
                    banks_per_vault=banks_per_vault),
    )


def machine_for(arch: str, scale: int = DEFAULT_SCALE) -> MachineConfig:
    """Build the :class:`MachineConfig` for one of the four architectures.

    ``arch`` is one of ``"x86"``, ``"hmc"``, ``"hive"``, ``"hipe"``.
    ``scale=1`` gives the exact paper machine.
    """
    arch = arch.lower()
    base = scaled_config(scale) if scale != 1 else paper_config()
    if arch == "x86":
        return replace(base, name="x86")
    if arch == "hmc":
        return replace(base, name="hmc")
    if arch == "hive":
        return replace(base, name="hive", pim=hive_logic_config())
    if arch == "hipe":
        return replace(base, name="hipe", pim=hipe_logic_config())
    raise ValueError(f"unknown architecture {arch!r}")


ARCHITECTURES = ("x86", "hmc", "hive", "hipe")
