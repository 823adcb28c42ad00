"""Event-count energy model.

The paper's energy claims are *relative DRAM energy* ("HIPE is 5% more
efficient in energy consumption than x86 and compared with HMC and HIVE,
it is 1% and 4% more efficient respectively", §IV.A.3; "3% DRAM energy
savings on average", §I).  Two terms produce those small deltas:

* **dynamic DRAM energy** — row activations (one per closed-page access;
  the 64 B cache-line traffic of x86 activates the same 256 B row four
  times where a PIM op activates it once) and per-byte read/write energy
  (HIPE's predication skips the non-matching lanes' bytes);
* **background DRAM power x runtime** — a slower architecture pays more
  standby energy, which is how HIPE can save bytes yet land only a few
  percent ahead of HIVE (it runs ~15 % longer).

Link, cache, core and PIM-logic energies are also accounted so the
report can show total-system numbers, but the reproduction target is the
DRAM column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict

from ..common.config import EnergyConfig, MachineConfig
from ..common.stats import StatGroup, json_number
from ..common.units import CORE_CLOCK


@dataclass
class EnergyReport:
    """Energy of one run, in picojoules, by component."""

    dram_activate_pj: float = 0.0
    dram_read_pj: float = 0.0
    dram_write_pj: float = 0.0
    dram_background_pj: float = 0.0
    link_pj: float = 0.0
    cache_pj: float = 0.0
    core_pj: float = 0.0
    pim_pj: float = 0.0
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def dram_dynamic_pj(self) -> float:
        """Activations plus data movement inside the DRAM arrays."""
        return self.dram_activate_pj + self.dram_read_pj + self.dram_write_pj

    @property
    def dram_total_pj(self) -> float:
        """The paper's reported quantity: dynamic + background DRAM energy."""
        return self.dram_dynamic_pj + self.dram_background_pj

    @property
    def total_pj(self) -> float:
        """Whole-system energy."""
        return (
            self.dram_total_pj + self.link_pj + self.cache_pj
            + self.core_pj + self.pim_pj
        )

    def to_dict(self) -> Dict[str, object]:
        """Flat export for reports (includes the derived totals).

        Component values are floats; ``"detail"`` is a nested dict of
        the run's raw event counts.
        """
        return {
            "dram_activate_pj": self.dram_activate_pj,
            "dram_read_pj": self.dram_read_pj,
            "dram_write_pj": self.dram_write_pj,
            "dram_background_pj": self.dram_background_pj,
            "dram_total_pj": self.dram_total_pj,
            "link_pj": self.link_pj,
            "cache_pj": self.cache_pj,
            "core_pj": self.core_pj,
            "pim_pj": self.pim_pj,
            "total_pj": self.total_pj,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EnergyReport":
        """Rebuild a report exported by :meth:`to_dict`.

        Derived totals (``dram_total_pj``, ``total_pj``) are recomputed
        from the stored components, not read back.  The component list
        comes from the dataclass fields, so new components round-trip
        without touching this method.  Every number keeps its JSON type,
        so an event count in ``detail`` stays an int.
        """
        names = [f.name for f in dataclass_fields(cls) if f.name != "detail"]
        report = cls(**{name: json_number(payload.get(name, 0.0))
                        for name in names})
        detail = payload.get("detail")
        if isinstance(detail, dict):
            report.detail = {str(k): json_number(v) for k, v in detail.items()}
        return report


def compute_energy(
    config: MachineConfig,
    cycles: int,
    hmc_stats: StatGroup,
    cache_stats: StatGroup,
    core_stats: StatGroup,
    pim_stats: StatGroup | None = None,
) -> EnergyReport:
    """Convert a run's event counts into an :class:`EnergyReport`."""
    constants: EnergyConfig = config.energy
    report = EnergyReport()

    # -- DRAM dynamic -----------------------------------------------------
    activations = hmc_stats.get("row_activations")
    bytes_read = hmc_stats.get("dram_bytes_read")
    bytes_written = hmc_stats.get("dram_bytes_written")
    report.dram_activate_pj = activations * constants.dram_activate_pj
    report.dram_read_pj = bytes_read * constants.dram_read_pj_per_byte
    report.dram_write_pj = bytes_written * constants.dram_write_pj_per_byte

    # -- DRAM background ----------------------------------------------------
    seconds = CORE_CLOCK.cycles_to_seconds(cycles)
    banks = config.hmc.num_vaults * config.hmc.banks_per_vault
    milliwatts = constants.dram_background_mw_per_bank * banks
    report.dram_background_pj = milliwatts * 1e-3 * seconds * 1e12

    # -- links ----------------------------------------------------------------
    link_bytes = hmc_stats.get("link_request_bytes") + hmc_stats.get(
        "link_response_bytes"
    )
    report.link_pj = link_bytes * constants.link_pj_per_byte

    # -- caches -----------------------------------------------------------------
    per_level = {
        "l1": constants.cache_l1_pj_per_access,
        "l2": constants.cache_l2_pj_per_access,
        "l3": constants.cache_l3_pj_per_access,
    }
    cache_pj = 0.0
    for level in cache_stats.children():
        unit = per_level.get(level.name.lower())
        if unit is not None:
            cache_pj += level.get("accesses") * unit
    report.cache_pj = cache_pj

    # -- core ----------------------------------------------------------------------
    report.core_pj = core_stats.get("uops") * constants.core_pj_per_uop

    # -- PIM logic -------------------------------------------------------------------
    if pim_stats is not None:
        lanes = pim_stats.get("alu_lanes")
        reg_ops = 0.0
        for child in pim_stats.children():
            if child.name == "register_bank":
                reg_ops = child.get("reads") + child.get("writes")
        report.pim_pj = (
            lanes * 4 * constants.pim_alu_pj_per_byte
            + reg_ops * constants.pim_regfile_pj_per_access
        )
    report.detail = {
        "row_activations": activations,
        "dram_bytes_read": bytes_read,
        "dram_bytes_written": bytes_written,
        "seconds": seconds,
    }
    return report
