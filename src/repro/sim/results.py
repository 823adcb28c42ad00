"""Run results and report formatting for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..codegen.base import ScanConfig
from ..common.stats import json_number
from ..common.units import CORE_CLOCK, format_seconds
from ..energy.model import EnergyReport


#: aggregate results: group key tuple -> {aggregate label: value}
AggregateResults = Dict[tuple, Dict[str, int]]


@dataclass
class RunResult:
    """Outcome of simulating one (architecture, scan configuration) point."""

    arch: str
    scan: ScanConfig
    rows: int
    cycles: int
    uops: int
    energy: EnergyReport
    verified: Optional[bool] = None  # functional check, where applicable
    stats: Dict[str, float] = field(default_factory=dict)
    aggregates: Optional[AggregateResults] = None  # plans with an Aggregate
    #: replay bookkeeping of the producing simulation (None when the
    #: point was simulated exactly, ran replay-disabled, or came out of
    #: the result cache).  Deliberately *not* serialised and not part of
    #: result equality: replayed and exact runs are bit-identical in
    #: every field above, and cache entries are shared between them.
    replay: Optional[Any] = field(default=None, compare=False, repr=False)

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time."""
        return CORE_CLOCK.cycles_to_seconds(self.cycles)

    @property
    def cycles_per_row(self) -> float:
        """Per-tuple cost — the scale-independent comparison unit."""
        return self.cycles / self.rows if self.rows else 0.0

    def label(self) -> str:
        """Short bar label, e.g. ``HIVE-256B`` or ``x86-64B@8x``."""
        name = f"{self.arch.upper()}-{self.scan.op_bytes}B"
        if self.scan.unroll > 1:
            name += f"@{self.scan.unroll}x"
        return name

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe export (result cache, worker boundaries)."""
        payload = {
            "arch": self.arch,
            "scan": self.scan.to_dict(),
            "rows": self.rows,
            "cycles": self.cycles,
            "uops": self.uops,
            "energy": self.energy.to_dict(),
            "verified": self.verified,
            "stats": dict(self.stats),
        }
        if self.aggregates is not None:
            # JSON has no tuple keys: exported as [[key...], {label: value}]
            payload["aggregates"] = [
                [list(key), dict(values)]
                for key, values in sorted(self.aggregates.items())
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        """Rebuild a result exported by :meth:`to_dict`.

        Every number keeps its JSON type (an int counter stays an int),
        so a result that crossed a worker or the cache serialises as the
        in-process one does.
        """
        verified = payload.get("verified")
        aggregates: Optional[AggregateResults] = None
        if payload.get("aggregates") is not None:
            aggregates = {
                tuple(int(v) for v in key): {
                    str(label): int(value) for label, value in values.items()
                }
                for key, values in payload["aggregates"]
            }
        return cls(
            arch=str(payload["arch"]),
            scan=ScanConfig.from_dict(payload["scan"]),
            rows=int(payload["rows"]),
            cycles=int(payload["cycles"]),
            uops=int(payload["uops"]),
            energy=EnergyReport.from_dict(payload["energy"]),
            verified=None if verified is None else bool(verified),
            stats={str(k): json_number(v)
                   for k, v in payload.get("stats", {}).items()},
            aggregates=aggregates,
        )


@dataclass
class ExperimentResult:
    """All runs of one figure plus derived headline numbers."""

    name: str
    runs: List[RunResult] = field(default_factory=list)
    headline: Dict[str, float] = field(default_factory=dict)

    def by_label(self) -> Dict[str, RunResult]:
        return {run.label(): run for run in self.runs}

    def run_for(self, arch: str, op_bytes: int, unroll: int = 1) -> RunResult:
        """Find the run for one configuration point."""
        for run in self.runs:
            if (run.arch == arch and run.scan.op_bytes == op_bytes
                    and run.scan.unroll == unroll):
                return run
        raise KeyError(f"no run for {arch}-{op_bytes}B@{unroll}x")

    def report(self, baseline: Optional[RunResult] = None) -> str:
        return format_table(self.runs, self.name, baseline=baseline)


def speedup(baseline: RunResult, other: RunResult) -> float:
    """How much faster ``other`` is than ``baseline`` (>1 = faster)."""
    if other.cycles == 0:
        raise ZeroDivisionError("cannot compute speedup of a zero-cycle run")
    return baseline.cycles / other.cycles


def normalised(results: List[RunResult], baseline: RunResult) -> Dict[str, float]:
    """Execution time of each run normalised to ``baseline`` (1.0 = equal)."""
    return {r.label(): r.cycles / baseline.cycles for r in results}


def format_table(results: List[RunResult], title: str,
                 baseline: Optional[RunResult] = None) -> str:
    """An aligned text table in the style of the paper's figures."""
    lines = [title, "-" * len(title)]
    header = (
        f"{'configuration':<18} {'cycles':>14} {'cyc/row':>9} "
        f"{'time':>12} {'norm':>7} {'DRAM energy (uJ)':>17}"
    )
    lines.append(header)
    base_cycles = baseline.cycles if baseline else None
    for result in results:
        norm = f"{result.cycles / base_cycles:.3f}" if base_cycles else "-"
        lines.append(
            f"{result.label():<18} {result.cycles:>14,} "
            f"{result.cycles_per_row:>9.1f} "
            f"{format_seconds(result.seconds):>12} {norm:>7} "
            f"{result.energy.dram_total_pj / 1e6:>17.2f}"
        )
    return "\n".join(lines)
