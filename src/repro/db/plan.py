"""A small relational query-plan IR.

The paper evaluates one workload — the TPC-H Query 6 select scan — but
the simulator's layers are general: every architecture can filter any
conjunction and aggregate any column.  This module gives those layers a
shared language: a :class:`QueryPlan` is a declared table schema plus a
linear pipeline of operator nodes,

* :class:`Scan`      — the table source (a :class:`~repro.db.datagen.TableSchema`),
* :class:`Filter`    — a conjunction of :class:`Predicate` terms (the
  select scan every codegen lowers),
* :class:`Project`   — the columns the query carries forward,
* :class:`Aggregate` — SUM/COUNT/MIN/MAX :class:`AggSpec` reductions,
  optionally grouped by low-cardinality key columns.

``db/scan.py`` interprets plans with reference numpy semantics; the
codegens lower them per backend (``codegen/base.lower_plan_runs``); the
experiment engine hashes :meth:`QueryPlan.digest` into its cache keys.

Plans serialise (``to_dict``/``from_dict``) for worker boundaries and
digest stably (canonical JSON -> sha256) for caching.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..cpu.isa import AluFunc
from .datagen import TableSchema


@dataclass(frozen=True)
class Predicate:
    """One conjunct of the WHERE clause, in PIM-ALU terms."""

    column: str
    func: AluFunc
    lo: int
    hi: int = 0

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Boolean match vector for ``values``."""
        if self.func == AluFunc.CMP_RANGE:
            return (values >= self.lo) & (values <= self.hi)
        if self.func == AluFunc.CMP_LT:
            return values < self.lo
        if self.func == AluFunc.CMP_GE:
            return values >= self.lo
        if self.func == AluFunc.CMP_LE:
            return values <= self.lo
        if self.func == AluFunc.CMP_GT:
            return values > self.lo
        if self.func == AluFunc.CMP_EQ:
            return values == self.lo
        raise ValueError(f"unsupported predicate function {self.func!r}")

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {"column": self.column, "func": self.func.value,
                "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, payload: Dict[str, Union[str, int]]) -> "Predicate":
        return cls(
            column=str(payload["column"]),
            func=AluFunc(payload["func"]),
            lo=int(payload["lo"]),
            hi=int(payload.get("hi", 0)),
        )


@dataclass(frozen=True)
class Scan:
    """The table source: every plan starts with exactly one."""

    table: TableSchema

    def to_dict(self) -> Dict[str, object]:
        return {"op": "scan", "table": self.table.to_dict()}


@dataclass(frozen=True)
class Filter:
    """A conjunction of predicates, in evaluation order."""

    predicates: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("Filter needs at least one predicate")

    def to_dict(self) -> Dict[str, object]:
        return {"op": "filter",
                "predicates": [p.to_dict() for p in self.predicates]}


@dataclass(frozen=True)
class Project:
    """The columns carried to the output (materialisation set)."""

    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("Project needs at least one column")

    def to_dict(self) -> Dict[str, object]:
        return {"op": "project", "columns": list(self.columns)}


#: aggregate functions of the IR
AGG_FUNCS = ("sum", "count", "min", "max")


@dataclass(frozen=True)
class AggSpec:
    """One reduction: ``func`` over ``column`` (optionally ``* times``).

    ``count`` takes no column; ``sum`` accepts an optional second
    ``times`` column for product aggregates such as Q6's revenue
    ``sum(l_extendedprice * l_discount)``.
    """

    func: str
    column: Optional[str] = None
    times: Optional[str] = None

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.func == "count":
            if self.column is not None or self.times is not None:
                raise ValueError("count takes no column")
        elif self.column is None:
            raise ValueError(f"{self.func} needs a column")
        if self.times is not None and self.func != "sum":
            raise ValueError("only sum supports a product (times) column")

    def label(self) -> str:
        """Stable result-dict key, e.g. ``sum(l_extendedprice*l_discount)``."""
        if self.func == "count":
            return "count(*)"
        inner = self.column if self.times is None else f"{self.column}*{self.times}"
        return f"{self.func}({inner})"

    def to_dict(self) -> Dict[str, object]:
        return {"func": self.func, "column": self.column, "times": self.times}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AggSpec":
        return cls(
            func=str(payload["func"]),
            column=payload.get("column"),
            times=payload.get("times"),
        )


@dataclass(frozen=True)
class Aggregate:
    """Reductions over the filtered rows, optionally grouped.

    ``group_by`` names low-cardinality key columns (their schema-declared
    domains must be small: the codegens lower one accumulator per group).
    """

    aggs: Tuple[AggSpec, ...]
    group_by: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.aggs:
            raise ValueError("Aggregate needs at least one AggSpec")

    def to_dict(self) -> Dict[str, object]:
        return {"op": "aggregate",
                "aggs": [a.to_dict() for a in self.aggs],
                "group_by": list(self.group_by)}


PlanOp = Union[Scan, Filter, Project, Aggregate]


@dataclass(frozen=True)
class QueryPlan:
    """A named linear pipeline: Scan [-> Filter] [-> Project] [-> Aggregate]."""

    name: str
    ops: Tuple[PlanOp, ...]

    def __post_init__(self) -> None:
        if not self.ops or not isinstance(self.ops[0], Scan):
            raise ValueError("a plan starts with exactly one Scan")
        order = {Scan: 0, Filter: 1, Project: 2, Aggregate: 3}
        ranks = [order[type(op)] for op in self.ops]
        if sorted(ranks) != ranks or len(set(ranks)) != len(ranks):
            raise ValueError(
                "operators must appear at most once, in "
                "Scan -> Filter -> Project -> Aggregate order"
            )
        schema = self.table
        known = set(schema.column_names())
        for column in self.referenced_columns():
            if column not in known:
                raise ValueError(
                    f"plan {self.name!r} references unknown column {column!r}"
                )

    # -- accessors -----------------------------------------------------------

    @property
    def table(self) -> TableSchema:
        return self.ops[0].table  # type: ignore[union-attr]

    def _op(self, kind):
        for op in self.ops:
            if isinstance(op, kind):
                return op
        return None

    @property
    def filter(self) -> Optional[Filter]:
        return self._op(Filter)

    @property
    def projection(self) -> Optional[Project]:
        return self._op(Project)

    @property
    def aggregate(self) -> Optional[Aggregate]:
        return self._op(Aggregate)

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """The Filter's conjunction (empty when the plan has no Filter)."""
        found = self.filter
        return found.predicates if found is not None else ()

    def referenced_columns(self) -> List[str]:
        """Every column any operator touches (deduplicated, stable order)."""
        seen: List[str] = []

        def add(name: Optional[str]) -> None:
            if name and name not in seen:
                seen.append(name)

        for predicate in self.predicates:
            add(predicate.column)
        projection = self.projection
        if projection is not None:
            for column in projection.columns:
                add(column)
        aggregate = self.aggregate
        if aggregate is not None:
            for key in aggregate.group_by:
                add(key)
            for spec in aggregate.aggs:
                add(spec.column)
                add(spec.times)
        return seen

    def group_domains(self) -> List[Tuple[str, Tuple[int, int]]]:
        """Each group-by key with its schema-declared (lo, hi) domain."""
        aggregate = self.aggregate
        if aggregate is None:
            return []
        return [(key, self.table.spec(key).domain) for key in aggregate.group_by]

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QueryPlan":
        ops: List[PlanOp] = []
        for entry in payload["ops"]:
            kind = entry["op"]
            if kind == "scan":
                ops.append(Scan(TableSchema.from_dict(entry["table"])))
            elif kind == "filter":
                ops.append(Filter(tuple(
                    Predicate.from_dict(p) for p in entry["predicates"])))
            elif kind == "project":
                ops.append(Project(tuple(entry["columns"])))
            elif kind == "aggregate":
                ops.append(Aggregate(
                    aggs=tuple(AggSpec.from_dict(a) for a in entry["aggs"]),
                    group_by=tuple(entry.get("group_by", ())),
                ))
            else:
                raise ValueError(f"unknown plan operator {kind!r}")
        return cls(name=str(payload["name"]), ops=tuple(ops))

    def digest(self) -> str:
        """Stable content hash of the plan (cache keys)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
