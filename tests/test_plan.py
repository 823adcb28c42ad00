"""Tests for the query-plan IR: schema-driven datagen, plan nodes, the
numpy interpreter, and cross-backend lowering equivalence."""

import hashlib

import numpy as np
import pytest

from repro.codegen import hipe as hipe_cg
from repro.codegen import hive as hive_cg
from repro.codegen import hmc as hmc_cg
from repro.codegen import x86 as x86_cg
from repro.codegen.aggregate import aggregate_slots, group_keys
from repro.codegen.base import ScanConfig, flatten_runs
from repro.cpu.isa import AluFunc
from repro.db.datagen import (
    LINEITEM_Q1_SCHEMA,
    LINEITEM_Q6_SCHEMA,
    ColumnSpec,
    TableSchema,
    generate_lineitem,
    generate_table,
)
from repro.db.plan import (
    Aggregate,
    AggSpec,
    Filter,
    Predicate,
    Project,
    QueryPlan,
    Scan,
)
from repro.db.query6 import (
    Q6_PREDICATES,
    q6_revenue_plan,
    q6_select_plan,
    reference_mask,
    reference_revenue,
)
from repro.db.scan import execute_plan
from repro.db.workloads import q1_style_plan, selectivity_scan_plan
from repro.sim.runner import build_workload, run_scan
from repro.sim.machine import build_machine

ROWS = 1024

from repro.experiments.common import BEST_CONFIGS

_CODEGENS = {"x86": x86_cg, "hmc": hmc_cg, "hive": hive_cg, "hipe": hipe_cg}
_BEST = dict(BEST_CONFIGS)


class TestSchemaDatagen:
    def test_generate_lineitem_byte_identical_to_seed_generator(self):
        # Regression pin: the schema-driven generator must reproduce the
        # pre-IR generator bit for bit (cached Q6 results depend on it).
        data = generate_lineitem(1000, seed=1994)
        fingerprints = {
            "l_shipdate": "b82babf593764d2a",
            "l_discount": "4ebca57750c8227f",
            "l_quantity": "224eb2e6faf8956c",
            "l_extendedprice": "b2d68bb4a7254fa3",
        }
        for column, expected in fingerprints.items():
            digest = hashlib.sha256(
                np.ascontiguousarray(data[column]).tobytes()
            ).hexdigest()[:16]
            assert digest == expected, column

    def test_extended_schema_preserves_prefix_columns(self):
        q6 = generate_lineitem(500, seed=11)
        q1 = generate_table(LINEITEM_Q1_SCHEMA, 500, seed=11)
        for column in q6.column_names():
            assert np.array_equal(q6[column], q1[column]), column

    def test_categorical_domains(self):
        data = generate_table(LINEITEM_Q1_SCHEMA, 2000, seed=5)
        assert set(np.unique(data["l_returnflag"])) <= {0, 1, 2}
        assert set(np.unique(data["l_linestatus"])) <= {0, 1}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ColumnSpec("c", "uniform", lo=5, hi=2)
        with pytest.raises(ValueError):
            ColumnSpec("c", "categorical", cardinality=0)
        with pytest.raises(ValueError):
            ColumnSpec("c", "price")  # no base column
        with pytest.raises(ValueError):
            ColumnSpec("c", "gaussian")

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            TableSchema("t", (ColumnSpec("a"), ColumnSpec("a")))
        with pytest.raises(ValueError):
            TableSchema("t", (ColumnSpec("p", "price", base="missing"),))
        with pytest.raises(ValueError):
            # a price column must follow the base it derives from
            TableSchema("t", (
                ColumnSpec("p", "price", base="q"),
                ColumnSpec("q", "uniform", lo=1, hi=50),
            ))

    def test_schema_roundtrip(self):
        restored = TableSchema.from_dict(LINEITEM_Q1_SCHEMA.to_dict())
        assert restored == LINEITEM_Q1_SCHEMA

    def test_domain(self):
        assert LINEITEM_Q1_SCHEMA.spec("l_returnflag").domain == (0, 2)
        assert LINEITEM_Q6_SCHEMA.spec("l_discount").domain == (0, 10)


class TestPlanNodes:
    def test_plan_must_start_with_scan(self):
        with pytest.raises(ValueError):
            QueryPlan("bad", (Filter(Q6_PREDICATES),))

    def test_operator_order_enforced(self):
        with pytest.raises(ValueError):
            QueryPlan("bad", (
                Scan(LINEITEM_Q6_SCHEMA),
                Aggregate((AggSpec("count"),)),
                Filter(Q6_PREDICATES),
            ))

    def test_duplicate_operator_rejected(self):
        with pytest.raises(ValueError):
            QueryPlan("bad", (
                Scan(LINEITEM_Q6_SCHEMA),
                Filter(Q6_PREDICATES),
                Filter(Q6_PREDICATES),
            ))

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            QueryPlan("bad", (
                Scan(LINEITEM_Q6_SCHEMA),
                Filter((Predicate("no_such", AluFunc.CMP_LT, 3),)),
            ))

    def test_aggspec_validation(self):
        with pytest.raises(ValueError):
            AggSpec("count", column="l_quantity")
        with pytest.raises(ValueError):
            AggSpec("sum")  # needs a column
        with pytest.raises(ValueError):
            AggSpec("min", column="l_quantity", times="l_discount")
        with pytest.raises(ValueError):
            AggSpec("median", column="l_quantity")

    def test_labels(self):
        assert AggSpec("count").label() == "count(*)"
        assert AggSpec("sum", "a", times="b").label() == "sum(a*b)"
        assert AggSpec("min", "a").label() == "min(a)"

    def test_digest_stable_and_distinct(self):
        assert q6_select_plan().digest() == q6_select_plan().digest()
        digests = {
            q6_select_plan().digest(),
            q6_revenue_plan().digest(),
            q1_style_plan().digest(),
            selectivity_scan_plan(0.1).digest(),
            selectivity_scan_plan(0.2).digest(),
        }
        assert len(digests) == 5

    def test_serialisation_roundtrip(self):
        for plan in (q6_revenue_plan(), q1_style_plan(),
                     selectivity_scan_plan(0.25)):
            restored = QueryPlan.from_dict(plan.to_dict())
            assert restored == plan
            assert restored.digest() == plan.digest()

    def test_accessors(self):
        plan = q1_style_plan()
        assert plan.table.name == "lineitem_q1"
        assert len(plan.predicates) == 1
        assert plan.aggregate.group_by == ("l_returnflag", "l_linestatus")
        assert plan.group_domains() == [
            ("l_returnflag", (0, 2)), ("l_linestatus", (0, 1))
        ]
        assert "l_discount" in plan.referenced_columns()

    def test_projection(self):
        plan = QueryPlan("proj", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter(Q6_PREDICATES),
            Project(("l_extendedprice",)),
        ))
        assert plan.projection.columns == ("l_extendedprice",)


class TestInterpreter:
    def test_q6_select_matches_reference(self):
        data = generate_lineitem(ROWS, seed=3)
        result = execute_plan(q6_select_plan(), data)
        assert np.array_equal(
            np.unpackbits(result.bitmask, count=ROWS, bitorder="little").astype(bool),
            reference_mask(data),
        )
        assert result.aggregates is None

    def test_q6_revenue_matches_reference(self):
        data = generate_lineitem(ROWS, seed=3)
        result = execute_plan(q6_revenue_plan(), data)
        assert result.aggregates[()]["sum(l_extendedprice*l_discount)"] == (
            reference_revenue(data)
        )

    def test_grouped_aggregation_partitions(self):
        plan = q1_style_plan()
        data = generate_table(plan.table, ROWS, seed=3)
        result = execute_plan(plan, data)
        # Group counts must sum to the match count.
        total = sum(v["count(*)"] for v in result.aggregates.values())
        assert total == result.match_count
        # Manual check of one group.
        mask = plan.predicates[0].evaluate(data["l_shipdate"])
        group = mask & (data["l_returnflag"] == 1) & (data["l_linestatus"] == 0)
        assert result.aggregates[(1, 0)]["sum(l_quantity)"] == (
            int(data["l_quantity"][group].astype(np.int64).sum())
        )

    def test_min_max(self):
        plan = QueryPlan("mm", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter((Predicate("l_discount", AluFunc.CMP_EQ, 5),)),
            Aggregate((AggSpec("min", "l_quantity"), AggSpec("max", "l_quantity"))),
        ))
        data = generate_lineitem(ROWS, seed=9)
        result = execute_plan(plan, data)
        picked = data["l_quantity"][data["l_discount"] == 5]
        assert result.aggregates[()]["min(l_quantity)"] == int(picked.min())
        assert result.aggregates[()]["max(l_quantity)"] == int(picked.max())

    def test_empty_selection_has_no_groups(self):
        plan = QueryPlan("none", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter((Predicate("l_quantity", AluFunc.CMP_GT, 999),)),
            Aggregate((AggSpec("count"),)),
        ))
        data = generate_lineitem(ROWS, seed=9)
        result = execute_plan(plan, data)
        assert result.aggregates == {}

    def test_selectivity_scan_hits_target(self):
        data = generate_lineitem(20_000, seed=13)
        for target in (0.05, 0.25, 0.75):
            result = execute_plan(selectivity_scan_plan(target), data)
            assert result.selectivity == pytest.approx(target, abs=0.02)


class TestCrossBackendEquivalence:
    """Every backend's lowering must reproduce the interpreter's answer —
    the acceptance bar of the plan IR."""

    @pytest.mark.parametrize("arch", ["x86", "hmc", "hive", "hipe"])
    @pytest.mark.parametrize("make_plan", [
        q6_revenue_plan, q1_style_plan, lambda: selectivity_scan_plan(0.05),
    ])
    def test_aggregates_match_interpreter(self, arch, make_plan):
        plan = make_plan()
        data = generate_table(plan.table, ROWS, seed=1994)
        result = run_scan(arch, _BEST[arch], rows=ROWS, data=data, plan=plan)
        reference = execute_plan(plan, data)
        assert result.verified is True, (arch, plan.name)
        assert result.aggregates == reference.aggregates, (arch, plan.name)

    @pytest.mark.parametrize("arch", ["hive", "hipe"])
    def test_engine_partial_sums_in_memory(self, arch):
        # The logic-layer engines physically compute the reductions: the
        # per-lane partial sums they stored must reduce to the answer.
        plan = q1_style_plan()
        data = generate_table(plan.table, ROWS, seed=7)
        machine = build_machine(arch)
        workload = build_workload(machine, data, "dsm", plan=plan)
        machine.run_runs(
            _CODEGENS[arch].generate_plan_runs(workload, _BEST[arch]))
        reference = execute_plan(plan, data)
        slots = aggregate_slots(workload)
        aggs = plan.aggregate.aggs
        produced = {}
        for index, (key, a) in enumerate(slots):
            raw = machine.image.read(
                workload.buffers.aggregate_address(index), 256)
            produced.setdefault(key, {})[aggs[a].label()] = (
                int(raw.view(np.int32).astype(np.int64).sum())
            )
        for key, values in reference.aggregates.items():
            assert produced[key] == values, (arch, key)

    def test_hipe_squashes_dead_chunks_in_aggregate(self):
        # At Q6's ~2 % selectivity most chunks carry no matches: HIPE's
        # predicated aggregate loads must skip them before DRAM.
        plan = q6_revenue_plan()
        data = generate_lineitem(ROWS, seed=1994)
        hipe = run_scan("hipe", _BEST["hipe"], rows=ROWS, data=data, plan=plan)
        hive = run_scan("hive", _BEST["hive"], rows=ROWS, data=data, plan=plan)
        assert hipe.stats.get("hipe.hipe.squashed_loads", 0) > 0
        assert hipe.energy.dram_total_pj < hive.energy.dram_total_pj

    @pytest.mark.parametrize("arch", ["x86", "hmc", "hive", "hipe"])
    def test_small_op_sizes_verify(self, arch):
        # 16 B ops mean 4-lane chunks and sub-byte mask offsets — the
        # hardest alignment case for the aggregate lowering.
        plan = selectivity_scan_plan(0.25)
        data = generate_table(plan.table, 200, seed=21)
        result = run_scan(arch, ScanConfig("dsm", "column", 16, unroll=2),
                          rows=200, data=data, plan=plan)
        assert result.verified is True
        assert result.aggregates == execute_plan(plan, data).aggregates

    @pytest.mark.parametrize("arch", ["hive", "hipe"])
    def test_minmax_falls_back_to_core(self, arch):
        plan = QueryPlan("mm", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter(Q6_PREDICATES),
            Aggregate((AggSpec("min", "l_extendedprice"),
                       AggSpec("max", "l_extendedprice"),
                       AggSpec("count"))),
        ))
        data = generate_lineitem(ROWS, seed=17)
        result = run_scan(arch, _BEST[arch], rows=ROWS, data=data, plan=plan)
        assert result.verified is True
        assert result.aggregates == execute_plan(plan, data).aggregates

    @pytest.mark.parametrize("arch", ["x86", "hmc", "hive", "hipe"])
    def test_multiple_product_aggregates(self, arch):
        # Two sum(a*b) reductions need distinct product registers in the
        # engine lowering (regression: a shared register let one
        # aggregate accumulate the other's product).
        plan = QueryPlan("two_products", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter(Q6_PREDICATES),
            Aggregate((
                AggSpec("sum", "l_quantity", times="l_discount"),
                AggSpec("sum", "l_extendedprice", times="l_discount"),
            )),
        ))
        data = generate_lineitem(ROWS, seed=29)
        result = run_scan(arch, _BEST[arch], rows=ROWS, data=data, plan=plan)
        assert result.verified is True, arch
        assert result.aggregates == execute_plan(plan, data).aggregates

    @pytest.mark.parametrize("arch", ["x86", "hmc", "hive", "hipe"])
    def test_group_key_doubling_as_aggregate_input(self, arch):
        # A column serving as both group-by key and aggregate input must
        # be loaded once and feed both roles (regression: the engine
        # lowering resolved it to the key register only, leaving the
        # value register stale).
        plan = QueryPlan("key_is_value", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter((Predicate("l_quantity", AluFunc.CMP_LT, 24),)),
            Aggregate(
                (AggSpec("sum", "l_discount"), AggSpec("count")),
                group_by=("l_discount",),
            ),
        ))
        data = generate_lineitem(ROWS, seed=23)
        result = run_scan(arch, _BEST[arch], rows=ROWS, data=data, plan=plan)
        assert result.verified is True, arch
        assert result.aggregates == execute_plan(plan, data).aggregates

    def test_overflow_risk_falls_back_to_core(self):
        # Paper-scale sums would wrap the engines' int32 accumulator
        # lanes; the lowering must detect the bound and emit the
        # core-side reduction instead of failing verification.
        from repro.codegen.aggregate import engine_sums_overflow
        from repro.cpu.isa import UopClass

        plan = q1_style_plan()
        rows = 2_000_000  # ~31k chunks x 110k max price > 2^31
        machine = build_machine("hive")
        data = generate_table(plan.table, 256, seed=1)
        workload = build_workload(machine, data, "dsm", plan=plan)
        workload.data.rows = rows  # bound check only reads the row count
        config = ScanConfig("dsm", "column", 256, unroll=32)
        assert engine_sums_overflow(workload, config)
        workload.data.rows = 256
        assert not engine_sums_overflow(workload, config)

    def test_q6_select_plan_is_byte_identical_to_default(self):
        # Running fig3's Q6 plan explicitly must equal the plan-less
        # default in cycles, uops, energy and stats.
        data = generate_lineitem(ROWS, seed=1994)
        explicit = run_scan("hive", _BEST["hive"], rows=ROWS, data=data,
                            plan=q6_select_plan())
        default = run_scan("hive", _BEST["hive"], rows=ROWS, data=data)
        assert explicit.cycles == default.cycles
        assert explicit.uops == default.uops
        assert explicit.stats == default.stats
        assert explicit.energy.to_dict() == default.energy.to_dict()


class TestLoweringStructure:
    def test_group_keys_cartesian(self):
        plan = q1_style_plan()
        data = generate_table(plan.table, 256, seed=1)
        machine = build_machine("x86")
        workload = build_workload(machine, data, "dsm", plan=plan)
        assert len(group_keys(workload)) == 6  # 3 flags x 2 statuses
        assert len(aggregate_slots(workload)) == 24  # x 4 aggregates

    def test_oversized_group_by_rejected(self):
        plan = QueryPlan("wide", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter(Q6_PREDICATES),
            Aggregate((AggSpec("count"),), group_by=("l_shipdate",)),
        ))
        data = generate_lineitem(256, seed=1)
        machine = build_machine("x86")
        workload = build_workload(machine, data, "dsm", plan=plan)
        with pytest.raises(ValueError):
            list(flatten_runs(x86_cg.generate_plan_runs(workload, _BEST["x86"])))

    def test_plan_without_filter_rejected_by_lowering(self):
        plan = QueryPlan("nofilter", (
            Scan(LINEITEM_Q6_SCHEMA),
            Aggregate((AggSpec("count"),)),
        ))
        data = generate_lineitem(256, seed=1)
        machine = build_machine("x86")
        workload = build_workload(machine, data, "dsm", plan=plan)
        with pytest.raises(ValueError):
            list(flatten_runs(x86_cg.generate_plan_runs(workload, _BEST["x86"])))

    def test_engine_register_budget_enforced(self):
        # 11 groups x 4 aggregates = 44 slots > 36 registers.
        plan = QueryPlan("wide", (
            Scan(LINEITEM_Q6_SCHEMA),
            Filter(Q6_PREDICATES),
            Aggregate(
                (AggSpec("count"), AggSpec("sum", "l_quantity"),
                 AggSpec("sum", "l_extendedprice"),
                 AggSpec("sum", "l_discount")),
                group_by=("l_discount",),  # domain 0..10 -> 11 groups
            ),
        ))
        data = generate_lineitem(256, seed=1)
        machine = build_machine("hive")
        workload = build_workload(machine, data, "dsm", plan=plan)
        with pytest.raises(ValueError):
            list(flatten_runs(hive_cg.generate_plan_runs(workload, _BEST["hive"])))
