"""Unit tests for the statistics registry."""

from repro.common.stats import StatGroup, ratio
from repro.sim.machine import build_machine


class TestStatGroup:
    def test_bump_and_get(self):
        group = StatGroup("g")
        group.bump("hits")
        group.bump("hits", 4)
        assert group.get("hits") == 5
        assert group.get("absent") == 0
        assert group.get("absent", 7) == 7

    def test_set_overwrites(self):
        group = StatGroup("g")
        group.bump("x", 3)
        group.set("x", 10)
        assert group.get("x") == 10

    def test_contains(self):
        group = StatGroup("g")
        group.bump("a")
        assert "a" in group
        assert "b" not in group

    def test_children_are_cached(self):
        group = StatGroup("top")
        child = group.child("sub")
        assert group.child("sub") is child
        assert list(group.children()) == [child]

    def test_derived_metric(self):
        group = StatGroup("cache")
        group.bump("hits", 3)
        group.bump("accesses", 4)
        group.derive("hit_ratio", ratio("hits", "accesses"))
        assert group.get("hit_ratio") == 0.75
        assert "hit_ratio" in group

    def test_ratio_zero_denominator(self):
        group = StatGroup("g")
        group.derive("r", ratio("a", "b"))
        assert group.get("r") == 0.0

    def test_merge_accumulates_recursively(self):
        a = StatGroup("a")
        a.bump("n", 1)
        a.child("x").bump("m", 2)
        b = StatGroup("b")
        b.bump("n", 10)
        b.child("x").bump("m", 20)
        a.merge(b)
        assert a.get("n") == 11
        assert a.child("x").get("m") == 22

    def test_flatten_paths(self):
        group = StatGroup("top")
        group.bump("a", 1)
        group.child("sub").bump("b", 2)
        flat = group.flatten()
        assert flat["top.a"] == 1
        assert flat["top.sub.b"] == 2

    def test_report_renders(self):
        group = StatGroup("g")
        group.bump("events", 12345)
        text = group.report()
        assert "12,345" in text

    def test_report_empty(self):
        assert "(no events)" in StatGroup("empty").report()

    def test_rows_sorted(self):
        group = StatGroup("g")
        group.bump("zz")
        group.bump("aa")
        names = [name for name, __ in group.rows()]
        assert names == sorted(names)

    def test_redeclared_attribute_replaces_the_earlier_cell(self):
        # Each core execution declares its seven cells on the core's
        # group; a later one replaces them and keeps their counts.
        core = build_machine("x86").core
        first = core.execution()
        first._n_loads += 3
        core.execution()
        assert len(list(core.stats.batched_cells())) == 7
        assert core.stats.get("loads") == 3
