"""Hierarchical statistics registry.

Every simulated component owns a :class:`StatGroup` and bumps named
counters as it models events ("l1.load_hits", "hmc.vault3.row_activations",
...).  The registry supports:

* cheap integer counters and accumulators,
* batched counters: a hot component counts events in plain int
  attributes that it declares once with :meth:`StatGroup.batch`; the
  group folds them in whenever it is read, and the declaration is the
  one list of them the replay layer extrapolates,
* derived metrics computed at report time (e.g. hit ratios),
* merging and flat dictionary export,
* formatted tables for the experiment harness.

Components never format their own output; experiments read the registry.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class StatGroup:
    """A named bag of counters with optional nested sub-groups."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, float] = {}
        self._children: Dict[str, "StatGroup"] = {}
        self._derived: Dict[str, Callable[["StatGroup"], float]] = {}
        #: declared batched cells: (owner, attribute, counter), where
        #: ``counter`` is a name, or a tuple of names for a list attribute
        self._batched: List[Tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------

    def bump(self, counter: str, amount: float = 1) -> None:
        """Add ``amount`` to ``counter`` (creating it at zero)."""
        self._counters[counter] = self._counters.get(counter, 0) + amount

    def set(self, counter: str, value: float) -> None:
        """Set ``counter`` to an absolute value."""
        self._counters[counter] = value

    def batch(self, owner: object, cells: Iterable[Tuple[str, object]]) -> None:
        """Declare ``owner``'s batched counters as ``(attribute, counter)``.

        A dict update per simulated event is measurable on million-uop
        traces, so a hot component counts in plain int attributes of its
        own.  This sets each attribute to 0 (a list attribute, whose
        ``counter`` is a tuple of names, to one 0 per name), and every
        read of the group folds each nonzero value into its counter and
        zeroes it: the deferral is invisible to readers, and a counter
        appears only once it has counted something.  The declarations
        are the one list of batched counters (:meth:`batched_cells`).
        """
        for attribute, counter in cells:
            if isinstance(counter, tuple):
                setattr(owner, attribute, [0] * len(counter))
            else:
                setattr(owner, attribute, 0)
            self._batched.append((owner, attribute, counter))

    def batched_cells(self) -> Iterator[Tuple[object, object, str]]:
        """Every declared cell as ``(container, key, counter)``.

        ``container[key]`` is the cell's pending count: the owner's
        attribute dict and the attribute, or a list attribute and the
        index.  The replay layer reads and extrapolates them there.
        """
        for owner, attribute, counter in self._batched:
            if isinstance(counter, tuple):
                values = getattr(owner, attribute)
                for index, name in enumerate(counter):
                    yield values, index, name
            else:
                yield vars(owner), attribute, counter

    def _sync(self) -> None:
        for owner, attribute, counter in self._batched:
            value = getattr(owner, attribute)
            if isinstance(counter, tuple):
                for index, name in enumerate(counter):
                    if value[index]:
                        self.bump(name, value[index])
                        value[index] = 0
            elif value:
                self.bump(counter, value)
                setattr(owner, attribute, 0)

    def get(self, counter: str, default: float = 0) -> float:
        """Read a counter, or ``default`` when it was never touched."""
        self._sync()
        if counter in self._counters:
            return self._counters[counter]
        if counter in self._derived:
            return self._derived[counter](self)
        return default

    def __contains__(self, counter: str) -> bool:
        self._sync()
        return counter in self._counters or counter in self._derived

    # -- structure --------------------------------------------------------

    def child(self, name: str) -> "StatGroup":
        """Get or create the nested group ``name``."""
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    def children(self) -> Iterator["StatGroup"]:
        """Iterate over nested groups in insertion order."""
        return iter(self._children.values())

    def derive(self, name: str, fn: Callable[["StatGroup"], float]) -> None:
        """Register a metric computed from this group at read time."""
        self._derived[name] = fn

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "StatGroup") -> None:
        """Accumulate ``other``'s counters (and children) into this group."""
        other._sync()
        for key, value in other._counters.items():
            self.bump(key, value)
        for name, group in other._children.items():
            self.child(name).merge(group)

    def flatten(self, prefix: str = "") -> Dict[str, float]:
        """All counters (derived included) as ``{"path.counter": value}``."""
        self._sync()
        path = f"{prefix}{self.name}" if prefix or self.name else self.name
        out: Dict[str, float] = {}
        for key, value in self._counters.items():
            out[f"{path}.{key}" if path else key] = value
        for key, fn in self._derived.items():
            out[f"{path}.{key}" if path else key] = fn(self)
        for group in self._children.values():
            out.update(group.flatten(prefix=f"{path}." if path else ""))
        return out

    # -- reporting --------------------------------------------------------

    def rows(self) -> List[Tuple[str, float]]:
        """Flattened (name, value) pairs, sorted by name."""
        return sorted(self.flatten().items())

    def report(self, title: Optional[str] = None, min_value: float = 0) -> str:
        """Aligned text table of all counters for human consumption."""
        rows = [(k, v) for k, v in self.rows() if abs(v) > min_value or v != 0]
        if not rows:
            return f"{title or self.name}: (no events)"
        width = max(len(name) for name, _ in rows)
        lines = [title or self.name]
        for name, value in rows:
            if isinstance(value, float) and not value.is_integer():
                lines.append(f"  {name:<{width}}  {value:,.4f}")
            else:
                lines.append(f"  {name:<{width}}  {int(value):,}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatGroup({self.name!r}, {len(self._counters)} counters)"


class ratio:
    """A derived-metric callable ``numerator / denominator`` (0-safe).

    A class rather than a closure so that registered derived metrics —
    and hence any stats tree hanging off a machine — stay picklable;
    pass-boundary checkpoints snapshot whole machines mid-run.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: str, denominator: str) -> None:
        self.numerator = numerator
        self.denominator = denominator

    def __call__(self, group: StatGroup) -> float:
        denom = group.get(self.denominator)
        if denom == 0:
            return 0.0
        return group.get(self.numerator) / denom

    def __getstate__(self):
        return (self.numerator, self.denominator)

    def __setstate__(self, state) -> None:
        self.numerator, self.denominator = state


def json_number(value: object) -> float:
    """A number read back from JSON as it was (an int stays an int).

    Anything else raises ``TypeError``, so a damaged cache entry fails
    to load (and is quarantined).
    """
    if isinstance(value, (int, float)):
        return value
    raise TypeError(f"expected a number, got {value!r}")
