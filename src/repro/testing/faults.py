"""Deterministic fault injection for the service/engine recovery paths.

Every recovery mechanism in the stack — dead-worker retry, the
progress-aware watchdog, checkpoint resume, result-cache quarantine —
exists because *something* dies at the worst moment.  Hoping CI happens
to hit those moments is not a test plan, so production code exposes
named **injection points** and this module arms them from the
``REPRO_FAULTS`` environment variable:

    REPRO_FAULTS="kill@pass,pass=1,attempt=1"
    REPRO_FAULTS="hang@start,attempt=1;drop@result,attempt=1"

Grammar: ``;``-separated clauses, each ``action@site[,key=value...]``.

Actions
    ``kill``  — ``SIGKILL`` the current process on the spot (models a
    worker OOM-kill or machine loss; nothing gets to clean up).
    ``hang``  — sleep forever (models a livelock/stuck I/O; only the
    watchdog can end it).
    ``drop``  — at message-producing sites, suppress the message (models
    a lost queue write); the injection point observes the ``True``
    return and swallows its send.
    ``enospc`` — at disk-writing sites, raise ``OSError(ENOSPC)`` from
    inside the write (models a full disk); the write path must degrade
    to a logged miss, never crash the simulation it serves.

Sites (the production code passes matching context keys)
    ``start``  — worker picked up a job, before simulation.
    ``pass``   — a pass boundary.  For ``kill``/``hang``/``drop`` this
    fires *after* the checkpoint was written (``pass=N`` selects the
    boundary; this ordering is what makes "kill at pass N ⇒ resume
    from pass N" the contract).  For ``enospc`` it fires *inside*
    :meth:`~repro.sim.checkpoint.CheckpointStore.save` — the snapshot
    write itself fails.
    ``result`` — for ``kill``/``hang``/``drop``: worker about to send
    its result message.  For ``enospc``: inside
    :meth:`~repro.sim.engine.ResultCache.store` — the cache entry
    write itself fails.

``kill``/``hang``/``drop`` clauses and ``enospc`` clauses are
independent populations: :func:`fire` only detonates the former, the
dedicated :func:`fire_enospc` probe only the latter, so
``drop@result;enospc@result`` arms both a lost message and a full disk
without the two interfering.

Every non-action key is a match condition against the context the
injection point supplies (``pass``, ``attempt``, ``arch``, ...); a
clause fires only when all its conditions match, so
``kill@pass,pass=1,attempt=1`` kills exactly the first attempt and lets
the retry run clean — fully deterministic, no randomness anywhere.
A clause without ``attempt`` fires on *every* attempt (how the chaos
suite exhausts a retry budget on purpose).

The environment is the transport on purpose: service workers inherit it
at fork, so a test arms a fault in the parent and the right worker
detonates it — no cross-process plumbing, and production pays one dict
lookup per injection point when unarmed.

:func:`corrupt_file` is the passive half: deterministic on-disk damage
(truncation, garbage, bit flips, schema lies) for cache/checkpoint
integrity tests.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("kill", "hang", "drop", "enospc")

#: the actions :func:`FaultPlan.fire` detonates itself; ``enospc``
#: clauses are probed by :func:`fire_enospc` instead
_FIRE_ACTIONS = ("kill", "hang", "drop")


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` value (bad grammar beats silence)."""


@dataclass(frozen=True)
class FaultClause:
    """One armed fault: do ``action`` at ``site`` when ``match`` holds."""

    action: str
    site: str
    match: Tuple[Tuple[str, str], ...] = ()

    def matches(self, site: str, context: Dict[str, Any]) -> bool:
        if site != self.site:
            return False
        for key, expected in self.match:
            actual = context.get(key)
            if actual is None or str(actual) != expected:
                return False
        return True


@dataclass
class FaultPlan:
    """The parsed set of armed clauses (empty = injection disabled)."""

    clauses: List[FaultClause] = field(default_factory=list)
    #: log of (site, action, context) for every fault that fired here
    fired: List[Tuple[str, str, Dict[str, Any]]] = field(default_factory=list)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        clauses: List[FaultClause] = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            head, _, tail = raw.partition(",")
            action, sep, site = head.partition("@")
            action = action.strip()
            site = site.strip()
            if not sep or action not in _ACTIONS or not site:
                raise FaultSpecError(
                    f"bad fault clause {raw!r}: want action@site[,k=v...] "
                    f"with action in {_ACTIONS}"
                )
            match = []
            if tail:
                for pair in tail.split(","):
                    key, eq, value = pair.partition("=")
                    if not eq or not key.strip():
                        raise FaultSpecError(
                            f"bad fault condition {pair!r} in {raw!r}"
                        )
                    match.append((key.strip(), value.strip()))
            clauses.append(FaultClause(action, site, tuple(match)))
        return cls(clauses)

    def check(
        self,
        site: str,
        actions: Optional[Tuple[str, ...]] = None,
        **context: Any,
    ) -> Optional[str]:
        """The action armed for this (site, context), or None.

        ``actions`` restricts the match to a subset — the process-level
        injection points (:func:`fire`) and the full-disk probe
        (:func:`fire_enospc`) draw from disjoint action sets even when
        they share a site name.
        """
        for clause in self.clauses:
            if actions is not None and clause.action not in actions:
                continue
            if clause.matches(site, context):
                return clause.action
        return None

    def fire(self, site: str, **context: Any) -> bool:
        """Detonate whatever is armed here; True means "drop the message".

        ``kill`` and ``hang`` do not return; ``drop`` returns True so
        the caller suppresses its send.  Unarmed sites return False
        (``enospc`` clauses never fire here — see :func:`fire_enospc`).
        """
        action = self.check(site, actions=_FIRE_ACTIONS, **context)
        if action is None:
            return False
        self.fired.append((site, action, dict(context)))
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "hang":
            while True:  # pragma: no cover - ended by SIGKILL
                time.sleep(3600)
        return True  # drop


_EMPTY = FaultPlan()
_CACHED: Optional[Tuple[str, FaultPlan]] = None


def active_plan() -> FaultPlan:
    """The plan armed by ``REPRO_FAULTS`` (re-parsed when it changes)."""
    global _CACHED
    spec = os.environ.get(ENV_VAR, "")
    if not spec:
        return _EMPTY
    if _CACHED is None or _CACHED[0] != spec:
        _CACHED = (spec, FaultPlan.parse(spec))
    return _CACHED[1]


def reset_plan() -> None:
    """Drop the parse cache (tests that mutate the environment)."""
    global _CACHED
    _CACHED = None


def fire(site: str, **context: Any) -> bool:
    """Module-level injection point: ``faults.fire("pass", **ctx)``."""
    return active_plan().fire(site, **context)


def fire_enospc(site: str, **context: Any) -> None:
    """Raise an injected ``OSError(ENOSPC)`` when armed at this site.

    Called from *inside* the disk-writing try blocks of
    :meth:`~repro.sim.engine.ResultCache.store` (site ``result``) and
    :meth:`~repro.sim.checkpoint.CheckpointStore.save` (site ``pass``),
    so the injected full disk exercises exactly the degradation path a
    real one would.
    """
    plan = active_plan()
    if plan.check(site, actions=("enospc",), **context) is not None:
        plan.fired.append((site, "enospc", dict(context)))
        raise OSError(errno.ENOSPC, "No space left on device (injected)")


# -- passive damage: deterministic file corruption ----------------------------

#: supported corruption modes, in the order the integrity tests sweep
CORRUPTION_MODES = ("truncate", "garbage", "bitflip", "wrong_schema", "empty")


def corrupt_file(path: str | os.PathLike, mode: str = "garbage") -> None:
    """Deterministically damage ``path`` in place.

    ``truncate``
        Keep the first half of the file (a writer died mid-write on a
        filesystem without atomic replace, or a partial restore).
    ``garbage``
        Replace the content with non-JSON, non-pickle bytes.
    ``bitflip``
        Flip one bit in the middle of the payload — parses fine where
        the damage misses structure, which is exactly what checksums
        are for.
    ``wrong_schema``
        Valid JSON claiming schema version 0 (honest version skew).
    ``empty``
        Zero-length file.
    """
    path = os.fspath(path)
    if mode == "truncate":
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(max(1, size // 2))
    elif mode == "garbage":
        with open(path, "wb") as handle:
            handle.write(b"\x00\xff definitely not a cache entry \xfe\x01")
    elif mode == "bitflip":
        with open(path, "rb+") as handle:
            data = bytearray(handle.read())
            if not data:
                data = bytearray(b"\x00")
            data[len(data) // 2] ^= 0x10
            handle.seek(0)
            handle.write(data)
            handle.truncate(len(data))
    elif mode == "wrong_schema":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 0, "result": {}}')
    elif mode == "empty":
        with open(path, "wb"):
            pass
    else:
        raise ValueError(
            f"unknown corruption mode {mode!r}; known: {CORRUPTION_MODES}"
        )
