"""The package's environment knobs: one table, one reader.

Every ``REPRO_*`` variable the experiment engine, the runner and the
figure harnesses read is declared in :data:`SETTINGS` with its parser
and its value when unset, and :func:`setting` is the only code in the
package that reads them (``REPRO_FAULTS`` keeps its own grammar in
:mod:`repro.testing.faults`).  An explicit argument beats the
environment, which beats the default: callers apply the first half of
that rule, :func:`setting` the second.

Values are parsed at every call, never cached, because tests and
``tools/check_kernel_identity.py`` flip ``REPRO_KERNEL`` and
``REPRO_CACHE`` between runs in one process.  An empty value means
unset; a malformed one raises :class:`ValueError` naming the variable.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Dict, Tuple

_FLAG_WORDS = {
    "1": True, "true": True, "yes": True,
    "0": False, "false": False, "no": False,
}


def _flag(raw: str) -> bool:
    try:
        return _FLAG_WORDS[raw.lower()]
    except KeyError:
        raise ValueError("want one of 1/0/true/false/yes/no") from None


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"want an integer >= {low}")
        return value

    return parse


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError("want a finite number > 0")
    return value


#: name -> (parser, value when unset or empty)
SETTINGS: Dict[str, Tuple[Callable[[str], Any], Any]] = {
    # worker processes of a sweep or service (None: the CPU count)
    "REPRO_JOBS": (_int_at_least(1), None),
    # the on-disk result cache: on/off, location, LRU size cap in MB
    # (None: unbounded)
    "REPRO_CACHE": (_flag, True),
    "REPRO_CACHE_DIR": (str, ".repro_cache"),
    "REPRO_CACHE_MAX_MB": (_positive_float, None),
    # pass-checkpoint sidecar (None: <cache dir>/checkpoints)
    "REPRO_CHECKPOINT_DIR": (str, None),
    # run-compiled kernels on; REPRO_EXACT=1 turns periodic replay off
    "REPRO_KERNEL": (_flag, True),
    "REPRO_EXACT": (_flag, False),
    # rows per figure sweep (None: the harness's own default)
    "REPRO_ROWS": (_int_at_least(64), None),
}


def setting(name: str) -> Any:
    """The current value of the declared knob ``name``."""
    parse, default = SETTINGS[name]
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r}: {exc}") from None
