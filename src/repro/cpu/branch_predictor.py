"""Two-level GAs branch predictor with a BTB (Table I).

GAs: one global history register indexes (together with low PC bits) a
pattern-history table of 2-bit saturating counters.  The BTB caches
branch targets; a taken branch missing the BTB costs a redirect even when
the direction was guessed right.

The per-tuple match branch of the tuple-at-a-time scan is the main
customer: at TPC-H Q6's ~1.9 % selectivity it is strongly biased
not-taken, so the predictor converges and mispredictions track the match
rate — exactly the behaviour the paper's x86 baseline relies on.
"""

from __future__ import annotations

from collections import OrderedDict

from ..common.config import BranchPredictorConfig
from ..common.stats import StatGroup, ratio


class TwoLevelGAs:
    """Global-history two-level adaptive predictor (GAs flavour)."""

    def __init__(self, config: BranchPredictorConfig, stats: StatGroup | None = None) -> None:
        self.config = config
        self._history = 0
        self._history_mask = (1 << config.history_bits) - 1
        self._pht_mask = config.pht_entries - 1
        # 2-bit counters initialised weakly not-taken.
        self._pht = bytearray([1] * config.pht_entries)
        self._btb: "OrderedDict[int, int]" = OrderedDict()
        self.stats = stats if stats is not None else StatGroup("branch_predictor")
        self.stats.derive("accuracy", ratio("correct", "predictions"))
        self.stats.batch(self, (
            ("_n_predictions", "predictions"),
            ("_n_correct", "correct"),
            ("_n_mispredictions", "mispredictions"),
            ("_n_btb_misses", "btb_misses"),
        ))

    def _pht_index(self, pc: int) -> int:
        return ((pc << 2) ^ self._history) & self._pht_mask

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, then train with the actual outcome.

        Returns ``True`` when the prediction (direction *and* target
        availability) was correct — i.e. no pipeline redirect is needed.
        """
        index = self._pht_index(pc)
        counter = self._pht[index]
        predicted_taken = counter >= 2

        correct = predicted_taken == taken
        if taken:
            # A taken branch also needs its target: BTB miss -> redirect.
            if pc not in self._btb:
                correct = False
                self._n_btb_misses += 1
                self._btb[pc] = pc  # allocate (target value is irrelevant here)
                while len(self._btb) > self.config.btb_entries:
                    self._btb.popitem(last=False)
            else:
                self._btb.move_to_end(pc)

        # Train the 2-bit counter.
        if taken and counter < 3:
            self._pht[index] = counter + 1
        elif not taken and counter > 0:
            self._pht[index] = counter - 1
        # Shift the global history.
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask

        self._n_predictions += 1
        if correct:
            self._n_correct += 1
        else:
            self._n_mispredictions += 1
        return correct
