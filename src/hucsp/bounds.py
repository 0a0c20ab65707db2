"""The threshold, the utility upper bounds, and the pruning rules built on them.

Two overestimates drive pruning.  SWU (sequence-weighted utilization) of an
item sums the full utility of every sequence containing it; any pattern
holding the item can never exceed it, so items whose SWU falls below the
threshold are deleted up front, to a fixpoint (deletions shrink sequence
utilities, which can push further items below).  Deletion only names the
items; the database is never rewritten, and the SIL build leaves them out.
The threshold itself is fixed from the original database utility and never
recomputed.

IEU (item-extension utilization) bounds every pattern reachable by growing a
specific extension: per sequence, the best over qualifying prefix instances
of prefix utility + extension item utility + remaining utility after the
item, summed over sequences.  IEU never increases along an extension path,
so an extension below threshold is dropped with its whole subtree.  The
scan indexes.extension_utilizations bounds all of a node's extensions at
once, and one LUIP call per node and kind keeps those reaching the
threshold; its reference, core.ieu_i/s_by_sequence, reads the database alone.

Utilities are exact ints and the threshold an exact rational, so accept
(utility >= threshold) and prune (bound < threshold) comparisons carry no
rounding.  Because utilities are ints, both compare against the integer
ceiling of the threshold, computed once.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, NamedTuple

from .core import ExternalUtilityTable, Item, QSequenceDatabase, missing_weight, quoted

# ASCII digits with an optional decimal point, or a ratio of digit runs.
# Fraction alone would also take a sign, underscores, digits of other
# scripts and exponents, whose exact expansion can run without bound.
_XI_TEXT = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+|[0-9]+/[0-9]+")


class _ThresholdFields(NamedTuple):
    xi: Fraction
    min_utility: Fraction
    # For an int u, u >= min_utility exactly when u >= ceil(min_utility).
    least_admitted: int


class Threshold(_ThresholdFields):
    """Relative threshold xi and the absolute minimum utility it induces.

    Threshold(xi, min_utility) derives least_admitted; so do its copies,
    pickles and _replace, which all build through the constructor.
    """

    __slots__ = ()

    def __new__(cls, xi: Fraction, min_utility: Fraction) -> Threshold:
        return super().__new__(cls, xi, min_utility, math.ceil(min_utility))

    def __getnewargs__(self) -> tuple[Fraction, Fraction]:
        return self.xi, self.min_utility

    @classmethod
    def _make(cls, fields: Iterable) -> Threshold:
        xi, min_utility, _ = fields
        return cls(xi, min_utility)

    @classmethod
    def from_text(cls, xi_text: str, total_utility: int) -> Threshold:
        if not isinstance(xi_text, str):
            raise TypeError(f"threshold must be text, not {type(xi_text).__name__}")
        text = xi_text.strip()
        if not _XI_TEXT.fullmatch(text):
            raise ValueError(f"invalid threshold {quoted(xi_text)}")
        try:
            xi = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"invalid threshold {quoted(xi_text)}") from None
        except ValueError:
            # Well-formed text fails only where a digit run is longer than
            # Python parses into an int (sys.get_int_max_str_digits()).
            limit = sys.get_int_max_str_digits()
            raise ValueError(
                f"threshold {quoted(xi_text)} has a run of digits above the limit of {limit}"
            ) from None
        if not 0 <= xi <= 1:
            raise ValueError(f"threshold out of range [0, 1]: {quoted(xi_text)}")
        return cls(xi, xi * total_utility)

    def admits(self, utility: int) -> bool:
        return utility >= self.least_admitted


def swu_per_item(
    db: QSequenceDatabase, eut: ExternalUtilityTable, deleted: AbstractSet[Item] = frozenset()
) -> dict[Item, int]:
    """SWU of every surviving item; a sequence counts only its surviving q-items."""
    weight_of = dict(enumerate(eut.weights))
    swu: dict[Item, int] = {}
    try:
        for seq in db.sequences:
            total = 0
            items = set()
            for item, quantity in filter(None, seq):
                if item not in deleted:
                    total += quantity * weight_of[item]
                    items.add(item)
            for item in items:
                swu[item] = swu.get(item, 0) + total
    except KeyError as e:
        raise missing_weight(e.args[0]) from None
    return swu


class GuipResult(NamedTuple):
    deleted_items: frozenset[Item]
    rounds: int


def guip_revise(
    db: QSequenceDatabase, eut: ExternalUtilityTable, threshold: Threshold
) -> GuipResult:
    """Items whose SWU over the survivors falls below threshold, to a fixpoint."""
    least = threshold.least_admitted
    deleted: frozenset[Item] = frozenset()
    rounds = 0
    while True:
        swu = swu_per_item(db, eut, deleted)
        doomed = {item for item, value in swu.items() if value < least}
        if not doomed:
            return GuipResult(deleted, rounds)
        rounds += 1
        deleted |= doomed


def luip_admits(bounds: Mapping[Item, int], threshold: Threshold) -> list[Item]:
    """The extensions of one node and kind whose IEU reaches the minimum utility, ascending."""
    least = threshold.least_admitted
    return sorted([item for item, ieu in bounds.items() if ieu >= least])
