"""Utility upper bounds and the pruning rules built on them.

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
so an extension below threshold is dropped with its whole subtree.  One
scan of a node's chain bounds all its extensions (the item-extensions at an
instance are the SIL entries after its slot in its row), and one LUIP call
per node and kind keeps those that reach the threshold.

Utilities are exact ints and the threshold an exact rational, so accept
(utility >= threshold) and prune (bound < threshold) comparisons carry no
rounding.  Because utilities are ints, both compare against the integer
ceiling of the threshold, computed once.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Mapping, NamedTuple

from .core import ExternalUtilityTable, Item, QSequenceDatabase, missing_weight, quoted
from .indexes import IChain, SIL, sil_row

# ASCII digits with an optional decimal point, or a ratio of digit runs.
# Fraction alone would also take a sign, underscores, digits of other
# scripts and exponents, whose exact expansion can run without bound.
_XI_TEXT = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+|[0-9]+/[0-9]+")


@dataclass(frozen=True)
class Threshold:
    """Relative threshold xi and the absolute minimum utility it induces."""

    xi: Fraction
    min_utility: Fraction
    # For an int u, u >= min_utility exactly when u >= ceil(min_utility).
    least_admitted: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "least_admitted", math.ceil(self.min_utility))

    @classmethod
    def from_text(cls, xi_text: str, total_utility: int) -> "Threshold":
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
            for itemset in seq.itemsets:
                for item, quantity in itemset:
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


def _ieu_by_sequence(
    prefix: IChain, item: Item, sils: Mapping[int, SIL], step: int
) -> dict[int, int]:
    """Per-sequence IEU of placing item step positions after each instance's end.

    A prefix instance qualifies when item occurs there; the bound is instance
    utility + item utility + remaining utility after the item.  The reference
    for extension_utilizations: it scans each whole row for item, ignoring
    slots, and takes every per-sequence maximum, with no single-instance shortcut.
    """
    out: dict[int, int] = {}
    for il in prefix.lists:
        sil = sils[il.sid]
        best = -1
        for epos, _, utility in il.elements:
            for j, gained, remaining in sil_row(sil, epos + step):
                if j == item:
                    best = max(best, utility + gained + remaining)
        if best >= 0:
            out[il.sid] = best
    return out


def ieu_i_by_sequence(prefix: IChain, item: Item, sils: Mapping[int, SIL]) -> dict[int, int]:
    """Per-sequence IEU of appending item, above the prefix's last, to its last itemset."""
    if item <= prefix.pattern[-1][-1]:
        raise ValueError("item-extension must append a larger item id")
    return _ieu_by_sequence(prefix, item, sils, 0)


def ieu_s_by_sequence(prefix: IChain, item: Item, sils: Mapping[int, SIL]) -> dict[int, int]:
    """Per-sequence IEU of appending {item} as a new itemset after the prefix."""
    return _ieu_by_sequence(prefix, item, sils, 1)


def ieu_i_extension(prefix: IChain, item: Item, sils: Mapping[int, SIL]) -> int:
    return sum(ieu_i_by_sequence(prefix, item, sils).values())


def ieu_s_extension(prefix: IChain, item: Item, sils: Mapping[int, SIL]) -> int:
    return sum(ieu_s_by_sequence(prefix, item, sils).values())


def extension_utilizations(
    prefix: IChain, sils: Mapping[int, SIL]
) -> tuple[dict[Item, int], dict[Item, int]]:
    """IEU of every item-extension and sequence-extension of the prefix.

    One pass over the chain and SIL computes all sibling bounds at once;
    agrees item-for-item with ieu_i_extension / ieu_s_extension.  The key
    sets are exactly the candidate extension items.  At an instance (pos,
    slot, utility), they are row pos + 1 and the entries after the slot in
    row pos, walked backwards from utility plus the rest after row pos + 1:
    the running sum reaches each candidate's bound at its entry.  The
    chain's singles, four ints per sequence, add their values straight into
    the totals; only a group, a sid and three ints per instance, keeps
    per-item maxima first.
    """
    i_totals: dict[Item, int] = {}
    s_totals: dict[Item, int] = {}
    it = iter(prefix.singles)
    for sid, pos, slot, utility in zip(it, it, it, it):
        sil = sils[sid]
        end = sil[pos + 1]
        rest = utility + sil[-pos - 2]
        for item, gained in sil[sil[pos + 2] - 1 : end - 1 : -1]:
            rest += gained
            s_totals[item] = s_totals.get(item, 0) + rest
        for item, gained in sil[end - 1 : slot : -1]:
            rest += gained
            i_totals[item] = i_totals.get(item, 0) + rest
    for group in prefix.groups:
        it = iter(group)
        sil = sils[next(it)]
        i_best: dict[Item, int] = {}
        s_best: dict[Item, int] = {}
        for pos, slot, utility in zip(it, it, it):
            end = sil[pos + 1]
            rest = utility + sil[-pos - 2]
            for item, gained in sil[sil[pos + 2] - 1 : end - 1 : -1]:
                rest += gained
                if rest > s_best.get(item, -1):
                    s_best[item] = rest
            for item, gained in sil[end - 1 : slot : -1]:
                rest += gained
                if rest > i_best.get(item, -1):
                    i_best[item] = rest
        for item, value in i_best.items():
            i_totals[item] = i_totals.get(item, 0) + value
        for item, value in s_best.items():
            s_totals[item] = s_totals.get(item, 0) + value
    return i_totals, s_totals


def luip_admits(bounds: Mapping[Item, int], threshold: Threshold) -> list[Item]:
    """The extensions of one node and kind whose IEU reaches the minimum utility, ascending."""
    least = threshold.least_admitted
    return sorted([item for item, ieu in bounds.items() if ieu >= least])
