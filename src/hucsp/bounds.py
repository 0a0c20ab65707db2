"""Utility upper bounds and the pruning rules built on them.

Two overestimates drive pruning.  SWU (sequence-weighted utilization) of an
item sums the full utility of every sequence containing it; any pattern
holding the item can never exceed it, so items whose SWU falls below the
threshold are deleted from the database up front, to a fixpoint (deletions
shrink sequence utilities, which can push further items below).  The
threshold itself is fixed from the original database utility and never
recomputed.

IEU (item-extension utilization) bounds every pattern reachable by growing a
specific extension: per sequence, the best over qualifying prefix instances
of prefix utility + extension item utility + remaining utility after the
item, summed over sequences.  IEU never increases along an extension path,
so an extension below threshold is dropped with its whole subtree.

Utilities are exact ints and the threshold an exact rational, so accept
(utility >= threshold) and prune (bound < threshold) comparisons carry no
rounding.  Because utilities are ints, both compare against the integer
ceiling of the threshold, computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .core import (
    ExternalUtilityTable,
    Item,
    QItemset,
    QSequence,
    QSequenceDatabase,
    Segment,
    q_sequence_utility,
)
from .indexes import IChain, SIL


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
        # Fraction expands an exponent into a power of ten with that many
        # digits, so a short text such as 1e-10000000 would run without bound.
        if "e" in text.lower():
            raise ValueError(f"invalid threshold {xi_text!r}")
        try:
            xi = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid threshold {xi_text!r}") from None
        if not 0 <= xi <= 1:
            raise ValueError(f"threshold out of range [0, 1]: {xi_text}")
        return cls(xi, xi * total_utility)

    def admits(self, utility: int) -> bool:
        return utility >= self.least_admitted

    def rejects(self, bound: int) -> bool:
        return bound < self.least_admitted


def swu_per_item(db: QSequenceDatabase, eut: ExternalUtilityTable) -> dict[Item, int]:
    """SWU of every item present in the database."""
    swu: dict[Item, int] = {}
    for seq in db.sequences:
        total = q_sequence_utility(seq, eut)
        for item in {q.item for _, q in seq.iter_slots()}:
            swu[item] = swu.get(item, 0) + total
    return swu


class GuipResult(NamedTuple):
    database: QSequenceDatabase
    deleted_items: frozenset[Item]
    rounds: int


def _delete_items(db: QSequenceDatabase, doomed: set[Item]) -> QSequenceDatabase:
    """Drop the doomed items; emptied itemsets split segments in place.

    Original positions are preserved, so surviving itemsets around a gap stay
    non-adjacent and no new contiguous match can appear.
    """
    sequences = []
    for seq in db.sequences:
        segments: list[Segment] = []
        run: list[QItemset] = []
        run_start = 0
        for seg in seq.segments:
            for offset, itemset in enumerate(seg.itemsets):
                kept = tuple(q for q in itemset if q.item not in doomed)
                if kept:
                    if not run:
                        run_start = seg.start + offset
                    run.append(kept)
                elif run:
                    segments.append(Segment(run_start, tuple(run)))
                    run = []
            if run:
                segments.append(Segment(run_start, tuple(run)))
                run = []
        if segments:
            sequences.append(QSequence(seq.sid, tuple(segments)))
    return QSequenceDatabase(tuple(sequences), db.names)


def guip_revise(
    db: QSequenceDatabase, eut: ExternalUtilityTable, threshold: Threshold
) -> GuipResult:
    """Delete items with SWU below threshold, to a fixpoint."""
    deleted: set[Item] = set()
    rounds = 0
    while True:
        doomed = {item for item, swu in swu_per_item(db, eut).items() if threshold.rejects(swu)}
        if not doomed:
            return GuipResult(db, frozenset(deleted), rounds)
        rounds += 1
        deleted |= doomed
        db = _delete_items(db, doomed)


def _ieu_by_sequence(
    prefix: IChain, item: Item, sils: Mapping[int, SIL], step: int
) -> dict[int, int]:
    """Per-sequence IEU of placing item step positions after each instance's end.

    A prefix instance qualifies when item occurs there; the bound is instance
    utility + item utility + remaining utility after the item.
    """
    out: dict[int, int] = {}
    for il in prefix.lists:
        by_position = sils[il.sid].by_position
        best = -1
        for epos, utility in il.elements:
            row = by_position.get(epos + step)
            entry = row.get(item) if row else None
            if entry is not None:
                best = max(best, utility + entry.utility + entry.remaining)
        if best >= 0:
            out[il.sid] = best
    return out


def ieu_i_by_sequence(prefix: IChain, item: Item, sils: Mapping[int, SIL]) -> dict[int, int]:
    """Per-sequence IEU of appending item to the last itemset of the prefix."""
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
    sets are exactly the candidate extension items.
    """
    last = prefix.pattern[-1][-1]
    i_totals: dict[Item, int] = {}
    s_totals: dict[Item, int] = {}
    for il in prefix.lists:
        by_position = sils[il.sid].by_position
        i_best: dict[Item, int] = {}
        s_best: dict[Item, int] = {}
        for epos, utility in il.elements:
            for item, entry in by_position[epos].items():
                if item > last:
                    value = utility + entry.utility + entry.remaining
                    if value > i_best.get(item, -1):
                        i_best[item] = value
            nxt = by_position.get(epos + 1)
            if nxt:
                for item, entry in nxt.items():
                    value = utility + entry.utility + entry.remaining
                    if value > s_best.get(item, -1):
                        s_best[item] = value
        for item, value in i_best.items():
            i_totals[item] = i_totals.get(item, 0) + value
        for item, value in s_best.items():
            s_totals[item] = s_totals.get(item, 0) + value
    return i_totals, s_totals


def luip_admits(ieu: int, threshold: Threshold) -> bool:
    """Keep an extension only when its IEU reaches the minimum utility."""
    return not threshold.rejects(ieu)
