"""Quantitative sequence databases and the contiguous-pattern utility calculus.

A q-sequence is an ordered list of q-itemsets; every q-item carries an
internal quantity, and each item has an external per-unit utility (weight)
shared across the database.  A pattern matches a q-sequence only where its
itemsets are subsets of *consecutive* host itemsets, and the utility of the
pattern in that sequence is the maximum over all such placements.

Positions are 1-based throughout.  A sequence is stored as one or more
segments: runs of consecutive positions separated by gaps.  Freshly parsed
data always has a single segment starting at position 1; gaps appear only
when itemsets are deleted during database revision, and matches never cross
them.

All utilities are Python ints, so arithmetic is exact at any magnitude.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

Item = int
Pattern = tuple[tuple[Item, ...], ...]
ResultSet = list[tuple[Pattern, int]]


class AbsentItemError(LookupError):
    """An item was required at a position where it does not occur."""


class NoInstanceError(ValueError):
    """A pattern has no instance at the requested ending position."""


class QItem(NamedTuple):
    item: Item
    quantity: int


QItemset = tuple[QItem, ...]


class Segment(NamedTuple):
    start: int  # 1-based position of the first itemset
    itemsets: tuple[QItemset, ...]


@dataclass(frozen=True)
class QSequence:
    """One q-sequence, addressable by its original 1-based positions."""

    sid: int
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        least_start = 1
        for seg in self.segments:
            if not seg.itemsets:
                raise ValueError(f"sequence {self.sid}: empty segment")
            if seg.start < least_start:
                raise ValueError(
                    f"sequence {self.sid}: segment at {seg.start} overlaps or "
                    f"touches the previous one (segments must be separated by a gap)"
                )
            # One missing position at least, so a gap never reads as adjacent.
            least_start = seg.start + len(seg.itemsets) + 1

    @cached_property
    def by_position(self) -> dict[int, QItemset]:
        out: dict[int, QItemset] = {}
        for seg in self.segments:
            for offset, itemset in enumerate(seg.itemsets):
                out[seg.start + offset] = itemset
        return out

    def positions(self) -> Iterator[int]:
        for seg in self.segments:
            yield from range(seg.start, seg.start + len(seg.itemsets))

    def iter_slots(self) -> Iterator[tuple[int, QItem]]:
        """Yield (position, q-item) pairs in canonical reading order."""
        for seg in self.segments:
            for offset, itemset in enumerate(seg.itemsets):
                pos = seg.start + offset
                for qitem in itemset:
                    yield pos, qitem


@dataclass(frozen=True)
class QSequenceDatabase:
    """Sequences in ascending sid order plus the id -> display-name table."""

    sequences: tuple[QSequence, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        sids = [q.sid for q in self.sequences]
        if sids != sorted(set(sids)):
            raise ValueError("sequence sids must be unique and ascending")


@dataclass(frozen=True)
class ExternalUtilityTable:
    """Per-unit utilities, dense by item id."""

    weights: tuple[int, ...]

    def weight(self, item: Item) -> int:
        if not 0 <= item < len(self.weights):
            raise AbsentItemError(f"item {item} has no external utility")
        return self.weights[item]


# The collector's on/off switch is process-wide, so the pause count is too.
_pause_lock = threading.Lock()
_pause_depth = 0
_resume_collector = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the duration of the block.

    Parsing and mining allocate millions of small objects that hold no
    reference cycles; every collection the allocations trigger re-traverses
    all of them and frees nothing.  Reference counting still frees memory as
    usual.  Pauses nest and may overlap across threads: the first to enter
    records whether the collector was enabled and disables it, the last to
    leave restores that state, also when the block raises.

    Use it as a decorator where the function's temporaries are large: its
    frame is gone before the collector resumes, so the collection the resume
    triggers does not traverse them.
    """
    global _pause_depth, _resume_collector
    with _pause_lock:
        if _pause_depth == 0:
            _resume_collector = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _resume_collector:
                gc.enable()


def item_utility(item: Item, pos: int, seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Utility of one q-item occurrence: quantity times external utility."""
    itemset = seq.by_position.get(pos)
    if itemset is None:
        raise IndexError(f"sequence {seq.sid} has no position {pos}")
    for qitem in itemset:
        if qitem.item == item:
            return qitem.quantity * eut.weight(item)
    raise AbsentItemError(f"item {item} absent at position {pos} of sequence {seq.sid}")


def itemset_utility(items: tuple[Item, ...], pos: int, seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Utility of a pattern itemset aligned with the host itemset at pos."""
    return sum(item_utility(item, pos, seq, eut) for item in items)


def q_sequence_utility(seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Total utility of every q-item in the sequence."""
    return sum(q.quantity * eut.weight(q.item) for _, q in seq.iter_slots())


def db_utility(db: QSequenceDatabase, eut: ExternalUtilityTable) -> int:
    return sum(q_sequence_utility(seq, eut) for seq in db.sequences)


def remaining_utility_after(seq: QSequence, pos: int, item: Item, eut: ExternalUtilityTable) -> int:
    """Utility of everything strictly after item at pos in reading order.

    Covers the rest of the itemset at pos (larger item ids) plus all later
    itemsets, across segment gaps.
    """
    # Validates the anchor slot first so a bad query cannot return 0.
    item_utility(item, pos, seq, eut)
    total = 0
    for p, qitem in seq.iter_slots():
        if p > pos or (p == pos and qitem.item > item):
            total += qitem.quantity * eut.weight(qitem.item)
    return total


def _subset_at(items: tuple[Item, ...], itemset: QItemset) -> bool:
    have = {q.item for q in itemset}
    return all(i in have for i in items)


def ending_positions(pattern: Pattern, seq: QSequence) -> tuple[int, ...]:
    """All positions where an instance of the pattern ends.

    An instance aligns the pattern's m itemsets with m consecutive host
    itemsets inside one segment; the ending position is the 1-based position
    of the host itemset matched by the pattern's last itemset.
    """
    check_pattern(pattern)
    m = len(pattern)
    out: list[int] = []
    for seg in seq.segments:
        for end in range(m - 1, len(seg.itemsets)):
            if all(_subset_at(pattern[k], seg.itemsets[end - m + 1 + k]) for k in range(m)):
                out.append(seg.start + end)
    return tuple(out)


def instance_utility(pattern: Pattern, pos: int, seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Utility of the pattern instance ending at pos."""
    if pos not in ending_positions(pattern, seq):
        raise NoInstanceError(
            f"pattern has no instance ending at position {pos} of sequence {seq.sid}"
        )
    m = len(pattern)
    return sum(itemset_utility(pattern[k], pos - m + 1 + k, seq, eut) for k in range(m))


def pattern_utility_in_sequence(pattern: Pattern, seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Maximum instance utility of the pattern within one sequence."""
    eps = ending_positions(pattern, seq)
    if not eps:
        raise NoInstanceError(f"pattern has no instance in sequence {seq.sid}")
    return max(instance_utility(pattern, p, seq, eut) for p in eps)


def pattern_utility(pattern: Pattern, db: QSequenceDatabase, eut: ExternalUtilityTable) -> int:
    """Pattern utility in the database: per-sequence maxima, summed."""
    total = 0
    for seq in db.sequences:
        eps = ending_positions(pattern, seq)
        if eps:
            total += max(instance_utility(pattern, p, seq, eut) for p in eps)
    return total


def contains(pattern: Pattern, seq: QSequence) -> bool:
    return bool(ending_positions(pattern, seq))


def pattern_length(pattern: Pattern) -> int:
    """Number of items, counted with multiplicity across itemsets."""
    return sum(len(itemset) for itemset in pattern)


def check_pattern(pattern: Pattern) -> None:
    """Reject structurally invalid patterns (empty or unsorted itemsets)."""
    if not pattern:
        raise ValueError("pattern has no itemsets")
    for itemset in pattern:
        if not itemset:
            raise ValueError("pattern contains an empty itemset")
        if any(b <= a for a, b in zip(itemset, itemset[1:])):
            raise ValueError("pattern itemset must be strictly ascending")
        if itemset[0] < 0:
            raise ValueError("pattern item ids must be non-negative")


def pattern_sort_key(pattern: Pattern) -> tuple[int, tuple[int, ...]]:
    """Canonical order: item count, then flattened ids with -1 after each itemset.

    The -1 separator sorts before any item id, so <{a},{b}> precedes <{ab}>.
    """
    flat: list[int] = []
    for itemset in pattern:
        flat.extend(itemset)
        flat.append(-1)
    return pattern_length(pattern), tuple(flat)


def sort_results(results) -> ResultSet:
    """Order (pattern, utility) pairs canonically."""
    return sorted(results, key=lambda pu: pattern_sort_key(pu[0]))
