"""Quantitative sequence databases and the contiguous-pattern utility calculus.

A q-sequence is an ordered list of q-itemsets; every q-item carries an
internal quantity, and each item has an external per-unit utility (weight)
shared across the database.  A pattern matches a q-sequence only where its
itemsets are subsets of *consecutive* host itemsets, and the utility of the
pattern in that sequence is the maximum over all such placements.

A QSequence is a tuple of its q-items in reading order, where None closes
each itemset, as -1 does in the database file.  The mining path walks that
tuple alone.  The nested form, one tuple per itemset, is what from_itemsets
takes and what itemsets rebuilds on each request; the reference calculus
below, down to the IEU of one extension that the scan in indexes must
match, reads it at most once per call.

Positions are 1-based throughout: itemset k of a sequence sits at position
k.  Mining never rewrites a database: the items GUIP deletes are left out of
the index instead, where an itemset that loses all its items becomes a gap
that matches never cross.

All utilities are Python ints, so arithmetic is exact at any magnitude.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import AbstractSet, Iterable, Iterator, NamedTuple

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


class QSequence(tuple):
    """One q-sequence, flat: a tuple of its q-items in reading order, a None
    closing each itemset.  QSequence(flat) takes that form as it is;
    from_itemsets flattens the nested one."""

    __slots__ = ()

    @classmethod
    def from_itemsets(cls, itemsets: Iterable[Iterable[QItem]]) -> QSequence:
        """The sequence of the nested form: one iterable of q-items per itemset."""
        return cls(q for s in itemsets for q in (*s, None))

    @property
    def itemsets(self) -> tuple[QItemset, ...]:
        """One tuple of q-items per itemset, rebuilt on every access."""
        ends = [k for k, qitem in enumerate(self) if qitem is None]
        return tuple(self[start + 1 : end] for start, end in zip([-1, *ends], ends))

    def iter_slots(self) -> Iterator[tuple[int, QItem]]:
        """Yield (position, q-item) pairs in canonical reading order."""
        pos = 1
        for qitem in self:
            if qitem is None:
                pos += 1
            else:
                yield pos, qitem


class QSequenceDatabase(NamedTuple):
    """Sequences plus the item id -> display-name table; a sequence's sid is its index."""

    sequences: tuple[QSequence, ...]
    names: tuple[str, ...]


class ExternalUtilityTable(NamedTuple):
    """Per-unit utilities, dense by item id."""

    weights: tuple[int, ...]

    def weight(self, item: Item) -> int:
        if not 0 <= item < len(self.weights):
            raise missing_weight(item)
        return self.weights[item]


def missing_weight(item: Item) -> AbsentItemError:
    """The error for an item the utility table has no weight for."""
    return AbsentItemError(f"item {item} has no external utility")


def quoted(text: str) -> str:
    """repr(text) for an error message; long text by a short prefix and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:12]!r}... ({len(text)} characters)"


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
    at = 1
    for qitem in seq:
        if qitem is None:
            at += 1
        elif at == pos and qitem.item == item:
            return qitem.quantity * eut.weight(item)
    if not 1 <= pos < at:
        raise IndexError(f"sequence has no position {pos}")
    raise AbsentItemError(f"item {item} absent at position {pos}")


def itemset_utility(items: tuple[Item, ...], pos: int, seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Utility of a pattern itemset aligned with the host itemset at pos."""
    return sum(item_utility(item, pos, seq, eut) for item in items)


def q_sequence_utility(seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Total utility of every q-item in the sequence."""
    return sum(q.quantity * eut.weight(q.item) for _, q in seq.iter_slots())


def db_utility(db: QSequenceDatabase, eut: ExternalUtilityTable) -> int:
    """Total utility of every q-item in the database."""
    weight_of = dict(enumerate(eut.weights))
    total = 0
    try:
        for seq in db.sequences:
            for item, quantity in filter(None, seq):
                total += quantity * weight_of[item]
    except KeyError as e:
        raise missing_weight(e.args[0]) from None
    return total


def remaining_utility_after(
    seq: QSequence, pos: int, item: Item, eut: ExternalUtilityTable,
    deleted: AbstractSet[Item] = frozenset(),
) -> int:
    """Utility of every item not in deleted strictly after item at pos in reading order.

    Covers the rest of the itemset at pos (larger item ids) and every later
    itemset: the sum runs on across a GUIP gap, though no instance crosses one.
    """
    # Validates the anchor slot first so a bad query cannot return 0.
    item_utility(item, pos, seq, eut)
    total = 0
    for p, qitem in seq.iter_slots():
        if (p > pos or (p == pos and qitem.item > item)) and qitem.item not in deleted:
            total += qitem.quantity * eut.weight(qitem.item)
    return total


def _instances(pattern: Pattern, seq: QSequence) -> Iterator[tuple[int, tuple[QItemset, ...]]]:
    """(ending position, host itemsets) of each instance of a checked pattern, ascending."""
    m, itemsets = len(pattern), seq.itemsets
    for end in range(m, len(itemsets) + 1):
        window = itemsets[end - m : end]
        if all(set(items) <= {q.item for q in host} for items, host in zip(pattern, window)):
            yield end, window


def ending_positions(pattern: Pattern, seq: QSequence) -> tuple[int, ...]:
    """All positions where an instance of the pattern ends.

    An instance aligns the pattern's m itemsets with m consecutive host
    itemsets; the ending position is the 1-based position of the host
    itemset matched by the pattern's last itemset.
    """
    check_pattern(pattern)
    return tuple(end for end, _ in _instances(pattern, seq))


def _instance_utilities(pattern: Pattern, seq: QSequence, eut: ExternalUtilityTable) -> dict[int, int]:
    """Ending position -> utility of each instance of a checked pattern, positions ascending.

    For callers that loop over the instances: each is matched once, where a
    call of instance_utility per position matches the whole sequence again.
    """
    return {
        end: sum(
            q.quantity * eut.weight(q.item)
            for items, host in zip(pattern, window)
            for q in host
            if q.item in items
        )
        for end, window in _instances(pattern, seq)
    }


def instance_utility(pattern: Pattern, pos: int, seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Utility of the pattern instance ending at pos."""
    check_pattern(pattern)
    utilities = _instance_utilities(pattern, seq, eut)
    if pos not in utilities:
        raise NoInstanceError(f"pattern has no instance ending at position {pos}")
    return utilities[pos]


def pattern_utility_in_sequence(pattern: Pattern, seq: QSequence, eut: ExternalUtilityTable) -> int:
    """Maximum instance utility of the pattern within one sequence."""
    check_pattern(pattern)
    utilities = _instance_utilities(pattern, seq, eut)
    if not utilities:
        raise NoInstanceError("pattern has no instance in the sequence")
    return max(utilities.values())


def pattern_utility(pattern: Pattern, db: QSequenceDatabase, eut: ExternalUtilityTable) -> int:
    """Pattern utility in the database: per-sequence maxima, summed."""
    check_pattern(pattern)
    total = 0
    for seq in db.sequences:
        if utilities := _instance_utilities(pattern, seq, eut):
            total += max(utilities.values())
    return total


def _ieu_by_sequence(
    grown: Pattern, db: QSequenceDatabase, eut: ExternalUtilityTable, deleted: AbstractSet[Item]
) -> dict[int, int]:
    """Per-sequence IEU of the extension grown, whose last item is the one placed.

    Each instance of grown is a qualifying prefix instance plus that item;
    its bound adds the utility after the item, deleted items left out.  A
    pattern holding a deleted item has no instances: GUIP left it unindexed.
    """
    check_pattern(grown)
    if any(item in deleted for itemset in grown for item in itemset):
        return {}
    out: dict[int, int] = {}
    for sid, seq in enumerate(db.sequences):
        if utilities := _instance_utilities(grown, seq, eut):
            out[sid] = max(
                utility + remaining_utility_after(seq, pos, grown[-1][-1], eut, deleted)
                for pos, utility in utilities.items()
            )
    return out


def ieu_i_by_sequence(
    pattern: Pattern, item: Item, db: QSequenceDatabase, eut: ExternalUtilityTable,
    deleted: AbstractSet[Item] = frozenset(),
) -> dict[int, int]:
    """Per-sequence IEU of appending item, above the pattern's last, to its last itemset."""
    if item <= pattern[-1][-1]:
        raise ValueError("item-extension must append a larger item id")
    return _ieu_by_sequence(pattern[:-1] + (pattern[-1] + (item,),), db, eut, deleted)


def ieu_s_by_sequence(
    pattern: Pattern, item: Item, db: QSequenceDatabase, eut: ExternalUtilityTable,
    deleted: AbstractSet[Item] = frozenset(),
) -> dict[int, int]:
    """Per-sequence IEU of appending {item} as a new itemset after the pattern."""
    return _ieu_by_sequence(pattern + ((item,),), db, eut, deleted)


def ieu_i_extension(
    pattern: Pattern, item: Item, db: QSequenceDatabase, eut: ExternalUtilityTable,
    deleted: AbstractSet[Item] = frozenset(),
) -> int:
    return sum(ieu_i_by_sequence(pattern, item, db, eut, deleted).values())


def ieu_s_extension(
    pattern: Pattern, item: Item, db: QSequenceDatabase, eut: ExternalUtilityTable,
    deleted: AbstractSet[Item] = frozenset(),
) -> int:
    return sum(ieu_s_by_sequence(pattern, item, db, eut, deleted).values())


def contains(pattern: Pattern, seq: QSequence) -> bool:
    return bool(ending_positions(pattern, seq))


def pattern_length(pattern: Pattern) -> int:
    """Number of items, counted with multiplicity across itemsets."""
    return sum(len(itemset) for itemset in pattern)


def check_length_cap(cap: int | None, name: str) -> None:
    """Refuse a cap on pattern length (items per pattern) that is neither None
    nor an int of at least 1; a bool is refused too."""
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int)):
        raise TypeError(f"{name} must be an int, not {type(cap).__name__}")
    if cap is not None and cap < 1:
        raise ValueError(f"{name} must be >= 1, got {cap}")


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
