"""Quantitative sequence databases: the records, and what mining shares.

A q-sequence is an ordered list of q-itemsets; every q-item carries an
internal quantity, and each item has an external per-unit utility (weight)
shared across the database.  A QSequence is a tuple of its q-items in
reading order, where None closes each itemset, as -1 does in the database
file; the mining path walks that tuple alone.  Beside the records sit the
database's total utility, the pattern-length cap and the canonical result
order.  The definitions of utility and IEU the miner is checked against are
in oracle, which no module on the mine path imports.

Positions are 1-based: itemset k of a sequence sits at position k.  Mining
never rewrites a database: the items GUIP deletes are left out of the index,
where an itemset that loses all its items becomes a gap no match crosses.
All utilities are Python ints, so arithmetic is exact at any magnitude.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple

Item = int
Pattern = tuple[tuple[Item, ...], ...]
ResultSet = list[tuple[Pattern, int]]


class AbsentItemError(LookupError):
    """An item was required at a position where it does not occur."""


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


def __getattr__(name: str):
    # perfbench/gate.py still imports pattern_utility from here; ROADMAP
    # item 1 points that import at oracle and deletes this forward.
    if name == "pattern_utility":
        from .oracle import pattern_utility

        return pattern_utility
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
