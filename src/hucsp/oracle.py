"""The reference path: the paper's utility calculus and a brute-force miner.

The calculus computes each definition from quantities and weights alone:
item, itemset and sequence utility, a pattern's instances and their
utilities, pattern utility, and the IEU of one extension.  A pattern matches
a q-sequence only where its itemsets are subsets of *consecutive* host
itemsets; its utility there is the maximum over all such placements.
The brute-force miner enumerates every occurrence from that definition:
each window of consecutive itemsets, each nonempty subset per itemset.
Exponential in itemset width by construction, it counts the itemsets it
would copy against a cap first, so oversized inputs fail fast.  Neither
uses the miner's indexes or bounds, and no mine-path module imports this.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Iterator

from .bounds import Threshold
from .core import (
    AbsentItemError,
    ExternalUtilityTable,
    Item,
    Pattern,
    QItemset,
    QSequence,
    QSequenceDatabase,
    ResultSet,
    check_length_cap,
    db_utility,
    sort_results,
)
from .dataio import validate

DEFAULT_ENUMERATION_CAP = 10_000_000


class NoInstanceError(ValueError):
    """A pattern has no instance at the requested ending position."""


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


def _itemsets(seq: QSequence) -> tuple[QItemset, ...]:
    """seq.itemsets, refusing an unclosed last itemset, whose q-items that view leaves out."""
    if seq and seq[-1] is not None:
        raise ValueError("sequence's last itemset is not closed")
    return seq.itemsets


def _instances(pattern: Pattern, seq: QSequence) -> Iterator[tuple[int, tuple[QItemset, ...]]]:
    """(ending position, host itemsets) of each instance of a checked pattern, ascending."""
    m, itemsets = len(pattern), _itemsets(seq)
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



class UniverseTooLargeError(RuntimeError):
    """Predicted enumeration work exceeds the configured cap."""


def _windows(db: QSequenceDatabase, longest: int | None = None):
    """(occurrences, length) of each window of at most `longest` consecutive
    itemsets; sizes s1..sw give the product of (2^si - 1) occurrences."""
    for seq in db.sequences:
        factors = [2 ** len(itemset) - 1 for itemset in _itemsets(seq)]
        for start in range(len(factors)):
            product = 1
            for length, factor in enumerate(factors[start:][:longest], start=1):
                product *= factor
                yield product, length


def instance_count(db: QSequenceDatabase) -> int:
    """Exact number of pattern occurrences enumeration would visit."""
    return sum(product for product, _ in _windows(db))


def copied_itemsets(db: QSequenceDatabase, stop_above: int, max_len: int | None = None) -> int:
    """Itemsets enumeration copies into pattern keys, the work the cap bounds:
    each occurrence copies its window's itemsets.  Stops once past stop_above.

    Under max_len no window past max_len + 1 itemsets is reached, since each
    itemset adds an item; that last one is only tried, and counted as copied.
    """
    total = 0
    for product, length in _windows(db, None if max_len is None else max_len + 1):
        total += product * length
        if total > stop_above:
            break
    return total


def _itemset_choices(
    itemset: QItemset, eut: ExternalUtilityTable
) -> list[tuple[tuple[int, ...], int, int]]:
    """All (item ids, utility, size) triples over nonempty subsets."""
    per_item = [(q.item, q.quantity * eut.weight(q.item)) for q in itemset]
    choices = []
    for r in range(1, len(per_item) + 1):
        for combo in itertools.combinations(per_item, r):
            choices.append((tuple(i for i, _ in combo), sum(u for _, u in combo), r))
    return choices


def enumerate_patterns(
    db: QSequenceDatabase,
    eut: ExternalUtilityTable,
    max_len: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict[Pattern, int]:
    """Utility of every contiguous pattern with at most max_len items.

    Per sequence the best (maximum) occurrence utility is kept, then summed
    across sequences, mirroring the pattern-utility definition.  max_len
    takes what MiningConfig.max_pattern_length takes.
    """
    check_length_cap(max_len, "max_len")
    if copied_itemsets(db, cap, max_len) > cap:
        raise UniverseTooLargeError(f"enumeration would copy more itemsets than the cap of {cap}")
    universe: dict[Pattern, int] = {}
    for seq in db.sequences:
        per_seq: dict[Pattern, int] = {}
        choices = [_itemset_choices(itemset, eut) for itemset in _itemsets(seq)]
        for start in range(len(choices)):
            frontier: list[tuple[Pattern, int, int]] = [((), 0, 0)]
            for step_choices in choices[start:]:
                grown: list[tuple[Pattern, int, int]] = []
                for pattern, utility, size in frontier:
                    for items, add_utility, add_size in step_choices:
                        new_size = size + add_size
                        if max_len is not None and new_size > max_len:
                            continue
                        new_pattern = pattern + (items,)
                        new_utility = utility + add_utility
                        best = per_seq.get(new_pattern)
                        if best is None or new_utility > best:
                            per_seq[new_pattern] = new_utility
                        grown.append((new_pattern, new_utility, new_size))
                if not grown:
                    break
                frontier = grown
        for pattern, utility in per_seq.items():
            universe[pattern] = universe.get(pattern, 0) + utility
    return universe


def select_high_utility(universe: dict[Pattern, int], threshold: Threshold) -> ResultSet:
    """Filter a pattern universe by threshold; canonical order.

    Compares against the exact rational, not the miner's integer ceiling, so
    a fault in that compare shows as a disagreement.
    """
    return sort_results((p, u) for p, u in universe.items() if u >= threshold.min_utility)


def oracle_mine(
    db: QSequenceDatabase,
    eut: ExternalUtilityTable,
    xi: str,
    max_len: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ResultSet:
    """Reference answer: same contract as the miner, none of its machinery."""
    if problems := validate(db, eut):
        raise ValueError("invalid database: " + "; ".join(problems))
    threshold = Threshold.from_text(xi, db_utility(db, eut))
    return select_high_utility(enumerate_patterns(db, eut, max_len=max_len, cap=cap), threshold)
