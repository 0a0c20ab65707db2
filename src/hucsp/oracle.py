"""Brute-force reference miner for small databases.

Enumerates every contiguous pattern occurrence directly from the containment
definition: for each sequence, each window of consecutive itemsets, and each
choice of a nonempty subset per window itemset.  Utilities are recomputed
from quantities and weights on the spot, keeping this path independent of
the index structures and bounds the real miner relies on.

Exponential in itemset width by construction; the itemsets enumeration
would copy are counted against a cap before enumerating, so oversized
inputs fail fast instead of hanging.
"""

from __future__ import annotations

import itertools

from .bounds import Threshold
from .core import (
    ExternalUtilityTable,
    Pattern,
    QItemset,
    QSequenceDatabase,
    ResultSet,
    check_length_cap,
    db_utility,
    sort_results,
)
from .dataio import validate

DEFAULT_ENUMERATION_CAP = 10_000_000


class UniverseTooLargeError(RuntimeError):
    """Predicted enumeration work exceeds the configured cap."""


def _windows(db: QSequenceDatabase, longest: int | None = None):
    """(occurrences, length) of each window of at most `longest` consecutive
    itemsets; sizes s1..sw give the product of (2^si - 1) occurrences."""
    for seq in db.sequences:
        factors = [2 ** len(itemset) - 1 for itemset in seq.itemsets]
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
        choices = [_itemset_choices(itemset, eut) for itemset in seq.itemsets]
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
