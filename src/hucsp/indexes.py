"""Sequence information lists and instance chains.

The SIL is a per-sequence mirror of the database that stores, for every
q-item occurrence, its utility and the remaining utility (total utility of
everything after it in reading order).  Remaining utilities telescope: each
entry's remainder equals the next entry's remainder plus the next entry's
utility, and the last entry's remainder is 0.

An IChain indexes every instance of one pattern: per containing sequence, the
(ending position, instance utility) pairs in ascending position order.
Chains for extended patterns are built from the parent chain plus the SIL
without touching the database again.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .core import (
    AbsentItemError,
    ExternalUtilityTable,
    Item,
    Pattern,
    QSequenceDatabase,
)


class SILEntry(NamedTuple):
    item: Item
    utility: int
    remaining: int


class SIL(NamedTuple):
    """One sequence's entries: by_position maps position -> item -> entry.

    build_sil walks the sequence backwards, so positions are keys in
    descending order; each row lists its items ascending.  A position
    missing between two keys is a segment gap.
    """

    sid: int
    by_position: dict[int, dict[Item, SILEntry]]


def build_sil(db: QSequenceDatabase, eut: ExternalUtilityTable) -> list[SIL]:
    """One SIL per sequence, in database order.

    Each sequence is walked once, backwards, so every entry's remainder is
    the running total of the utilities already seen.
    """
    weight_of = dict(enumerate(eut.weights))
    sils = []
    try:
        for seq in db.sequences:
            left = 0
            by_position: dict[int, dict[Item, SILEntry]] = {}
            for seg in reversed(seq.segments):
                pos = seg.start + len(seg.itemsets)
                for itemset in reversed(seg.itemsets):
                    pos -= 1
                    entries = []
                    for item, quantity in reversed(itemset):
                        utility = quantity * weight_of[item]
                        entries.append(SILEntry(item, utility, left))
                        left += utility
                    by_position[pos] = {entry.item: entry for entry in reversed(entries)}
            sils.append(SIL(seq.sid, by_position))
    except KeyError as e:
        raise AbsentItemError(f"item {e.args[0]} has no external utility") from None
    return sils


def sil_to_text(sil: SIL, names: tuple[str, ...]) -> str:
    """Render entries as (name,utility,remaining); '/' between itemsets, '//' across a gap."""
    parts = []
    previous = None
    for pos, row in reversed(sil.by_position.items()):
        if previous is not None:
            parts.append("/" if pos == previous + 1 else "//")
        parts.extend(f"({names[e.item]},{e.utility},{e.remaining})" for e in row.values())
        previous = pos
    return "".join(parts)


class IChainElement(NamedTuple):
    epos: int
    utility: int


class InstanceList(NamedTuple):
    sid: int
    elements: tuple[IChainElement, ...]


@dataclass(frozen=True)
class IChain:
    """All instances of one pattern, grouped by sequence, positions ascending."""

    pattern: Pattern
    lists: tuple[InstanceList, ...]


def build_initial_ichains(sils: list[SIL]) -> dict[Item, IChain]:
    """IChains of every single-item pattern present in the indexed database.

    sils must be in ascending sid order, as build_sil returns them; each is
    walked once in position order, so every list comes out sorted.
    """
    per_item: defaultdict[Item, list[InstanceList]] = defaultdict(list)
    last_sid = None
    for sil in sils:
        if last_sid is not None and sil.sid <= last_sid:
            raise ValueError("SILs must be in ascending sid order")
        last_sid = sil.sid
        in_sequence: defaultdict[Item, list[IChainElement]] = defaultdict(list)
        for pos, row in reversed(sil.by_position.items()):
            for item, utility, _ in row.values():
                in_sequence[item].append(IChainElement(pos, utility))
        for item, elements in in_sequence.items():
            per_item[item].append(InstanceList(last_sid, tuple(elements)))
    return {item: IChain(((item,),), tuple(per_item[item])) for item in sorted(per_item)}


def extend_ichain_i(prefix: IChain, item: Item, sils: Mapping[int, SIL]) -> IChain:
    """Chain for the pattern with item appended to the last itemset.

    item must sort after the last item of the prefix pattern.  An instance
    survives when item also occurs at its ending position; its utility grows
    by that occurrence.
    """
    last_itemset = prefix.pattern[-1]
    if item <= last_itemset[-1]:
        raise ValueError("item-extension must append a larger item id")
    pattern = prefix.pattern[:-1] + (last_itemset + (item,),)
    lists = []
    for il in prefix.lists:
        by_position = sils[il.sid].by_position
        elements = []
        for epos, utility in il.elements:
            entry = by_position[epos].get(item)
            if entry is not None:
                elements.append(IChainElement(epos, utility + entry.utility))
        if elements:
            lists.append(InstanceList(il.sid, tuple(elements)))
    return IChain(pattern, tuple(lists))


def extend_ichain_s(prefix: IChain, item: Item, sils: Mapping[int, SIL]) -> IChain:
    """Chain for the pattern with {item} appended as a new itemset.

    An instance extends only when the position after its ending position
    exists (same segment, contiguity) and holds item; the new instance ends
    one position later.
    """
    pattern = prefix.pattern + ((item,),)
    lists = []
    for il in prefix.lists:
        by_position = sils[il.sid].by_position
        elements = []
        for epos, utility in il.elements:
            nxt = by_position.get(epos + 1)
            if nxt is None:
                continue
            entry = nxt.get(item)
            if entry is not None:
                elements.append(IChainElement(epos + 1, utility + entry.utility))
        if elements:
            lists.append(InstanceList(il.sid, tuple(elements)))
    return IChain(pattern, tuple(lists))


def ichain_pattern_utility(chain: IChain) -> int:
    """Pattern utility from the chain alone: per-sequence maxima, summed."""
    return sum(max(e.utility for e in il.elements) for il in chain.lists)
