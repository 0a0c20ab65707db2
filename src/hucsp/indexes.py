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
from dataclasses import dataclass, field
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


class SILSegment(NamedTuple):
    start: int
    itemsets: tuple[tuple[SILEntry, ...], ...]


@dataclass(frozen=True)
class SIL:
    """One sequence's entries, by segment and by position.

    by_position maps each position to its entries keyed by item; it holds
    the same SILEntry objects as segments.
    """

    sid: int
    segments: tuple[SILSegment, ...]
    by_position: dict[int, dict[Item, SILEntry]] = field(compare=False, repr=False)


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
            segments = []
            for seg in reversed(seq.segments):
                itemsets = []
                pos = seg.start + len(seg.itemsets)
                for itemset in reversed(seg.itemsets):
                    pos -= 1
                    entries = []
                    for item, quantity in reversed(itemset):
                        utility = quantity * weight_of[item]
                        entries.append(SILEntry(item, utility, left))
                        left += utility
                    entries.reverse()
                    itemsets.append(tuple(entries))
                    by_position[pos] = {entry.item: entry for entry in entries}
                itemsets.reverse()
                segments.append(SILSegment(seg.start, tuple(itemsets)))
            segments.reverse()
            sils.append(SIL(seq.sid, tuple(segments), by_position))
    except KeyError as e:
        raise AbsentItemError(f"item {e.args[0]} has no external utility") from None
    return sils


def sil_to_text(sil: SIL, names: tuple[str, ...]) -> str:
    """Render entries as (name,utility,remaining); '/' between itemsets, '//' between segments."""
    segments = []
    for seg in sil.segments:
        segments.append(
            "/".join(
                "".join(f"({names[e.item]},{e.utility},{e.remaining})" for e in itemset)
                for itemset in seg.itemsets
            )
        )
    return "//".join(segments)


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
        for seg in sil.segments:
            for pos, itemset in enumerate(seg.itemsets, start=seg.start):
                for item, utility, _ in itemset:
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


def collect_extension_items(
    chain: IChain, sils: Mapping[int, SIL]
) -> tuple[tuple[Item, ...], tuple[Item, ...]]:
    """Items that could item-extend / sequence-extend the chain's pattern.

    Item-extension candidates occur at an instance's ending position with an
    id above the pattern's last item; sequence-extension candidates occur at
    the position right after an ending position.  Both ascending.
    """
    last = chain.pattern[-1][-1]
    i_items: set[Item] = set()
    s_items: set[Item] = set()
    for il in chain.lists:
        by_position = sils[il.sid].by_position
        for epos, _ in il.elements:
            for item in by_position[epos]:
                if item > last:
                    i_items.add(item)
            nxt = by_position.get(epos + 1)
            if nxt:
                s_items.update(nxt)
    return tuple(sorted(i_items)), tuple(sorted(s_items))
