"""Sequence information lists, instance chains, and the IEU scan over them.

The SIL is a per-sequence mirror of the database: the utility of every
q-item occurrence whose item GUIP did not delete, and the utility left from
each position on.  A sequence of n itemsets has one SIL, a single tuple, and
build_sil returns a list of them indexed by sid, None where GUIP deleted
every item of the sequence.  Slots 0 to n + 2 hold row start offsets
(sil[0] = sil[1] = n + 3); the (item, utility) entries follow in reading
order, one shared tuple per distinct pair, and end at sil[sil[0] - 1].  Row
p is sil[sil[p]:sil[p + 1]], its items strictly ascending; an empty row is a
gap, where GUIP deleted every item, and row n + 1 is empty.  The rests close
the tuple in reverse order: sil[-p] is the utility at position p or later, 0
for p = n + 1 and n + 2.  sil_row adds each entry's remaining utility: what
follows it in its row plus the next position's rest.

An IChain indexes every instance of one pattern as (ending position, slot,
instance utility) ints; slot is the offset of the entry of the instance's
last q-item.  A sequence holding exactly one instance adds sid, position,
slot and utility to one flat tuple, singles; a sequence holding several gets
a flat tuple of its own in groups, its sid and then each instance's three
ints, positions ascending.  No sid is in both fields.  Sequences follow no
set order within a field; only IChain.lists sorts them by sid.  A
single-item chain is built from its item's run of occurrences, int32
(sid, slot) pairs, only when it is looked up.  Chains for extended
patterns are built from the parent chain plus the SIL without touching the
database again: one pass over a parent chain builds the chains of all
requested siblings of one kind, and one scan of it bounds the IEU of all
its extensions.  Every chain's utility, seed or extended, is read off the
chain itself.  No other module reads either layout.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import defaultdict
from functools import partial
from operator import itemgetter
from typing import AbstractSet, Callable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    ExternalUtilityTable,
    Item,
    Pattern,
    QItem,
    QSequenceDatabase,
    missing_weight,
)

# One surviving q-item occurrence, shared by its equals: (item, utility).
SILEntry = tuple[Item, int]


# One sequence's SIL: n + 3 row start offsets, the entries, n + 2 rests (see above).
SIL = tuple[int | SILEntry, ...]


def build_sil(
    db: QSequenceDatabase, eut: ExternalUtilityTable, deleted: AbstractSet[Item] = frozenset()
) -> list[SIL | None]:
    """The SIL of every sequence, sils[sid]; None where no q-item survives.

    Each sequence is walked once, backwards, skipping deleted items, so
    each position's rest is the running total of the surviving utilities
    already seen.  Itemsets must list their items strictly ascending, as
    validate requires; the rows keep that order.
    """
    weight_of = dict(enumerate(eut.weights))
    # Keyed by value: equal q-items share an entry even if the database does not.
    entry_of: dict[QItem, SILEntry] = {}
    sils: list[SIL | None] = [None] * len(db.sequences)
    try:
        for sid, seq in enumerate(db.sequences):
            left = 0
            entries: list[SILEntry] = []
            # after[k]: how many entries sit at position n + 1 - k or later.
            # Read backwards, the None that closes itemset p comes just
            # before its items, so it records the counts from p + 1 on.
            after: list[int] = []
            rests = [0]
            # A slice, not reversed(): reversed() is about 5x slower on a tuple subclass.
            for qitem in seq[::-1]:
                if qitem is None:
                    after.append(len(entries))
                    rests.append(left)
                elif qitem[0] not in deleted:
                    entry = entry_of.get(qitem)
                    if entry is None:
                        entry = entry_of[qitem] = (qitem[0], qitem[1] * weight_of[qitem[0]])
                    entries.append(entry)
                    left += entry[1]
            after.append(len(entries))
            rests.append(left)
            if entries:
                entries.reverse()
                end = len(after) + 2 + len(entries)
                starts = [end - count for count in reversed(after)]
                sils[sid] = (starts[0], *starts, end, *entries, *rests)
    except KeyError as e:
        raise missing_weight(e.args[0]) from None
    return sils


def sil_row(sil: SIL, pos: int) -> tuple[tuple[Item, int, int], ...]:
    """(item, utility, remaining) at position pos, items ascending; empty at a gap and at n + 1."""
    left = sil[-pos - 1]
    row = []
    for item, utility in reversed(sil[sil[pos] : sil[pos + 1]]):
        row.append((item, utility, left))
        left += utility
    return tuple(reversed(row))


def sil_to_text(sil: SIL, names: tuple[str, ...]) -> str:
    """Render entries as (name,utility,remaining); '/' between itemsets, '//' across a gap."""
    parts = []
    previous = None
    for pos in range(1, sil[0] - 2):
        if row := sil_row(sil, pos):
            if previous is not None:
                parts.append("/" if pos == previous + 1 else "//")
            parts.extend(f"({names[item]},{utility},{left})" for item, utility, left in row)
            previous = pos
    return "".join(parts)


class InstanceList(NamedTuple):
    """One sequence's instances: (ending position, slot, utility), positions ascending."""

    sid: int
    elements: tuple[tuple[int, int, int], ...]


# A NamedTuple's generated __new__ is a Python function call per object;
# tuple.__new__ builds the same value from a tuple of its fields without it.
_new_list = partial(tuple.__new__, InstanceList)


class IChain(NamedTuple):
    """All instances of one pattern, flat (see the module docstring): singles
    holds (sid, pos, slot, utility) for each sequence with exactly one
    instance; groups one (sid, pos, slot, utility, pos, slot, utility, ...)
    per sequence with two or more."""

    pattern: Pattern
    singles: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]

    @property
    def lists(self) -> tuple[InstanceList, ...]:
        """The same instances as one InstanceList per sequence, sids ascending.

        Built afresh on every access, for reading and checking; nothing in
        the package reads it.
        """
        it = iter(self.singles)
        lists = [
            _new_list((sid, ((pos, slot, utility),)))
            for sid, pos, slot, utility in zip(it, it, it, it)
        ]
        for group in self.groups:
            it = iter(group)
            sid = next(it)
            lists.append(_new_list((sid, tuple(zip(it, it, it)))))
        lists.sort(key=itemgetter(0))
        return tuple(lists)


class _SeedChains(Mapping[Item, IChain]):
    """Single-item chains, each built from its item's run when looked up.

    A run holds every occurrence of one item as flat sid, slot pairs in
    an int32 array, in sid and slot order.  The position is the row whose
    start offsets bracket the slot, found by bisection: row starts ascend,
    and a gap's empty row repeats the next row's start, so the rightmost
    start at or below the slot is its row's.
    The utility is read from the SIL entry at the slot.  Nothing built is
    kept, so a caller that walks values() holds one chain at a time.
    """

    __slots__ = ("_runs", "_sils")

    def __init__(self, runs: dict[Item, array], sils: Sequence[SIL | None]) -> None:
        self._runs = runs
        self._sils = sils

    def __getitem__(self, item: Item) -> IChain:
        singles: list[int] = []
        groups: list[tuple[int, ...]] = []
        # The sequence being read: its sid, then each instance's three ints.
        found: list[int] = []
        last, sils = None, self._sils
        values = iter(self._runs[item])
        for sid, slot in zip(values, values):
            if sid != last:
                if len(found) == 4:
                    singles += found
                elif found:
                    groups.append(tuple(found))
                last = sid
                sil = sils[sid]
                found = [sid]
            found += (bisect_right(sil, slot, 1, sil[0] - 1) - 1, slot, sil[slot][1])
        if len(found) == 4:
            singles += found
        else:
            groups.append(tuple(found))
        return IChain(((item,),), tuple(singles), tuple(groups))

    def __iter__(self) -> Iterator[Item]:
        return iter(self._runs)

    def __len__(self) -> int:
        return len(self._runs)


def build_initial_ichains(sils: Sequence[SIL | None]) -> Mapping[Item, IChain]:
    """IChains of every single-item pattern in the indexed database, in item order.

    The SILs are walked in sid order, each one's entries in slot order, so
    every run comes out in sid and slot order.  Each chain is built when it
    is looked up (see _SeedChains).
    """
    runs: defaultdict[Item, array] = defaultdict(partial(array, "i"))
    for sid, sil in enumerate(sils):
        if sil is not None:
            for slot in range(sil[0], sil[sil[0] - 1]):
                runs[sil[slot][0]].fromlist([sid, slot])
    return _SeedChains({item: runs[item] for item in sorted(runs)}, sils)


def extension_utilizations(
    prefix: IChain, sils: Sequence[SIL | None]
) -> tuple[dict[Item, int], dict[Item, int]]:
    """IEU of every item-extension and sequence-extension of the prefix.

    One pass over the chain and SIL computes all sibling bounds at once;
    agrees item-for-item with oracle.ieu_i_extension / ieu_s_extension.
    The key sets are exactly the candidate extension items.  At an instance
    (pos, slot, utility), they are row pos + 1 and the entries after the
    slot in row pos, walked backwards from utility plus the rest after row
    pos + 1: the running sum reaches each candidate's bound at its entry.
    The chain's singles, four ints per sequence, add their values straight
    into the totals; only a group, a sid and three ints per instance, keeps
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


def _extend_ichains(
    prefix: IChain,
    items: Sequence[Item],
    sils: Sequence[SIL | None],
    step: int,
    grow: Callable[[Item], Pattern],
) -> list[tuple[IChain, int]]:
    """Chain of grow(item) and its utility for each item placed step positions on.

    One pass over the prefix chain serves every item.  An instance extends
    when item occurs at ending position + step, after the instance's slot
    when step is 0; the new instance ends at that entry and its utility
    grows by that occurrence.  An item occurs at most once in a row, so a
    single instance has at most one child per item: it goes straight to
    that child's singles.  A group that leaves a child one instance adds it
    to that child's singles too.  Each child's utility is then read off its
    chain by ichain_pattern_utility.  Results follow the order of items.
    """
    wanted = set(items)
    singles: dict[Item, list[int]] = {item: [] for item in wanted}
    groups: dict[Item, list[tuple[int, ...]]] = {item: [] for item in wanted}
    it = iter(prefix.singles)
    for sid, epos, slot, utility in zip(it, it, it, it):
        sil = sils[sid]
        pos = epos + step
        at = sil[pos] if step else slot + 1
        for item, gained in sil[at : sil[pos + 1]]:
            if item in wanted:
                singles[item] += (sid, pos, at, utility + gained)
            at += 1
    for group in prefix.groups:
        it = iter(group)
        sid = next(it)
        sil = sils[sid]
        grown: dict[Item, list[int]] = {}
        for epos, slot, utility in zip(it, it, it):
            pos = epos + step
            at = sil[pos] if step else slot + 1
            for item, gained in sil[at : sil[pos + 1]]:
                if item in wanted:
                    found = grown.get(item)
                    if found is None:
                        grown[item] = [sid, pos, at, utility + gained]
                    else:
                        found += (pos, at, utility + gained)
                at += 1
        for item, found in grown.items():
            if len(found) == 4:
                singles[item] += found
            else:
                groups[item].append(tuple(found))
    # Each item's lists go as its chain is made, so the two are not all held at once.
    chains = (IChain(grow(item), tuple(singles.pop(item)), tuple(groups.pop(item))) for item in items)
    return [(chain, ichain_pattern_utility(chain)) for chain in chains]


def extend_ichain_i(
    prefix: IChain, items: Sequence[Item], sils: Sequence[SIL | None]
) -> list[tuple[IChain, int]]:
    """Chain and utility of each pattern with one of items appended to the last itemset.

    Every item must sort after the last item of the prefix pattern.  Results
    follow the order of items.
    """
    head, last_itemset = prefix.pattern[:-1], prefix.pattern[-1]
    if any(item <= last_itemset[-1] for item in items):
        raise ValueError("item-extension must append a larger item id")
    return _extend_ichains(prefix, items, sils, 0, lambda item: head + (last_itemset + (item,),))


def extend_ichain_s(
    prefix: IChain, items: Sequence[Item], sils: Sequence[SIL | None]
) -> list[tuple[IChain, int]]:
    """Chain and utility of each pattern with {item} appended as a new itemset.

    An instance extends only when the position after its ending position
    holds entries, not a gap.  Results follow the order of items.
    """
    return _extend_ichains(prefix, items, sils, 1, lambda item: prefix.pattern + ((item,),))


def ichain_pattern_utility(chain: IChain) -> int:
    """Pattern utility from the chain alone: per-sequence maxima, summed.

    The one rule for every chain, seed or extended.  Every fourth int of
    singles is a whole sequence's utility, summed without a maximum; a
    group's utilities are every third int after its sid.
    """
    return sum(chain.singles[3::4]) + sum([max(group[3::3]) for group in chain.groups])
