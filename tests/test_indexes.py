"""SIL construction and IChain growth, checked against the direct calculus."""

from __future__ import annotations

import ast
import itertools
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    A,
    B,
    C,
    D,
    E,
    F,
    databases_where_guip_leaves_a_gap,
    q_databases,
    wide_databases,
)
import hucsp
from hucsp.bounds import Threshold, guip_revise, swu_per_item
from hucsp.core import (
    AbsentItemError,
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    db_utility,
    ending_positions,
    instance_utility,
    pattern_utility,
    q_sequence_utility,
)
from hucsp.dataio import GeneratorParams, generate_synthetic
from hucsp.indexes import (
    IChain,
    InstanceList,
    build_initial_ichains,
    build_sil,
    extend_ichain_i,
    extend_ichain_s,
    extension_utilizations,
    ichain_pattern_utility,
    sil_row,
    sil_to_text,
)


def _elements(chain, sils):
    """sid -> (ending position, utility) pairs, once every slot is checked.

    An element's slot must hold the (item, utility) entry of the pattern's
    last item in the row of its ending position.
    """
    last = chain.pattern[-1][-1]
    out = {}
    for sid, elements in chain.lists:
        sil = sils[sid]
        for pos, slot, utility in elements:
            assert sil[pos] <= slot < sil[pos + 1]
            assert sil[slot] == next(e for e in sil_row(sil, pos) if e[0] == last)[:2]
        out[sid] = [(pos, utility) for pos, _, utility in elements]
    return out


def _entries(sil, seq):
    """(utility, remaining) of every entry in reading order."""
    rows = (sil_row(sil, pos) for pos in range(1, len(seq.itemsets) + 1))
    return [(u, r) for row in rows for _, u, r in row]


def _reference_sil(seq, eut, deleted):
    """{position: row} of one sequence, each remainder summed afresh."""
    kept = [
        (pos, q.item, q.quantity * eut.weights[q.item])
        for pos, q in seq.iter_slots()
        if q.item not in deleted
    ]
    rows: dict[int, tuple] = {}
    for k, (pos, item, utility) in enumerate(kept):
        remaining = sum(u for _, _, u in kept[k + 1 :])
        rows[pos] = rows.get(pos, ()) + ((item, utility, remaining),)
    return rows


@st.composite
def _gapped_databases(draw):
    """(database, utility table, deleted items): GUIP's deletions plus a drawn few."""
    db, eut = draw(databases_where_guip_leaves_a_gap())
    xi = draw(st.sampled_from(["0.2", "0.4", "0.6"]))
    deleted, _ = guip_revise(db, eut, Threshold.from_text(xi, db_utility(db, eut)))
    extra = draw(st.frozensets(st.integers(0, len(db.names) - 1), max_size=2))
    return db, eut, deleted | extra


class TestSIL:
    def test_first_sequence_golden(self, running):
        db, eut = running
        sils = build_sil(db, eut)
        assert (
            sil_to_text(sils[0], db.names)
            == "(b,4,19)(f,4,15)/(a,6,9)(e,2,7)/(c,6,1)(e,1,0)"
        )

    def test_fifth_sequence(self, running):
        db, eut = running
        sils = build_sil(db, eut)
        assert (
            sil_to_text(sils[4], db.names)
            == "(a,6,19)/(a,3,16)(c,9,7)/(c,3,4)(f,2,2)/(b,2,0)"
        )

    def test_single_slot(self):
        from hucsp.dataio import parse_database

        db, eut = parse_database("a:1 -1 -2\n", "a 3\n")
        assert sil_to_text(build_sil(db, eut)[0], db.names) == "(a,3,0)"

    def test_guip_gap_renders_with_double_slash(self):
        from hucsp.bounds import Threshold, guip_revise
        from hucsp.dataio import parse_database

        db, eut = parse_database(
            "a:9 -1 b:1 -1 a:9 -1 -2\na:20 c:30 -1 -2\n", "a 10\nb 1\nc 1\n"
        )
        # SWU(b)=181 < 205.5: b goes, splitting the first sequence at position 2
        deleted, _ = guip_revise(db, eut, Threshold.from_text("0.5", 411))
        assert deleted == {1}
        sil = build_sil(db, eut, deleted)[0]
        assert sil_to_text(sil, db.names) == "(a,90,90)//(a,90,0)"

    @given(q_databases())
    def test_remaining_utilities_telescope(self, dbeut):
        db, eut = dbeut
        for sil, seq in zip(build_sil(db, eut), db.sequences, strict=True):
            entries = _entries(sil, seq)
            assert sum(entries[0]) == q_sequence_utility(seq, eut)
            for (_, remaining), (utility, rest) in zip(entries, entries[1:]):
                assert remaining == utility + rest
            assert entries[-1][1] == 0

    def test_first_sequence_maps_its_run_of_three_itemsets(self, indexed):
        _, _, sils, _ = indexed
        # rows 1 to 3 hold two entries each; nothing before or after them
        assert [len(sil_row(sils[0], pos)) for pos in range(5)] == [0, 2, 2, 2, 0]
        assert sil_row(sils[0], 1) == ((B, 4, 19), (F, 4, 15))

    @given(q_databases())
    def test_by_position_holds_every_q_item(self, dbeut):
        db, eut = dbeut
        for sil, seq in zip(build_sil(db, eut), db.sequences, strict=True):
            n = len(seq.itemsets)
            assert sil_row(sil, n + 1) == ()
            for pos in range(1, n + 1):
                assert [(item, utility) for item, utility, _ in sil_row(sil, pos)] == [
                    (q.item, q.quantity * eut.weights[q.item]) for q in seq.itemsets[pos - 1]
                ]

    @given(st.data())
    def test_text_splits_at_every_gap(self, data):
        db, eut = data.draw(q_databases())
        deleted = data.draw(st.frozensets(st.integers(0, len(db.names) - 1)))
        for sil, seq in zip(build_sil(db, eut, deleted), db.sequences, strict=True):
            keeps = [any(q.item not in deleted for q in s) for s in seq.itemsets]
            runs = [len(list(group)) for kept, group in itertools.groupby(keeps) if kept]
            if sil is None:
                assert runs == []
                continue
            parts = sil_to_text(sil, db.names).split("//")
            assert [len(part.split("/")) for part in parts] == runs

    @given(st.data())
    def test_deleted_items_are_left_out(self, data):
        db, eut = data.draw(q_databases())
        deleted = data.draw(st.frozensets(st.integers(0, len(db.names) - 1)))
        sils = build_sil(db, eut, deleted)
        assert len(sils) == len(db.sequences)
        swu: dict[int, int] = {}
        for sid, seq in enumerate(db.sequences):
            kept = {}
            for pos, itemset in enumerate(seq.itemsets, start=1):
                row = [
                    (q.item, q.quantity * eut.weights[q.item])
                    for q in itemset
                    if q.item not in deleted
                ]
                if row:
                    kept[pos] = row
            sil = sils[sid]
            if not kept:
                assert sil is None
                continue
            assert sil is not None
            positions = range(1, len(seq.itemsets) + 2)
            assert [pos for pos in positions if sil_row(sil, pos)] == sorted(kept)
            for pos, row in kept.items():
                assert [(item, utility) for item, utility, _ in sil_row(sil, pos)] == row
            gone = sum(
                q.quantity * eut.weights[q.item] for _, q in seq.iter_slots() if q.item in deleted
            )
            survivors = q_sequence_utility(seq, eut) - gone
            entries = _entries(sil, seq)
            assert sum(entries[0]) == survivors
            for (_, remaining), (utility, rest) in zip(entries, entries[1:]):
                assert remaining == utility + rest
            assert entries[-1][1] == 0
            for item in {item for row in kept.values() for item, _ in row}:
                swu[item] = swu.get(item, 0) + survivors
        assert swu_per_item(db, eut, deleted) == swu

    @pytest.mark.parametrize("item", [1, 7, -1])
    def test_item_without_weight(self, item):
        seq = QSequence.from_itemsets(((QItem(0, 1), QItem(item, 1)),))
        with pytest.raises(AbsentItemError, match=f"item {item} has no external utility"):
            build_sil(QSequenceDatabase((seq,), ("a",)), ExternalUtilityTable((3,)))

    @given(_gapped_databases())
    def test_rows_match_a_position_map(self, case):
        db, eut, deleted = case
        sils = build_sil(db, eut, deleted)
        reference = [_reference_sil(seq, eut, deleted) for seq in db.sequences]
        assert [sil is not None for sil in sils] == [bool(rows) for rows in reference]
        for sid, sil in enumerate(sils):
            if sil is None:
                continue
            n = len(db.sequences[sid].itemsets)
            positions = range(n + 2)
            assert [sil_row(sil, pos) for pos in positions] == [
                reference[sid].get(pos, ()) for pos in positions
            ]
            # The rests close the tuple: sil[-p] is the utility at positions p and on.
            assert len(sil) == sil[sil[0] - 1] + n + 2
            assert [sil[-p] for p in range(1, n + 3)] == [
                sum(u for at, row in reference[sid].items() if at >= p for _, u, _ in row)
                for p in range(1, n + 3)
            ]

    def test_memory_per_surviving_q_item(self):
        # Python 3.11.7: the {position: row} dict SIL took about 117 bytes per
        # q-item here, the one-tuple SIL with an (item, utility, remaining)
        # triple per entry about 86, shared (item, utility) entries with one
        # rest per position in a {sid: SIL} dict about 29, and the same SILs
        # in a list indexed by sid about 24.
        db, eut = generate_synthetic(GeneratorParams(sequence_count=2000, seed=7))
        q_items = sum(len(itemset) for seq in db.sequences for itemset in seq.itemsets)
        tracemalloc.start()
        try:
            sils = build_sil(db, eut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sils) == 2000
        assert peak / q_items < 27

    @given(_gapped_databases())
    def test_equal_entries_are_one_object(self, case):
        # q_databases draws a fresh QItem per occurrence, so equal q-items
        # are shared by the SIL build, not by the database.
        db, eut, deleted = case
        shared: dict = {}
        for sil in build_sil(db, eut, deleted):
            if sil is None:
                continue
            for entry in sil[sil[0] : sil[sil[0] - 1]]:
                assert shared.setdefault(entry, entry) is entry


class TestInitialIChains:
    def test_chain_of_a(self, indexed):
        _, _, sils, initial = indexed
        assert _elements(initial[A], sils) == {
            0: [(2, 6)],
            1: [(1, 3), (3, 3)],
            2: [(3, 9)],
            4: [(1, 6), (2, 3)],
        }

    def test_chain_of_d(self, indexed):
        _, _, sils, initial = indexed
        assert _elements(initial[D], sils) == {1: [(2, 2)], 2: [(3, 2)], 3: [(1, 2)]}

    def test_every_present_item_has_a_chain(self, indexed):
        _, _, _, initial = indexed
        assert sorted(initial) == [A, B, C, D, E, F]
        assert all(initial[i].pattern == ((i,),) for i in initial)

    @given(st.data())
    def test_mapping_contract(self, data):
        db, eut = data.draw(q_databases())
        deleted = data.draw(st.frozensets(st.integers(0, len(db.names) - 1)))
        initial = build_initial_ichains(build_sil(db, eut, deleted))
        surviving = {q.item for s in db.sequences for _, q in s.iter_slots()} - deleted
        assert len(initial) == len(surviving)
        assert list(initial) == sorted(surviving)
        for item in surviving:
            assert initial[item] == initial[item]
        for item in set(range(len(db.names) + 1)) - surviving:
            assert item not in initial
            with pytest.raises(KeyError):
                initial[item]

    def test_utilities(self, indexed):
        _, _, _, initial = indexed
        assert {i: ichain_pattern_utility(c) for i, c in initial.items()} == {
            A: 24, B: 20, C: 24, D: 6, E: 6, F: 13,
        }

    def test_positions_after_two_adjacent_gaps(self):
        from hucsp.dataio import parse_database

        db, eut = parse_database(
            "b:1 -1 -2\na:9 -1 b:1 -1 b:1 -1 a:9 c:5 -1 -2\na:20 c:30 -1 -2\n",
            "a 10\nb 1\nc 1\n",
        )
        # SWU(b)=188 < 209: b goes, leaving sequence 0 without a SIL (its
        # slot holds None) and emptying rows 2 and 3 of sequence 1; a opens
        # rows 1 and 4 there, and c follows a in row 4.
        deleted, _ = guip_revise(db, eut, Threshold.from_text("0.5", db_utility(db, eut)))
        assert deleted == {1}
        sils = build_sil(db, eut, deleted)
        assert [sil is None for sil in sils] == [True, False, False]
        assert sils[1][:7] == (7, 7, 8, 8, 8, 10, 10)
        initial = build_initial_ichains(sils)
        assert _elements(initial[0], sils) == {1: [(1, 90), (4, 90)], 2: [(1, 200)]}
        assert _elements(initial[2], sils) == {1: [(4, 5)], 2: [(1, 30)]}
        for item, chain in initial.items():
            for sid, elements in chain.lists:
                assert tuple(pos for pos, _, _ in elements) == ending_positions(
                    ((item,),), db.sequences[sid]
                )

    def test_memory_per_surviving_occurrence(self):
        # Python 3.11.7: runs of (sid, position, slot) Python ints in a list
        # per item took about 26 bytes per occurrence here, int32 arrays of
        # (rank, slot) pairs with a tuple of the sids about 9.8, and int32
        # arrays of (sid, slot) pairs alone about 9.2.
        db, eut = generate_synthetic(GeneratorParams(sequence_count=2000, seed=7))
        sils = build_sil(db, eut)
        assert None not in sils
        occurrences = sum(sil[sil[0] - 1] - sil[0] for sil in sils)
        tracemalloc.start()
        try:
            initial = build_initial_ichains(sils)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(initial) == len(eut.weights)
        assert peak / occurrences < 9.5

    def test_memory_per_extended_instance(self):
        # Python 3.11.7: an (position, slot, utility) tuple per instance in a
        # tuple per sequence, each in an InstanceList, took about 171 bytes
        # per instance here; flat singles and one flat tuple per group take
        # about 38.  Ten items keep the chains long, so the per-chain objects
        # do not count.
        params = GeneratorParams(sequence_count=2000, distinct_items=10, seed=7)
        db, eut = generate_synthetic(params)
        sils = build_sil(db, eut)
        jobs = []
        for seed in build_initial_ichains(sils).values():
            i_map, s_map = extension_utilizations(seed, sils)
            jobs.append((seed, sorted(i_map), sorted(s_map)))
        tracemalloc.start()
        try:
            grown = []
            for seed, i_items, s_items in jobs:
                grown += extend_ichain_i(seed, i_items, sils)
                grown += extend_ichain_s(seed, s_items, sils)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        instances = sum(len(il.elements) for chain, _ in grown for il in chain.lists)
        assert instances > 50_000
        assert held / instances < 64


class TestExtension:
    def test_item_extension_ae(self, indexed):
        _, _, sils, initial = indexed
        [(ext, utility)] = extend_ichain_i(initial[A], [E], sils)
        assert ext.pattern == ((A, E),)
        assert _elements(ext, sils) == {0: [(2, 8)], 1: [(3, 5)]}
        assert utility == 13

    def test_item_extension_bf(self, indexed):
        _, _, sils, initial = indexed
        [(ext, utility)] = extend_ichain_i(initial[B], [F], sils)
        assert _elements(ext, sils) == {0: [(1, 8)], 2: [(1, 6)], 3: [(2, 13)]}
        assert utility == 27

    def test_sequence_extension_ac(self, indexed):
        _, _, sils, initial = indexed
        [(ext, utility)] = extend_ichain_s(initial[A], [C], sils)
        assert ext.pattern == ((A,), (C,))
        assert _elements(ext, sils) == {0: [(3, 12)], 1: [(2, 9)], 4: [(2, 15), (3, 6)]}
        assert utility == 36

    def test_siblings_come_back_in_item_order(self, indexed):
        _, _, sils, initial = indexed
        grown = extend_ichain_s(initial[A], [A, B, C], sils)
        assert [ext.pattern for ext, _ in grown] == [((A,), (A,)), ((A,), (B,)), ((A,), (C,))]
        assert [utility for _, utility in grown] == [9, 0, 36]
        assert _elements(grown[0][0], sils) == {4: [(2, 9)]}
        assert grown[1][0].lists == ()

    def test_extension_can_be_empty(self, indexed):
        _, _, sils, initial = indexed
        assert extend_ichain_i(initial[E], [F], sils) == [(IChain(((E, F),), (), ()), 0)]
        assert extend_ichain_s(initial[E], [], sils) == []

    def test_item_extension_requires_larger_id(self, indexed):
        _, _, sils, initial = indexed
        with pytest.raises(ValueError):
            extend_ichain_i(initial[C], [A], sils)
        with pytest.raises(ValueError):
            extend_ichain_i(initial[C], [C], sils)
        with pytest.raises(ValueError):
            extend_ichain_i(initial[C], [C, D], sils)

    def test_sequence_extension_stops_at_sequence_end(self, indexed):
        _, _, sils, initial = indexed
        # b's only occurrence in S5 is the last itemset; nothing follows it
        [(ext, _)] = extend_ichain_s(initial[B], [B], sils)
        assert 4 not in _elements(ext, sils)


def _extension_items(chain, sils):
    i_map, s_map = extension_utilizations(chain, sils)
    return tuple(sorted(i_map)), tuple(sorted(s_map))


class TestExtensionItems:
    def test_items_after_a(self, indexed):
        _, _, sils, initial = indexed
        i_items, s_items = _extension_items(initial[A], sils)
        assert i_items == (B, C, D, E)
        assert s_items == (A, C, D, E, F)

    def test_no_sequence_items_at_the_very_end(self, indexed):
        from hucsp.dataio import parse_database

        db, eut = parse_database("a:1 b:1 -1 -2\n", "a 1\nb 1\n")
        sils = build_sil(db, eut)
        chain = build_initial_ichains(sils)[B]
        assert _extension_items(chain, sils) == ((), ())


class TestChainsAgreeWithCalculus:
    @given(
        st.one_of(q_databases(), databases_where_guip_leaves_a_gap()),
        st.sampled_from(["0", "0.2", "0.4", "0.6"]),
    )
    def test_initial_chains(self, dbeut, xi):
        db, eut = dbeut
        # A deleted item has no chain; a surviving item's chain is unchanged.
        deleted, _ = guip_revise(db, eut, Threshold.from_text(xi, db_utility(db, eut)))
        sils = build_sil(db, eut, deleted)
        seqs = dict(enumerate(db.sequences))
        initial = build_initial_ichains(sils)
        items = {q.item for s in db.sequences for _, q in s.iter_slots()} - deleted
        assert set(initial) == items
        for item, chain in initial.items():
            pattern = ((item,),)
            contained = {
                sid for sid, s in seqs.items() if ending_positions(pattern, s)
            }
            assert {il.sid for il in chain.lists} == contained
            for il in chain.lists:
                seq = seqs[il.sid]
                assert tuple(epos for epos, _, _ in il.elements) == ending_positions(pattern, seq)
                for epos, _, value in il.elements:
                    assert value == instance_utility(pattern, epos, seq, eut)
            assert ichain_pattern_utility(chain) == pattern_utility(pattern, db, eut)

    @given(_gapped_databases())
    def test_every_slot_names_the_last_item_in_its_row(self, case):
        db, eut, deleted = case
        sils = build_sil(db, eut, deleted)
        chains = list(build_initial_ichains(sils).values())
        # Depth 3: i-extensions start after a slot that an extension set.
        for depth_start in (0, len(chains)):
            for chain in chains[depth_start:]:
                i_items, s_items = _extension_items(chain, sils)
                chains += [c for c, _ in extend_ichain_i(chain, i_items, sils)]
                chains += [c for c, _ in extend_ichain_s(chain, s_items, sils)]
        for chain in chains:
            last = chain.pattern[-1][-1]
            for sid, elements in chain.lists:
                sil = sils[sid]
                for pos, slot, _ in elements:
                    assert sil[pos] <= slot < sil[pos + 1]
                    assert sil[slot][0] == last

    @given(q_databases())
    def test_extensions(self, dbeut):
        db, eut = dbeut
        sils = build_sil(db, eut)
        seqs = dict(enumerate(db.sequences))

        def grow(chain):
            i_items, s_items = _extension_items(chain, sils)
            return extend_ichain_i(chain, i_items, sils) + extend_ichain_s(chain, s_items, sils)

        def check(ext, utility):
            assert [il.sid for il in ext.lists] == [
                sid for sid, s in seqs.items() if ending_positions(ext.pattern, s)
            ]
            for il in ext.lists:
                seq = seqs[il.sid]
                assert tuple(epos for epos, _, _ in il.elements) == ending_positions(
                    ext.pattern, seq
                )
                for epos, _, value in il.elements:
                    assert value == instance_utility(ext.pattern, epos, seq, eut)
            assert utility == pattern_utility(ext.pattern, db, eut)

        for chain in build_initial_ichains(sils).values():
            for ext, utility in grow(chain):
                check(ext, utility)
                # depth 2: chains grown from built chains
                for deeper, deeper_utility in grow(ext):
                    check(deeper, deeper_utility)

    @given(q_databases(), st.data())
    def test_a_batch_equals_one_call_per_item(self, dbeut, data):
        db, eut = dbeut
        sils = build_sil(db, eut)
        universe = range(len(eut.weights))
        for chain in build_initial_ichains(sils).values():
            last = chain.pattern[-1][-1]
            for extend, allowed in (
                (extend_ichain_i, [j for j in universe if j > last]),
                (extend_ichain_s, list(universe)),
            ):
                items = sorted(data.draw(st.sets(st.sampled_from(allowed))) if allowed else [])
                batch = extend(chain, items, sils)
                assert batch == [extend(chain, [j], sils)[0] for j in items]
                assert [ext.pattern[-1][-1] for ext, _ in batch] == items


def _reference_lists(pattern, db, eut, sils):
    """One InstanceList per containing sequence, from the direct calculus.

    A deleted item is never in pattern, and deletion moves no position, so
    the instances in the unrevised database are the chain's.  The slot is
    the offset of the pattern's last item in the row of the ending position.
    """
    last = pattern[-1][-1]
    lists = []
    for sid, seq in enumerate(db.sequences):
        if positions := ending_positions(pattern, seq):
            sil = sils[sid]
            elements = tuple(
                (pos, sil[pos] + [e[0] for e in sil_row(sil, pos)].index(last),
                 instance_utility(pattern, pos, seq, eut))
                for pos in positions
            )
            lists.append(InstanceList(sid, elements))
    return tuple(lists)


class TestChainLayout:
    @given(
        st.one_of(
            q_databases(),
            wide_databases(),
            databases_where_guip_leaves_a_gap(),
            databases_where_guip_leaves_a_gap(wide_databases()),
        ),
        st.sampled_from(["0", "0.2", "0.4"]),
    )
    def test_singles_and_groups(self, dbeut, xi):
        db, eut = dbeut
        deleted, _ = guip_revise(db, eut, Threshold.from_text(xi, db_utility(db, eut)))
        sils = build_sil(db, eut, deleted)
        chains = list(build_initial_ichains(sils).values())
        # Depth 3: groups of groups, and singles that groups leave behind.
        for depth_start in (0, len(chains)):
            for chain in chains[depth_start:]:
                i_items, s_items = _extension_items(chain, sils)
                chains += [c for c, _ in extend_ichain_i(chain, i_items, sils)]
                chains += [c for c, _ in extend_ichain_s(chain, s_items, sils)]
        for chain in chains:
            singles, groups = chain.singles, chain.groups
            assert len(singles) % 4 == 0
            single_sids = singles[::4]
            group_sids = tuple(group[0] for group in groups)
            for group in groups:
                assert len(group) >= 7 and len(group) % 3 == 1
            assert not set(single_sids) & set(group_sids)
            lists = chain.lists
            assert lists == _reference_lists(chain.pattern, db, eut, sils)
            for il in lists:
                assert (len(il.elements) == 1) == (il.sid in single_sids)
            assert ichain_pattern_utility(chain) == sum(
                max(utility for _, _, utility in il.elements) for il in lists
            )


class TestModuleBoundary:
    """Only indexes reads the SIL and chain layouts, bounds imports nothing from
    indexes, and no module imports another's private names."""

    @staticmethod
    def _modules():
        package = Path(hucsp.__file__).parent
        return {path.name: ast.parse(path.read_text("utf-8")) for path in package.glob("*.py")}

    def test_bounds_imports_nothing_from_indexes(self):
        imported = set()
        for node in ast.walk(self._modules()["bounds.py"]):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert "indexes" not in imported

    def test_only_indexes_reads_chain_fields(self):
        reads = [
            (name, node.lineno, node.attr)
            for name, tree in sorted(self._modules().items())
            if name != "indexes.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in {"singles", "groups", "lists"}
        ]
        assert reads == []

    def test_no_module_imports_a_private_name(self):
        imports = [
            (name, node.lineno, alias.name)
            for name, tree in sorted(self._modules().items())
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "hucsp")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert imports == []
