"""SIL construction and IChain growth, checked against the direct calculus."""

from __future__ import annotations

import pytest
from hypothesis import given

from conftest import A, B, C, D, E, F, q_databases
from hucsp.bounds import extension_utilizations
from hucsp.core import (
    AbsentItemError,
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    Segment,
    ending_positions,
    instance_utility,
    pattern_utility,
    q_sequence_utility,
)
from hucsp.indexes import (
    build_initial_ichains,
    build_sil,
    extend_ichain_i,
    extend_ichain_s,
    ichain_pattern_utility,
    sil_to_text,
)


@pytest.fixture(scope="module")
def indexed(running):
    db, eut = running
    sils = build_sil(db, eut)
    return db, eut, {sil.sid: sil for sil in sils}, build_initial_ichains(sils)


def _elements(chain):
    return {il.sid: [tuple(e) for e in il.elements] for il in chain.lists}


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

    def test_segments_render_with_double_slash(self):
        from hucsp.bounds import Threshold, guip_revise
        from hucsp.dataio import parse_database

        db, eut = parse_database(
            "a:9 -1 b:1 -1 a:9 -1 -2\na:20 c:30 -1 -2\n", "a 10\nb 1\nc 1\n"
        )
        # SWU(b)=181 < 205.5: b goes, splitting the first sequence at position 2
        revised, deleted, _ = guip_revise(db, eut, Threshold.from_text("0.5", 411))
        assert deleted == {1}
        sil = build_sil(revised, eut)[0]
        assert sil_to_text(sil, db.names) == "(a,90,90)//(a,90,0)"

    @given(q_databases(segmented=True))
    def test_remaining_utilities_telescope(self, dbeut):
        db, eut = dbeut
        for sil, seq in zip(build_sil(db, eut), db.sequences):
            entries = [e for _, row in sorted(sil.by_position.items()) for e in row.values()]
            assert entries[0].utility + entries[0].remaining == q_sequence_utility(seq, eut)
            for cur, nxt in zip(entries, entries[1:]):
                assert cur.remaining == nxt.utility + nxt.remaining
            assert entries[-1].remaining == 0

    def test_by_position_mirrors_segments(self, indexed):
        _, _, sils, _ = indexed
        assert set(sils[0].by_position) == {1, 2, 3}
        assert sils[0].by_position[1][B].utility == 4

    @given(q_databases(segmented=True))
    def test_by_position_holds_every_q_item(self, dbeut):
        db, eut = dbeut
        for sil, seq in zip(build_sil(db, eut), db.sequences):
            assert sorted(sil.by_position) == list(seq.positions())
            for pos, row in sil.by_position.items():
                assert [(e.item, e.utility) for e in row.values()] == [
                    (q.item, q.quantity * eut.weights[q.item]) for q in seq.by_position[pos]
                ]

    @given(q_databases(segmented=True))
    def test_text_splits_at_every_gap(self, dbeut):
        db, eut = dbeut
        for sil, seq in zip(build_sil(db, eut), db.sequences):
            parts = sil_to_text(sil, db.names).split("//")
            assert [len(part.split("/")) for part in parts] == [
                len(seg.itemsets) for seg in seq.segments
            ]

    @pytest.mark.parametrize("item", [1, 7, -1])
    def test_item_without_weight(self, item):
        seq = QSequence(0, (Segment(1, ((QItem(0, 1), QItem(item, 1)),)),))
        with pytest.raises(AbsentItemError, match=f"item {item} has no external utility"):
            build_sil(QSequenceDatabase((seq,), ("a",)), ExternalUtilityTable((3,)))


class TestInitialIChains:
    def test_chain_of_a(self, indexed):
        _, _, _, initial = indexed
        assert _elements(initial[A]) == {
            0: [(2, 6)],
            1: [(1, 3), (3, 3)],
            2: [(3, 9)],
            4: [(1, 6), (2, 3)],
        }

    def test_chain_of_d(self, indexed):
        _, _, _, initial = indexed
        assert _elements(initial[D]) == {1: [(2, 2)], 2: [(3, 2)], 3: [(1, 2)]}

    def test_every_present_item_has_a_chain(self, indexed):
        _, _, _, initial = indexed
        assert sorted(initial) == [A, B, C, D, E, F]
        assert all(initial[i].pattern == ((i,),) for i in initial)

    def test_refuses_sils_out_of_sid_order(self, indexed):
        _, _, sils, _ = indexed
        with pytest.raises(ValueError, match="ascending sid order"):
            build_initial_ichains([sils[1], sils[0]])

    def test_utilities(self, indexed):
        _, _, _, initial = indexed
        assert {i: ichain_pattern_utility(c) for i, c in initial.items()} == {
            A: 24, B: 20, C: 24, D: 6, E: 6, F: 13,
        }


class TestExtension:
    def test_item_extension_ae(self, indexed):
        _, _, sils, initial = indexed
        ext = extend_ichain_i(initial[A], E, sils)
        assert ext.pattern == ((A, E),)
        assert _elements(ext) == {0: [(2, 8)], 1: [(3, 5)]}

    def test_item_extension_bf(self, indexed):
        _, _, sils, initial = indexed
        ext = extend_ichain_i(initial[B], F, sils)
        assert _elements(ext) == {0: [(1, 8)], 2: [(1, 6)], 3: [(2, 13)]}
        assert ichain_pattern_utility(ext) == 27

    def test_sequence_extension_ac(self, indexed):
        _, _, sils, initial = indexed
        ext = extend_ichain_s(initial[A], C, sils)
        assert ext.pattern == ((A,), (C,))
        assert _elements(ext) == {0: [(3, 12)], 1: [(2, 9)], 4: [(2, 15), (3, 6)]}
        assert ichain_pattern_utility(ext) == 36

    def test_extension_can_be_empty(self, indexed):
        _, _, sils, initial = indexed
        assert extend_ichain_i(initial[E], F, sils).lists == ()

    def test_item_extension_requires_larger_id(self, indexed):
        _, _, sils, initial = indexed
        with pytest.raises(ValueError):
            extend_ichain_i(initial[C], A, sils)
        with pytest.raises(ValueError):
            extend_ichain_i(initial[C], C, sils)

    def test_sequence_extension_stops_at_sequence_end(self, indexed):
        _, _, sils, initial = indexed
        # b's only occurrence in S5 is the last itemset; nothing follows it
        ext = extend_ichain_s(initial[B], B, sils)
        assert 4 not in _elements(ext)


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
        sils = {s.sid: s for s in build_sil(db, eut)}
        chain = build_initial_ichains(list(sils.values()))[B]
        assert _extension_items(chain, sils) == ((), ())


class TestChainsAgreeWithCalculus:
    @given(q_databases(segmented=True))
    def test_initial_chains(self, dbeut):
        db, eut = dbeut
        sils = build_sil(db, eut)
        seqs = {s.sid: s for s in db.sequences}
        initial = build_initial_ichains(sils)
        items = {q.item for s in db.sequences for _, q in s.iter_slots()}
        assert set(initial) == items
        for item, chain in initial.items():
            pattern = ((item,),)
            contained = {
                s.sid for s in db.sequences if ending_positions(pattern, s)
            }
            assert {il.sid for il in chain.lists} == contained
            for il in chain.lists:
                seq = seqs[il.sid]
                assert tuple(e.epos for e in il.elements) == ending_positions(pattern, seq)
                for e in il.elements:
                    assert e.utility == instance_utility(pattern, e.epos, seq, eut)
            assert ichain_pattern_utility(chain) == pattern_utility(pattern, db, eut)

    @given(q_databases(segmented=True))
    def test_extensions(self, dbeut):
        db, eut = dbeut
        sils = build_sil(db, eut)
        by_sid = {s.sid: s for s in sils}
        seqs = {s.sid: s for s in db.sequences}
        for chain in build_initial_ichains(sils).values():
            i_items, s_items = _extension_items(chain, by_sid)
            grown = [(extend_ichain_i(chain, j, by_sid)) for j in i_items]
            grown += [(extend_ichain_s(chain, j, by_sid)) for j in s_items]
            for ext in grown:
                for il in ext.lists:
                    seq = seqs[il.sid]
                    assert tuple(e.epos for e in il.elements) == ending_positions(
                        ext.pattern, seq
                    )
                    for e in il.elements:
                        assert e.utility == instance_utility(ext.pattern, e.epos, seq, eut)
                assert ichain_pattern_utility(ext) == pattern_utility(ext.pattern, db, eut)
