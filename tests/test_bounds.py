"""Thresholds, SWU/GUIP, and IEU/LUIP behavior."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import A, B, C, D, E, F, q_databases
from hucsp.bounds import (
    Threshold,
    extension_utilizations,
    guip_revise,
    ieu_i_by_sequence,
    ieu_i_extension,
    ieu_s_by_sequence,
    ieu_s_extension,
    luip_admits,
    swu_per_item,
)
from hucsp.core import db_utility
from hucsp.dataio import parse_database
from hucsp.indexes import build_initial_ichains, build_sil


@pytest.fixture(scope="module")
def indexed(running):
    db, eut = running
    sils = build_sil(db, eut)
    return db, eut, {s.sid: s for s in sils}, build_initial_ichains(sils)


class TestThreshold:
    def test_exact_quarter(self):
        t = Threshold.from_text("0.25", 106)
        assert t.xi == Fraction(1, 4)
        assert t.min_utility == Fraction(53, 2)
        assert t.admits(27) and not t.admits(26)
        assert t.rejects(26) and not t.rejects(27)

    def test_boundary_is_inclusive(self):
        t = Threshold.from_text("0.5", 54)
        assert t.min_utility == 27
        assert t.admits(27)
        assert not t.rejects(27)

    def test_extremes(self):
        assert Threshold.from_text("0", 106).admits(0)
        assert Threshold.from_text("1", 106).min_utility == 106
        assert Threshold.from_text("0.001", 1000).min_utility == 1

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
        st.integers(0, 10**30),
        st.integers(-2, 2),
    )
    def test_integer_compare_is_exact(self, xi, total, offset):
        t = Threshold.from_text(str(xi), total)
        exact = xi * total
        # Probe both sides of the bar, and the bar itself when it is an integer.
        for utility in (math.floor(exact) + offset, math.ceil(exact) + offset):
            assert t.admits(utility) == (utility >= exact)
            assert t.rejects(utility) == (utility < exact)

    @pytest.mark.parametrize("text", ["-0.1", "1.01", "2", "abc", "", "0.2.5"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            Threshold.from_text(text, 106)

    @pytest.mark.parametrize("text", ["1e-1000000", "1E-1", "5e-1"])
    def test_refuses_exponent_notation(self, text):
        # Fraction would expand 1e-1000000 into a million-digit power of ten.
        with pytest.raises(ValueError, match="invalid threshold"):
            Threshold.from_text(text, 106)


class TestSWU:
    def test_worked_values(self, running):
        db, eut = running
        swu = swu_per_item(db, eut)
        assert swu[A] == 85
        assert swu[D] == 58
        assert swu == {A: 85, B: 106, C: 87, D: 58, E: 62, F: 88}

    @given(q_databases(segmented=True))
    def test_never_below_any_pattern_utility_of_the_item(self, dbeut):
        from hucsp.core import pattern_utility, q_sequence_utility

        db, eut = dbeut
        swu = swu_per_item(db, eut)
        for item, value in swu.items():
            assert pattern_utility(((item,),), db, eut) <= value
            assert value == sum(
                q_sequence_utility(s, eut)
                for s in db.sequences
                if any(q.item == item for _, q in s.iter_slots())
            )


class TestGUIP:
    def test_quarter_threshold_deletes_nothing(self, running):
        db, eut = running
        result = guip_revise(db, eut, Threshold.from_text("0.25", 106))
        assert result.database == db
        assert result.deleted_items == frozenset()
        assert result.rounds == 0

    def test_full_threshold_needs_two_rounds(self, running):
        db, eut = running
        result = guip_revise(db, eut, Threshold.from_text("1.0", 106))
        # round 1: every item except b (SWU 106 >= 106); round 2: b alone
        assert result.deleted_items == {A, B, C, D, E, F}
        assert result.rounds == 2
        assert result.database.sequences == ()

    def test_zero_threshold_deletes_nothing(self, running):
        db, eut = running
        assert guip_revise(db, eut, Threshold.from_text("0", 106)).rounds == 0

    def test_deletion_splits_segments_and_keeps_positions(self):
        db, eut = parse_database(
            "a:50 -1 z:1 -1 b:50 -1 -2\na:30 b:30 -1 -2\nc:200 -1 -2\n",
            "a 1\nb 1\nz 1\nc 1\n",
        )
        assert db_utility(db, eut) == 361
        result = guip_revise(db, eut, Threshold.from_text("0.4", 361))
        assert result.deleted_items == {2}  # z: SWU 101 < 144.4
        assert result.rounds == 1
        revised = result.database.sequences[0]
        assert [(seg.start, len(seg.itemsets)) for seg in revised.segments] == [(1, 1), (3, 1)]
        # the other sequences are untouched
        assert result.database.sequences[1:] == db.sequences[1:]

    def test_emptied_sequences_are_dropped(self):
        db, eut = parse_database(
            "z:1 -1 -2\na:90 -1 -2\n", "z 1\na 1\n"
        )
        result = guip_revise(db, eut, Threshold.from_text("0.5", 91))
        assert [s.sid for s in result.database.sequences] == [1]

    @given(q_databases())
    def test_terminates_within_item_count(self, dbeut):
        db, eut = dbeut
        threshold = Threshold.from_text("1", db_utility(db, eut))
        result = guip_revise(db, eut, threshold)
        assert result.rounds <= len(db.names)
        surviving = {
            q.item for s in result.database.sequences for _, q in s.iter_slots()
        }
        assert not surviving & result.deleted_items


class TestIEU:
    def test_item_extension_worked_values(self, indexed):
        _, _, sils, initial = indexed
        assert ieu_i_by_sequence(initial[A], E, sils) == {0: 15, 1: 5}
        assert ieu_i_extension(initial[A], E, sils) == 20

    def test_sequence_extension_worked_values(self, indexed):
        _, _, sils, initial = indexed
        assert ieu_s_by_sequence(initial[A], C, sils) == {0: 13, 1: 18, 4: 22}
        assert ieu_s_extension(initial[A], C, sils) == 53

    def test_absent_extension_is_zero(self, indexed):
        _, _, sils, initial = indexed
        # no itemset holds both e and f, and no e is ever followed by a d
        assert ieu_i_extension(initial[E], F, sils) == 0
        assert ieu_s_by_sequence(initial[E], D, sils) == {}
        assert ieu_s_extension(initial[E], D, sils) == 0

    def test_ieu_dominates_extended_utility(self, indexed):
        from hucsp.core import pattern_utility
        from hucsp.indexes import extend_ichain_i, extend_ichain_s

        db, eut, sils, initial = indexed
        for item, chain in initial.items():
            i_items, s_items = extension_utilizations(chain, sils)
            for j in i_items:
                ext = extend_ichain_i(chain, j, sils)
                assert pattern_utility(ext.pattern, db, eut) <= ieu_i_extension(chain, j, sils)
            for j in s_items:
                ext = extend_ichain_s(chain, j, sils)
                assert pattern_utility(ext.pattern, db, eut) <= ieu_s_extension(chain, j, sils)

    @given(q_databases(segmented=True))
    def test_batch_agrees_with_per_item(self, dbeut):
        db, eut = dbeut
        sils = {s.sid: s for s in build_sil(db, eut)}
        for chain in build_initial_ichains(list(sils.values())).values():
            i_map, s_map = extension_utilizations(chain, sils)
            last = chain.pattern[-1][-1]
            items = range(len(eut.weights))
            assert set(i_map) == {
                j for j in items if j > last and ieu_i_by_sequence(chain, j, sils)
            }
            assert set(s_map) == {j for j in items if ieu_s_by_sequence(chain, j, sils)}
            for j in i_map:
                assert i_map[j] == ieu_i_extension(chain, j, sils)
            for j in s_map:
                assert s_map[j] == ieu_s_extension(chain, j, sils)


class TestLUIP:
    def test_admission(self):
        t = Threshold.from_text("0.25", 106)  # min utility 26.5
        assert luip_admits(53, t)
        assert luip_admits(27, t)
        assert not luip_admits(26, t)
        assert not luip_admits(20, t)

    def test_zero_threshold_admits_everything(self):
        t = Threshold.from_text("0", 106)
        assert luip_admits(0, t)
