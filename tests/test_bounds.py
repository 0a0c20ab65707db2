"""Thresholds, SWU/GUIP, and IEU/LUIP behavior."""

from __future__ import annotations

import copy
import math
import pickle
import sys
from fractions import Fraction

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
from hucsp.bounds import Threshold, guip_revise, luip_admits, swu_per_item
from hucsp.core import (
    AbsentItemError,
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    db_utility,
)
from hucsp.dataio import parse_database
from hucsp.indexes import (
    build_initial_ichains,
    build_sil,
    extend_ichain_i,
    extend_ichain_s,
    extension_utilizations,
    sil_row,
)
from hucsp.miner import MiningConfig, mine
from hucsp.oracle import ieu_i_by_sequence, ieu_i_extension, ieu_s_by_sequence, ieu_s_extension


class TestThreshold:
    def test_exact_quarter(self):
        t = Threshold.from_text("0.25", 106)
        assert t.xi == Fraction(1, 4)
        assert t.min_utility == Fraction(53, 2)
        assert t.admits(27) and not t.admits(26)

    def test_boundary_is_inclusive(self):
        t = Threshold.from_text("0.5", 54)
        assert t.min_utility == 27
        assert t.admits(27)

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

    @pytest.mark.parametrize(
        "text",
        ["-0.1", "1.01", "2", "abc", "", "0.2.5", "٠.٥", "０.5", "0.0_5", "+0.5", "-0", ".", "1/",
         "1/0"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError) as err:
            Threshold.from_text(text, 106)
        out_of_range = text in ("1.01", "2")
        assert str(err.value).startswith(
            "threshold out of range" if out_of_range else "invalid threshold"
        )

    @pytest.mark.parametrize("text", [" 0.25\n", "1/4", ".25", "25/100"])
    def test_accepts_ascii_decimals_and_ratios(self, text):
        assert Threshold.from_text(text, 100).xi == Fraction(1, 4)

    @pytest.mark.parametrize(
        "text",
        ["0." + "1" * 5000, "9" * 4000 + "/1", "٠" * 5000],
        ids=["digits", "out-of-range", "non-ascii"],
    )
    def test_long_text_is_not_echoed_whole(self, text):
        with pytest.raises(ValueError) as err:
            Threshold.from_text(text, 106)
        assert len(str(err.value)) < 120
        assert f"({len(text)} characters)" in str(err.value)

    def test_digit_limit_is_named(self):
        # Well-formed, but Fraction cannot parse a 5,000-digit run into an int.
        with pytest.raises(ValueError) as err:
            Threshold.from_text("0." + "1" * 5000, 106)
        assert f"above the limit of {sys.get_int_max_str_digits()}" in str(err.value)

    @pytest.mark.parametrize("text", ["1e-1000000", "1E-1", "5e-1"])
    def test_refuses_exponent_notation(self, text):
        # Fraction would expand 1e-1000000 into a million-digit power of ten.
        with pytest.raises(ValueError, match="invalid threshold"):
            Threshold.from_text(text, 106)

    def test_is_immutable_and_derives_its_ceiling_in_every_copy(self):
        t = Threshold.from_text("0.25", 106)
        assert (t.xi, t.min_utility, t.least_admitted) == (Fraction(1, 4), Fraction(53, 2), 27)
        with pytest.raises(AttributeError):
            t.least_admitted = 0
        with pytest.raises(AttributeError):
            del t.xi
        pickled = [pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (copy.copy(t), copy.deepcopy(t), *pickled):
            assert twin == t and type(twin) is Threshold
        assert t._replace(min_utility=Fraction(7, 2)).least_admitted == 4


class TestSWU:
    def test_worked_values(self, running):
        db, eut = running
        swu = swu_per_item(db, eut)
        assert swu[A] == 85
        assert swu[D] == 58
        assert swu == {A: 85, B: 106, C: 87, D: 58, E: 62, F: 88}

    @given(q_databases())
    def test_never_below_any_pattern_utility_of_the_item(self, dbeut):
        from hucsp.oracle import pattern_utility, q_sequence_utility

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
        assert build_sil(db, eut, result.deleted_items) == build_sil(db, eut)
        assert result.deleted_items == frozenset()
        assert result.rounds == 0

    def test_full_threshold_needs_two_rounds(self, running):
        db, eut = running
        result = guip_revise(db, eut, Threshold.from_text("1.0", 106))
        # round 1: every item except b (SWU 106 >= 106); round 2: b alone
        assert result.deleted_items == {A, B, C, D, E, F}
        assert result.rounds == 2
        assert build_sil(db, eut, result.deleted_items) == [None] * len(db.sequences)

    def test_zero_threshold_deletes_nothing(self, running):
        db, eut = running
        assert guip_revise(db, eut, Threshold.from_text("0", 106)).rounds == 0

    def test_guip_gap_keeps_the_positions_around_it(self):
        db, eut = parse_database(
            "a:50 -1 z:1 -1 b:50 -1 -2\na:30 b:30 -1 -2\nc:200 -1 -2\n",
            "a 1\nb 1\nz 1\nc 1\n",
        )
        assert db_utility(db, eut) == 361
        result = guip_revise(db, eut, Threshold.from_text("0.4", 361))
        assert result.deleted_items == {2}  # z: SWU 101 < 144.4
        assert result.rounds == 1
        revised, full = build_sil(db, eut, result.deleted_items), build_sil(db, eut)
        # position 2 held only z: it becomes a gap between positions 1 and 3
        assert [sil_row(revised[0], pos) for pos in range(1, 5)] == [
            ((0, 50, 50),), (), ((1, 50, 0),), ()
        ]
        # the other sequences are untouched
        assert len(revised) == 3 and None not in revised
        assert (revised[1], revised[2]) == (full[1], full[2])

    def test_emptied_sequences_are_dropped(self):
        db, eut = parse_database(
            "z:1 -1 -2\na:90 -1 -2\n", "z 1\na 1\n"
        )
        result = guip_revise(db, eut, Threshold.from_text("0.5", 91))
        assert [sil is None for sil in build_sil(db, eut, result.deleted_items)] == [True, False]

    @pytest.mark.parametrize("item", [1, 7, -1])
    def test_item_without_weight(self, item):
        seq = QSequence.from_itemsets(((QItem(0, 1), QItem(item, 1)),))
        db = QSequenceDatabase((seq,), ("a",))
        with pytest.raises(AbsentItemError, match=f"item {item} has no external utility"):
            guip_revise(db, ExternalUtilityTable((3,)), Threshold.from_text("0.5", 4))

    @given(q_databases())
    def test_terminates_within_item_count(self, dbeut):
        db, eut = dbeut
        threshold = Threshold.from_text("1", db_utility(db, eut))
        result = guip_revise(db, eut, threshold)
        assert result.rounds <= len(db.names)
        surviving = {
            item
            for sid, sil in enumerate(build_sil(db, eut, result.deleted_items))
            if sil is not None
            for pos in range(1, len(db.sequences[sid].itemsets) + 1)
            for item, _, _ in sil_row(sil, pos)
        }
        assert not surviving & result.deleted_items


class TestIEU:
    def test_item_extension_worked_values(self, running):
        db, eut = running
        assert ieu_i_by_sequence(((A,),), E, db, eut) == {0: 15, 1: 5}
        assert ieu_i_extension(((A,),), E, db, eut) == 20

    def test_sequence_extension_worked_values(self, running):
        db, eut = running
        assert ieu_s_by_sequence(((A,),), C, db, eut) == {0: 13, 1: 18, 4: 22}
        assert ieu_s_extension(((A,),), C, db, eut) == 53

    def test_absent_extension_is_zero(self, running):
        db, eut = running
        # no itemset holds both e and f, and no e is ever followed by a d
        assert ieu_i_extension(((E,),), F, db, eut) == 0
        assert ieu_s_by_sequence(((E,),), D, db, eut) == {}
        assert ieu_s_extension(((E,),), D, db, eut) == 0
        # a deleted item has no instances, as prefix or as extension
        assert ieu_s_by_sequence(((A,),), C, db, eut, {C}) == {}
        assert ieu_s_extension(((C,),), E, db, eut, {C}) == 0
        # a deleted item after the extension drops out of its remainder
        assert ieu_s_by_sequence(((A,),), C, db, eut, {E}) == {0: 12, 1: 16, 4: 22}

    def test_ieu_dominates_extended_utility(self, indexed):
        from hucsp.oracle import pattern_utility

        db, eut, sils, initial = indexed
        for item, chain in initial.items():
            i_map, s_map = extension_utilizations(chain, sils)
            i_items, s_items = sorted(i_map), sorted(s_map)
            for j, (ext, _) in zip(i_items, extend_ichain_i(chain, i_items, sils)):
                bound = ieu_i_extension(chain.pattern, j, db, eut)
                assert pattern_utility(ext.pattern, db, eut) <= bound
            for j, (ext, _) in zip(s_items, extend_ichain_s(chain, s_items, sils)):
                bound = ieu_s_extension(chain.pattern, j, db, eut)
                assert pattern_utility(ext.pattern, db, eut) <= bound

    def test_item_extension_refuses_an_item_not_above_the_last(self, indexed):
        db, eut, sils, initial = indexed
        for pattern, item in ((((C,),), A), (((C,),), C), (((B, F),), E)):
            with pytest.raises(ValueError, match="larger item id"):
                ieu_i_by_sequence(pattern, item, db, eut)
            with pytest.raises(ValueError, match="larger item id"):
                ieu_i_extension(pattern, item, db, eut)
        i_map, _ = extension_utilizations(initial[C], sils)
        assert ieu_i_extension(((C,),), D, db, eut) == i_map[D]

    @given(
        st.one_of(q_databases(), databases_where_guip_leaves_a_gap()),
        st.sampled_from(["0", "0.2", "0.4"]),
    )
    def test_batch_agrees_with_per_item(self, dbeut, xi):
        db, eut = dbeut
        _assert_batch_agrees_with_per_item(db, eut, MiningConfig(xi=xi))

    @given(
        st.one_of(wide_databases(), databases_where_guip_leaves_a_gap(wide_databases())),
        st.sampled_from(["0", "0.2", "0.4"]),
        st.integers(2, 3),
    )
    def test_batch_agrees_with_per_item_on_wide_itemsets(self, dbeut, xi, max_len):
        # xi 0 deletes nothing; above it GUIP deletes z and leaves a gap.
        # Uncapped, a wide itemset's every subset is a node at xi 0.
        db, eut = dbeut
        config = MiningConfig(xi=xi, max_pattern_length=max_len)
        _assert_batch_agrees_with_per_item(db, eut, config)


def _assert_batch_agrees_with_per_item(db, eut, config):
    """Every chain that mining under config builds: its scan equals the reference."""
    import hucsp.miner as miner_module

    deleted, _ = guip_revise(db, eut, Threshold.from_text(config.xi, db_utility(db, eut)))
    sils = build_sil(db, eut, deleted)
    for sil in [sil for sil in sils if sil is not None]:
        for pos in range(1, sil[0] - 2):
            row = sil_row(sil, pos)
            # The entries after an instance's slot are the items above the
            # prefix's last one only because rows strictly ascend.
            assert all(a[0] < b[0] for a, b in zip(row, row[1:]))
    chains = list(build_initial_ichains(sils).values())

    def recording(extend):
        def wrapper(prefix, items, sils):
            grown = extend(prefix, items, sils)
            chains.extend(chain for chain, _ in grown)
            return grown

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("extend_ichain_i", "extend_ichain_s"):
            patch.setattr(miner_module, name, recording(getattr(miner_module, name)))
        mine(db, eut, config)
    items = range(len(eut.weights))
    for chain in chains:
        pattern = chain.pattern
        i_map, s_map = extension_utilizations(chain, sils)
        above = range(pattern[-1][-1] + 1, len(eut.weights))
        i_ref = {j: ieu_i_by_sequence(pattern, j, db, eut, deleted) for j in above}
        s_ref = {j: ieu_s_by_sequence(pattern, j, db, eut, deleted) for j in items}
        assert i_map == {j: sum(ref.values()) for j, ref in i_ref.items() if ref}
        assert s_map == {j: sum(ref.values()) for j, ref in s_ref.items() if ref}


class TestLUIP:
    def test_admission(self):
        t = Threshold.from_text("0.25", 106)  # min utility 26.5
        # admitted items come back ascending, whatever the map's order
        assert luip_admits({E: 53, A: 26, C: 27, B: 20}, t) == [C, E]
        assert luip_admits({}, t) == []

    def test_zero_threshold_admits_everything(self):
        t = Threshold.from_text("0", 106)
        assert luip_admits({F: 0, A: 0}, t) == [A, F]
