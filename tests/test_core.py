"""Utility calculus on the worked example plus structural properties."""

from __future__ import annotations

import copy
import gc
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hucsp.dataio as dataio
import hucsp.miner as miner
from conftest import A, B, C, E, F, RUNNING_DB_TEXT, RUNNING_EUT_TEXT, q_databases
from hucsp.core import (
    AbsentItemError,
    ExternalUtilityTable,
    NoInstanceError,
    QItem,
    QSequence,
    QSequenceDatabase,
    collector_paused,
    contains,
    db_utility,
    ending_positions,
    instance_utility,
    item_utility,
    itemset_utility,
    pattern_length,
    pattern_sort_key,
    pattern_utility,
    pattern_utility_in_sequence,
    q_sequence_utility,
    remaining_utility_after,
    sort_results,
)
from hucsp.miner import MiningConfig, mine


class TestItemUtility:
    def test_worked_values(self, running):
        db, eut = running
        s1 = db.sequences[0]
        assert item_utility(B, 1, s1, eut) == 4
        assert item_utility(F, 1, s1, eut) == 4
        assert item_utility(A, 2, s1, eut) == 6
        assert item_utility(E, 3, s1, eut) == 1

    def test_absent_item(self, running):
        db, eut = running
        with pytest.raises(AbsentItemError):
            item_utility(A, 1, db.sequences[0], eut)

    def test_position_out_of_range(self, running):
        db, eut = running
        with pytest.raises(IndexError):
            item_utility(A, 4, db.sequences[0], eut)
        with pytest.raises(IndexError):
            item_utility(A, 0, db.sequences[0], eut)

    def test_itemset_utility(self, running):
        db, eut = running
        assert itemset_utility((B, F), 1, db.sequences[0], eut) == 8
        assert itemset_utility((A, B), 3, db.sequences[1], eut) == 5
        with pytest.raises(AbsentItemError):
            itemset_utility((A, B), 1, db.sequences[0], eut)


class TestSequenceUtility:
    def test_each_sequence(self, running):
        db, eut = running
        assert [q_sequence_utility(s, eut) for s in db.sequences] == [23, 18, 19, 21, 25]

    def test_database_total(self, running):
        db, eut = running
        assert db_utility(db, eut) == 106

    def test_empty_database(self, running):
        _, eut = running
        assert db_utility(QSequenceDatabase((), ()), eut) == 0

    @given(q_databases())
    def test_database_total_sums_the_sequences(self, dbeut):
        db, eut = dbeut
        assert db_utility(db, eut) == sum(q_sequence_utility(s, eut) for s in db.sequences)

    @pytest.mark.parametrize("item", [1, 7, -1])
    def test_item_without_weight(self, item):
        seq = QSequence.from_itemsets(((QItem(0, 1), QItem(item, 1)),))
        with pytest.raises(AbsentItemError, match=f"item {item} has no external utility"):
            db_utility(QSequenceDatabase((seq,), ("a",)), ExternalUtilityTable((3,)))


class TestEndingPositions:
    def test_two_instances(self, running):
        db, _ = running
        assert ending_positions(((A,), (C,)), db.sequences[4]) == (2, 3)

    def test_itemset_subset(self, running):
        db, _ = running
        assert ending_positions(((B, F),), db.sequences[0]) == (1,)
        assert ending_positions(((B, F),), db.sequences[3]) == (2,)

    def test_no_instance(self, running):
        db, _ = running
        assert ending_positions(((A,), (B,)), db.sequences[0]) == ()
        assert ending_positions(((A,),), db.sequences[3]) == ()

    def test_rejects_malformed_pattern(self, running):
        db, _ = running
        for bad in ((), ((),), ((B, A),), ((A, A),), ((-1,),)):
            with pytest.raises(ValueError):
                ending_positions(bad, db.sequences[0])


class TestInstanceUtility:
    def test_both_instances(self, running):
        db, eut = running
        s5 = db.sequences[4]
        assert instance_utility(((A,), (C,)), 2, s5, eut) == 15
        assert instance_utility(((A,), (C,)), 3, s5, eut) == 6

    def test_itemset_instance(self, running):
        db, eut = running
        assert instance_utility(((A, B),), 3, db.sequences[1], eut) == 5

    def test_not_an_ending_position(self, running):
        db, eut = running
        with pytest.raises(NoInstanceError):
            instance_utility(((A,), (C,)), 4, db.sequences[4], eut)


class TestPatternUtility:
    def test_in_sequence_takes_maximum(self, running):
        db, eut = running
        assert pattern_utility_in_sequence(((A,), (C,)), db.sequences[4], eut) == 15
        assert pattern_utility_in_sequence(((B, F),), db.sequences[3], eut) == 13
        with pytest.raises(NoInstanceError):
            pattern_utility_in_sequence(((A,),), db.sequences[3], eut)

    def test_database_totals(self, running):
        db, eut = running
        assert pattern_utility(((A,), (C,)), db, eut) == 36
        assert pattern_utility(((B, F),), db, eut) == 27
        assert pattern_utility(((A,),), db, eut) == 24
        assert pattern_utility(((B,),), db, eut) == 20
        assert pattern_utility(((F,),), db, eut) == 13

    def test_absent_pattern_is_zero(self, running):
        db, eut = running
        assert pattern_utility(((E,), (A,)), db, eut) == 0


class TestRemainingUtility:
    def test_worked_value(self, running):
        db, eut = running
        assert remaining_utility_after(db.sequences[4], 2, C, eut) == 7

    def test_first_and_last_slots(self, running):
        db, eut = running
        s1 = db.sequences[0]
        assert remaining_utility_after(s1, 1, B, eut) == 19
        assert remaining_utility_after(s1, 3, E, eut) == 0

    def test_requires_occurrence(self, running):
        db, eut = running
        with pytest.raises(AbsentItemError):
            remaining_utility_after(db.sequences[0], 1, A, eut)

    @given(q_databases())
    def test_telescopes(self, dbeut):
        db, eut = dbeut
        for seq in db.sequences:
            left = q_sequence_utility(seq, eut)
            for pos, qitem in seq.iter_slots():
                left -= qitem.quantity * eut.weight(qitem.item)
                assert remaining_utility_after(seq, pos, qitem.item, eut) == left
            assert left == 0


class TestContains:
    def test_contiguity(self):
        # host <{c},{ab},{aef}>: <{a},{af}> fits consecutively, <{e},{ab}> cannot
        host = QSequence.from_itemsets(
            (
                (QItem(C, 1),),
                (QItem(A, 1), QItem(B, 1)),
                (QItem(A, 1), QItem(E, 1), QItem(F, 1)),
            ),
        )
        assert contains(((A,), (A, F)), host)
        assert not contains(((E,), (A, B)), host)

    def test_running_example(self, running):
        db, _ = running
        assert contains(((A,), (C,)), db.sequences[4])
        assert not contains(((A,),), db.sequences[3])


class TestQSequenceShape:
    def test_slotted_frozen_and_hashable(self, running):
        db, _ = running
        seq = db.sequences[0]
        assert not hasattr(seq, "__dict__")
        with pytest.raises(AttributeError):
            seq.itemsets = ()
        twin = QSequence.from_itemsets(tuple(tuple(itemset) for itemset in seq.itemsets))
        assert twin == seq and hash(twin) == hash(seq)
        assert len({seq, twin, db.sequences[1]}) == 2

    def test_pickles_and_copies_keep_type_and_value(self, running):
        db, _ = running
        built = QSequence.from_itemsets(((QItem(A, 2),), (QItem(B, 1), QItem(C, 3))))
        for seq in (*db.sequences, built, QSequence.from_itemsets(())):
            protocols = range(pickle.HIGHEST_PROTOCOL + 1)
            copies = [pickle.loads(pickle.dumps(seq, p)) for p in protocols]
            copies += [copy.copy(seq), copy.deepcopy(seq)]
            for twin in copies:
                assert type(twin) is QSequence and twin == seq
                assert twin.itemsets == seq.itemsets


class TestCanonicalOrder:
    def test_length_then_flattened_ids(self):
        results = [
            (((B, F),), 27),
            (((A,), (C,)), 36),
            (((A,),), 24),
            (((A, B),), 9),
            (((A,), (B,)), 9),
        ]
        assert sort_results(results) == [
            (((A,),), 24),
            (((A,), (B,)), 9),  # separator sorts before any item id
            (((A,), (C,)), 36),
            (((A, B),), 9),
            (((B, F),), 27),
        ]

    def test_pattern_length(self):
        assert pattern_length(((A,),)) == 1
        assert pattern_length(((A, B), (C,))) == 3

    def test_sort_key_is_total_order_on_distinct_patterns(self):
        patterns = [
            ((A,),),
            ((A,), (A,)),
            ((A, B),),
            ((B,), (A,)),
            ((A, B, C),),
        ]
        keys = [pattern_sort_key(p) for p in patterns]
        assert len(set(keys)) == len(patterns)


class TestUtilityProperties:
    @given(q_databases(), st.data())
    def test_pattern_utility_bounded_by_containing_sequences(self, dbeut, data):
        db, eut = dbeut
        seq = data.draw(st.sampled_from(db.sequences))
        start = data.draw(st.integers(0, len(seq.itemsets) - 1))
        end = data.draw(st.integers(start, len(seq.itemsets) - 1))
        pattern = []
        for itemset in seq.itemsets[start : end + 1]:
            size = data.draw(st.integers(1, len(itemset)))
            members = data.draw(
                st.sampled_from(list(itertools.combinations([q.item for q in itemset], size)))
            )
            pattern.append(tuple(members))
        pattern = tuple(pattern)
        utility = pattern_utility(pattern, db, eut)
        ceiling = sum(
            q_sequence_utility(s, eut) for s in db.sequences if contains(pattern, s)
        )
        assert 0 < utility <= ceiling


@pytest.fixture
def collector_on():
    """Start with the collector enabled; restore whatever state a test left."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _recording(fn, seen):
    def wrapper(*args, **kwargs):
        seen.append(gc.isenabled())
        return fn(*args, **kwargs)

    return wrapper


class TestCollectorPaused:
    def test_paused_inside_parse_and_mine_only(self, collector_on, monkeypatch):
        seen = []
        monkeypatch.setattr(
            dataio, "parse_utility_table", _recording(dataio.parse_utility_table, seen)
        )
        monkeypatch.setattr(miner, "validate", _recording(miner.validate, seen))
        db, eut = dataio.parse_database(RUNNING_DB_TEXT, RUNNING_EUT_TEXT)
        assert gc.isenabled()
        mine(db, eut, MiningConfig(xi="0.25"))
        assert gc.isenabled()
        assert seen == [False, False]

    def test_restored_when_mining_raises(self, collector_on, running):
        db, _ = running
        with pytest.raises(ValueError, match="invalid database"):
            mine(db, ExternalUtilityTable((0,) * 6), MiningConfig(xi="0.25"))
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, collector_on, running):
        gc.disable()
        mine(*running, MiningConfig(xi="0.25"))
        with collector_paused():
            pass
        assert not gc.isenabled()

    def test_nested_pauses(self, collector_on):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_overlapping_threads(self, collector_on, running, monkeypatch):
        db, eut = running
        expected = mine(db, eut, MiningConfig(xi="0.25"))
        enabled_inside = []
        # Checked throughout the search, where another thread's early resume would show.
        monkeypatch.setattr(
            miner, "recursive_search", _recording(miner.recursive_search, enabled_inside)
        )
        results = []
        errors = []

        def work():
            try:
                for _ in range(40):
                    results.append(mine(db, eut, MiningConfig(xi="0.25")))
            except Exception as e:  # reported by the main thread below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert gc.isenabled()
        assert not any(enabled_inside)
        assert len(results) == 160 and all(r == expected for r in results)
