"""Brute-force enumeration: goldens, the work guard, and cross-validation."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from conftest import A, B, C, D, E, F, q_databases
from hucsp.bounds import Threshold
from hucsp.core import (
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    contains,
    pattern_length,
    pattern_utility,
)
from hucsp.dataio import parse_database
from hucsp.oracle import (
    UniverseTooLargeError,
    copied_itemsets,
    enumerate_patterns,
    instance_count,
    oracle_mine,
    select_high_utility,
)


class TestEnumerate:
    def test_worked_utilities(self, running):
        db, eut = running
        universe = enumerate_patterns(db, eut)
        assert universe[((A,), (C,))] == 36
        assert universe[((B, F),)] == 27
        assert universe[((A,),)] == 24
        assert universe[((A, B),)] == 5
        assert max(universe.values()) == 36

    def test_singleton_database(self):
        db, eut = parse_database("a:1 -1 -2\n", "a 3\n")
        assert enumerate_patterns(db, eut) == {((0,),): 3}

    def test_max_len_filters_by_item_count(self, running):
        db, eut = running
        full = enumerate_patterns(db, eut)
        capped = enumerate_patterns(db, eut, max_len=2)
        assert capped == {p: u for p, u in full.items() if pattern_length(p) <= 2}
        singles = enumerate_patterns(db, eut, max_len=1)
        assert set(singles) == {((i,),) for i in (A, B, C, D, E, F)}

    @pytest.mark.parametrize(
        "max_len, error, message",
        [
            (True, TypeError, "max_len must be an int, not bool"),
            (2.5, TypeError, "max_len must be an int, not float"),
            (0, ValueError, "max_len must be >= 1, got 0"),
        ],
    )
    def test_max_len_is_checked_as_the_miner_checks_it(self, running, max_len, error, message):
        db, eut = running
        with pytest.raises(error, match=f"^{message}$"):
            oracle_mine(db, eut, "0", max_len=max_len)
        with pytest.raises(error, match=f"^{message}$"):
            enumerate_patterns(db, eut, max_len=max_len)


class TestWorkGuard:
    def test_estimate_matches_literal_enumeration(self, running):
        db, _ = running
        literal = 0
        for seq in db.sequences:
            n = len(seq.itemsets)
            for start in range(n):
                for end in range(start, n):
                    subset_counts = [2 ** len(seq.itemsets[k]) - 1 for k in range(start, end + 1)]
                    for combo in itertools.product(*[range(c) for c in subset_counts]):
                        literal += 1
        assert instance_count(db) == literal

    def test_copied_itemsets_match_literal_enumeration(self, running):
        db, _ = running
        literal = 0
        for seq in db.sequences:
            n = len(seq.itemsets)
            for start in range(n):
                for end in range(start, n):
                    subset_counts = [2 ** len(seq.itemsets[k]) - 1 for k in range(start, end + 1)]
                    for combo in itertools.product(*[range(c) for c in subset_counts]):
                        literal += end - start + 1
        assert copied_itemsets(db, literal) == literal
        assert 10 < copied_itemsets(db, 10) < literal  # stops once past the cap

    def test_cap_refusal(self, running):
        db, eut = running
        copied = copied_itemsets(db, 10**9)
        with pytest.raises(UniverseTooLargeError, match=f"cap of {copied - 1}"):
            enumerate_patterns(db, eut, cap=copied - 1)
        # the boundary itself is allowed
        assert enumerate_patterns(db, eut, cap=copied)

    def test_cap_counts_window_length(self):
        # 400 single-item itemsets: 80,200 occurrences, but 10,746,800
        # itemsets copied into their pattern keys.
        db, eut = parse_database("a:1 -1 " * 400 + "-2\n", "a 1\n")
        assert instance_count(db) == 80_200
        assert copied_itemsets(db, 10**9) == 10_746_800
        with pytest.raises(UniverseTooLargeError):
            enumerate_patterns(db, eut, cap=100_000)
        # Under max_len 1 only windows of 1 and 2 itemsets are reached.
        assert copied_itemsets(db, 10**9, max_len=1) == 400 * 1 + 399 * 2
        assert enumerate_patterns(db, eut, max_len=1, cap=100_000) == {((0,),): 1}


class TestOracleMine:
    def test_running_example(self, running):
        db, eut = running
        assert oracle_mine(db, eut, "0.25") == [
            (((A,), (C,)), 36),
            (((B, F),), 27),
        ]

    def test_zero_threshold_returns_whole_universe(self, running):
        db, eut = running
        universe = enumerate_patterns(db, eut)
        results = oracle_mine(db, eut, "0")
        assert len(results) == len(universe)
        assert dict(results) == universe

    def test_exact_boundary_selection(self, running):
        from fractions import Fraction

        db, eut = running
        universe = enumerate_patterns(db, eut)
        at_27 = select_high_utility(universe, Threshold(Fraction(27, 106), Fraction(27)))
        assert dict(at_27) == {((A,), (C,)): 36, ((B, F),): 27}
        above_27 = select_high_utility(universe, Threshold(Fraction(28, 106), Fraction(28)))
        assert dict(above_27) == {((A,), (C,)): 36}

    def test_does_not_share_the_miners_compare(self, running, monkeypatch):
        from hucsp.miner import MiningConfig, mine

        db, eut = running
        # <{b,f}> has utility 27, exactly the bar at this threshold.
        monkeypatch.setattr(Threshold, "admits", lambda self, u: u > self.least_admitted)
        results, _ = mine(db, eut, MiningConfig(xi="27/106"))
        expected = oracle_mine(db, eut, "27/106")
        assert (((B, F),), 27) in expected
        assert results != expected

    def test_rejects_bad_threshold(self, running):
        db, eut = running
        with pytest.raises(ValueError):
            oracle_mine(db, eut, "1.5")

    @pytest.mark.parametrize(
        "sequence, message",
        [
            # Enumeration reads the itemsets view, which leaves out an unclosed tail.
            ((QItem(0, 2), None, QItem(1, 3)), "position 2: itemset not closed"),
            # Enumeration would return the non-pattern ((1, 0),).
            ((QItem(1, 1), QItem(0, 1), None), "position 1: items not strictly ascending"),
        ],
        ids=["unclosed", "unordered"],
    )
    def test_refuses_an_invalid_database_as_the_miner_does(self, sequence, message):
        from hucsp.miner import MiningConfig, mine

        db = QSequenceDatabase((QSequence(sequence),), ("a", "b"))
        eut = ExternalUtilityTable((1, 1))
        with pytest.raises(ValueError, match=f"^invalid database: sequence 0, {message}$"):
            oracle_mine(db, eut, "0")
        with pytest.raises(ValueError, match=f"^invalid database: sequence 0, {message}$"):
            mine(db, eut, MiningConfig(xi="0"))


class TestAgainstDirectCalculus:
    @given(q_databases())
    @settings(max_examples=40)
    def test_universe_utilities_match_pattern_utility(self, dbeut):
        db, eut = dbeut
        universe = enumerate_patterns(db, eut)
        for pattern, utility in universe.items():
            assert utility == pattern_utility(pattern, db, eut)
            assert any(contains(pattern, s) for s in db.sequences)

    @given(q_databases())
    @settings(max_examples=40)
    def test_universe_is_complete_for_single_items(self, dbeut):
        db, eut = dbeut
        universe = enumerate_patterns(db, eut)
        items = {q.item for s in db.sequences for _, q in s.iter_slots()}
        assert {p for p in universe if pattern_length(p) == 1} == {((i,),) for i in items}

    def test_monotone_in_threshold(self, running):
        db, eut = running
        previous = None
        for xi in ("0", "0.05", "0.25", "0.5", "1.0"):
            current = dict(oracle_mine(db, eut, xi))
            if previous is not None:
                assert set(current) <= set(previous)
            previous = current
