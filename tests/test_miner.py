"""End-to-end mining behavior: goldens, toggles, equivalence, statistics."""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    A,
    B,
    C,
    F,
    RUNNING_DB_TEXT,
    RUNNING_EUT_TEXT,
    databases_where_guip_leaves_a_gap,
    growing,
    inflating,
    q_databases,
    wide_databases,
)
from hucsp.bounds import Threshold, guip_revise
from hucsp.core import (
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    db_utility,
    pattern_length,
)
from hucsp.dataio import GeneratorParams, format_pattern, generate_synthetic, parse_database
from hucsp.indexes import (
    IChain,
    build_initial_ichains,
    build_sil,
    extend_ichain_s,
    extension_utilizations,
)
from hucsp.miner import (
    BoundViolationError,
    MiningConfig,
    MiningStats,
    effective_search_rate,
    mine,
)
from hucsp.oracle import enumerate_patterns, oracle_mine


@st.composite
def huge_quantity_databases(draw):
    """Random databases whose every quantity is at least 10**30."""
    db, eut = draw(q_databases())

    def huge(qitem):
        return QItem(qitem.item, qitem.quantity * 10**30 + draw(st.integers(0, 10**30)))

    sequences = tuple(
        QSequence.from_itemsets(tuple(tuple(map(huge, s)) for s in seq.itemsets))
        for seq in db.sequences
    )
    return QSequenceDatabase(sequences, db.names), eut


class TestRunningExample:
    def test_results(self, running):
        db, eut = running
        results, _ = mine(db, eut, MiningConfig(xi="0.25"))
        assert results == [(((A,), (C,)), 36), (((B, F),), 27)]

    def test_statistics(self, running):
        db, eut = running
        _, stats = mine(db, eut, MiningConfig(xi="0.25"))
        assert stats == MiningStats(
            candidates=65,
            hucsps=2,
            guip_deleted_items=0,
            guip_rounds=0,
            luip_pruned=54,
        )
        assert stats.to_dict()["esr"] == "3.08%"
        assert effective_search_rate(stats) == "3.08%"

    def test_full_threshold_mines_nothing(self, running):
        db, eut = running
        results, stats = mine(db, eut, MiningConfig(xi="1.0"))
        assert results == []
        assert stats.guip_deleted_items == 6
        assert stats.guip_rounds == 2
        assert stats.candidates == 0
        assert stats.to_dict()["esr"] is None

    def test_zero_threshold_equals_the_whole_universe(self, running):
        db, eut = running
        results, stats = mine(db, eut, MiningConfig(xi="0"))
        assert dict(results) == enumerate_patterns(db, eut)
        assert stats.hucsps == len(results)
        assert stats.luip_pruned == 0

    def test_monotone_in_threshold(self, running):
        db, eut = running
        previous = None
        for xi in ("0", "0.05", "0.25", "0.5", "1.0"):
            current = dict(mine(db, eut, MiningConfig(xi=xi))[0])
            if previous is not None:
                assert set(current) <= set(previous)
            previous = current


class TestWorkCounters:
    """The search's work on mid-size generated data, pinned: a change that
    keeps the results but explores or prunes differently shows here."""

    @pytest.mark.parametrize(
        "params, xi, expected",
        [
            (GeneratorParams(sequence_count=2000, distinct_items=60, seed=7), "0.005",
             MiningStats(69414, 57, 0, 0, 67525)),
            # One GUIP deletion, in one round.
            (GeneratorParams(sequence_count=2000, seed=7), "0.11", MiningStats(14565, 0, 1, 1, 14466)),
        ],
        ids=["search", "guip"],
    )
    def test_counters(self, params, xi, expected):
        db, eut = generate_synthetic(params)
        _, stats = mine(db, eut, MiningConfig(xi=xi))
        assert stats == expected


class TestToggles:
    @pytest.mark.parametrize("guip", [True, False])
    @pytest.mark.parametrize("luip", [True, False])
    def test_results_unchanged(self, running, guip, luip):
        db, eut = running
        config = MiningConfig(xi="0.25", enable_guip=guip, enable_luip=luip)
        results, _ = mine(db, eut, config)
        assert results == [(((A,), (C,)), 36), (((B, F),), 27)]

    def test_disabling_luip_searches_more(self, running):
        db, eut = running
        _, pruned = mine(db, eut, MiningConfig(xi="0.25"))
        _, exhaustive = mine(db, eut, MiningConfig(xi="0.25", enable_luip=False))
        assert exhaustive.luip_pruned == 0
        assert exhaustive.candidates > pruned.candidates

    def test_guip_statistics_visible_when_enabled_only(self, running):
        db, eut = running
        _, stats = mine(db, eut, MiningConfig(xi="1.0", enable_guip=False))
        assert stats.guip_deleted_items == 0 and stats.guip_rounds == 0


class TestMaxPatternLength:
    def test_limits_item_count(self, running):
        db, eut = running
        full = enumerate_patterns(db, eut)
        for cap in (1, 2, 3):
            results, _ = mine(db, eut, MiningConfig(xi="0", max_pattern_length=cap))
            assert dict(results) == {p: u for p, u in full.items() if pattern_length(p) <= cap}

    def test_no_candidates_beyond_cap(self, running):
        db, eut = running
        _, stats = mine(db, eut, MiningConfig(xi="0", max_pattern_length=1))
        assert stats.candidates == 6  # single-item patterns only

    @pytest.mark.parametrize("cap", [0, -1])
    def test_refuses_a_cap_below_one(self, cap):
        # A pattern has at least one item; the oracle would find nothing.
        with pytest.raises(ValueError, match="max_pattern_length"):
            MiningConfig(xi="0.1", max_pattern_length=cap)


_NOT_INTS = "sequence 0, position 1: item id and quantity must be ints, got "


class TestValidationAndAsserts:
    def test_invalid_database_is_refused(self, running):
        from hucsp.core import ExternalUtilityTable

        db, _ = running
        with pytest.raises(ValueError, match="invalid database"):
            mine(db, ExternalUtilityTable((0,) * 6), MiningConfig(xi="0.25"))

    def test_empty_sequence_is_refused(self, running):
        db, eut = running
        with_empty = QSequenceDatabase((*db.sequences, QSequence.from_itemsets(())), db.names)
        with pytest.raises(ValueError, match=r"invalid database: sequence 5: empty sequence"):
            mine(with_empty, eut, MiningConfig(xi="0.25"))

    def test_unclosed_itemset_is_refused(self, running):
        db, eut = running
        unclosed = QSequence((QItem(A, 2), None, QItem(B, 3)))
        with_unclosed = QSequenceDatabase((*db.sequences, unclosed), db.names)
        with pytest.raises(
            ValueError, match=r"^invalid database: sequence 5, position 2: itemset not closed$"
        ):
            mine(with_unclosed, eut, MiningConfig(xi="0.25"))

    @pytest.mark.parametrize(
        "sequence, weights, message",
        [
            # A float quantity would make a float utility.
            ((QItem(0, 2.5), None), (2,), _NOT_INTS + "int and float"),
            # A float id would make a pattern that no result line can name.
            ((QItem(0.0, 2), None), (2,), _NOT_INTS + "float and int"),
            ((QItem(True, 2), None), (2, 1), _NOT_INTS + "bool and int"),
            # A str id would fail an ordering compare with a TypeError.
            ((QItem("a", 2), None), (2,), _NOT_INTS + "str and int"),
            ((QItem(0, 2), None), (1.5,), "item 0: external utility must be an int, got float"),
            ((QItem(0, 2), None), (True,), "item 0: external utility must be an int, got bool"),
        ],
        ids=["float-quantity", "float-id", "bool-id", "str-id", "float-weight", "bool-weight"],
    )
    def test_values_that_are_not_ints_are_refused(self, sequence, weights, message):
        db = QSequenceDatabase((QSequence(sequence),), ("a", "b"))
        eut = ExternalUtilityTable(weights)
        with pytest.raises(ValueError, match=f"^invalid database: {re.escape(message)}$"):
            mine(db, eut, MiningConfig(xi="0"))
        with pytest.raises(ValueError, match=f"^invalid database: {re.escape(message)}$"):
            oracle_mine(db, eut, "0")

    def test_bad_threshold_text(self, running):
        db, eut = running
        with pytest.raises(ValueError, match="threshold"):
            mine(db, eut, MiningConfig(xi="1.5"))
        with pytest.raises(ValueError, match="threshold"):
            mine(db, eut, MiningConfig(xi="xyz"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("xi", 0.25),
            ("xi", None),
            ("xi", True),
            ("xi", b"0.5"),
            ("max_pattern_length", True),
            ("max_pattern_length", 2.5),
        ],
    )
    def test_refuses_a_value_of_the_wrong_type(self, running, field, value):
        # The error names the type, not an attribute or a regex it lacks.
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            MiningConfig(**{"xi": "0.1", field: value})
        if field == "xi":
            db, eut = running
            with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
                oracle_mine(db, eut, value)

    def test_assert_bounds_passes_on_healthy_miner(self, running):
        db, eut = running
        for xi in ("0", "0.25", "1.0"):
            results, _ = mine(db, eut, MiningConfig(xi=xi, assert_bounds=True))
            baseline, _ = mine(db, eut, MiningConfig(xi=xi))
            assert results == baseline

    def test_assert_bounds_detects_inflated_utilities(self, running, monkeypatch):
        import hucsp.miner as miner_module

        db, eut = running
        for name in ("extend_ichain_i", "extend_ichain_s"):
            monkeypatch.setattr(miner_module, name, inflating(getattr(miner_module, name)))
        with pytest.raises(BoundViolationError, match="utility exceeds its extension bound"):
            mine(db, eut, MiningConfig(xi="0.25", assert_bounds=True))

    def test_assert_bounds_detects_growing_ieu(self, running, monkeypatch):
        import hucsp.miner as miner_module

        db, eut = running
        monkeypatch.setattr(
            miner_module,
            "extension_utilizations",
            growing(miner_module.extension_utilizations),
        )
        with pytest.raises(BoundViolationError, match=r"IEU grew along an extension: \d+ > \d+"):
            mine(db, eut, MiningConfig(xi="0.25", assert_bounds=True))
        # the check runs only when asked: unchecked, the inflated bounds
        # merely prune less
        results, _ = mine(db, eut, MiningConfig(xi="0.25"))
        assert results == [(((A,), (C,)), 36), (((B, F),), 27)]

    # <{a},{b},{c}> with unit utilities: <a,b,c> is worth exactly its IEU
    # below <a,b>, 3, which is also the IEU <a,b> was admitted under.
    EDGE_DB_TEXT = "a:1 -1 b:1 -1 c:1 -1 -2\n"
    EDGE_EUT_TEXT = "a 1\nb 1\nc 1\n"

    def test_assert_bounds_passes_at_its_edge(self):
        db, eut = parse_database(self.EDGE_DB_TEXT, self.EDGE_EUT_TEXT)
        sils = build_sil(db, eut)
        a = build_initial_ichains(sils)[0]
        _, below_a = extension_utilizations(a, sils)
        [(ab, _)] = extend_ichain_s(a, [1], sils)
        _, below_ab = extension_utilizations(ab, sils)
        [(_, abc_utility)] = extend_ichain_s(ab, [2], sils)
        assert below_a[1] == below_ab[2] == abc_utility == 3
        results, _ = mine(db, eut, MiningConfig(xi="0", assert_bounds=True))
        assert dict(results)[((0,), (1,), (2,))] == 3

    def test_assert_bounds_detects_a_utility_one_above_its_bound(self, monkeypatch):
        import hucsp.miner as miner_module

        db, eut = parse_database(self.EDGE_DB_TEXT, self.EDGE_EUT_TEXT)
        for name in ("extend_ichain_i", "extend_ichain_s"):
            monkeypatch.setattr(miner_module, name, inflating(getattr(miner_module, name), 1))
        with pytest.raises(BoundViolationError, match="utility exceeds its extension bound: 4 > 3"):
            mine(db, eut, MiningConfig(xi="0", assert_bounds=True))

    def test_assert_bounds_detects_an_ieu_one_above_its_parent(self, monkeypatch):
        import hucsp.miner as miner_module

        db, eut = parse_database(self.EDGE_DB_TEXT, self.EDGE_EUT_TEXT)
        monkeypatch.setattr(
            miner_module,
            "extension_utilizations",
            growing(miner_module.extension_utilizations, 1),
        )
        with pytest.raises(BoundViolationError, match="IEU grew along an extension: 4 > 3"):
            mine(db, eut, MiningConfig(xi="0", assert_bounds=True))


class TestMiningConfig:
    def test_is_immutable(self):
        config = MiningConfig(xi="0.1")
        with pytest.raises(AttributeError):
            config.xi = "0.2"
        with pytest.raises(AttributeError):
            del config.enable_guip
        with pytest.raises(AttributeError):
            config.unknown = 1
        assert config == MiningConfig("0.1", True, True, None, False)

    def test_a_replaced_field_is_checked(self):
        config = MiningConfig(xi="0.1", max_pattern_length=3)
        assert config._replace(max_pattern_length=2) == MiningConfig(xi="0.1", max_pattern_length=2)
        with pytest.raises(ValueError, match="max_pattern_length must be >= 1, got 0"):
            config._replace(max_pattern_length=0)
        with pytest.raises(ValueError, match="threshold out of range"):
            config._replace(xi="2")

    def test_copies_are_equal_configs(self):
        config = MiningConfig(xi="1/3", enable_luip=False, max_pattern_length=4)
        pickled = [pickle.loads(pickle.dumps(config, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (copy.copy(config), copy.deepcopy(config), *pickled):
            assert twin == config and type(twin) is MiningConfig


class TestOracleEquivalence:
    def test_small_corpus_all_thresholds(self, corpus30):
        for db, eut in corpus30:
            universe = enumerate_patterns(db, eut)
            for xi in ("0", "0.05", "0.25", "0.5", "1.0"):
                got, _ = mine(db, eut, MiningConfig(xi=xi))
                assert got == oracle_mine(db, eut, xi), f"xi={xi}"
                assert dict(got) == {
                    p: u for p, u in dict(oracle_mine(db, eut, xi)).items()
                }

    @given(
        q_databases(),
        st.sampled_from(["0", "0.2", "0.4", "0.6", "1"]),
        st.booleans(),
        st.one_of(st.none(), st.integers(1, 3)),
    )
    def test_random_itemset_runs_match_the_oracle(self, dbeut, xi, enable_guip, max_len):
        db, eut = dbeut
        config = MiningConfig(xi=xi, enable_guip=enable_guip, max_pattern_length=max_len)
        got, _ = mine(db, eut, config)
        assert got == oracle_mine(db, eut, xi, max_len=max_len)

    @pytest.mark.parametrize("xi", ["0.3", "1"])
    def test_guip_gap_blocks_an_alignment(self, xi):
        a, b, z, c = range(4)
        first = ((QItem(a, 50),), (QItem(z, 1),), (QItem(b, 50),), (QItem(a, 10), QItem(b, 10)))
        db = QSequenceDatabase(
            (
                QSequence.from_itemsets(first),
                QSequence.from_itemsets(((QItem(a, 30), QItem(b, 30)),)),
                QSequence.from_itemsets(((QItem(c, 200),),)),
                QSequence.from_itemsets(((QItem(a, 40),), (QItem(b, 40),))),
            ),
            ("a", "b", "z", "c"),
        )
        eut = ExternalUtilityTable((1, 1, 1, 1))
        reference = oracle_mine(db, eut, xi)
        # z's SWU is 121 of 461, below the bar at both thresholds.  <{a},{b}>
        # is worth 80; closing z's position would make it 180, above 0.3.
        got, stats = mine(db, eut, MiningConfig(xi=xi))
        assert stats.guip_deleted_items >= 1
        assert got == reference
        assert mine(db, eut, MiningConfig(xi=xi, enable_guip=False))[0] == reference

    @given(databases_where_guip_leaves_a_gap(), st.sampled_from(["0.2", "0.4", "0.6"]))
    def test_forced_deletion_leaves_a_gap(self, dbeut, xi):
        db, eut = dbeut
        z = len(eut.weights) - 1
        assert z in guip_revise(db, eut, Threshold.from_text(xi, db_utility(db, eut))).deleted_items
        got, _ = mine(db, eut, MiningConfig(xi=xi))
        assert got == oracle_mine(db, eut, xi)

    @given(
        st.one_of(wide_databases(), databases_where_guip_leaves_a_gap(wide_databases())),
        st.sampled_from(["0.1", "0.2", "0.4", "0.6"]),
        st.integers(2, 5),
    )
    def test_wide_itemsets_match_the_oracle(self, dbeut, xi, max_len):
        # Uncapped, a wide itemset's every subset can clear the bar (tens of
        # thousands of patterns); the cap keeps both miners quick.
        db, eut = dbeut
        config = MiningConfig(xi=xi, max_pattern_length=max_len)
        got, _ = mine(db, eut, config)
        assert got == oracle_mine(db, eut, xi, max_len=max_len)

    @given(
        huge_quantity_databases(),
        st.sampled_from(["0", "0.2", "0.4", "0.6", "1"]),
        st.booleans(),
    )
    def test_quantities_beyond_10_to_the_30(self, dbeut, xi, enable_guip):
        db, eut = dbeut
        got, _ = mine(db, eut, MiningConfig(xi=xi, enable_guip=enable_guip))
        assert got == oracle_mine(db, eut, xi)

    @given(q_databases(), st.data())
    def test_threshold_exactly_at_a_pattern_utility(self, dbeut, data):
        db, eut = dbeut
        universe = enumerate_patterns(db, eut)
        pattern = data.draw(st.sampled_from(sorted(universe)))
        # xi = u(P)/u(D) exactly, as fraction text: P sits on the bar
        xi = str(Fraction(universe[pattern], db_utility(db, eut)))
        got, _ = mine(db, eut, MiningConfig(xi=xi))
        assert dict(got)[pattern] == universe[pattern]
        assert got == oracle_mine(db, eut, xi)

    def test_single_sequence_boundary(self):
        # at xi=1 the whole-sequence pattern exactly meets the bar
        db, eut = parse_database("a:2 -1 b:1 -1 -2\n", "a 2\nb 3\n")
        results, _ = mine(db, eut, MiningConfig(xi="1"))
        assert results == [(((0,), (1,)), 7)]
        assert oracle_mine(db, eut, "1") == results


class TestDeterminism:
    def test_repeat_runs_are_identical(self, running):
        db, eut = running
        first = mine(db, eut, MiningConfig(xi="0.05"))
        second = mine(db, eut, MiningConfig(xi="0.05"))
        assert first == second

    def test_seed_chains_are_built_as_the_search_reaches_them(self, running, monkeypatch):
        """Only the seed being expanded and the one being built are alive at once."""
        import hucsp.indexes as indexes_module
        import hucsp.miner as miner_module

        db, eut = running
        seeds = 0
        alive: set[int] = set()
        most_alive = 0
        utility_of = miner_module.ichain_pattern_utility

        # A tuple cannot be weakly referenced; a chain records its own free.
        class Counted(IChain):
            __slots__ = ()

            def __del__(self):
                alive.discard(id(self))

        def recording(chain):
            nonlocal seeds, most_alive
            assert type(chain) is Counted
            seeds += 1
            alive.add(id(chain))
            most_alive = max(most_alive, len(alive))
            return utility_of(chain)

        monkeypatch.setattr(indexes_module, "IChain", Counted)
        monkeypatch.setattr(miner_module, "ichain_pattern_utility", recording)
        mine(db, eut, MiningConfig(xi="0.25"))
        assert seeds == 6
        assert most_alive <= 2

    @given(
        st.one_of(q_databases(), databases_where_guip_leaves_a_gap()),
        st.sampled_from(["0", "0.2", "0.4", "1"]),
    )
    def test_sils_are_indexed_by_sid(self, dbeut, xi):
        """One SIL slot per sequence, None where GUIP emptied it; seeds name filled slots."""
        db, eut = dbeut
        threshold = Threshold.from_text(xi, db_utility(db, eut))
        deleted = guip_revise(db, eut, threshold).deleted_items
        sils = build_sil(db, eut, deleted)
        assert len(sils) == len(db.sequences)
        emptied = [all(q is None or q.item in deleted for q in seq) for seq in db.sequences]
        assert [sil is None for sil in sils] == emptied
        for chain in build_initial_ichains(sils).values():
            for sid, _ in chain.lists:
                assert sils[sid] is not None

    def test_search_visit_order(self, running, monkeypatch):
        """Depth first, item-extensions before sequence-extensions, items ascending."""
        db, eut = running
        assert _visit_order(db, eut, MiningConfig(xi="0.25"), monkeypatch) == [
            "a -1",
            "a -1 c -1",
            "b -1",
            "b f -1",
            "b f -1 e -1",
            "c -1",
            "d -1",
            "d -1 b -1",
            "e -1",
            "f -1",
            "f -1 a -1",
        ]

    def test_sibling_visit_order(self, monkeypatch):
        """Each node's item-extensions, items ascending, then its sequence-extensions."""
        db, eut = parse_database("a:1 b:1 c:1 -1 a:1 b:1 -1 -2\n", "a 1\nb 1\nc 1\n")
        # Length 3 is the cap, so every node of one or two items is scanned.
        config = MiningConfig(xi="0", max_pattern_length=3)
        assert _visit_order(db, eut, config, monkeypatch) == [
            "a -1",
            "a b -1",
            "a c -1",
            "a -1 a -1",
            "a -1 b -1",
            "b -1",
            "b c -1",
            "b -1 a -1",
            "b -1 b -1",
            "c -1",
            "c -1 a -1",
            "c -1 b -1",
        ]


def _visit_order(db, eut, config, monkeypatch):
    """The patterns whose extensions the search scans, in scan order."""
    import hucsp.miner as miner_module

    visited = []
    scan = miner_module.extension_utilizations

    def recording(prefix, sils):
        visited.append(format_pattern(prefix.pattern, db.names))
        return scan(prefix, sils)

    monkeypatch.setattr(miner_module, "extension_utilizations", recording)
    mine(db, eut, config)
    return visited


class TestEffectiveSearchRate:
    def test_rendering(self):
        def stats(h, c):
            return MiningStats(c, h, 0, 0, 0)

        assert effective_search_rate(stats(2, 8)) == "25.00%"
        assert effective_search_rate(stats(0, 5)) == "0.00%"
        assert effective_search_rate(stats(5, 5)) == "100.00%"
        assert effective_search_rate(stats(1, 3)) == "33.33%"
        assert effective_search_rate(stats(2, 3)) == "66.67%"
        assert effective_search_rate(stats(1, 800)) == "0.13%"  # .125 rounds half up

    def test_undefined_without_candidates(self):
        with pytest.raises(ValueError, match="undefined"):
            effective_search_rate(MiningStats(0, 0, 0, 0, 0))

    def test_to_dict_round_trips_the_rendering(self):
        stats = MiningStats(65, 2, 0, 0, 54)
        d = stats.to_dict()
        assert d["esr"] == "3.08%"
        assert d["candidates"] == 65
        assert MiningStats(0, 0, 3, 1, 0).to_dict()["esr"] is None


class TestPublicSurface:
    def test_readme_snippet_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        snippet = readme.split("```python\n", 1)[1].split("```", 1)[0]
        (tmp_path / "shop.db").write_text(RUNNING_DB_TEXT, encoding="utf-8")
        (tmp_path / "shop.eut").write_text(RUNNING_EUT_TEXT, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        exec(snippet, {})
        assert capsys.readouterr().out.splitlines() == ["((0,), (2,)) 36", "((1, 5),) 27"]
