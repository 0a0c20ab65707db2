"""End-to-end mining behavior: goldens, toggles, equivalence, statistics."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import A, B, C, F, RUNNING_DB_TEXT, RUNNING_EUT_TEXT
from hucsp.core import pattern_length
from hucsp.dataio import parse_database
from hucsp.miner import (
    BoundViolationError,
    MiningConfig,
    MiningStats,
    effective_search_rate,
    mine,
)
from hucsp.oracle import enumerate_patterns, oracle_mine


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


class TestValidationAndAsserts:
    def test_invalid_database_is_refused(self, running):
        from hucsp.core import ExternalUtilityTable

        db, _ = running
        with pytest.raises(ValueError, match="invalid database"):
            mine(db, ExternalUtilityTable((0,) * 6), MiningConfig(xi="0.25"))

    def test_bad_threshold_text(self, running):
        db, eut = running
        with pytest.raises(ValueError, match="threshold"):
            mine(db, eut, MiningConfig(xi="1.5"))
        with pytest.raises(ValueError, match="threshold"):
            mine(db, eut, MiningConfig(xi="xyz"))

    def test_assert_bounds_passes_on_healthy_miner(self, running):
        db, eut = running
        for xi in ("0", "0.25", "1.0"):
            results, _ = mine(db, eut, MiningConfig(xi=xi, assert_bounds=True))
            baseline, _ = mine(db, eut, MiningConfig(xi=xi))
            assert results == baseline

    def test_assert_bounds_detects_inflated_utilities(self, running, monkeypatch):
        import hucsp.miner as miner_module

        db, eut = running
        monkeypatch.setattr(
            miner_module, "ichain_pattern_utility", lambda chain: 10**9
        )
        with pytest.raises(BoundViolationError):
            mine(db, eut, MiningConfig(xi="0.25", assert_bounds=True))


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
