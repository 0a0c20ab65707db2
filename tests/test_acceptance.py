"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines; without
-s they still run, pytest just captures the prints.
"""

from __future__ import annotations

import json
import time

import pytest
from conftest import A, B, C, D, E, F
from hucsp.bounds import Threshold, swu_per_item
from hucsp.cli import main
from hucsp.core import (
    db_utility,
    ending_positions,
    ieu_i_by_sequence,
    ieu_i_extension,
    ieu_s_by_sequence,
    ieu_s_extension,
    instance_utility,
    pattern_utility,
    pattern_utility_in_sequence,
    q_sequence_utility,
)
from hucsp.dataio import GeneratorParams, generate_synthetic, parse_database
from hucsp.indexes import build_sil, sil_to_text
from hucsp.miner import BoundViolationError, MiningConfig, mine
from hucsp.oracle import enumerate_patterns, oracle_mine, select_high_utility

XIS = ("0", "0.05", "0.25", "0.5", "1.0")

_universes: dict[int, dict] = {}


def _universe(index, db, eut):
    if index not in _universes:
        _universes[index] = enumerate_patterns(db, eut)
    return _universes[index]


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} {description}")
    assert ok, detail or description


def test_criterion_01_running_example_golden(running):
    db, eut = running
    started = time.perf_counter()
    results, _ = mine(db, eut, MiningConfig(xi="0.25"))
    elapsed = time.perf_counter() - started
    expected = [(((A,), (C,)), 36), (((B, F),), 27)]
    _verdict(
        1,
        "mining the worked example at xi=25% yields exactly {bf:27, (a)(c):36} in < 1 s",
        results == expected and elapsed < 1.0,
        f"results={results} elapsed={elapsed:.3f}s",
    )


def test_criterion_02_utility_calculus_goldens(running):
    db, eut = running
    s2, s5 = db.sequences[1], db.sequences[4]
    checks = [
        q_sequence_utility(db.sequences[0], eut) == 23,
        instance_utility(((A, B),), 3, s2, eut) == 5,
        pattern_utility_in_sequence(((A,), (C,)), s5, eut) == 15,
        pattern_utility(((A,), (C,)), db, eut) == 36,
        ending_positions(((A,), (C,)), s5) == (2, 3),
    ]
    from hucsp.core import remaining_utility_after

    checks.append(remaining_utility_after(s5, 2, C, eut) == 7)
    _verdict(
        2,
        "utility calculus worked values (u(S1), instance, in-sequence, total, ru, EP) are exact",
        all(checks),
        f"checks={checks}",
    )


def test_criterion_03_sil_golden(running):
    db, eut = running
    text = sil_to_text(build_sil(db, eut)[0], db.names)
    expected = "(b,4,19)(f,4,15)/(a,6,9)(e,2,7)/(c,6,1)(e,1,0)"
    _verdict(3, "SIL of the first sequence serializes byte-for-byte", text == expected, text)


def test_criterion_04_bound_goldens(running):
    db, eut = running
    swu = swu_per_item(db, eut)
    checks = [
        swu[A] == 85,
        swu[D] == 58,
        ieu_i_extension(((A,),), E, db, eut) == 20,
        ieu_i_by_sequence(((A,),), E, db, eut) == {0: 15, 1: 5},
        ieu_s_extension(((A,),), C, db, eut) == 53,
        ieu_s_by_sequence(((A,),), C, db, eut) == {0: 13, 1: 18, 4: 22},
    ]
    _verdict(
        4,
        "SWU(a)=85, SWU(d)=58; IEU(ae)=20 from 15+5; IEU((a)(c))=53 from 13+18+22",
        all(checks),
        f"checks={checks}",
    )


@pytest.mark.slow
def test_criterion_05_oracle_equivalence(corpus200):
    started = time.perf_counter()
    mismatches = []
    for index, (db, eut) in enumerate(corpus200):
        universe = _universe(index, db, eut)
        total = db_utility(db, eut)
        for xi in XIS:
            got, _ = mine(db, eut, MiningConfig(xi=xi))
            want = select_high_utility(universe, Threshold.from_text(xi, total))
            if got != want:
                mismatches.append((index, xi))
    elapsed = time.perf_counter() - started
    _verdict(
        5,
        f"miner set-equals brute force on 200 databases x {len(XIS)} thresholds "
        f"({elapsed:.1f}s of 60s budget)",
        not mismatches and elapsed < 60.0,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_06_bound_invariants(corpus200):
    violations = []
    for index, (db, eut) in enumerate(corpus200):
        for xi in XIS:
            try:
                mine(db, eut, MiningConfig(xi=xi, assert_bounds=True))
            except BoundViolationError as err:
                violations.append((index, xi, str(err)))
        swu = swu_per_item(db, eut)
        for pattern, utility in _universe(index, db, eut).items():
            ceiling = min(swu[item] for itemset in pattern for item in itemset)
            if utility > ceiling:
                violations.append((index, pattern))
    _verdict(
        6,
        "no bound violation mining with assert_bounds on; u(S) <= min SWU(item) across universes",
        not violations,
        f"violations={violations[:5]}",
    )


@pytest.mark.slow
def test_criterion_07_pruning_neutrality(running, corpus200):
    combos = [(g, l) for g in (True, False) for l in (True, False)]
    differences = []
    cases = [(("running", running), ("0.25",))] + [
        ((index, pair), ("0.05", "0.25", "1.0")) for index, pair in enumerate(corpus200)
    ]
    for (label, (db, eut)), xis in cases:
        for xi in xis:
            outcomes = {
                (g, l): mine(db, eut, MiningConfig(xi=xi, enable_guip=g, enable_luip=l))[0]
                for g, l in combos
            }
            reference = outcomes[(True, True)]
            if any(result != reference for result in outcomes.values()):
                differences.append((label, xi))
    _verdict(
        7,
        "all four GUIP x LUIP toggle combinations return identical results",
        not differences,
        f"differences={differences}",
    )


def test_criterion_08_deletion_cannot_bridge_a_gap():
    # z is unpromising and sits alone between a and b; deleting it must not
    # let (a)(b) appear as if those itemsets were adjacent.  The total is 441
    # and the bar 176.4; z's SWU is 101.  The last sequence makes the real
    # <{a},{b}> worth 80, so closing z's position would report it at 180.
    db, eut = parse_database(
        "a:50 -1 z:1 -1 b:50 -1 -2\na:30 b:30 -1 -2\nc:200 -1 -2\na:40 -1 b:40 -1 -2\n",
        "a 1\nb 1\nz 1\nc 1\n",
    )
    results, stats = mine(db, eut, MiningConfig(xi="0.4"))
    reference = oracle_mine(db, eut, "0.4")  # runs on the original database
    ab = ((0,), (1,))
    ok = (
        stats.guip_deleted_items == 1
        and results == reference
        and dict(results) == {((3,),): 200}
        and ab not in dict(results)
    )
    _verdict(
        8,
        "deleting a lone middle item leaves a gap; no pattern spans it (vs oracle on original)",
        ok,
        f"results={results} stats={stats}",
    )


@pytest.mark.slow
def test_criterion_09_scalability_smoke():
    sizes = (10_000, 20_000, 40_000)
    databases = {
        count: generate_synthetic(
            GeneratorParams(
                sequence_count=count,
                distinct_items=800,
                max_itemsets_per_seq=8,
                max_items_per_itemset=4,
                max_quantity=5,
                max_weight=5,
                seed=11,
            )
        )
        for count in sizes
    }
    # Each size's best of two runs, the sizes interleaved, so that a busy
    # spell on the host slows one run rather than decides a ratio.
    timings = {}
    outcomes = {}
    for count in sizes * 2:
        started = time.perf_counter()
        results, stats = mine(*databases[count], MiningConfig(xi="0.001"))
        elapsed = time.perf_counter() - started
        timings[count] = min(elapsed, timings.get(count, elapsed))
        outcomes[count] = stats.hucsps
    first = timings[20_000] / timings[10_000]
    second = timings[40_000] / timings[20_000]
    _verdict(
        9,
        f"10k/20k/40k sequences at xi=0.1% mine without error; doubling ratios "
        f"{first:.2f} and {second:.2f} are <= 4 "
        f"(times {timings[10_000]:.1f}/{timings[20_000]:.1f}/{timings[40_000]:.1f}s, informational)",
        first <= 4.0 and second <= 4.0 and all(h > 0 for h in outcomes.values()),
        f"timings={timings} hucsps={outcomes}",
    )


def test_criterion_10_determinism(tmp_path):
    from conftest import RUNNING_DB_TEXT, RUNNING_EUT_TEXT

    (tmp_path / "db.txt").write_text(RUNNING_DB_TEXT, encoding="utf-8")
    (tmp_path / "eut.txt").write_text(RUNNING_EUT_TEXT, encoding="utf-8")
    outputs = []
    reports = []
    for run in (1, 2):
        out = tmp_path / f"out{run}.txt"
        report = tmp_path / f"report{run}.jsonl"
        code = main(
            [
                "mine",
                str(tmp_path / "db.txt"),
                str(tmp_path / "eut.txt"),
                "--xi",
                "0.25",
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
        parsed = json.loads(report.read_text(encoding="utf-8"))
        for volatile in ("elapsed_ms", "peak_memory_bytes"):
            parsed.pop(volatile)
        parsed["out"] = "normalized"
        parsed["db"] = "normalized"
        parsed["eut"] = "normalized"
        reports.append(parsed)
    _verdict(
        10,
        "two identical mining runs produce byte-identical results and identical stats",
        outputs[0] == outputs[1] and reports[0] == reports[1],
        f"reports={reports}",
    )
