"""Correctness gate: checks run once per invocation, outside any timed region.

check_results reads a results file back and checks it against the database
with the index-free utility calculus in hucsp.core: format, canonical order,
count, and for a seeded sample of patterns the exact utility and the
threshold.  check_oracle mines a few-hundred-sequence miniature of the
workload with mine() and with the brute-force oracle and requires the same
answer.  Both return a list of problems, empty when the check passes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hucsp.core import db_utility, pattern_sort_key, pattern_utility
from hucsp.dataio import parse_database
from hucsp.miner import MiningConfig, mine
from hucsp.oracle import oracle_mine

SAMPLE = 8


def read_results(text: str, ids: dict[str, int]) -> list[tuple[tuple, int]]:
    """Parse 'i1 i2 -1 i3 -1 #UTIL: 36' lines into (pattern, utility) pairs."""
    results = []
    for line in text.splitlines():
        body, sep, utility = line.partition(" #UTIL: ")
        if not sep:
            raise ValueError(f"malformed results line {line!r}")
        itemsets, current = [], []
        for token in body.split():
            if token == "-1":
                itemsets.append(tuple(current))
                current = []
            else:
                current.append(ids[token])
        if current or not itemsets:
            raise ValueError(f"malformed results line {line!r}")
        results.append((tuple(itemsets), int(utility)))
    return results


def check_results(text: str, db, eut, xi: str, hucsps: int | None, seed: int) -> list[str]:
    ids = {name: i for i, name in enumerate(db.names)}
    try:
        results = read_results(text, ids)
    except (ValueError, KeyError) as e:
        return [f"unreadable results file: {e}"]
    problems = []
    if hucsps is not None and len(results) != hucsps:
        problems.append(f"{len(results)} patterns written, report says {hucsps}")
    keys = [pattern_sort_key(p) for p, _ in results]
    if keys != sorted(set(keys)):
        problems.append("patterns not unique and in canonical order")
    min_utility = Fraction(xi) * db_utility(db, eut)
    for pattern, reported in random.Random(seed).sample(results, min(SAMPLE, len(results))):
        actual = pattern_utility(pattern, db, eut)
        if actual != reported or actual < min_utility:
            problems.append(
                f"pattern {pattern}: reported {reported}, recomputed {actual}, "
                f"minimum {min_utility}"
            )
    return problems


def check_oracle(db_text: str, eut_text: str, xi: str) -> tuple[int, list[str]]:
    """(patterns the oracle found, problems) for one miniature database."""
    db, eut = parse_database(db_text, eut_text)
    got, _ = mine(db, eut, MiningConfig(xi=xi))
    want = oracle_mine(db, eut, xi)
    if got == want:
        return len(want), []
    missing = len(set(want) - set(got))
    extra = len(set(got) - set(want))
    return len(want), [f"miniature: mine() and the oracle disagree ({missing} missing, {extra} extra)"]
