"""Shared fixtures: the worked five-sequence example and randomized corpora.

The worked example (five sequences over items a..f) is the source of most
frozen expected values; sequences are referred to as S1..S5 below, mapping to
sids 0..4.  Item ids follow the utility file: a=0 .. f=5.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hucsp.core import (
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    db_utility,
    pattern_length,
)
from hucsp.dataio import GeneratorParams, generate_synthetic, parse_database
from hucsp.indexes import build_initial_ichains, build_sil
from hucsp.oracle import instance_count

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

RUNNING_DB_TEXT = """\
b:2 f:4 -1 a:2 e:2 -1 c:2 e:1 -1 -2
a:1 -1 c:2 d:1 -1 a:1 b:1 e:2 -1 -2
b:2 f:2 -1 f:2 -1 a:3 d:1 -1 -2
d:1 -1 b:4 f:5 -1 c:1 e:2 -1 f:1 -1 -2
a:2 -1 a:1 c:3 -1 c:1 f:2 -1 b:1 -1 -2
"""

RUNNING_EUT_TEXT = """\
a 3
b 2
c 3
d 2
e 1
f 1
"""

A, B, C, D, E, F = range(6)


@pytest.fixture(scope="session")
def running():
    """(database, utility table) of the worked example."""
    return parse_database(RUNNING_DB_TEXT, RUNNING_EUT_TEXT)


@pytest.fixture(scope="module")
def indexed(running):
    """(database, utility table, SILs, single-item chains) of the worked example."""
    db, eut = running
    sils = build_sil(db, eut)
    return db, eut, sils, build_initial_ichains(sils)


def inflating(extend, amount=10**9):
    """A chain builder that reports every child's utility amount too high."""

    def wrapper(prefix, items, sils):
        return [(child, utility + amount) for child, utility in extend(prefix, items, sils)]

    return wrapper


def growing(extension_utilizations, amount=10**9):
    """A bound scan that reports IEU amount too high below every prefix of 2+ items.

    Prefixes of one item keep their true bounds, so a child admitted under
    its true IEU then sees its own extensions' bounds exceed it.
    """

    def wrapper(prefix, sils):
        i_map, s_map = extension_utilizations(prefix, sils)
        if pattern_length(prefix.pattern) < 2:
            return i_map, s_map
        return (
            {item: ieu + amount for item, ieu in i_map.items()},
            {item: ieu + amount for item, ieu in s_map.items()},
        )

    return wrapper


def draw_corpus(count: int, meta_seed: int, work_cap: int = 200_000):
    """Random small databases, deterministic in meta_seed.

    Dimensions stay within: <= 8 sequences, <= 6 itemsets/sequence,
    <= 4 items/itemset, <= 6 distinct items, quantities/weights <= 5.
    Databases whose brute-force work estimate exceeds work_cap are redrawn so
    full enumeration over the corpus stays fast.
    """
    meta = random.Random(meta_seed)
    corpus = []
    while len(corpus) < count:
        params = GeneratorParams(
            sequence_count=meta.randint(1, 8),
            distinct_items=meta.randint(1, 6),
            max_itemsets_per_seq=meta.randint(1, 6),
            max_items_per_itemset=meta.randint(1, 4),
            max_quantity=5,
            max_weight=5,
            seed=meta.randrange(2**32),
        )
        db, eut = generate_synthetic(params)
        if instance_count(db) <= work_cap:
            corpus.append((db, eut))
    return corpus


@pytest.fixture(scope="session")
def corpus200():
    """The 200-database corpus used by the acceptance suite."""
    return draw_corpus(200, meta_seed=20260814)


@pytest.fixture(scope="session")
def corpus30():
    """A smaller independent corpus for module-level property tests."""
    return draw_corpus(30, meta_seed=997)


def _hyp_itemset(draw, n_items: int, max_size: int, min_size: int = 1):
    members = draw(
        st.sets(st.integers(0, n_items - 1), min_size=min_size, max_size=min(max_size, n_items))
    )
    return tuple(QItem(i, draw(st.integers(1, 5))) for i in sorted(members))


@st.composite
def q_databases(draw):
    """Small random databases: <= 4 sequences of <= 4 itemsets over <= 5 items."""
    n_items = draw(st.integers(1, 5))
    eut = ExternalUtilityTable(tuple(draw(st.integers(1, 5)) for _ in range(n_items)))
    names = tuple(f"i{k}" for k in range(n_items))
    sequences = []
    for _ in range(draw(st.integers(1, 4))):
        itemsets = tuple(_hyp_itemset(draw, n_items, 3) for _ in range(draw(st.integers(1, 4))))
        sequences.append(QSequence.from_itemsets(itemsets))
    return QSequenceDatabase(tuple(sequences), names), eut


@st.composite
def wide_databases(draw):
    """Databases of wide itemsets: <= 2 sequences of <= 3 itemsets of 5 to 8 items.

    A sequence's widths sum to at most 15, so that a window holds at most
    31**3 occurrences (the product of 2**width - 1 over its itemsets) and
    brute force stays quick.
    """
    n_items = draw(st.integers(5, 9))
    eut = ExternalUtilityTable(tuple(draw(st.integers(1, 5)) for _ in range(n_items)))
    names = tuple(f"i{k}" for k in range(n_items))
    sequences = []
    for _ in range(draw(st.integers(1, 2))):
        itemsets = []
        budget = 15
        for _ in range(draw(st.integers(1, 3))):
            if budget < 5:
                break
            width = draw(st.integers(5, min(8, n_items, budget)))
            budget -= width
            itemsets.append(_hyp_itemset(draw, n_items, width, min_size=width))
        sequences.append(QSequence.from_itemsets(tuple(itemsets)))
    return QSequenceDatabase(tuple(sequences), names), eut


@st.composite
def databases_where_guip_leaves_a_gap(draw, databases=q_databases()):
    """A drawn database with an item z, alone in its itemset, that GUIP deletes at xi >= 0.2.

    z (weight 1, quantity 1) fills an itemset of its own in one sequence S,
    after S's first itemset and, when S has two or more, before its last.
    An added last sequence repeats S without z, quantities scaled up, so
    SWU(z), at most u(S) + 1, stays below a fifth of u(D), while the
    repeated sequence clears every threshold drawn with it.  Deleting z must
    leave a gap: closing it up would let S add the repeated sequence's
    pattern too.
    """
    db, eut = draw(databases)
    z = len(eut.weights)
    seq = draw(st.sampled_from(db.sequences))
    at = draw(st.integers(1, max(1, len(seq.itemsets) - 1)))
    gapped = QSequence.from_itemsets((*seq.itemsets[:at], (QItem(z, 1),), *seq.itemsets[at:]))
    scale = 10 * (db_utility(db, eut) + 2)
    heavy = tuple(tuple(QItem(q.item, q.quantity * scale) for q in s) for s in seq.itemsets)
    sequences = tuple(gapped if s is seq else s for s in db.sequences)
    return (
        QSequenceDatabase((*sequences, QSequence.from_itemsets(heavy)), (*db.names, "z")),
        ExternalUtilityTable((*eut.weights, 1)),
    )
