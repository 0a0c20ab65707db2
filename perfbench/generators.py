"""Seeded workload generators that write the miner's text formats directly.

uniform_text draws exactly what hucsp.dataio.generate_synthetic draws, in the
same order from the same random.Random, so at equal parameters its output is
byte-identical to serialize_database(*generate_synthetic(params)) (checked by
test_generators.py).  Writing text directly keeps generation out of the
program under test and fast enough to run once per benchmark invocation.

zipf_text keeps the same shape and weight draws but picks each itemset's
members from a Zipf popularity law (item k has weight 1 / (k + 1) ** exponent),
so a few items are everywhere and most are rare: the only shape on which the
SWU deletion pass (GUIP) removes items.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    sequences: int
    distinct_items: int
    max_itemsets: int = 8
    max_itemset_size: int = 4
    max_quantity: int = 5
    max_weight: int = 5


def _eut_text(rng: random.Random, shape: Shape) -> tuple[list[str], str]:
    names = [f"i{k}" for k in range(shape.distinct_items)]
    # Weights come first, as in generate_synthetic, so sizing does not shift them.
    weights = [rng.randint(1, shape.max_weight) for _ in names]
    return names, "".join(f"{n} {w}\n" for n, w in zip(names, weights))


def _db_text(rng: random.Random, shape: Shape, names: list[str], draw_members) -> str:
    top_size = min(shape.max_itemset_size, shape.distinct_items)
    lines = []
    for _ in range(shape.sequences):
        parts = []
        for _ in range(rng.randint(1, shape.max_itemsets)):
            size = rng.randint(1, top_size)
            for item in draw_members(size):
                parts.append(f"{names[item]}:{rng.randint(1, shape.max_quantity)}")
            parts.append("-1")
        parts.append("-2\n")
        lines.append(" ".join(parts))
    return "".join(lines)


def uniform_text(shape: Shape, seed: int) -> tuple[str, str]:
    """(database text, utility text) with uniformly drawn itemset members."""
    rng = random.Random(seed)
    names, eut = _eut_text(rng, shape)
    population = range(shape.distinct_items)
    return _db_text(rng, shape, names, lambda size: sorted(rng.sample(population, size))), eut


def zipf_text(shape: Shape, seed: int, exponent: float) -> tuple[str, str]:
    """(database text, utility text) with Zipf-popular itemset members."""
    rng = random.Random(seed)
    names, eut = _eut_text(rng, shape)
    cumulative = list(
        itertools.accumulate(1.0 / (k + 1) ** exponent for k in range(shape.distinct_items))
    )
    total = cumulative[-1]

    def draw(size: int) -> list[int]:
        members: set[int] = set()
        while len(members) < size:
            members.add(bisect.bisect_right(cumulative, rng.random() * total))
        return sorted(members)

    return _db_text(rng, shape, names, draw), eut
