"""Checks on the benchmark's own generators.

    PYTHONPATH=src python -m pytest -q perfbench/test_generators.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from generators import Shape, uniform_text, zipf_text
from hucsp.dataio import GeneratorParams, generate_synthetic, parse_database, serialize_database

WORKLOADS = json.loads((Path(__file__).parent / "workloads.json").read_text())["workloads"]


def package_text(shape: Shape, seed: int) -> tuple[str, str]:
    params = GeneratorParams(
        sequence_count=shape.sequences,
        distinct_items=shape.distinct_items,
        max_itemsets_per_seq=shape.max_itemsets,
        max_items_per_itemset=shape.max_itemset_size,
        max_quantity=shape.max_quantity,
        max_weight=shape.max_weight,
        seed=seed,
    )
    return serialize_database(*generate_synthetic(params))


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize(
    "shape",
    [Shape(200, 60), Shape(200, 3, max_itemsets=2, max_itemset_size=5), Shape(50, 800, 3, 1, 9, 2)],
)
def test_uniform_matches_package_generator(shape, seed):
    assert uniform_text(shape, seed) == package_text(shape, seed)


@pytest.mark.parametrize(
    "name", [n for n, w in WORKLOADS.items() if w["generator"] == "uniform"]
)
def test_uniform_workloads_match_package_generator_at_default_seed(name):
    workload = WORKLOADS[name]
    shape = Shape(**workload["shape"])
    assert uniform_text(shape, workload["default_seed"]) == package_text(shape, workload["default_seed"])


def test_zipf_is_seeded_and_skewed():
    shape = Shape(2000, 800)
    text = zipf_text(shape, 3, 1.1)
    assert text == zipf_text(shape, 3, 1.1)
    assert text != zipf_text(shape, 4, 1.1)
    db, eut = parse_database(*text)
    assert len(db.sequences) == 2000 and len(eut.weights) == 800
    counts = [0] * 800
    for seq in db.sequences:
        for _, qitem in seq.iter_slots():
            counts[qitem.item] += 1
    # Item 0 is the most popular; under a uniform draw every item would be
    # near the mean.
    assert counts[0] == max(counts)
    assert counts[0] > 20 * sum(counts) / len(counts)
