"""High-utility contiguous pattern mining.

Search runs depth-first over a pattern-growth tree: every node is a pattern
with its IChain, and children extend it either by adding a larger item to the
last itemset or by starting a new itemset at the next position.  Each pattern
is reachable along exactly one path, so nothing is emitted twice.

Pipeline: validate, fix the minimum utility from the original database
utility, name the hopeless items (SWU, to a fixpoint), build the SILs
without them and the single-item chains, then grow.  Extensions whose IEU
falls below the minimum are pruned with their whole subtrees.

A candidate is counted for every single-item pattern surviving deletion and
for every extension whose IEU gets computed; the effective search rate is
emitted utility-qualified patterns over candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import Threshold, extension_utilizations, guip_revise, luip_admits
from .core import (
    ExternalUtilityTable,
    Pattern,
    QSequenceDatabase,
    ResultSet,
    collector_paused,
    db_utility,
    pattern_length,
    sort_results,
)
from .dataio import validate
from .indexes import (
    IChain,
    SIL,
    build_initial_ichains,
    build_sil,
    extend_ichain_i,
    extend_ichain_s,
    ichain_pattern_utility,
)


class BoundViolationError(AssertionError):
    """An upper-bound invariant failed at runtime (enabled by assert_bounds)."""


@dataclass(frozen=True)
class MiningConfig:
    xi: str  # decimal text, parsed exactly; 0 <= xi <= 1
    enable_guip: bool = True
    enable_luip: bool = True
    max_pattern_length: int | None = None
    assert_bounds: bool = False


@dataclass(frozen=True)
class MiningStats:
    candidates: int
    hucsps: int
    guip_deleted_items: int
    guip_rounds: int
    luip_pruned: int

    def to_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "hucsps": self.hucsps,
            "guip_deleted_items": self.guip_deleted_items,
            "guip_rounds": self.guip_rounds,
            "luip_pruned": self.luip_pruned,
            "esr": None if self.candidates == 0 else effective_search_rate(self),
        }


@dataclass
class SearchCounters:
    candidates: int = 0
    luip_pruned: int = 0


def recursive_search(
    chain: IChain,
    sils: dict[int, SIL],
    threshold: Threshold,
    config: MiningConfig,
    found: dict[Pattern, int],
    counters: SearchCounters,
) -> None:
    """Grow one subtree depth-first, recording qualifying patterns in found.

    Runs on an explicit stack in exact recursion order (item-extensions
    before sequence-extensions, items ascending) so pattern depth is not
    limited by the interpreter's call stack.  One luip_admits call picks
    each node's admitted extensions of one kind, and one pass over its
    chain builds them with their utilities.
    """
    stack: list[tuple[IChain, int | None]] = [(chain, None)]
    while stack:
        prefix, prefix_bound = stack.pop()
        if (
            config.max_pattern_length is not None
            and pattern_length(prefix.pattern) >= config.max_pattern_length
        ):
            continue
        i_bounds, s_bounds = extension_utilizations(prefix, sils)
        children: list[tuple[IChain, int]] = []
        for bounds_map, extend in ((i_bounds, extend_ichain_i), (s_bounds, extend_ichain_s)):
            counters.candidates += len(bounds_map)
            if config.assert_bounds and prefix_bound is not None:
                for item, ieu in sorted(bounds_map.items()):
                    if ieu > prefix_bound:
                        raise BoundViolationError(
                            f"IEU grew along an extension: {ieu} > {prefix_bound} "
                            f"extending {prefix.pattern} with item {item}"
                        )
            if config.enable_luip:
                admitted = luip_admits(bounds_map, threshold)
                counters.luip_pruned += len(bounds_map) - len(admitted)
            else:
                admitted = sorted(bounds_map)
            # Most nodes admit no extension of a kind; skip the pass over the chain.
            if not admitted:
                continue
            for item, (child, utility) in zip(admitted, extend(prefix, admitted, sils)):
                ieu = bounds_map[item]
                if config.assert_bounds and utility > ieu:
                    raise BoundViolationError(
                        f"utility exceeds its extension bound: {utility} > {ieu} "
                        f"for {child.pattern}"
                    )
                if threshold.admits(utility):
                    found[child.pattern] = utility
                children.append((child, ieu))
        stack.extend(reversed(children))


@collector_paused()
def mine(
    db: QSequenceDatabase, eut: ExternalUtilityTable, config: MiningConfig
) -> tuple[ResultSet, MiningStats]:
    """Mine all high-utility contiguous patterns; results canonically sorted."""
    problems = validate(db, eut)
    if problems:
        raise ValueError("invalid database: " + "; ".join(problems))
    # min_utility is fixed from the ORIGINAL database utility; deletions below
    # must not move the bar.
    threshold = Threshold.from_text(config.xi, db_utility(db, eut))
    if config.enable_guip:
        deleted, rounds = guip_revise(db, eut, threshold)
    else:
        deleted, rounds = frozenset(), 0
    sils = build_sil(db, eut, deleted)
    initial = build_initial_ichains(sils)
    found: dict[Pattern, int] = {}
    counters = SearchCounters()
    for item in sorted(initial):
        chain = initial[item]
        counters.candidates += 1
        utility = ichain_pattern_utility(chain)
        if threshold.admits(utility):
            found[chain.pattern] = utility
        recursive_search(chain, sils, threshold, config, found, counters)
    stats = MiningStats(
        candidates=counters.candidates,
        hucsps=len(found),
        guip_deleted_items=len(deleted),
        guip_rounds=rounds,
        luip_pruned=counters.luip_pruned,
    )
    return sort_results(found.items()), stats


def effective_search_rate(stats: MiningStats) -> str:
    """Render hucsps/candidates as a percentage, two decimals, half-up."""
    if stats.candidates == 0:
        raise ValueError("effective search rate undefined: no candidates")
    hundredths, rest = divmod(10000 * stats.hucsps, stats.candidates)
    if 2 * rest >= stats.candidates:
        hundredths += 1
    return f"{hundredths // 100}.{hundredths % 100:02d}%"
