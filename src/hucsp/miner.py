"""High-utility contiguous pattern mining.

Search runs depth-first over a pattern-growth tree: every node is a pattern
with its IChain, and children extend it either by adding a larger item to the
last itemset or by starting a new itemset at the next position.  Each pattern
is reachable along exactly one path, so nothing is emitted twice.

Pipeline: validate, fix the minimum utility from the original database
utility, name the hopeless items (SWU, to a fixpoint), build the SILs
without them, then grow every single-item pattern from one stack, building
each one's chain only when the search reaches it.
Extensions whose IEU falls below the minimum are pruned with their subtrees.

A candidate is counted for every single-item pattern surviving deletion and
for every extension whose IEU gets computed; the effective search rate is
emitted utility-qualified patterns over candidates.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .bounds import Threshold, guip_revise, luip_admits
from .core import (
    ExternalUtilityTable,
    Pattern,
    QSequenceDatabase,
    ResultSet,
    check_length_cap,
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
    extension_utilizations,
    ichain_pattern_utility,
)


class BoundViolationError(AssertionError):
    """An upper-bound invariant failed at runtime (enabled by assert_bounds)."""


class _MiningConfigFields(NamedTuple):
    xi: str  # decimal text, parsed exactly; 0 <= xi <= 1
    enable_guip: bool = True
    enable_luip: bool = True
    max_pattern_length: int | None = None
    assert_bounds: bool = False


class MiningConfig(_MiningConfigFields):
    """The settings of one mine() call, checked whenever one is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MiningConfig:
        config = super().__new__(cls, *args, **kwargs)
        # Refuse bad text before any input is read; mine() parses it again.
        Threshold.from_text(config.xi, 0)
        check_length_cap(config.max_pattern_length, "max_pattern_length")
        return config

    @classmethod
    def _make(cls, fields: Iterable) -> MiningConfig:
        # _replace builds through here, so a replaced field is checked too.
        return cls(*fields)


class MiningStats(NamedTuple):
    candidates: int
    hucsps: int
    guip_deleted_items: int
    guip_rounds: int
    luip_pruned: int

    def to_dict(self) -> dict:
        esr = None if self.candidates == 0 else effective_search_rate(self)
        return {**self._asdict(), "esr": esr}


def recursive_search(
    seeds: Iterable[tuple[IChain, int]],
    sils: Sequence[SIL | None],
    threshold: Threshold,
    config: MiningConfig,
) -> tuple[dict[Pattern, int], int, int]:
    """Grow every pattern from the single-item (chain, utility) seeds, in item order.

    One explicit stack, so depth is not bound by the call stack, pops nodes
    in recursion order (item-extensions before sequence-extensions, items
    ascending).  The next seed is pulled only when the stack is empty, so
    a lazy seed iterable never has more than one seed chain in use, and
    none below the seed's own node.  A popped node is recorded if it
    qualifies, then expanded unless at the length cap: one luip_admits
    call and one pass over its chain per extension kind.  Returns
    (qualifying pattern -> utility, candidates, LUIP-pruned extensions).
    """
    found: dict[Pattern, int] = {}
    candidates, luip_pruned = 0, 0
    # (chain, its utility, the IEU it was admitted under; None for a seed)
    stack: list[tuple[IChain, int, int | None]] = []
    # A seed takes the names its popped node takes, so the next pop drops it.
    for prefix, utility in seeds:
        candidates += 1
        stack.append((prefix, utility, None))
        while stack:
            prefix, utility, prefix_bound = stack.pop()
            if threshold.admits(utility):
                found[prefix.pattern] = utility
            if (
                config.max_pattern_length is not None
                and pattern_length(prefix.pattern) >= config.max_pattern_length
            ):
                continue
            i_bounds, s_bounds = extension_utilizations(prefix, sils)
            children: list[tuple[IChain, int, int]] = []
            for bounds_map, extend in ((i_bounds, extend_ichain_i), (s_bounds, extend_ichain_s)):
                candidates += len(bounds_map)
                if config.assert_bounds and prefix_bound is not None:
                    for item, ieu in sorted(bounds_map.items()):
                        if ieu > prefix_bound:
                            raise BoundViolationError(
                                f"IEU grew along an extension: {ieu} > {prefix_bound} "
                                f"extending {prefix.pattern} with item {item}"
                            )
                if config.enable_luip:
                    admitted = luip_admits(bounds_map, threshold)
                    luip_pruned += len(bounds_map) - len(admitted)
                else:
                    admitted = sorted(bounds_map)
                # Most nodes admit no extension of a kind; skip the pass over the chain.
                if not admitted:
                    continue
                for item, (child, child_utility) in zip(admitted, extend(prefix, admitted, sils)):
                    ieu = bounds_map[item]
                    if config.assert_bounds and child_utility > ieu:
                        raise BoundViolationError(
                            f"utility exceeds its extension bound: {child_utility} > {ieu} "
                            f"for {child.pattern}"
                        )
                    children.append((child, child_utility, ieu))
            stack.extend(reversed(children))
    return found, candidates, luip_pruned


def _seed(chain: IChain) -> tuple[IChain, int]:
    # A function, not a generator expression, whose frame would hold the last chain.
    return chain, ichain_pattern_utility(chain)


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
    # Each seed chain is built as the search reaches it and dropped once it is expanded.
    seeds = map(_seed, build_initial_ichains(sils).values())
    found, candidates, luip_pruned = recursive_search(seeds, sils, threshold, config)
    stats = MiningStats(
        candidates=candidates,
        hucsps=len(found),
        guip_deleted_items=len(deleted),
        guip_rounds=rounds,
        luip_pruned=luip_pruned,
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
