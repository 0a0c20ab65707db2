"""One benchmark repetition: `hucsp mine` run in this fresh process.

    python3 perfbench/child.py MODE DB EUT XI OUT MEASUREMENTS

The program is timed from outside: before calling hucsp.cli.main, this file
replaces module attributes that the program looks up at call time with
wrappers that record what each call cost, then writes what it recorded as
JSON to MEASUREMENTS.  The program itself is not modified.

MODE is one of
  plain   spans around the calls cli.main makes (the two file reads,
          parse_database, mine, serialize_results) only; gives the
          end-to-end times with tracing effectively off.
  trace   also wraps the names hucsp.miner looks up, plus Threshold.admits.
          Phase calls get a span (name, start, end, parent); calls made once
          per candidate get only a count and a total time.
  memory  tracemalloc peak of SIL build, seed chains and each search call
          (tracing starts with the call, so the peak counts only what the
          call allocated; the largest search call is kept); no timings,
          since tracemalloc slows every allocation.

A wrapped name that no longer exists is skipped and listed under "absent",
so later refactors that rename or remove a function lose that one metric and
nothing else.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

clock = time.perf_counter

CLI_SPANS = ("_read_text", "parse_database", "mine", "serialize_results")
MINER_SPANS = (
    "validate",
    "db_utility",
    "guip_revise",
    "build_sil",
    "build_initial_ichains",
    "recursive_search",
)
# Called once per candidate or per search node: up to about a million calls a
# run, too many for a span each.
MINER_TALLIES = (
    "extension_utilizations",
    "extend_ichain_i",
    "extend_ichain_s",
    "ichain_pattern_utility",
    "luip_admits",
)
MEMORY_PHASES = ("build_sil", "build_initial_ichains", "recursive_search")


def chain_elements(chain) -> int:
    return sum(len(il.elements) for il in chain.lists)


class Tracer:
    """Spans for phase calls, (calls, seconds) tallies for hot calls.

    A span is [name, start, end, parent index, seconds of hot calls inside
    it]; the last field lets self time subtract the hot calls a phase made.
    Hot calls are leaves: none of them calls another wrapped name.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.tallies: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []

    def span(self, name: str, fn):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else None, 0.0]
            spans.append(record)
            open_.append(len(spans) - 1)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()

        return wrapper

    def tally(self, name: str, fn, elements=None):
        totals = self.tallies.setdefault(name, [0, 0.0])
        spans, open_, counts = self.spans, self.open, self.counts
        if elements is not None:
            counts.setdefault("elements_touched", 0)

        def wrapper(*args, **kwargs):
            start = clock()
            if elements is not None:
                counts["elements_touched"] += elements(args[0])
            called = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                totals[0] += 1
                totals[1] += end - called
                if open_:
                    # Counting is tracing cost: kept out of the parent's self time.
                    spans[open_[-1]][4] += end - start

        return wrapper

    def wrap(self, module, names, make) -> None:
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                self.absent.append(f"{module.__name__}.{name}")
            else:
                setattr(module, name, make(name, fn))


def install_trace(tracer: Tracer, cli, miner) -> None:
    tracer.wrap(cli, CLI_SPANS, tracer.span)
    if miner is None:
        return
    tracer.wrap(miner, MINER_SPANS, tracer.span)

    def tally(name, fn):
        counted = chain_elements if name.startswith("extend_ichain") else None
        return tracer.tally(name, fn, counted)

    tracer.wrap(miner, MINER_TALLIES, tally)
    threshold = getattr(miner, "Threshold", None)
    if threshold is None or not hasattr(threshold, "admits"):
        tracer.absent.append("hucsp.miner.Threshold.admits")
    else:
        threshold.admits = tracer.tally("Threshold.admits", threshold.admits)
    seeds = getattr(miner, "build_initial_ichains", None)
    if seeds is not None:

        def count_seeds(*args, **kwargs):
            chains = seeds(*args, **kwargs)
            tracer.counts["seed_chains"] = len(chains)
            return chains

        miner.build_initial_ichains = count_seeds


def install_memory(peaks: dict[str, int], absent: list[str], miner) -> None:
    def measured(name, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return wrapper

    for name in MEMORY_PHASES:
        fn = getattr(miner, name, None)
        if fn is None:
            absent.append(f"hucsp.miner.{name}")
        else:
            setattr(miner, name, measured(name, fn))


def peak_rss_kib() -> int:
    """This process's peak resident set since exec (Linux VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def stats_fields(stats) -> dict[str, int]:
    names = ("candidates", "hucsps", "guip_deleted_items", "guip_rounds", "luip_pruned")
    return {n: getattr(stats, n) for n in names if isinstance(getattr(stats, n, None), int)}


def main(argv: list[str]) -> int:
    mode, db, eut, xi, out, measurements = argv
    started = clock()
    import hucsp.cli as cli

    import_s = clock() - started
    import hucsp.miner as miner

    tracer = Tracer()
    peaks: dict[str, int] = {}
    returned: dict = {}
    if mode == "memory":
        install_memory(peaks, tracer.absent, miner)
    else:
        install_trace(tracer, cli, miner if mode == "trace" else None)
    inner_mine = cli.mine

    def keep_stats(*args, **kwargs):
        result = inner_mine(*args, **kwargs)
        returned["stats"] = stats_fields(result[1])
        return result

    cli.mine = keep_stats

    call_start = clock()
    code = cli.main(["mine", db, eut, "--xi", xi, "--out", out])
    cli_s = import_s + clock() - call_start

    record = {
        "mode": mode,
        "code": code,
        "cli_s": cli_s,
        "peak_rss_kib": peak_rss_kib(),
        "stats": returned.get("stats", {}),
        "spans": tracer.spans,
        "tallies": tracer.tallies,
        "counts": tracer.counts,
        "peaks": peaks,
        "absent": tracer.absent,
    }
    with open(measurements, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
