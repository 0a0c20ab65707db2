"""hucsp benchmark: generate a workload from a seed, mine it with the real
`hucsp mine` path, check the results and print every metric with its unit.

    python3 perfbench/run.py --workload w1-index [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # each workload in turn

Run it from the repository root; it imports the package from ./src and
writes only under ./.bench_work.  Workloads, their rationale and the
expected results digests are in perfbench/workloads.json.

Each repetition is a fresh single-threaded `python3 perfbench/child.py`
process calling hucsp.cli.main(["mine", DB, EUT, "--xi", X, "--out", F]);
repetitions run one after another.  Repetitions start while the next one
is expected to end within --seconds, and never fewer than MIN_REPS.

--trace 0 prints the end-to-end metrics: cli_s (import of hucsp.cli plus
the cli.main call), mine_s (the mine() call inside it), setup_s (the two
file reads and parse_database) and peak_rss_mb (the child's peak resident
set, VmHWM, read by the child as cli.main returns; the ru_maxrss a parent
gets from wait4 would also count this process's own peak, which a child
inherits at exec).  Each is the median over an input's
untraced repetitions, averaged over the run's inputs; w2-search mines
several databases per run because its search size swings with the seed's
item weights.

--trace 1 alternates untraced and traced repetitions and ends with one
memory-traced repetition, then prints the per-layer metrics; see child.py
for what each mode wraps.

A repetition fails on a non-zero exit, a traceback, a results file that
fails the check in gate.py, or work counters that differ from the first
repetition's.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generators import Shape, uniform_text, zipf_text

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
INPUT_SEED_STRIDE = 1_000_000
# Every invocation must end within 180 s; repetitions stop being started
# after this, and a child still running at the hard limit is killed.
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 165.0
MIB = 1024 * 1024


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def generate(workload: dict, seed: int, **overrides) -> tuple[str, str]:
    shape = Shape(**{**workload["shape"], **overrides})
    if workload["generator"] == "uniform":
        return uniform_text(shape, seed)
    return zipf_text(shape, seed, workload["exponent"])


def run_child(mode: str, inp: dict, work: Path, index: int, deadline: float) -> dict:
    """Run one repetition on one input; returns its measurements plus exit facts."""
    out = work / f"results-{index}.txt"
    measured = work / f"measure-{index}.json"
    stdout, stderr = work / f"stdout-{index}.txt", work / f"stderr-{index}.txt"
    argv = [sys.executable, str(HERE / "child.py"), mode, str(inp["db"]), str(inp["eut"]),
            inp["xi"], str(out), str(measured)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    rep = {"mode": mode, "input": inp["index"], "exit": proc.returncode, "results": out,
           "problems": []}
    if proc.returncode != 0:
        rep["problems"].append(f"exit code {proc.returncode}")
    if b"Traceback" in stderr.read_bytes():
        rep["problems"].append("traceback on stderr")
    if measured.is_file() and out.is_file():
        rep.update(json.loads(measured.read_text(encoding="utf-8")))
        rep["digest"] = hashlib.sha256(out.read_bytes()).hexdigest()
    elif not rep["problems"]:
        rep["problems"].append("no results or measurements written")
    return rep


def span_total(rep: dict, name: str) -> float | None:
    spans = [s for s in rep.get("spans", ()) if s[0] == name]
    return sum(s[2] - s[1] for s in spans) if spans else None


def end_to_end(rep: dict) -> dict[str, float]:
    values = {"cli_s": rep["cli_s"], "peak_rss_mb": rep["peak_rss_kib"] * 1024 / MIB}
    mine_s = span_total(rep, "mine")
    reads = span_total(rep, "_read_text")
    parse = span_total(rep, "parse_database")
    if mine_s is not None:
        values["mine_s"] = mine_s
    if reads is not None and parse is not None:
        values["setup_s"] = reads + parse
    return values


def self_time(rep: dict, name: str) -> float | None:
    spans = rep.get("spans", [])
    child = {}
    for s in spans:
        if s[3] is not None:
            child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
    total = [s[2] - s[1] - child.get(i, 0.0) - s[4] for i, s in enumerate(spans) if s[0] == name]
    return sum(total) if total else None


def traced_layers(rep: dict) -> dict[str, float]:
    """Per-layer times of one traced repetition; absent names are left out."""
    values = {}
    spans = {
        "dataio.validate_s": "validate",
        "dataio.serialize_results_s": "serialize_results",
        "core.db_utility_s": "db_utility",
        "bounds.guip_s": "guip_revise",
        "indexes.build_sil_s": "build_sil",
        "indexes.seed_chains_s": "build_initial_ichains",
        "miner.search_s": "recursive_search",
        "trace.mine_s": "mine",
    }
    for metric, name in spans.items():
        value = span_total(rep, name)
        if value is not None:
            values[metric] = value
    search_self = self_time(rep, "recursive_search")
    if search_self is not None:
        values["miner.search_self_s"] = search_self
    tallies = rep.get("tallies", {})
    for metric, names in {
        "bounds.extension_utilizations_s": ["extension_utilizations"],
        "bounds.luip_admits_s": ["luip_admits"],
        "indexes.extend_s": ["extend_ichain_i", "extend_ichain_s"],
        "indexes.pattern_utility_s": ["ichain_pattern_utility"],
    }.items():
        if all(n in tallies for n in names):
            values[metric] = sum(tallies[n][1] for n in names)
    return values


def traced_counts(rep: dict) -> dict[str, int]:
    """Deterministic work counters of one traced repetition."""
    tallies, counts, stats = rep.get("tallies", {}), rep.get("counts", {}), rep.get("stats", {})
    values = {}
    if "extension_utilizations" in tallies:
        values["bounds.extension_utilizations_calls"] = tallies["extension_utilizations"][0]
    if "Threshold.admits" in tallies:
        values["bounds.threshold_admits_calls"] = tallies["Threshold.admits"][0]
    extends = [tallies[n][0] for n in ("extend_ichain_i", "extend_ichain_s") if n in tallies]
    if len(extends) == 2 and "seed_chains" in counts:
        values["indexes.chains_built"] = counts["seed_chains"] + sum(extends)
    if len(extends) == 2 and "elements_touched" in counts:
        values["indexes.elements_touched"] = counts["elements_touched"]
    for metric, field in (
        ("bounds.guip_rounds", "guip_rounds"),
        ("bounds.guip_deleted_items", "guip_deleted_items"),
        ("bounds.luip_pruned", "luip_pruned"),
        ("miner.candidates", "candidates"),
        ("miner.hucsps", "hucsps"),
    ):
        if field in stats:
            values[metric] = stats[field]
    return values


def median_of(reps: list[dict], extract) -> dict[str, float]:
    columns: dict[str, list[float]] = {}
    for rep in reps:
        for metric, value in extract(rep).items():
            columns.setdefault(metric, []).append(value)
    return {m: statistics.median(v) for m, v in columns.items()}


def per_layer(plain: list[dict], traced: list[dict], memory: list[dict]) -> dict[str, float]:
    values = median_of(traced, traced_layers)
    counts = traced_counts(traced[0]) if traced else {}
    values.update(counts)
    candidates = counts.get("miner.candidates")
    if candidates:
        if "bounds.luip_pruned" in counts:
            values["bounds.luip_prune_ratio"] = counts["bounds.luip_pruned"] / candidates
        if "miner.hucsps" in counts:
            values["miner.esr"] = counts["miner.hucsps"] / candidates
    untraced = median_of(plain, end_to_end)
    overheads = [
        e["cli_s"] - e["setup_s"] - e["mine_s"]
        for e in map(end_to_end, plain)
        if "setup_s" in e and "mine_s" in e
    ]
    if overheads:
        values["cli.overhead_s"] = statistics.median(overheads)
    if "trace.mine_s" in values and untraced.get("mine_s"):
        values["trace.overhead_ratio"] = values["trace.mine_s"] / untraced["mine_s"]
    peaks = memory[0].get("peaks", {}) if memory else {}
    for metric, name in (
        ("indexes.build_sil_peak_mb", "build_sil"),
        ("indexes.seed_chains_peak_mb", "build_initial_ichains"),
        ("miner.search_peak_mb", "recursive_search"),
    ):
        if name in peaks:
            values[metric] = peaks[name] / MIB
    return values


def input_seeds(workload: dict, seed: int) -> list[int]:
    """Seeds of a run's inputs; the run's own seed comes first, so the default
    seed's first input is the database of the baselines in ROADMAP.md."""
    return [seed + INPUT_SEED_STRIDE * j for j in range(workload.get("inputs", 1))]


def measure(plan: list[tuple[str, int]], inputs: list[dict], work: Path, seconds: float,
            started: float) -> list[dict]:
    """Repeat the plan (mode, input) while the next round fits the budget."""
    reps: list[dict] = []
    round_times: list[float] = []
    begin = time.monotonic()
    while True:
        round_start = time.monotonic()
        for mode, j in plan:
            reps.append(run_child(mode, inputs[j], work, len(reps), started + HARD_LIMIT_S))
        round_times.append(time.monotonic() - round_start)
        now = time.monotonic()
        if now - started > SOFT_LIMIT_S:
            break
        if len(reps) >= MIN_REPS and now - begin + statistics.median(round_times) > seconds:
            break
    return reps


def check_input(j: int, inp: dict, reps: list[dict], expected: str, seed: int) -> list[str]:
    """Gate one input's repetitions against its first successful one."""
    import gate
    from hucsp.dataio import parse_database

    own = [r for r in reps if r["input"] == j]
    first = next((r for r in own if not r["problems"]), None)
    if first is None:
        return [f"input {j}: no repetition succeeded"]
    problems = []
    if expected and first["digest"] != expected:
        problems.append(f"input {j}: results digest {first['digest']} differs from the recorded {expected}")
    db, eut = parse_database(inp["db_text"], inp["eut_text"])
    text = first["results"].read_text(encoding="utf-8")
    problems += [f"input {j}: {p}" for p in
                 gate.check_results(text, db, eut, inp["xi"], first["stats"].get("hucsps"), seed)]
    traced = next((r for r in own if r["mode"] == "trace" and not r["problems"]), None)
    for rep in own:
        if rep is first or rep["problems"]:
            continue
        if rep["digest"] != first["digest"]:
            rep["problems"].append("results differ from the input's first repetition")
        if rep["stats"] != first["stats"]:
            rep["problems"].append("work counters differ from the input's first repetition")
        if rep["mode"] == "trace" and traced_counts(rep) != traced_counts(traced):
            rep["problems"].append("traced counters differ from the first traced repetition")
    return problems


def run_workload(name: str, spec: dict, seed: int | None, seconds: float, trace: bool) -> dict:
    import gate

    started = time.monotonic()
    workload = spec["workloads"][name]
    seed = workload["default_seed"] if seed is None else seed
    xi = workload["xi"]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = input_seeds(workload, seed)[:1] if trace else input_seeds(workload, seed)
    inputs = []
    for j, input_seed in enumerate(seeds):
        db_text, eut_text = generate(workload, input_seed)
        inp = {"index": j, "db": work / f"db-{j}.txt", "eut": work / f"eut-{j}.txt", "xi": xi,
               "db_text": db_text, "eut_text": eut_text}
        inp["db"].write_text(db_text, encoding="utf-8")
        inp["eut"].write_text(eut_text, encoding="utf-8")
        inputs.append(inp)

    mini = spec["miniature"]
    oracle_patterns, problems = gate.check_oracle(
        *generate(workload, seed, sequences=mini["sequences"], max_itemsets=mini["max_itemsets"],
                  max_itemset_size=mini["max_itemset_size"]),
        xi,
    )

    if trace:
        reps = measure([("plain", 0), ("trace", 0)], inputs, work, seconds, started)
        reps.append(run_child("memory", inputs[0], work, len(reps), started + HARD_LIMIT_S))
    else:
        reps = measure([("plain", j) for j in range(len(inputs))], inputs, work, seconds, started)

    recorded = workload["results_sha256"] if seed == workload["default_seed"] else []
    for j, inp in enumerate(inputs):
        problems += check_input(j, inp, reps, recorded[j] if j < len(recorded) else "", seed)
    if problems:
        for rep in reps:
            rep["problems"].append("results check failed")

    good = [r for r in reps if not r["problems"]]
    plain = [r for r in good if r["mode"] == "plain"]
    if trace:
        metrics = per_layer(plain, [r for r in good if r["mode"] == "trace"],
                            [r for r in good if r["mode"] == "memory"])
    else:
        # Each input's median repetition, averaged over the run's inputs.
        per_input = [median_of([r for r in plain if r["input"] == j], end_to_end)
                     for j in range(len(inputs))]
        metrics = {m: statistics.fmean(v[m] for v in per_input)
                   for m in per_input[0] if all(m in v for v in per_input)}
    failed = len(reps) - len(good)
    return {
        "workload": name,
        "seeds": seeds,
        "confirms": workload.get("trace_confirms", []) if trace else [],
        "oracle_patterns": oracle_patterns,
        "reps": reps,
        "plain": plain,
        "problems": problems,
        "correct": not problems and failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "work": work,
    }


def confirmation(check: dict, metrics: dict) -> str:
    """Render one of a workload's trace_confirms checks against traced metrics."""
    label = " + ".join(check["sum"]) + (f" over {check['over']}" if "over" in check else "")
    names = check["sum"] + ([check["over"]] if "over" in check else [])
    if any(n not in metrics for n in names):
        return f"{label}: not measured"
    value = sum(metrics[n] for n in check["sum"]) / (metrics[check["over"]] if "over" in check else 1)
    verdict = "confirmed" if value > check["above"] else "NOT confirmed"
    return f"{label} = {value:.4g} > {check['above']}: {verdict}"


def report(outcome: dict, trace: bool, bench: dict) -> dict:
    """Print the human-readable summary; return the contract's JSON object."""
    name, reps = outcome["workload"], outcome["reps"]
    columns: dict[str, list[float]] = {}
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {name}, input seeds {outcome['seeds']}: {attempted} repetitions, "
          f"failed_share {failed / attempted:.4f} ({failed} of {attempted} failed)")
    print(f"  oracle miniature: {outcome['oracle_patterns']} patterns, "
          f"{'agrees' if not outcome['problems'] else 'see problems'}")
    for problem in outcome["problems"]:
        print(f"  problem: {problem}")
    for i, rep in enumerate(reps):
        if rep["problems"]:
            print(f"  repetition {i} ({rep['mode']}) failed: {'; '.join(rep['problems'])}")
    absent = sorted({a for r in reps for a in r.get("absent", ())})
    if absent:
        print(f"  absent, so their metrics are not reported: {', '.join(absent)}")
    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if trace:
        print(f"  per-layer metrics: medians over {sum(r['mode'] == 'trace' for r in reps)} traced "
              f"and {len(outcome['plain'])} untraced repetitions; counters from the first traced one; "
              f"spans kept in {outcome['work']}/measure-*.json")
    else:
        for rep in outcome["plain"]:
            for metric, value in end_to_end(rep).items():
                columns.setdefault(metric, []).append(value)
        print(f"  end-to-end metrics: each input's median repetition, averaged over "
              f"{len(outcome['seeds'])} input(s); {len(outcome['plain'])} untraced repetitions")
    metrics = {}
    for metric in units:
        if metric not in outcome["metrics"]:
            continue
        value = outcome["metrics"][metric]
        metrics[metric] = {"value": value, "unit": units[metric]}
        spread = ""
        if columns.get(metric):
            spread = f"  (min {min(columns[metric]):.4f}, max {max(columns[metric]):.4f})"
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {metric:36} {shown} {units[metric]}{spread}")
    for check in outcome["confirms"]:
        print(f"  why chosen: {confirmation(check, outcome['metrics'])}")
    return {
        "correct": outcome["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    if not (ROOT / "BENCHMARK.json").is_file():
        die("no BENCHMARK.json here; run from the repository root")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hucsp" / "cli.py").is_file():
        die(f"no hucsp package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))

    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    result = None
    for name in names:
        outcome = run_workload(name, spec, args.seed, args.seconds, bool(args.trace))
        result = report(outcome, bool(args.trace), bench)
        print(json.dumps(result), flush=True)
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
