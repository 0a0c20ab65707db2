"""Command-line front end.

Subcommands: mine (results file + run report), check (miner vs brute-force
reference), gen (synthetic data), bench (one report line per threshold).

Exit codes: 0 success; 1 bad invocation, unreadable input, parse or
validation failure; 2 failed internal assertion (bound violation, reference
mismatch); 3 reference enumeration refused by its work cap.

Run reports are single JSON lines (sorted keys) appended to --report, or
printed to stdout when the flag is absent.  elapsed_ms and
peak_memory_bytes vary run to run; every other field is deterministic.
Result patterns are only ever written to --out files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .core import collector_paused, pattern_sort_key
from .dataio import (
    GeneratorParams,
    ParseError,
    format_pattern,
    generate_synthetic,
    parse_database,
    serialize_database,
    serialize_results,
)
from .miner import BoundViolationError, MiningConfig, MiningStats, mine


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for assertion failures.
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hucsp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine high-utility contiguous patterns")
    p.add_argument("db", help="database file")
    p.add_argument("eut", help="external-utility file")
    p.add_argument("--xi", required=True, help="relative threshold in [0, 1], decimal text")
    p.add_argument("--out", required=True, help="results file to write")
    p.add_argument("--no-guip", action="store_true", help="disable unpromising-item deletion")
    p.add_argument("--no-luip", action="store_true", help="disable extension pruning")
    p.add_argument("--max-len", type=_positive_int, default=None, help="pattern length cap")
    p.add_argument("--assert-bounds", action="store_true", help="verify bound invariants while mining")
    p.add_argument("--report", default=None, help="append the run report here instead of stdout")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("check", help="compare the miner against brute-force enumeration")
    p.add_argument("db", help="database file")
    p.add_argument("eut", help="external-utility file")
    p.add_argument("--xi", required=True, help="relative threshold in [0, 1], decimal text")
    p.add_argument("--max-len", type=_positive_int, default=None, help="pattern length cap")
    p.add_argument(
        "--oracle-cap",
        type=_positive_int,
        default=None,
        help="refuse enumeration that would copy more itemsets than this",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="write a synthetic database + utility file")
    p.add_argument("db_out", help="database file to write")
    p.add_argument("eut_out", help="external-utility file to write")
    p.add_argument("--sequences", type=int, required=True, help="number of sequences")
    p.add_argument("--distinct-items", type=int, default=100)
    p.add_argument("--max-itemsets", type=int, default=8, help="itemsets per sequence, at most")
    p.add_argument("--max-itemset-size", type=int, default=4, help="items per itemset, at most")
    p.add_argument("--max-quantity", type=int, default=5)
    p.add_argument("--max-weight", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="mine at several thresholds, one report line each")
    p.add_argument("db", help="database file")
    p.add_argument("eut", help="external-utility file")
    p.add_argument("--xi", required=True, help="comma-separated thresholds, e.g. 0.1,0.25,0.5")
    p.add_argument("--report", default=None, help="append report lines here instead of stdout")
    p.set_defaults(func=cmd_bench)

    return parser


def _read_text(path: str, kind: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ValueError(f"missing {kind} file: {path} ({e.strerror})") from None


def _refuse_overwrite(reads: dict[str, str], writes: dict[str, str | None]) -> None:
    """Refuse a file to be written that is also read, or written in another role."""
    seen = dict(reads)
    for role, path in writes.items():
        if path is None:
            continue
        for other, other_path in seen.items():
            try:
                same = os.path.samefile(path, other_path)
            except OSError:  # a file to be written need not exist yet
                same = os.path.realpath(path) == os.path.realpath(other_path)
            if same:
                raise ValueError(f"{role} and {other} name the same file: {path}")
        seen[role] = path


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _peak_memory_bytes() -> int | None:
    """This process's whole-run peak resident set, in bytes.

    Linux's VmHWM starts afresh at exec; ru_maxrss, the fallback where /proc
    is missing, is kept across exec, so it can count the process before it.
    ru_maxrss is in bytes on macOS and in KiB elsewhere.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _emit_report(report: dict, path: str | None) -> None:
    line = json.dumps(report, sort_keys=True)
    if path is None:
        print(line)
    else:
        with open(path, "a", encoding="utf-8", newline="\n") as f:
            f.write(line + "\n")


def _run_report(
    command: str, args: argparse.Namespace, config: MiningConfig, stats: MiningStats,
    result_count: int, started: float,
) -> dict:
    return {
        "command": command,
        "db": args.db,
        "eut": args.eut,
        **config._asdict(),
        "out": getattr(args, "out", None),
        "result_count": result_count,
        "stats": stats.to_dict(),
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        "peak_memory_bytes": _peak_memory_bytes(),
        "memory_is_estimate": True,
    }


def cmd_mine(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    _refuse_overwrite({"DB": args.db, "EUT": args.eut}, {"--out": args.out, "--report": args.report})
    config = MiningConfig(
        xi=args.xi,
        enable_guip=not args.no_guip,
        enable_luip=not args.no_luip,
        max_pattern_length=args.max_len,
        assert_bounds=args.assert_bounds,
    )
    db, eut = parse_database(_read_text(args.db, "database"), _read_text(args.eut, "external utility"))
    results, stats = mine(db, eut, config)
    _write_text(args.out, serialize_results(results, db.names))
    _emit_report(_run_report("mine", args, config, stats, len(results), started), args.report)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    # Only check runs the reference path, so no other command loads it.
    from .oracle import DEFAULT_ENUMERATION_CAP, UniverseTooLargeError, oracle_mine

    cap = args.oracle_cap or DEFAULT_ENUMERATION_CAP
    config = MiningConfig(xi=args.xi, max_pattern_length=args.max_len)
    db, eut = parse_database(_read_text(args.db, "database"), _read_text(args.eut, "external utility"))
    results, _ = mine(db, eut, config)
    try:
        expected = oracle_mine(db, eut, args.xi, max_len=args.max_len, cap=cap)
    except UniverseTooLargeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    if results == expected:
        print(f"check ok: {len(results)} patterns agree")
        return 0
    got = dict(results)
    want = dict(expected)
    for pattern in sorted(set(got) | set(want), key=pattern_sort_key):
        if got.get(pattern) != want.get(pattern):
            print(
                f"mismatch: {format_pattern(pattern, db.names)} "
                f"miner={got.get(pattern)} reference={want.get(pattern)}",
                file=sys.stderr,
            )
    return 2


def cmd_gen(args: argparse.Namespace) -> int:
    _refuse_overwrite({}, {"DB_OUT": args.db_out, "EUT_OUT": args.eut_out})
    params = GeneratorParams(
        sequence_count=args.sequences,
        distinct_items=args.distinct_items,
        max_itemsets_per_seq=args.max_itemsets,
        max_items_per_itemset=args.max_itemset_size,
        max_quantity=args.max_quantity,
        max_weight=args.max_weight,
        seed=args.seed,
    )
    db, eut = generate_synthetic(params)
    db_text, eut_text = serialize_database(db, eut)
    _write_text(args.db_out, db_text)
    _write_text(args.eut_out, eut_text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    _refuse_overwrite({"DB": args.db, "EUT": args.eut}, {"--report": args.report})
    xis = [x.strip() for x in args.xi.split(",") if x.strip()]
    if not xis:
        raise ValueError("no thresholds given")
    # Refuse a bad list before any mining, so it leaves no report line.
    configs = [MiningConfig(xi=xi) for xi in xis]
    db, eut = parse_database(_read_text(args.db, "database"), _read_text(args.eut, "external utility"))
    for config in configs:
        started = time.perf_counter()
        results, stats = mine(db, eut, config)
        _emit_report(_run_report("bench", args, config, stats, len(results), started), args.report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        # One pause for the whole command: a resume between parsing and mining
        # would let the next collection traverse the whole parsed database.
        with collector_paused():
            return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BoundViolationError as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
