"""Command-line behavior: files, reports, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RUNNING_DB_TEXT, RUNNING_EUT_TEXT, growing, inflating
from hucsp import cli
from hucsp.cli import main


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "db.txt").write_text(RUNNING_DB_TEXT, encoding="utf-8")
    (tmp_path / "eut.txt").write_text(RUNNING_EUT_TEXT, encoding="utf-8")
    return tmp_path


def _mine_args(workdir, out="out.txt", *extra):
    return [
        "mine",
        str(workdir / "db.txt"),
        str(workdir / "eut.txt"),
        "--xi",
        "0.25",
        "--out",
        str(workdir / out),
        *extra,
    ]


class TestMine:
    def test_writes_results_and_report(self, workdir, capsys):
        assert main(_mine_args(workdir)) == 0
        out = (workdir / "out.txt").read_text(encoding="utf-8")
        assert out == "a -1 c -1 #UTIL: 36\nb f -1 #UTIL: 27\n"
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "mine"
        assert report["xi"] == "0.25"
        assert report["result_count"] == 2
        assert report["stats"]["candidates"] == 65
        assert report["stats"]["luip_pruned"] == 54
        assert report["stats"]["esr"] == "3.08%"
        assert report["memory_is_estimate"] is True

    def test_report_keys(self, workdir, capsys):
        assert main(_mine_args(workdir, "out.txt", "--max-len", "3", "--assert-bounds")) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == [
            "assert_bounds", "command", "db", "elapsed_ms", "enable_guip", "enable_luip", "eut",
            "max_pattern_length", "memory_is_estimate", "out", "peak_memory_bytes",
            "result_count", "stats", "xi",
        ]
        assert (report["max_pattern_length"], report["assert_bounds"]) == (3, True)

    def test_report_file(self, workdir):
        report_path = workdir / "report.jsonl"
        args = _mine_args(workdir) + ["--report", str(report_path)]
        assert main(args) == 0
        assert main(args) == 0  # appends, one line per run
        lines = report_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        for volatile in ("elapsed_ms", "peak_memory_bytes"):
            first.pop(volatile), second.pop(volatile)
        assert first == second

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
    def test_peak_memory_counts_only_this_process(self, workdir):
        # The CLI replaces, by exec, a process that has touched 128 MiB; a
        # peak kept across exec would report that memory as this run's.
        script = (
            "import os, sys\n"
            "ballast = b'x' * (128 << 20)\n"
            "os.execv(sys.executable, [sys.executable, '-m', 'hucsp', *sys.argv[1:]])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *_mine_args(workdir)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["peak_memory_bytes"] < 64 << 20

    @pytest.mark.parametrize(("platform", "expected"), [("darwin", 5000), ("linux", 5000 * 1024)])
    def test_peak_memory_fallback_units(self, monkeypatch, platform, expected):
        # Without /proc the peak comes from ru_maxrss: bytes on macOS, KiB elsewhere.
        resource = pytest.importorskip("resource")

        def no_proc(path, *args, **kwargs):
            raise FileNotFoundError(path)

        usage = types.SimpleNamespace(ru_maxrss=5000)
        # Shadows the builtin open for the cli module only.
        monkeypatch.setattr(cli, "open", no_proc, raising=False)
        monkeypatch.setattr(cli.sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage", lambda who: usage)
        assert cli._peak_memory_bytes() == expected

    def test_toggles_reach_the_miner(self, workdir, capsys):
        assert main(_mine_args(workdir, "out.txt", "--no-guip", "--no-luip")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["enable_guip"] is False
        assert report["enable_luip"] is False
        assert report["stats"]["luip_pruned"] == 0

    def test_max_len(self, workdir):
        assert main(_mine_args(workdir, "out.txt", "--max-len", "1", "--xi", "0")) == 0
        # argparse keeps the last --xi, so results are all six single items
        assert len((workdir / "out.txt").read_text(encoding="utf-8").splitlines()) == 6

    def test_missing_eut_file(self, workdir, capsys):
        args = _mine_args(workdir)
        args[2] = str(workdir / "nope.txt")
        assert main(args) == 1
        assert "missing external utility" in capsys.readouterr().err

    def test_threshold_out_of_range(self, workdir, capsys):
        args = _mine_args(workdir)
        args[args.index("0.25")] = "1.5"
        assert main(args) == 1
        assert "threshold out of range" in capsys.readouterr().err

    def test_threshold_in_exponent_notation(self, workdir, capsys):
        args = _mine_args(workdir)
        args[args.index("0.25")] = "1e-1000000"
        assert main(args) == 1
        assert "invalid threshold" in capsys.readouterr().err

    def test_bad_threshold_is_refused_before_any_file_is_read(self, workdir, capsys):
        args = _mine_args(workdir)
        args[1] = str(workdir / "nope.txt")
        args[args.index("0.25")] = "abc"
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "invalid threshold 'abc'" in err and "nope.txt" not in err

    def test_parse_error_has_position(self, workdir, capsys):
        (workdir / "db.txt").write_text("a:1 -1\n", encoding="utf-8")
        assert main(_mine_args(workdir)) == 1
        assert "line 1, column 7" in capsys.readouterr().err

    def test_over_long_quantity(self, workdir, capsys):
        (workdir / "db.txt").write_text("a:" + "9" * 5000 + " -1 -2\n", encoding="utf-8")
        assert main(_mine_args(workdir)) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert len(line) < 200
        assert line.startswith("error: line 1, column 1: quantity ")
        assert f"has 5000 digits, above the limit of {sys.get_int_max_str_digits()}" in line

    def test_quantity_outside_the_format(self, workdir, capsys):
        (workdir / "db.txt").write_text("a:1_0 -1 -2\n", encoding="utf-8")
        assert main(_mine_args(workdir)) == 1
        assert "line 1, column 1: malformed quantity '1_0'" in capsys.readouterr().err

    def test_assert_bounds_failure_exits_2(self, workdir, monkeypatch, capsys):
        import hucsp.miner as miner_module

        for name in ("extend_ichain_i", "extend_ichain_s"):
            monkeypatch.setattr(miner_module, name, inflating(getattr(miner_module, name)))
        assert main(_mine_args(workdir, "out.txt", "--assert-bounds")) == 2
        assert "assertion failed" in capsys.readouterr().err

    def test_growing_bound_exits_2(self, workdir, monkeypatch, capsys):
        import hucsp.miner as miner_module

        monkeypatch.setattr(
            miner_module,
            "extension_utilizations",
            growing(miner_module.extension_utilizations),
        )
        assert main(_mine_args(workdir, "out.txt", "--assert-bounds")) == 2
        err = capsys.readouterr().err
        assert "assertion failed" in err and "IEU grew along an extension" in err


def _respelled(workdir, name):
    """Another spelling of workdir/name, so that only a same-file check can match it."""
    return f"{workdir}/../{workdir.name}/./{name}"


class TestOutputNamesAnInput:
    @pytest.mark.parametrize("flag", ["--out", "--report"])
    @pytest.mark.parametrize("name", ["db.txt", "eut.txt"])
    def test_mine_output_is_an_input(self, workdir, capsys, flag, name):
        args = _mine_args(workdir) + [flag, _respelled(workdir, name)]
        assert main(args) == 1
        assert "name the same file" in capsys.readouterr().err
        assert (workdir / "db.txt").read_text(encoding="utf-8") == RUNNING_DB_TEXT
        assert (workdir / "eut.txt").read_text(encoding="utf-8") == RUNNING_EUT_TEXT
        assert not (workdir / "out.txt").exists()

    def test_mine_out_is_report(self, workdir, capsys):
        assert main(_mine_args(workdir) + ["--report", _respelled(workdir, "out.txt")]) == 1
        assert "--report and --out name the same file" in capsys.readouterr().err
        assert not (workdir / "out.txt").exists()

    @pytest.mark.parametrize("name", ["db.txt", "eut.txt"])
    def test_bench_report_is_an_input(self, workdir, capsys, name):
        args = ["bench", str(workdir / "db.txt"), str(workdir / "eut.txt"), "--xi", "0.5",
                "--report", _respelled(workdir, name)]
        assert main(args) == 1
        assert "name the same file" in capsys.readouterr().err
        assert (workdir / "db.txt").read_text(encoding="utf-8") == RUNNING_DB_TEXT
        assert (workdir / "eut.txt").read_text(encoding="utf-8") == RUNNING_EUT_TEXT

    def test_gen_outputs_are_one_file(self, tmp_path, capsys):
        args = ["gen", str(tmp_path / "same.txt"), _respelled(tmp_path, "same.txt"), "--sequences", "2"]
        assert main(args) == 1
        assert "EUT_OUT and DB_OUT name the same file" in capsys.readouterr().err
        assert not (tmp_path / "same.txt").exists()


class TestCollector:
    def test_one_pause_for_the_whole_command(self, workdir, monkeypatch):
        import gc

        import hucsp.cli as cli_module

        enabled_in_mine = []
        inner = cli_module.mine

        def recording(*args, **kwargs):
            enabled_in_mine.append(gc.isenabled())
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli_module, "mine", recording)
        assert gc.isenabled()
        assert main(_mine_args(workdir)) == 0
        assert enabled_in_mine == [False]
        assert gc.isenabled()
        (workdir / "db.txt").write_text("a:1 -1\n", encoding="utf-8")
        assert main(_mine_args(workdir)) == 1
        assert gc.isenabled()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, workdir, capsys):
        assert main(_mine_args(workdir) + ["--bogus"]) == 1

    def test_missing_required_flag(self, workdir):
        assert main(["mine", str(workdir / "db.txt"), str(workdir / "eut.txt")]) == 1

    def test_bad_max_len(self, workdir):
        assert main(_mine_args(workdir, "out.txt", "--max-len", "0")) == 1


class TestCheck:
    def test_agreement(self, workdir, capsys):
        args = ["check", str(workdir / "db.txt"), str(workdir / "eut.txt"), "--xi", "0.25"]
        assert main(args) == 0
        assert "check ok" in capsys.readouterr().out

    def test_detects_a_broken_miner(self, workdir, monkeypatch, capsys):
        import hucsp.miner as miner_module

        # flipped comparison: prune exactly what should be kept
        def flipped(bounds, threshold):
            return sorted(item for item, ieu in bounds.items() if not threshold.admits(ieu))

        monkeypatch.setattr(miner_module, "luip_admits", flipped)
        args = ["check", str(workdir / "db.txt"), str(workdir / "eut.txt"), "--xi", "0.25"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "mismatch" in err and "reference" in err

    def test_bad_threshold_is_refused_before_any_file_is_read(self, workdir, capsys):
        args = ["check", str(workdir / "nope.txt"), str(workdir / "eut.txt"), "--xi", "abc"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "invalid threshold 'abc'" in err and "nope.txt" not in err

    def test_oracle_cap_exits_3(self, workdir, capsys):
        args = [
            "check",
            str(workdir / "db.txt"),
            str(workdir / "eut.txt"),
            "--xi",
            "0.25",
            "--oracle-cap",
            "10",
        ]
        assert main(args) == 3
        assert "cap" in capsys.readouterr().err

    def test_mismatches_follow_the_results_file_order(self, workdir, monkeypatch, capsys):
        # At xi 0 every pattern is a result.  <{a b}> has one itemset, as <{b}>
        # has, but two items, so the canonical order puts it after <{b}>.
        assert main(_mine_args(workdir, "out.txt", "--xi", "0")) == 0
        capsys.readouterr()
        written = (workdir / "out.txt").read_text(encoding="utf-8").splitlines()
        monkeypatch.setattr(cli, "mine", lambda db, eut, config: ([], None))
        assert main(["check", str(workdir / "db.txt"), str(workdir / "eut.txt"), "--xi", "0"]) == 2
        reported = [
            line.removeprefix("mismatch: ").split(" miner=None reference=")
            for line in capsys.readouterr().err.splitlines()
        ]
        assert [f"{p} #UTIL: {u}" for p, u in reported] == written


class TestGen:
    def test_writes_parseable_deterministic_files(self, tmp_path):
        from hucsp.dataio import parse_database, validate

        args = [
            "gen",
            str(tmp_path / "db.txt"),
            str(tmp_path / "eut.txt"),
            "--sequences",
            "1000",
            "--seed",
            "7",
        ]
        assert main(args) == 0
        db_text = (tmp_path / "db.txt").read_bytes()
        eut_text = (tmp_path / "eut.txt").read_bytes()
        db, eut = parse_database(db_text.decode(), eut_text.decode())
        assert len(db.sequences) == 1000
        assert validate(db, eut) == []
        assert main(args) == 0
        assert (tmp_path / "db.txt").read_bytes() == db_text
        assert (tmp_path / "eut.txt").read_bytes() == eut_text

    def test_rejects_zero_sequences(self, tmp_path, capsys):
        args = [
            "gen",
            str(tmp_path / "db.txt"),
            str(tmp_path / "eut.txt"),
            "--sequences",
            "0",
        ]
        assert main(args) == 1
        assert "sequence_count must be >= 1" in capsys.readouterr().err


class TestBench:
    def test_one_report_line_per_threshold(self, workdir, capsys):
        args = [
            "bench",
            str(workdir / "db.txt"),
            str(workdir / "eut.txt"),
            "--xi",
            "0.05,0.25,0.5",
        ]
        assert main(args) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["xi"] for r in lines] == ["0.05", "0.25", "0.5"]
        assert all(r["command"] == "bench" for r in lines)
        candidates = [r["stats"]["candidates"] for r in lines]
        assert candidates == sorted(candidates, reverse=True)

    def test_empty_threshold_list(self, workdir, capsys):
        args = ["bench", str(workdir / "db.txt"), str(workdir / "eut.txt"), "--xi", ","]
        assert main(args) == 1
        assert "no thresholds" in capsys.readouterr().err


    @pytest.mark.parametrize("xis", ["0.5,abc", "0.5,1e-1", "0.5,1.5"])
    def test_bad_threshold_anywhere_in_the_list(self, workdir, capsys, xis):
        report = workdir / "report.jsonl"
        args = ["bench", str(workdir / "db.txt"), str(workdir / "eut.txt"), "--xi", xis,
                "--report", str(report)]
        assert main(args) == 1
        assert "threshold" in capsys.readouterr().err
        assert not report.exists()


class TestModuleEntryPoint:
    def test_python_dash_m(self, workdir):
        out = workdir / "sub.txt"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "hucsp",
                "mine",
                str(workdir / "db.txt"),
                str(workdir / "eut.txt"),
                "--xi",
                "0.25",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8") == "a -1 c -1 #UTIL: 36\nb f -1 #UTIL: 27\n"
        json.loads(proc.stdout)  # the report line


    def test_import_loads_no_dataclasses(self):
        # Each run pays for what importing the CLI loads: dataclasses brings
        # inspect, ast, dis and tokenize along, about 1 MiB and 10 ms on
        # CPython 3.11.
        script = "import sys, hucsp.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_leaves_out_the_reference_path(self):
        # Only check needs oracle; mine, gen and bench never compile or load it.
        script = "import sys, hucsp.cli\nprint('hucsp.oracle' in sys.modules)\n"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


# -h and --help are left out: argparse answers them by raising SystemExit(0)
# after printing the help, which is their documented use.
_COMMANDS = ("mine", "check", "gen", "bench")
_FLAGS = (
    "--xi", "--out", "--no-guip", "--no-luip", "--max-len", "--assert-bounds", "--report",
    "--oracle-cap", "--sequences", "--distinct-items", "--max-itemsets", "--max-itemset-size",
    "--max-quantity", "--max-weight", "--seed",
)
_PATHS = ("db.txt", "eut.txt", "missing.txt", "subdir")
# Numbers have at most 2 digits, so that gen writes at most a few MB.
_VALUES = st.one_of(
    st.sampled_from((*_PATHS, "abc", "1/0", "1e-3", ",", "", "0.5")),
    st.integers(0, 99).map(str),
)
_TOKENS = st.sampled_from(_COMMANDS + _FLAGS) | _VALUES
_REQUIRED = {"mine": ("--xi", "--out"), "check": ("--xi",), "gen": ("--sequences",), "bench": ("--xi",)}


@st.composite
def _shaped_argv(draw):
    """A subcommand, two paths and its required flags, then more flags; a value after each flag."""
    command = draw(st.sampled_from(_COMMANDS))
    paths = st.sampled_from(_PATHS)
    argv = [command, *draw(st.just(_PATHS[:2]) | st.tuples(paths, paths))]
    flags = _REQUIRED[command] + tuple(draw(st.lists(st.sampled_from(_FLAGS), max_size=2)))
    for flag in flags[: (10 - len(argv)) // 2]:
        argv += [flag, draw(_VALUES)]
    return argv


class TestArgvFuzz:
    @settings(max_examples=150)
    @given(st.one_of(st.lists(_TOKENS, max_size=10), _shaped_argv()))
    def test_any_argv_ends_in_a_documented_exit_code(self, argv):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            # Relative names, including the files gen writes, stay in this example's directory.
            os.chdir(work)
            try:
                with open("db.txt", "w", encoding="utf-8") as f:
                    f.write("a:1 b:2 -1 a:3 -1 -2\n")
                with open("eut.txt", "w", encoding="utf-8") as f:
                    f.write("a 2\nb 1\n")
                os.mkdir("subdir")
                assert main(argv) in (0, 1, 2, 3)
            finally:
                os.chdir(cwd)
