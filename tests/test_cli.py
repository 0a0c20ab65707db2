"""Command-line behavior: files, reports, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import RUNNING_DB_TEXT, RUNNING_EUT_TEXT
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

    def test_parse_error_has_position(self, workdir, capsys):
        (workdir / "db.txt").write_text("a:1 -1\n", encoding="utf-8")
        assert main(_mine_args(workdir)) == 1
        assert "line 1, column 7" in capsys.readouterr().err

    def test_assert_bounds_failure_exits_2(self, workdir, monkeypatch, capsys):
        import hucsp.miner as miner_module

        monkeypatch.setattr(miner_module, "ichain_pattern_utility", lambda chain: 10**9)
        assert main(_mine_args(workdir, "out.txt", "--assert-bounds")) == 2
        assert "assertion failed" in capsys.readouterr().err


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
        monkeypatch.setattr(
            miner_module, "luip_admits", lambda ieu, threshold: threshold.rejects(ieu)
        )
        args = ["check", str(workdir / "db.txt"), str(workdir / "eut.txt"), "--xi", "0.25"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "mismatch" in err and "reference" in err

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
