import json

import pytest

from dlcensus import cli, report
from dlcensus.cli import dispatch
from dlcensus.errors import InvalidInputError
from dlcensus.report import read_records


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_composite_prime_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "count", "--prime", "100058", "--equation", "fp")
        assert code == 2
        assert "not prime" in err

    def test_out_of_range_prime(self, capsys):
        code, _, err = run(capsys, "count", "--prime", str(2**41), "--equation", "fp")
        assert code == 2

    def test_usage_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "count", "--prime", "7")  # missing --equation
        assert code == 1
        code, _, _ = run(capsys, "count", "--prime", "7", "--equation", "fp",
                         "--format", "yaml")
        assert code == 1
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_zero_threads_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "count", "--prime", "7", "--equation", "fp",
                         "--threads", "0")
        assert code == 1

    def test_malformed_thread_variable_is_usage_error(self, capsys, monkeypatch):
        for value in ("abc", "0", "-2", ""):
            monkeypatch.setenv("DLCENSUS_THREADS", value)
            code, out, err = run(capsys, "count", "--prime", "7", "--equation", "fp")
            assert code == 1, value
            assert "DLCENSUS_THREADS" in err and out == ""


class TestFailFast:
    """Errors the CLI can detect up front come before any census work, so
    stdout stays empty."""

    @staticmethod
    def forbid_census(monkeypatch):
        def census(*args, **kwargs):
            raise AssertionError("census started")
        monkeypatch.setattr(cli, "build_tables", census)
        monkeypatch.setattr(cli.census, "census_all", census)
        monkeypatch.setattr(cli, "prime_context", census)

    @pytest.mark.parametrize("argv", [
        ["count", "--prime", "1000003", "--equation", "all"],
        ["compare", "--prime", "1000003"],
        ["sweep", "--start", "1000000", "--count", "2", "--out", "{tmp}/x.jsonl"],
        ["oracle-check", "--max-prime", "31"],
    ])
    def test_memory_preflight_refuses(self, capsys, monkeypatch, tmp_path, argv):
        self.forbid_census(monkeypatch)
        monkeypatch.setattr(cli, "_available_memory", lambda: 1 << 10)
        code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
        assert code == 2
        assert "MiB" in err and out == ""
        assert not (tmp_path / "x.jsonl").exists()

    def test_memory_preflight_uses_largest_prime(self, capsys, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(cli, "_require_memory", lambda p, threads: seen.append(p))
        monkeypatch.setattr(cli, "_compare_prime", lambda p, eqs, threads: ([], (), []))
        code, _, _ = run(capsys, "sweep", "--start", "1000", "--count", "3",
                         "--out", str(tmp_path / "x.jsonl"))
        assert code == 0
        assert seen == [1019]  # once, for 1009, 1013 and 1019

    def test_preflight_estimate(self, monkeypatch):
        monkeypatch.setattr(cli, "_available_memory", lambda: None)
        cli._require_memory(2**31 - 1, 2)  # no reading, no refusal
        needed = cli.BYTES_PER_RESIDUE * 1000003 + cli.WORKER_ALLOWANCE
        monkeypatch.setattr(cli, "_available_memory", lambda: needed)
        cli._require_memory(1000003, 1)
        monkeypatch.setattr(cli, "_available_memory", lambda: needed - 1)
        with pytest.raises(InvalidInputError):
            cli._require_memory(1000003, 1)

    def test_available_memory_reading(self):
        available = cli._available_memory()
        assert available is None or available > 0

    def test_memory_error_is_exit_2(self, capsys, monkeypatch):
        def build_tables(p, workers=1):
            raise MemoryError("Unable to allocate 8.00 GiB")
        monkeypatch.setattr(cli, "build_tables", build_tables)
        code, out, err = run(capsys, "count", "--prime", "1000003", "--equation", "fp")
        assert code == 2
        assert "out of memory" in err and out == ""

    def test_compare_unwritable_out(self, capsys, monkeypatch, tmp_path):
        self.forbid_census(monkeypatch)
        code, out, err = run(capsys, "compare", "--prime", "13",
                             "--out", str(tmp_path / "missing" / "r.jsonl"))
        assert code == 2
        assert "i/o failure" in err and out == ""

    @pytest.mark.parametrize("command", ["compare", "predict"])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_negative_digits_is_usage_error(self, capsys, monkeypatch, command, fmt):
        self.forbid_census(monkeypatch)
        code, out, err = run(capsys, command, "--prime", "13", "--digits", "-1",
                             "--format", fmt)
        assert code == 1
        assert "--digits" in err and out == ""

    @pytest.mark.parametrize("command", ["compare", "predict"])
    def test_digits_above_bound_is_usage_error(self, capsys, monkeypatch, command):
        self.forbid_census(monkeypatch)
        for digits in (cli.MAX_DIGITS + 1, 99999999999):
            code, out, err = run(capsys, command, "--prime", "3", "--digits", str(digits))
            assert code == 1
            assert "--digits" in err and "Traceback" not in err and out == ""

    @pytest.mark.parametrize("command", ["compare", "predict"])
    def test_digits_at_bound(self, capsys, command):
        code, out, _ = run(capsys, command, "--prime", "3", "--digits", str(cli.MAX_DIGITS))
        assert code == 0
        assert "." + "0" * cli.MAX_DIGITS in out

    def test_sweep_unwritable_out(self, capsys, monkeypatch, tmp_path):
        self.forbid_census(monkeypatch)
        code, out, err = run(capsys, "sweep", "--start", "5", "--count", "2",
                             "--out", str(tmp_path / "missing" / "r.jsonl"))
        assert code == 2
        assert "i/o failure" in err and out == ""


class TestThreads:
    def test_resolution_and_clamp(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.delenv("DLCENSUS_THREADS", raising=False)
        assert cli._threads(None) == 3
        assert cli._threads(2) == 2
        assert cli._threads(10**6) == 3
        monkeypatch.setenv("DLCENSUS_THREADS", "2")
        assert cli._threads(None) == 2
        assert cli._threads(1) == 1  # --threads takes precedence
        monkeypatch.setenv("DLCENSUS_THREADS", "500")
        assert cli._threads(None) == 3


class TestCount:
    def test_json_output_p7(self, capsys):
        code, out, _ = run(capsys, "count", "--prime", "7", "--equation", "fp",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["parts"]["total"]["ANY"]["ANY"] == 6
        assert payload["parts"]["total"]["PR"]["PR"] == 1

    def test_all_equations_text(self, capsys):
        code, out, _ = run(capsys, "count", "--prime", "7", "--equation", "all")
        assert code == 0
        assert out.count("equation=") == 3
        assert "g \\ h" in out and "a \\ h" in out

    def test_thread_count_does_not_change_output(self, capsys):
        outputs = set()
        for threads in ("1", "3"):
            code, out, _ = run(capsys, "count", "--prime", "101", "--equation", "all",
                               "--format", "json", "--threads", threads)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


class TestPredict:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "predict", "--prime", "13", "--equation", "ha",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"]["ANY"]["PR"]["num"] == 4  # phi(12) = 4

    def test_defaults_to_all_equations(self, capsys):
        code, out, _ = run(capsys, "predict", "--prime", "13", "--format", "csv")
        assert code == 0
        assert out.count("13,fp,") == 16
        assert out.count("13,tc,") == 20


class TestCompare:
    def test_small_prime_all(self, capsys):
        code, out, _ = run(capsys, "compare", "--prime", "13")
        assert code == 0
        assert "cross-equation claims:" in out
        assert "FAIL" not in out

    def test_runs_only_the_reported_census(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compare --equation fp ran an unreported census")

        monkeypatch.setattr(cli.census, "count_tc", refuse)
        monkeypatch.setattr(cli.census, "build_ha_buckets", refuse)
        code, out, _ = run(capsys, "compare", "--prime", "13", "--equation", "fp")
        assert code == 0
        assert "equation=fp" in out and "FAIL" not in out

    def test_records_written(self, capsys, tmp_path):
        out_file = tmp_path / "records.jsonl"
        code, _, _ = run(capsys, "compare", "--prime", "13", "--out", str(out_file))
        assert code == 0
        records = read_records(out_file)
        # fp: 16 cells; ha: 48; tc: 48 + 12 ord cells
        assert len(records) == 16 + 48 + 60
        assert {r.equation for r in records} == {"fp", "ha", "tc"}
        assert all(r.p == 13 for r in records)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "compare", "--prime", "7", "--equation", "fp",
                           "--format", "csv")
        assert code == 0
        header, first = out.splitlines()[:2]
        assert header == ("p,equation,row_class,col_class,part,observed,"
                          "predicted_num,predicted_den,ratio")
        assert first.startswith("7,fp,ANY,ANY,total,6,6,1,1.0")


class TestSweep:
    def test_three_small_primes(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        code, out, _ = run(capsys, "sweep", "--start", "5", "--count", "3",
                           "--out", str(out_file))
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == \
            ["p=5", "p=7", "p=11"]
        records = read_records(out_file)
        assert {r.p for r in records} == {5, 7, 11}
        assert len(records) == 3 * (16 + 48 + 60)

    def test_one_append_per_prime(self, capsys, tmp_path, monkeypatch):
        sizes = []

        def counted(path, records):
            sizes.append(len(records))
            append(path, records)

        append = report.append_records
        monkeypatch.setattr(report, "append_records", counted)
        code, _, _ = run(capsys, "sweep", "--start", "5", "--count", "3",
                         "--out", str(tmp_path / "sweep.jsonl"))
        assert code == 0
        assert sizes == [16 + 48 + 60] * 3

    def test_bad_start_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--start", "1", "--count", "1",
                           "--out", str(tmp_path / "x.jsonl"))
        assert code == 2


class TestOracleCheck:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-prime", "31")
        assert code == 0
        assert "census equals brute force" in out
        assert "11 primes" in out

    def test_limit_enforced(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--max-prime", "5000")
        assert code == 2


class TestIdentities:
    def test_small_bound(self, capsys):
        code, out, _ = run(capsys, "identities", "--max-n", "60")
        assert code == 0
        assert "sum form == product form" in out

    def test_bad_bound(self, capsys):
        code, _, _ = run(capsys, "identities", "--max-n", "0")
        assert code == 2

    def test_bound_above_limit_fails_before_work(self, capsys, monkeypatch):
        def factorize(n):
            raise AssertionError("identities started")
        monkeypatch.setattr(cli, "factorize", factorize)
        code, out, err = run(capsys, "identities", "--max-n", str(cli.MAX_IDENTITY_N + 1))
        assert code == 2
        assert str(cli.MAX_IDENTITY_N) in err and out == ""
