import json

from dlcensus import cli
from dlcensus.cli import dispatch
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
