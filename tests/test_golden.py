"""Byte-for-byte golden tests of the command line's stdout.

Each case runs ``dispatch`` in process and compares its stdout with a frozen
file in ``tests/golden/``.  The ``--out`` cases (a sweep and one compare) also
compare the records file they write, with every ``timestamp`` value blanked:
once after parsing and re-dumping each line, and once as raw bytes with each
timestamp value replaced textually by ``""``, which pins the writer's own
bytes.

Fixtures are written once and never edited; to add a case, add it to CASES
and run ``PYTHONPATH=src python tests/test_golden.py``, which writes only the
fixtures that do not exist yet.
"""

import json
from pathlib import Path

import pytest

from dlcensus.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for command in ("count", "predict", "compare"):
        for fmt in ("text", "csv", "json"):
            for p in ("7", "13"):
                for eq in ("fp", "ha", "tc", "all"):
                    cases[f"{command}-p{p}-{eq}.{fmt}"] = [
                        command, "--prime", p, "--equation", eq, "--format", fmt]
            cases[f"{command}-p100057-all.{fmt}"] = [
                command, "--prime", "100057", "--equation", "all", "--format", fmt]
    for p in ("7", "13", "100057"):
        for digits in ("0", "5"):
            cases[f"predict-p{p}-all-digits{digits}.text"] = [
                "predict", "--prime", p, "--equation", "all", "--digits", digits]
    # The tc kernel at the scale it is tuned for: many small buckets (n = 6q)
    # on one thread, and large buckets (tau(n) = 252) split over two.
    for p, threads in (("1000003", "1"), ("1108801", "2")):
        cases[f"count-p{p}-all-threads{threads}.json"] = [
            "count", "--prime", p, "--equation", "all", "--format", "json",
            "--threads", threads]
    return cases


CASES = _cases()
# Cases run with --out FILE: fixture stem -> argv; stdout goes to <stem>.stdout
# and the records file, timestamps blanked, to <stem>.jsonl.
OUT_CASES = {
    "sweep-start1000-count3": ["sweep", "--start", "1000", "--count", "3", "--threads", "1"],
    "compare-p100057-all-out": ["compare", "--prime", "100057", "--equation", "all"],
}


def _stdout(capsysbinary, argv: list[str]) -> bytes:
    code = dispatch(argv)
    out = capsysbinary.readouterr().out
    assert code == 0, argv
    return out


def _blank_timestamps(jsonl: bytes) -> bytes:
    lines = []
    for line in jsonl.decode().splitlines():
        record = json.loads(line)
        record["timestamp"] = ""
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


def _blank_timestamps_textually(jsonl: bytes) -> bytes:
    """The raw bytes with each timestamp value replaced, as text, by ""."""
    for stamp in {json.loads(line)["timestamp"] for line in jsonl.splitlines()}:
        jsonl = jsonl.replace(f'"timestamp":{json.dumps(stamp)}'.encode(),
                              b'"timestamp":""')
    return jsonl


@pytest.mark.parametrize("name", sorted(CASES) + sorted(OUT_CASES))
def test_stdout_matches_golden(name, capsysbinary, tmp_path):
    if name in CASES:
        assert _stdout(capsysbinary, CASES[name]) == (GOLDEN / name).read_bytes()
        return
    out_file = tmp_path / "records.jsonl"
    stdout = _stdout(capsysbinary, OUT_CASES[name] + ["--out", str(out_file)])
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    written = out_file.read_bytes()
    golden = (GOLDEN / f"{name}.jsonl").read_bytes()
    assert _blank_timestamps(written) == golden
    assert _blank_timestamps_textually(written) == golden


def _write_missing_fixtures() -> None:
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)

    def run(argv: list[str]) -> bytes:
        buffer = io.BytesIO()
        text = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
        with contextlib.redirect_stdout(text):
            assert dispatch(argv) == 0, argv
        return buffer.getvalue()

    for name, argv in CASES.items():
        if not (GOLDEN / name).exists():
            (GOLDEN / name).write_bytes(run(argv))
    for name, argv in OUT_CASES.items():
        stdout_file = GOLDEN / f"{name}.stdout"
        if stdout_file.exists():
            continue
        with tempfile.TemporaryDirectory() as tmp:
            out_file = Path(tmp) / "records.jsonl"
            stdout_file.write_bytes(run(argv + ["--out", str(out_file)]))
            (GOLDEN / f"{name}.jsonl").write_bytes(
                _blank_timestamps(out_file.read_bytes()))


if __name__ == "__main__":
    _write_missing_fixtures()
