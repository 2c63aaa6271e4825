import csv
import dataclasses
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlcensus.census import (
    Equation,
    build_ha_buckets,
    census_all,
    count_fp,
    count_ha,
    count_tc,
)
from dlcensus.errors import InvalidInputError, MalformedRecordError
from dlcensus.numtheory import prime_context
from dlcensus.predictor import predict_matrix
from dlcensus.report import (
    ResultRecord,
    append_records,
    compare,
    cross_equation_checks,
    format_fraction,
    read_records,
    records_from_report,
    render,
    render_counts,
    render_predictions,
)
from dlcensus.residue_tables import CLASSES, build_tables, class_counts

ANY, PR, RP, RPPR = CLASSES

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _comparison_records(p: int, timestamp: str = "t") -> list[ResultRecord]:
    """The records of a full comparison at p: one per written name combination."""
    tables = build_tables(p)
    observed, ctx, counts = census_all(tables), prime_context(p), class_counts(tables)
    return [record for eq in Equation for record in records_from_report(
        compare(observed[eq], predict_matrix(eq, ctx), counts), timestamp)]


def _record_lines(count: int) -> list[str]:
    """count distinct valid record lines."""
    return [ResultRecord(13, "fp", "total", "ANY", "ANY", k, None, None, "t").to_json_line()
            for k in range(count)]


# Strings with quotes, backslashes, control and non-ASCII characters.
texts = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600a') | st.characters())
big_ints = st.integers(-2**200, 2**200)
predictions = st.none() | st.tuples(big_ints, st.integers(1, 2**200))
any_records = st.builds(
    ResultRecord, p=big_ints, equation=texts, part=texts, row_class=texts, col_class=texts,
    observed=big_ints, predicted_num=st.none() | big_ints, predicted_den=st.none() | big_ints,
    timestamp=texts, schema_version=big_ints)
valid_records = st.builds(
    lambda template, p, observed, predicted, timestamp: dataclasses.replace(
        template, p=p, observed=observed, predicted_num=predicted and predicted[0],
        predicted_den=predicted and predicted[1], timestamp=timestamp),
    st.sampled_from(_comparison_records(13)), st.sampled_from([2, 13, 1000003, 2**61 - 1]),
    st.integers(0, 2**200), predictions, texts)


@pytest.fixture(scope="module")
def p13():
    t = build_tables(13)
    b = build_ha_buckets(t)
    fp = count_fp(t)
    ha = count_ha(b, t)
    tc = count_tc(b, t, fp)
    ctx = prime_context(13)
    counts = class_counts(t)
    return {"t": t, "fp": fp, "ha": ha, "tc": tc, "ctx": ctx, "counts": counts}


class TestFormatFraction:
    def test_mixed_precisions_of_reference_values(self):
        ctx = prime_context(100057)
        phi2_n = Fraction(ctx.phi**2, ctx.n)
        phi3_n2 = Fraction(ctx.phi**3, ctx.n**2)
        assert format_fraction(phi2_n, 3) == "9139.458"
        assert format_fraction(phi2_n, 2) == "9139.46"
        assert format_fraction(phi2_n, 1) == "9139.5"
        assert format_fraction(phi3_n2, 3) == "2762.225"
        assert format_fraction(phi3_n2, 2) == "2762.23"

    def test_rounds_half_away_from_zero(self):
        assert format_fraction(Fraction(5, 2), 0) == "3"
        assert format_fraction(Fraction(-5, 2), 0) == "-3"
        assert format_fraction(Fraction(1, 8), 2) == "0.13"
        assert format_fraction(Fraction(-1, 8), 2) == "-0.13"
        assert format_fraction(Fraction(25, 1000), 2) == "0.03"

    def test_pads_fractional_zeros(self):
        assert format_fraction(Fraction(3), 3) == "3.000"
        assert format_fraction(Fraction(1, 2), 3) == "0.500"

    def test_rejects_negative_digits(self):
        with pytest.raises(InvalidInputError):
            format_fraction(Fraction(1), -1)


class TestCompare:
    def test_fp_cells_and_claims(self, p13):
        rep = compare(p13["fp"], predict_matrix(Equation.FP, p13["ctx"]), p13["counts"])
        assert len(rep.cells) == 16
        cell = next(c for c in rep.cells if (c.row, c.col) == (ANY, ANY))
        assert cell.observed == p13["fp"].entry("total", ANY, ANY)
        assert cell.predicted == 12
        assert cell.ratio == cell.observed / 12
        assert rep.all_claims_pass
        names = {c.name for c in rep.claims}
        assert "fp_prop1_any_rp_is_phi" in names

    def test_ha_total_prediction_adds_exact_trivial(self, p13):
        rep = compare(p13["ha"], predict_matrix(Equation.HA, p13["ctx"]), p13["counts"])
        nontrivial = {(c.row, c.col): c for c in rep.cells if c.part == "nontrivial"}
        total = {(c.row, c.col): c for c in rep.cells if c.part == "total"}
        for key, cell in total.items():
            expected = nontrivial[key].predicted + p13["counts"].intersection(*key)
            assert cell.predicted == expected
        trivial = [c for c in rep.cells if c.part == "trivial"]
        assert all(c.predicted is None for c in trivial)
        assert rep.all_claims_pass

    def test_tc_cells_include_ord_row(self, p13):
        rep = compare(p13["tc"], predict_matrix(Equation.TC, p13["ctx"]), p13["counts"])
        ord_cells = [c for c in rep.cells if c.row.value == "ORD"]
        assert len(ord_cells) == 12  # 4 columns x 3 parts
        assert rep.all_claims_pass

    def test_rejects_mismatched_inputs(self, p13):
        with pytest.raises(InvalidInputError):
            compare(p13["fp"], predict_matrix(Equation.HA, p13["ctx"]), p13["counts"])
        other = prime_context(11)
        with pytest.raises(InvalidInputError):
            compare(p13["fp"], predict_matrix(Equation.FP, other), p13["counts"])

    @bounded
    @given(st.integers(0, 2**200), st.integers(1, 2**200), st.integers(1, 2**200))
    @example(0, 1, 1)
    @example(0, 2**200, 3)
    @example(2**200, 1, 2**200 - 1)
    def test_int_true_division_matches_fraction(self, observed, num, den):
        assert observed * den / num == float(Fraction(observed) / Fraction(num, den))

    @bounded
    @given(st.integers(1, 2**200), st.integers(1, 2**200))
    def test_ratio_of_any_prediction(self, p13, num, den):
        pm = predict_matrix(Equation.FP, p13["ctx"])
        value = Fraction(num, den)
        pm = dataclasses.replace(pm, values=tuple((value,) * len(row) for row in pm.values))
        for cell in compare(p13["fp"], pm, p13["counts"]).cells:
            assert cell.ratio == float(Fraction(cell.observed) / value)

    def test_compare_is_pure(self, p13):
        pm = predict_matrix(Equation.HA, p13["ctx"])
        first = compare(p13["ha"], pm, p13["counts"])
        second = compare(p13["ha"], pm, p13["counts"])
        assert first == second


class TestCrossEquationChecks:
    def test_all_pass_on_real_census(self, p13):
        claims = cross_equation_checks(p13["ha"], p13["tc"])
        assert claims and all(c.passed for c in claims)

    def test_failure_carries_both_values(self, p13):
        import dataclasses
        import numpy as np
        broken = np.array(p13["tc"].counts, copy=True)
        broken[1, 0, 2] += 1
        tampered = dataclasses.replace(p13["tc"], counts=broken)
        claims = cross_equation_checks(p13["ha"], tampered)
        failed = [c for c in claims if not c.passed]
        assert failed
        assert failed[0].lhs != failed[0].rhs

    def test_rejects_wrong_equations(self, p13):
        with pytest.raises(InvalidInputError):
            cross_equation_checks(p13["tc"], p13["ha"])


class TestRender:
    def test_text_contains_observed_table(self, p13):
        rep = compare(p13["fp"], predict_matrix(Equation.FP, p13["ctx"]), p13["counts"])
        text = render(rep, "text").decode()
        assert "[total] observed" in text
        assert "g \\ h" in text
        assert "PASS" in text

    @pytest.mark.parametrize("kind", ["comparison", "counts", "predictions"])
    def test_csv_and_json_numeric_content_identical(self, p13, kind):
        pm = predict_matrix(Equation.TC, p13["ctx"])
        rep = compare(p13["tc"], pm, p13["counts"])
        write, cells = {"comparison": (lambda fmt: render(rep, fmt), len(rep.cells)),
                        "counts": (lambda fmt: render_counts(p13["tc"], fmt), 3 * 20),
                        "predictions": (lambda fmt: render_predictions(pm, fmt), 20)}[kind]
        rows = list(csv.DictReader(io.StringIO(write("csv").decode())))
        parsed = json.loads(write("json").decode())
        assert len(rows) == cells
        for row in rows:
            is_ord = row["row_class"] == "ORD"
            if kind == "predictions":
                section = parsed["ord_row"] if is_ord else parsed["grid"]
            else:
                section = (parsed["ord_row"] if is_ord else parsed["parts"])[row["part"]]
            cell = section[row["col_class"]] if is_ord else \
                section[row["row_class"]][row["col_class"]]
            if kind == "counts":
                cell = {"observed": cell, "predicted_num": None}
            elif kind == "predictions":
                cell = {"observed": None, "predicted_num": cell["num"],
                        "predicted_den": cell["den"], "ratio": None}
            assert cell["observed"] == (int(row["observed"]) if row["observed"] else None)
            if row["predicted_num"] == "":
                assert cell["predicted_num"] is None
            else:
                assert cell["predicted_num"] == int(row["predicted_num"])
                assert cell["predicted_den"] == int(row["predicted_den"])
                assert cell["ratio"] == (float(row["ratio"]) if row["ratio"] else None)

    def test_unknown_format_rejected(self, p13):
        rep = compare(p13["fp"], predict_matrix(Equation.FP, p13["ctx"]), p13["counts"])
        with pytest.raises(InvalidInputError):
            render(rep, "yaml")

    def test_render_counts_formats(self, p13):
        json_bytes = render_counts(p13["tc"], "json")
        payload = json.loads(json_bytes.decode())
        assert payload["parts"]["total"]["ANY"]["ANY"] == \
            p13["tc"].entry("total", ANY, ANY)
        text = render_counts(p13["tc"], "text").decode()
        assert "[nontrivial]" in text
        rows = list(csv.DictReader(io.StringIO(render_counts(p13["tc"], "csv").decode())))
        assert len(rows) == 3 * (16 + 4)

    def test_render_predictions_formats(self, p13):
        pm = predict_matrix(Equation.HA, p13["ctx"])
        payload = json.loads(render_predictions(pm, "json").decode())
        assert payload["part"] == "nontrivial"
        assert payload["grid"]["PR"]["RP"]["num"] is not None
        text = render_predictions(pm, "text", digits=2).decode()
        assert "[predicted]" in text


class TestPersistence:
    def test_round_trip(self, tmp_path, p13):
        rep = compare(p13["ha"], predict_matrix(Equation.HA, p13["ctx"]), p13["counts"])
        records = records_from_report(rep, "2026-01-01T00:00:00+00:00")
        path = tmp_path / "results.jsonl"
        append_records(path, records[:10])
        append_records(path, records[10:])
        assert read_records(path) == records

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_records(path) == []

    def test_malformed_line_names_line_number(self, tmp_path):
        record = ResultRecord(p=7, equation="fp", part="total", row_class="ANY",
                              col_class="ANY", observed=6, predicted_num=6,
                              predicted_den=1, timestamp="t")
        path = tmp_path / "bad.jsonl"
        path.write_text(record.to_json_line() + "\n"
                        + record.to_json_line() + "\n"
                        + "{not json\n")
        with pytest.raises(MalformedRecordError, match="line 3"):
            read_records(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        line = json.dumps({"schema_version": 99, "p": 7, "equation": "fp",
                           "part": "total", "row_class": "ANY", "col_class": "ANY",
                           "observed": 6, "predicted_num": None,
                           "predicted_den": None, "timestamp": "t"})
        path = tmp_path / "v99.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MalformedRecordError, match="schema_version"):
            read_records(path)

    @pytest.mark.parametrize("field, value", [
        ("p", "abc"), ("p", True), ("p", 7.0), ("observed", "many"), ("observed", False),
        ("equation", 1), ("part", None), ("row_class", ["ANY"]), ("col_class", 0),
        ("timestamp", 5), ("predicted_num", "6"), ("predicted_num", 6.0),
        ("predicted_den", 0), ("predicted_den", -1), ("predicted_den", True),
        ("predicted_num", None), ("predicted_den", None), ("schema_version", True),
        ("equation", "zz"), ("equation", "FP"), ("part", "bogus"), ("row_class", "NOPE"),
        ("row_class", "any"), ("col_class", "ORD"), ("observed", -6),
        ("p", -5), ("p", 8), ("row_class", "ORD"),
        pytest.param("row_class", {"equation": "ha", "row_class": "ORD"}, id="row_class-ha-ORD"),
        ("part", "trivial"),
    ])
    def test_wrong_field_type_rejected(self, tmp_path, field, value):
        raw = {"schema_version": 1, "p": 7, "equation": "fp", "part": "total",
               "row_class": "ANY", "col_class": "ANY", "observed": 6,
               "predicted_num": 6, "predicted_den": 1, "timestamp": "t"}
        changed = value if isinstance(value, dict) else {field: value}
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(raw) + "\n" + json.dumps({**raw, **changed}) + "\n")
        with pytest.raises(MalformedRecordError, match=f"line 2: .*{field}"):
            read_records(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"schema_version": 1, "p": 7}) + "\n")
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_records(path)


class TestRecordLines:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(any_records)
    @example(ResultRecord(2**100, 'q"uo\\te', "\x00\x1f", "\u00e9\u2028", "\U0001f600", -1,
                          None, -(2**200), '2026-01-01T00:00:00+00:00"\n', 1))
    def test_line_is_json_dumps(self, record):
        fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        assert record.to_json_line() == json.dumps(fields, sort_keys=True,
                                                   separators=(",", ":"))

    @bounded
    @given(st.lists(valid_records, max_size=30))
    def test_records_survive_the_round_trip(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            append_records(path, records)
            assert read_records(path) == records

    def test_read_back_records_are_frozen_and_share_values(self, tmp_path):
        records = _comparison_records(13, "2026-01-01T00:00:00+00:00")
        path = tmp_path / "records.jsonl"
        append_records(path, records)
        back = read_records(path)
        assert back == records
        with pytest.raises(dataclasses.FrozenInstanceError):
            back[0].observed = 1
        assert back[0].timestamp is back[-1].timestamp
        assert back[0].equation is back[1].equation


class TestBatchedReader:
    @pytest.mark.parametrize("position", [1, 1024, 1025, 2048, 2049, 2500])
    @pytest.mark.parametrize("bad, message", [
        ("{not json", "not valid JSON"),
        ('{"schema_version": 1}', "unexpected record fields"),
        ("[1, 2]", "record is not an object"),
    ])
    def test_bad_line_names_its_line(self, tmp_path, position, bad, message):
        lines = _record_lines(2500)
        lines[position - 1] = bad
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError, match=f"^line {position}: {message}"):
            read_records(path)

    def test_first_bad_line_of_a_batch_is_named(self, tmp_path):
        lines = _record_lines(1500)
        lines[1099] = lines[1099].replace('"p":13', '"p":8')
        lines[1199] = "{not json"
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError, match="^line 1100: p must be a prime"):
            read_records(path)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        lines = []
        for line in _record_lines(1200):
            lines += [line, "", "  \t "] if len(lines) % 5 == 0 else [line]
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert [r.observed for r in read_records(path)] == list(range(1200))
        position = max(i for i, line in enumerate(lines) if line.strip()) - 3
        assert lines[position - 1].strip()
        lines[position - 1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError, match=f"^line {position}: "):
            read_records(path)

    @pytest.mark.parametrize("line, message", [
        ("{line}, {line}", "not valid JSON"),
        ("[{line}]", "record is not an object"),
    ])
    def test_one_object_per_line(self, tmp_path, line, message):
        first, second = _record_lines(2)
        path = tmp_path / "records.jsonl"
        path.write_text(first + "\n" + line.format(line=second) + "\n")
        with pytest.raises(MalformedRecordError, match=f"^line 2: {message}"):
            read_records(path)

    def test_record_split_across_lines_rejected(self, tmp_path):
        first, second, third = _record_lines(3)
        head, tail = first.split(',"p":')
        path = tmp_path / "records.jsonl"
        path.write_text(f'{head}\n"p":{tail}\n{second}, {third}\n')
        with pytest.raises(MalformedRecordError, match="^line 1: not valid JSON"):
            read_records(path)
