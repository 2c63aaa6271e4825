import csv
import io
import json
from fractions import Fraction

import pytest

from dlcensus.census import Equation, build_ha_buckets, count_fp, count_ha, count_tc
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
    ])
    def test_wrong_field_type_rejected(self, tmp_path, field, value):
        raw = {"schema_version": 1, "p": 7, "equation": "fp", "part": "total",
               "row_class": "ANY", "col_class": "ANY", "observed": 6,
               "predicted_num": 6, "predicted_den": 1, "timestamp": "t"}
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(raw) + "\n" + json.dumps({**raw, field: value}) + "\n")
        with pytest.raises(MalformedRecordError, match=f"line 2: .*{field}"):
            read_records(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"schema_version": 1, "p": 7}) + "\n")
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_records(path)
