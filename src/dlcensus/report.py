"""Observed-versus-predicted comparison, exact-claim checks, rendering, and
line-delimited persistence of results.

Counts, predictions and comparisons all serialize as one stream of
CellRecords over the matrix rows (ORD included for tc) and columns: a count
is a cell without a prediction, a prediction a cell without an observation.
One writer per format (text, csv, json) renders every stream.

Exactness lives in the data (integer counts, Fraction predictions); decimal
formatting happens only here, with a configurable number of fractional
digits rounded half away from zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction

from .census import PARTS, CountMatrix, Equation
from .errors import InvalidInputError, MalformedRecordError
from .numtheory import is_prime
from .predictor import FormulaId, PredictionMatrix
from .residue_tables import CLASSES, ROWS, ClassCounts, ConditionClass

SCHEMA_VERSION = 1

_CSV_HEADER = "p,equation,row_class,col_class,part,observed,predicted_num,predicted_den,ratio"


def format_fraction(value: Fraction, digits: int = 3) -> str:
    """Decimal rendering with the given fractional digits, half away from zero."""
    if digits < 0:
        raise InvalidInputError(f"digits must be >= 0, got {digits}")
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**digits
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    if digits == 0:
        return f"{sign}{units}"
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


@dataclass(frozen=True)
class CellRecord:
    """One matrix cell: an observed count, a prediction, or both."""

    part: str
    row: ConditionClass
    col: ConditionClass
    observed: int | None
    formula: FormulaId | None
    predicted: Fraction | None
    ratio: float | None


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of one exact-equality claim; lhs/rhs hold the first compared
    (or first unequal) pair of values."""

    name: str
    passed: bool
    lhs: int
    rhs: int
    description: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    p: int
    equation: Equation
    row_var: str
    cells: tuple[CellRecord, ...]
    claims: tuple[ClaimCheck, ...]

    @property
    def all_claims_pass(self) -> bool:
        return all(c.passed for c in self.claims)


def _claim(name: str, pairs: list[tuple[int, int]], description: str = "") -> ClaimCheck:
    for lhs, rhs in pairs:
        if lhs != rhs:
            return ClaimCheck(name, False, int(lhs), int(rhs), description)
    lhs, rhs = pairs[0]
    return ClaimCheck(name, True, int(lhs), int(rhs), description)


def _cell(part: str, row: ConditionClass, col: ConditionClass, observed: int,
          formula: FormulaId | None, predicted: Fraction | None) -> CellRecord:
    # int true division is correctly rounded: float(Fraction(observed) / predicted)
    ratio = (observed * predicted.denominator / predicted.numerator if predicted
             else None)
    return CellRecord(part, row, col, observed, formula, predicted, ratio)


def _symmetry_pairs(m: CountMatrix) -> list[tuple[int, int]]:
    pairs = []
    for part in PARTS:
        grid = m.part(part)
        for i in range(4):
            for j in range(i + 1, 4):
                pairs.append((int(grid[i, j]), int(grid[j, i])))
    return pairs


def compare(observed: CountMatrix, predicted: PredictionMatrix,
            counts: ClassCounts) -> ComparisonReport:
    """Pair every census cell with its prediction and evaluate exact claims.

    Totals for ha/tc are predicted as nontrivial prediction plus the exact
    trivial count (class intersections for ha, the fp census for tc).
    """
    if observed.p != predicted.p or counts.p != observed.p:
        raise InvalidInputError(
            f"prime mismatch: observed p={observed.p}, predicted p={predicted.p}, "
            f"counts p={counts.p}")
    if observed.equation is not predicted.equation:
        raise InvalidInputError(
            f"equation mismatch: {observed.equation.value} vs {predicted.equation.value}")

    eq = observed.equation
    trivials, nontrivials = observed.counts.tolist()
    intersections = counts.intersections.tolist()
    cells: list[CellRecord] = []
    for i, row in enumerate(observed.rows):
        for j, col in enumerate(CLASSES):
            fid, value = predicted.formulas[i][j], predicted.values[i][j]
            triv, nontriv = trivials[i][j], nontrivials[i][j]
            if eq is Equation.FP:
                cells.append(_cell("total", row, col, triv + nontriv, fid, value))
                continue
            exact_trivial = intersections[i][j] if eq is Equation.HA else triv
            cells.append(_cell("trivial", row, col, triv, None, None))
            cells.append(_cell("nontrivial", row, col, nontriv, fid, value))
            cells.append(_cell("total", row, col, triv + nontriv,
                               fid, None if value is None else value + exact_trivial))

    claims: list[ClaimCheck] = []
    ANY, PR, RP, RPPR = CLASSES
    ent = observed.entry
    if eq is Equation.FP:
        claims.append(_claim("fp_prop1_any_rp_is_phi",
                             [(ent("total", ANY, RP), predicted.phi)],
                             "total(ANY, RP) equals phi(p-1) exactly"))
        claims.append(_claim("fp_h_pr_forces_g_pr",
                             [(ent("total", ANY, PR), ent("total", PR, PR)),
                              (ent("total", RP, PR), ent("total", RPPR, PR)),
                              (ent("total", ANY, RPPR), ent("total", PR, RPPR)),
                              (ent("total", RP, RPPR), ent("total", RPPR, RPPR))],
                             "h PR forces g PR in every fp solution"))
    elif eq is Equation.HA:
        claims.append(_claim("ha_symmetry", _symmetry_pairs(observed),
                             "all three ha matrices are exactly symmetric"))
        claims.append(_claim(
            "ha_trivial_is_class_intersections",
            [(ent("trivial", r, c), intersections[i][j])
             for i, r in enumerate(CLASSES) for j, c in enumerate(CLASSES)],
            "diagonal pairs h = a are counted by class intersections"))
        claims.append(_claim(
            "ha_rppr_forcing",
            [(ent("nontrivial", RPPR, col), ent("nontrivial", RPPR, ANY))
             for col in (PR, RP, RPPR)],
            "h RPPR forces a RPPR, so the RPPR row is constant"))
    else:
        claims.append(_claim("tc_h_pr_forces_g_pr",
                             [(ent("nontrivial", ANY, PR), ent("nontrivial", PR, PR)),
                              (ent("nontrivial", ANY, RPPR), ent("nontrivial", PR, RPPR))],
                             "h PR (or RPPR) forces g PR in every tc solution"))
    return ComparisonReport(p=observed.p, equation=eq, row_var=observed.row_var,
                            cells=tuple(cells), claims=tuple(claims))


def cross_equation_checks(ha: CountMatrix, tc: CountMatrix) -> tuple[ClaimCheck, ...]:
    """Exact correspondences between tc and ha nontrivial counts."""
    if ha.p != tc.p:
        raise InvalidInputError(f"prime mismatch: ha p={ha.p}, tc p={tc.p}")
    if ha.equation is not Equation.HA or tc.equation is not Equation.TC:
        raise InvalidInputError("cross checks need one ha census and one tc census")
    ANY, PR, RP, RPPR = CLASSES
    ORD = ConditionClass.ORD
    ha_n = lambda r, c: ha.entry("nontrivial", r, c)
    tc_n = lambda r, c: tc.entry("nontrivial", r, c)
    rppr_value = tc_n(PR, RPPR)
    return (
        _claim("t4_g_any_h_rp", [(tc_n(ANY, RP), ha_n(ANY, RP))],
               "tc with h RP matches ha with h RP, a ANY"),
        _claim("t4_g_pr_h_rp", [(tc_n(PR, RP), ha_n(PR, RP))],
               "tc with g PR, h RP matches ha with h RP, a PR"),
        _claim("t4_g_pr_h_pr", [(tc_n(PR, PR), ha_n(RP, PR))],
               "tc with g PR, h PR matches ha with h PR, a RP"),
        _claim("t4_rppr_family",
               [(rppr_value, ha_n(ANY, RPPR)), (rppr_value, ha_n(PR, RPPR)),
                (rppr_value, ha_n(RP, RPPR))]
               + [(rppr_value, ha_n(RPPR, col)) for col in CLASSES],
               "every cell touching an RPPR variable agrees across tc and ha"),
        _claim("t4_ord_any", [(tc_n(ORD, ANY), ha_n(RP, ANY))],
               "tc ord row (h ANY) matches ha with a RP"),
        _claim("t4_ord_rp", [(tc_n(ORD, RP), ha_n(RP, RP))],
               "tc ord row (h RP) matches ha with h RP, a RP"),
    )


# --- rendering -------------------------------------------------------------

def claim_lines(title: str, claims) -> str:
    """A titled block with one PASS or FAIL line per claim."""
    lines = [title]
    for claim in claims:
        status = "PASS" if claim.passed else f"FAIL ({claim.lhs} != {claim.rhs})"
        lines.append(f"  {status}  {claim.name}")
    return "\n".join(lines) + "\n"


def _text_table(title: str, row_var: str, rows: dict[ConditionClass, list[str]]) -> list[str]:
    header = [f"{row_var} \\ h"] + [c.value for c in CLASSES]
    labelled = [header] + [[row.value] + cells for row, cells in rows.items()]
    widths = [max(len(r[i]) for r in labelled) for i in range(len(header))]
    lines = [title]
    for r in labelled:
        lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    lines.append("")
    return lines


def _cell_text(cell: CellRecord, field: str, digits: int) -> str:
    value = getattr(cell, field)
    if value is None:
        return "-"
    if field == "predicted":
        return format_fraction(value, digits)
    return f"{value:.4f}" if field == "ratio" else str(value)


# Text tables, each (title, CellRecord field), of the three kinds of cell
# stream; predicted and ratio tables print only for parts with a prediction.
_COMPARISON_VIEWS = (("[{part}] observed", "observed"), ("[{part}] predicted", "predicted"),
                     ("[{part}] observed/predicted", "ratio"))
_COUNT_VIEWS = (("[{part}]", "observed"),)
_PREDICTION_VIEWS = (("[predicted]", "predicted"),)


def _write_text(header: str, row_var: str, cells, views, digits: int) -> str:
    """Header, then one table per part and view with rows in stream order."""
    parts: dict[str, dict] = {}
    for cell in cells:
        parts.setdefault(cell.part, {}).setdefault(cell.row, {})[cell.col] = cell
    lines = [header]
    for part, grid in parts.items():
        predicted = any(c.predicted is not None
                        for by_col in grid.values() for c in by_col.values())
        for title, field in views:
            if field != "observed" and not predicted:
                continue
            rows = {row: [_cell_text(by_col[col], field, digits) for col in CLASSES]
                    for row, by_col in grid.items()}
            lines += _text_table(title.format(part=part), row_var, rows)
    return "\n".join(lines) + "\n"


def _write_csv(p: int, equation: Equation, cells) -> str:
    lines = [_CSV_HEADER]
    for cell in cells:
        observed = "" if cell.observed is None else cell.observed
        num, den = ("", "") if cell.predicted is None else (
            cell.predicted.numerator, cell.predicted.denominator)
        ratio = "" if cell.ratio is None else repr(cell.ratio)
        lines.append(f"{p},{equation.value},{cell.row.value},{cell.col.value},"
                     f"{cell.part},{observed},{num},{den},{ratio}")
    return "\n".join(lines) + "\n"


def _nest(cells, leaf) -> tuple[dict, dict | None]:
    """Leaves keyed part -> row -> col, and the ORD row's keyed part -> col."""
    grid: dict = {}
    ord_row: dict = {}
    for cell in cells:
        if cell.row is ConditionClass.ORD:
            ord_row.setdefault(cell.part, {})[cell.col.value] = leaf(cell)
        else:
            grid.setdefault(cell.part, {}).setdefault(cell.row.value, {})[
                cell.col.value] = leaf(cell)
    return grid, ord_row or None


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _comparison_leaf(cell: CellRecord) -> dict:
    return {
        "observed": cell.observed,
        "formula": cell.formula.value if cell.formula is not None else None,
        "predicted_num": cell.predicted.numerator if cell.predicted is not None else None,
        "predicted_den": cell.predicted.denominator if cell.predicted is not None else None,
        "ratio": cell.ratio,
    }


def _prediction_leaf(cell: CellRecord) -> dict:
    return {"formula": cell.formula.value,
            "num": cell.predicted.numerator if cell.predicted is not None else None,
            "den": cell.predicted.denominator if cell.predicted is not None else None}


def _check_format(fmt: str) -> None:
    if fmt not in ("text", "csv", "json"):
        raise InvalidInputError(f"unknown format {fmt!r}")


def render(report: ComparisonReport, fmt: str = "text", digits: int = 3) -> bytes:
    """Serialize a comparison report as text, csv, or json."""
    _check_format(fmt)
    if fmt == "text":
        header = f"equation={report.equation.value} p={report.p} rows={report.row_var}"
        return (_write_text(header, report.row_var, report.cells, _COMPARISON_VIEWS, digits)
                + claim_lines("claims:", report.claims)).encode()
    if fmt == "csv":
        return _write_csv(report.p, report.equation, report.cells).encode()
    parts, ord_row = _nest(report.cells, _comparison_leaf)
    claims = [{"name": c.name, "passed": c.passed, "lhs": c.lhs, "rhs": c.rhs,
               "description": c.description} for c in report.claims]
    return _json({"p": report.p, "equation": report.equation.value,
                  "row_var": report.row_var, "parts": parts, "ord_row": ord_row,
                  "claims": claims}).encode()


def render_counts(m: CountMatrix, fmt: str = "text") -> bytes:
    """Serialize a bare census matrix (no predictions)."""
    _check_format(fmt)
    cells = [CellRecord(part, row, col, m.entry(part, row, col), None, None, None)
             for part in PARTS
             for row in m.rows for col in CLASSES]
    if fmt == "text":
        header = f"equation={m.equation.value} p={m.p} rows={m.row_var}"
        return _write_text(header, m.row_var, cells, _COUNT_VIEWS, 0).encode()
    if fmt == "csv":
        return _write_csv(m.p, m.equation, cells).encode()
    parts, ord_row = _nest(cells, lambda cell: cell.observed)
    return _json({"p": m.p, "equation": m.equation.value, "row_var": m.row_var,
                  "parts": parts, "ord_row": ord_row}).encode()


def render_predictions(pm: PredictionMatrix, fmt: str = "text", digits: int = 3) -> bytes:
    """Serialize a prediction matrix; the grid predicts pm.predicted_part."""
    _check_format(fmt)
    part = pm.predicted_part
    cells = [CellRecord(part, row, col, None, *pm.cell(row, col), None)
             for row in pm.rows for col in CLASSES]
    if fmt == "text":
        header = f"equation={pm.equation.value} p={pm.p} predicted part={part}"
        return _write_text(header, pm.equation.row_var, cells, _PREDICTION_VIEWS,
                           digits).encode()
    if fmt == "csv":
        return _write_csv(pm.p, pm.equation, cells).encode()
    grid, ord_row = _nest(cells, _prediction_leaf)
    return _json({"p": pm.p, "equation": pm.equation.value, "part": part,
                  "grid": grid[part], "ord_row": ord_row and ord_row[part]}).encode()


# --- persistence ------------------------------------------------------------

def _json_value(value) -> str:
    """json.dumps(value) for one record field; strings go through json's own escaper."""
    if type(value) is str:
        return json.encoder.encode_basestring_ascii(value)
    return repr(value) if type(value) is int else "null" if value is None else json.dumps(value)


@dataclass(frozen=True, slots=True)
class ResultRecord:
    """One persisted census/prediction cell; round-trips through JSONL."""

    p: int
    equation: str
    part: str
    row_class: str
    col_class: str
    observed: int
    predicted_num: int | None
    predicted_den: int | None
    timestamp: str
    schema_version: int = SCHEMA_VERSION

    def to_json_line(self) -> str:
        """The fields in sorted key order with "," and ":" between tokens, as
        json.dumps(..., sort_keys=True, separators=(",", ":")) writes them."""
        j = _json_value
        return (f'{{"col_class":{j(self.col_class)},"equation":{j(self.equation)},'
                f'"observed":{j(self.observed)},"p":{j(self.p)},"part":{j(self.part)},'
                f'"predicted_den":{j(self.predicted_den)},"predicted_num":'
                f'{j(self.predicted_num)},"row_class":{j(self.row_class)},'
                f'"schema_version":{j(self.schema_version)},"timestamp":{j(self.timestamp)}}}')


def records_from_report(report: ComparisonReport, timestamp: str) -> list[ResultRecord]:
    p, equation = report.p, report.equation.value
    return [ResultRecord(p, equation, cell.part, cell.row.value, cell.col.value,
                         cell.observed, *(cell.predicted.as_integer_ratio()
                                          if cell.predicted is not None else (None, None)),
                         timestamp)
            for cell in report.cells]


_RECORD_FIELDS = frozenset(f.name for f in fields(ResultRecord))


def append_records(path, records: list[ResultRecord]) -> None:
    """Append records to a line-delimited file (created if missing)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(f"{record.to_json_line()}\n" for record in records)


# Every (equation, part, row_class, col_class) that records_from_report writes,
# mapped to itself so that the records read back share their name strings.
_NAMES = {names: names for names in (
    (eq.value, part, row.value, col.value) for eq in Equation
    for part in (("total",) if eq is Equation.FP else PARTS)
    for row in (ROWS if eq is Equation.TC else CLASSES) for col in CLASSES)}
_BATCH_LINES = 1024  # non-blank lines parsed by one json.loads call


def _names_problem(names: tuple) -> str:
    for k, (name, value) in enumerate(zip(("equation", "part", "row_class", "col_class"),
                                          names)):
        allowed = {key[k] for key in _NAMES}
        if type(value) is not str or value not in allowed:
            return f"{name} must be one of {sorted(allowed)}, got {value!r}"
    return (f"no {names[0]} record has part {names[1]!r} and row_class {names[2]!r} "
            "(ORD rows are tc only, fp has only the total part)")


def _record(raw, primes: dict[int, int], stamps: dict[str, str]) -> ResultRecord:
    """The record one parsed line holds, else MalformedRecordError.  primes
    and stamps share the p and timestamp values of one file's records."""
    if not isinstance(raw, dict):
        raise MalformedRecordError("record is not an object")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 in Python
        raise MalformedRecordError(f"unsupported schema_version {version!r}")
    if raw.keys() != _RECORD_FIELDS:
        raise MalformedRecordError("unexpected record fields")
    p, observed, stamp = raw["p"], raw["observed"], raw["timestamp"]
    for name, value in (("p", p), ("observed", observed)):
        if type(value) is not int:  # a JSON true or false is a bool, not an int
            raise MalformedRecordError(f"{name} must be an int, got {value!r}")
    if observed < 0:
        raise MalformedRecordError(f"observed must be >= 0, got {observed!r}")
    if not isinstance(stamp, str):
        raise MalformedRecordError(f"timestamp must be a string, got {stamp!r}")
    names = (raw["equation"], raw["part"], raw["row_class"], raw["col_class"])
    try:
        names = _NAMES[names]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise MalformedRecordError(_names_problem(names)) from None
    num, den = raw["predicted_num"], raw["predicted_den"]
    if (num, den) != (None, None) and (type(num) is not int or type(den) is not int
                                       or den <= 0):
        raise MalformedRecordError(
            "predicted_num/predicted_den must be both null or an int over a "
            f"positive int, got {num!r}/{den!r}")
    if p not in primes:
        if not is_prime(p):
            raise MalformedRecordError(f"p must be a prime >= 2, got {p!r}")
        primes[p] = p
    return ResultRecord(primes[p], *names, observed, num, den,
                        stamps.setdefault(stamp, stamp), version)


def read_records(path) -> list[ResultRecord]:
    """Read all records back, in order; malformed lines name their line number.

    Only records records_from_report could write pass (typed fields, its name
    combinations, a prime p).  One json.loads parses each batch of lines, and
    a batch that fails is parsed again line by line to name its bad line.
    """
    out: list[ResultRecord] = []
    primes: dict[int, int] = {}
    stamps: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        numbered = ((n, line) for n, line in enumerate(fh, start=1) if not line.isspace())
        while batch := [item for _, item in zip(range(_BATCH_LINES), numbered)]:
            lines = [line for _, line in batch]
            try:  # a valid record cannot span lines that all start with "{"
                if all(line.lstrip().startswith("{") for line in lines):
                    values = json.loads(f"[{','.join(lines)}]")
                    if len(values) == len(batch):
                        out += [_record(raw, primes, stamps) for raw in values]
                        continue
            except (ValueError, RecursionError, MalformedRecordError):  # ValueError: bad JSON
                pass
            for lineno, line in batch:
                try:
                    out.append(_record(json.loads(line), primes, stamps))
                except json.JSONDecodeError as exc:
                    raise MalformedRecordError(f"line {lineno}: not valid JSON ({exc.msg})")
                except MalformedRecordError as exc:
                    raise MalformedRecordError(f"line {lineno}: {exc}") from None
    return out
