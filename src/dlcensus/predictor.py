"""Heuristic prediction formulas evaluated in exact rational arithmetic.

Every cell of a prediction grid carries a formula id and its exact value as
a Fraction; nothing here rounds.  The grids cover the nontrivial part of the
ha and tc censuses and the totals of the fp census; predicted totals for
ha/tc are assembled in the report layer by adding the exact trivial counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .census import Equation
from .errors import InvalidInputError
from .numtheory import Factored, PrimeContext, divisors_with_phi
from .residue_tables import CLASSES, ROWS, ConditionClass

#: Exact rational number type used for all predicted values.
Rational = Fraction


class FormulaId(enum.Enum):
    N = "n"                    # p - 1
    PHI = "phi"                # phi(p-1)
    PHI2_N = "phi2_over_n"     # phi(p-1)^2 / (p-1)
    PHI3_N2 = "phi3_over_n2"   # phi(p-1)^3 / (p-1)^2
    PHI4_N3 = "phi4_over_n3"   # phi(p-1)^4 / (p-1)^3
    HA_SUM = "ha_sum"          # double divisor sum, see ha_sum_form
    EXACT_PHI = "exact_phi"    # phi(p-1), an exact count rather than a heuristic
    NONE = "none"              # cell carries no prediction


def ha_sum_form(f: Factored) -> Rational:
    """sum over m | n of (phi(m)/m^2) * (sum over d | n/m of phi(d*m)/d)^2.

    Evaluated in integers as (sum over m | n of phi(m) * I_m^2) / n^2, where
    I_m = sum over d | n/m of phi(d*m) * (n/m/d) is n/m times the inner sum.
    """
    n = f.n
    phi_of = dict(divisors_with_phi(f))
    total = 0
    for m, phi_m in phi_of.items():
        rest = n // m
        inner = sum(phi_of[d * m] * (rest // d) for d in phi_of if rest % d == 0)
        total += phi_m * inner * inner
    return Fraction(total, n * n)


def ha_geneq_form(f: Factored) -> Rational:
    """Prime-power product form of the same quantity:
    prod over q^alpha || n of sum_{beta=0..alpha} phi(q^beta) *
    ((1 - 1/q)(alpha - beta) + phi(q^beta)/q^beta)^2."""
    total = Fraction(1)
    for q, alpha in f:
        acc = Fraction(0)
        power = 1
        for beta in range(alpha + 1):
            phi_qb = power - power // q if beta > 0 else 1
            term = Fraction(q - 1, q) * (alpha - beta) + Fraction(phi_qb, power)
            acc += phi_qb * term * term
            power *= q
        total *= acc
    return total


def ha_squarefree_form(f: Factored) -> Rational:
    """Product over primes q | n of (q + 1 - 1/q); only for squarefree n."""
    if not f.is_squarefree:
        raise InvalidInputError(f"{f.n} is not squarefree")
    total = Fraction(1)
    for q in f.primes:
        total *= q + 1 - Fraction(1, q)
    return total


def formula_value(formula: FormulaId, ctx: PrimeContext) -> Rational:
    """Exact value of a named formula in the given prime context."""
    n, phi = ctx.n, ctx.phi
    if formula is FormulaId.N:
        return Fraction(n)
    if formula is FormulaId.PHI or formula is FormulaId.EXACT_PHI:
        return Fraction(phi)
    if formula is FormulaId.PHI2_N:
        return Fraction(phi**2, n)
    if formula is FormulaId.PHI3_N2:
        return Fraction(phi**3, n**2)
    if formula is FormulaId.PHI4_N3:
        return Fraction(phi**4, n**3)
    if formula is FormulaId.HA_SUM:
        return ha_sum_form(ctx.factors)
    raise InvalidInputError(f"formula {formula.value!r} has no value")


_F = FormulaId
# Grids are (row class x column class) in CLASSES order; fp rows index g and
# predict totals, ha rows index a, tc rows index g, both predicting the
# nontrivial part.  The fifth tc row is the ORD row.
_GRIDS = {
    Equation.FP: (
        (_F.N, _F.PHI2_N, _F.EXACT_PHI, _F.PHI2_N),
        (_F.PHI, _F.PHI2_N, _F.PHI2_N, _F.PHI2_N),
        (_F.PHI, _F.PHI3_N2, _F.PHI2_N, _F.PHI3_N2),
        (_F.PHI2_N, _F.PHI3_N2, _F.PHI3_N2, _F.PHI3_N2),
    ),
    Equation.HA: (
        (_F.HA_SUM, _F.PHI, _F.PHI, _F.PHI3_N2),
        (_F.PHI, _F.PHI2_N, _F.PHI2_N, _F.PHI3_N2),
        (_F.PHI, _F.PHI2_N, _F.PHI2_N, _F.PHI3_N2),
        (_F.PHI3_N2, _F.PHI3_N2, _F.PHI3_N2, _F.PHI3_N2),
    ),
    Equation.TC: (
        (_F.N, _F.PHI2_N, _F.PHI, _F.PHI3_N2),
        (_F.PHI, _F.PHI2_N, _F.PHI2_N, _F.PHI3_N2),
        (_F.PHI, _F.PHI3_N2, _F.PHI2_N, _F.PHI4_N3),
        (_F.PHI2_N, _F.PHI3_N2, _F.PHI3_N2, _F.PHI4_N3),
        (_F.PHI, _F.NONE, _F.PHI2_N, _F.NONE),
    ),
}


@dataclass(frozen=True)
class PredictionMatrix:
    """Exact predicted values mirroring one census matrix, row for row."""

    p: int
    n: int
    phi: int
    equation: Equation
    formulas: tuple[tuple[FormulaId, ...], ...]
    values: tuple[tuple[Rational | None, ...], ...]

    @property
    def predicted_part(self) -> str:
        """Census part the grid predicts."""
        return "total" if self.equation is Equation.FP else "nontrivial"

    @property
    def rows(self) -> tuple[ConditionClass, ...]:
        """Row classes: CLASSES, then ORD for tc."""
        return ROWS[:len(self.formulas)]

    def cell(self, row: ConditionClass, col: ConditionClass) -> tuple[FormulaId, Rational | None]:
        """Formula and value of one cell; row ORD exists for tc only."""
        i, j = ROWS.index(row), CLASSES.index(col)
        if i >= len(self.formulas):
            raise InvalidInputError(f"{self.equation.value} predictions have no {row.value} row")
        return self.formulas[i][j], self.values[i][j]


def predict_matrix(equation: Equation, ctx: PrimeContext) -> PredictionMatrix:
    """Assemble the prediction grid for one equation."""
    grid = _GRIDS[equation]
    value_of = {fid: None if fid is FormulaId.NONE else formula_value(fid, ctx)
                for fid in {fid for row in grid for fid in row}}
    values = tuple(tuple(value_of[fid] for fid in row) for row in grid)
    return PredictionMatrix(p=ctx.p, n=ctx.n, phi=ctx.phi, equation=equation,
                            formulas=grid, values=values)
