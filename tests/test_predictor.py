from fractions import Fraction

import pytest

from dlcensus.census import Equation
from dlcensus.errors import InvalidInputError
from dlcensus.numtheory import divisors_with_phi, factorize, is_prime, prime_context
from dlcensus import predictor
from dlcensus.predictor import (
    FormulaId,
    formula_value,
    ha_geneq_form,
    ha_squarefree_form,
    ha_sum_form,
    predict_matrix,
)
from dlcensus.residue_tables import CLASSES, ConditionClass

ANY, PR, RP, RPPR = CLASSES
ORD = ConditionClass.ORD
CTX = prime_context(100057)


class TestFormulaValue:
    def test_reference_prime_values(self):
        assert formula_value(FormulaId.N, CTX) == 100056
        assert formula_value(FormulaId.PHI, CTX) == 30240
        assert formula_value(FormulaId.PHI2_N, CTX) == Fraction(30240**2, 100056)
        assert formula_value(FormulaId.PHI3_N2, CTX) == Fraction(30240**3, 100056**2)
        assert formula_value(FormulaId.PHI4_N3, CTX) == Fraction(30240**4, 100056**3)
        assert abs(float(formula_value(FormulaId.PHI2_N, CTX)) - 9139.458) < 5e-4
        assert abs(float(formula_value(FormulaId.PHI3_N2, CTX)) - 2762.225) < 5e-4
        assert abs(float(formula_value(FormulaId.PHI4_N3, CTX)) - 834.83) < 5e-3

    def test_exact_phi_equals_phi(self):
        assert formula_value(FormulaId.EXACT_PHI, CTX) == formula_value(FormulaId.PHI, CTX)

    def test_none_has_no_value(self):
        with pytest.raises(InvalidInputError):
            formula_value(FormulaId.NONE, CTX)


def ha_sum_reference(n: int) -> Fraction:
    """The double divisor sum as written, term by term in Fractions."""
    phi = dict(divisors_with_phi(factorize(n)))
    total = Fraction(0)
    for m in phi:
        inner = sum((Fraction(phi[d * m], d) for d in phi if (n // m) % d == 0), Fraction(0))
        total += Fraction(phi[m], m * m) * inner * inner
    return total


class TestHaSumForm:
    def test_integer_form_equals_fraction_sum(self):
        for n in [*range(1, 3001), 1108800, 1178100]:
            assert ha_sum_form(factorize(n)) == ha_sum_reference(n), n

    def test_hand_expanded_n4(self):
        # m=1: (phi(1)+phi(2)/2+phi(4)/4)^2 = 4; m=2: (1/4)(phi(2)+phi(4)/2)^2 = 1;
        # m=4: (2/16) phi(4)^2 = 1/2
        assert ha_sum_form(factorize(4)) == Fraction(11, 2)

    def test_trivial_n1(self):
        assert ha_sum_form(factorize(1)) == 1

    def test_reference_value(self):
        value = ha_sum_form(factorize(100056))
        assert 190822 < value < Fraction(3816441, 20)  # 190822.0 at one decimal
        assert round(float(value), 1) == 190822.0


class TestHaGeneqForm:
    def test_hand_expanded_n4(self):
        # beta terms: 4, 1, 1/2
        assert ha_geneq_form(factorize(4)) == Fraction(11, 2)

    def test_trivial_n1_empty_product(self):
        assert ha_geneq_form(factorize(1)) == 1

    def test_agrees_with_sum_form_everywhere(self):
        for n in range(1, 301):
            f = factorize(n)
            assert ha_sum_form(f) == ha_geneq_form(f), n


class TestHaSquarefreeForm:
    def test_two_factor_product(self):
        assert ha_squarefree_form(factorize(6)) == Fraction(55, 6)
        assert ha_sum_form(factorize(6)) == Fraction(55, 6)

    def test_single_factor(self):
        assert ha_squarefree_form(factorize(2)) == Fraction(5, 2)

    def test_empty_product(self):
        assert ha_squarefree_form(factorize(1)) == 1

    def test_rejects_square_divisor(self):
        with pytest.raises(InvalidInputError):
            ha_squarefree_form(factorize(4))

    def test_agrees_with_sum_form_on_squarefree(self):
        for n in range(1, 301):
            f = factorize(n)
            if f.is_squarefree:
                assert ha_sum_form(f) == ha_squarefree_form(f), n


class TestPerPrimeIdentity:
    def test_identity_for_small_primes(self):
        for q in range(2, 501):
            if not is_prime(q):
                continue
            lhs = Fraction((q - 1) ** 3, q**2) + (1 + Fraction(q - 1, q)) ** 2
            assert lhs == q + 1 - Fraction(1, q), q


class TestPredictMatrix:
    def test_fp_grid_reference_values(self):
        pm = predict_matrix(Equation.FP, CTX)
        assert pm.cell(ANY, ANY) == (FormulaId.N, Fraction(100056))
        assert pm.cell(ANY, RP) == (FormulaId.EXACT_PHI, Fraction(30240))
        assert pm.cell(PR, ANY)[1] == Fraction(30240)
        assert pm.cell(ANY, PR)[0] is FormulaId.PHI2_N
        assert pm.cell(RPPR, RPPR)[0] is FormulaId.PHI3_N2
        assert pm.predicted_part == "total"

    def test_each_distinct_formula_evaluated_once(self, monkeypatch):
        calls = []

        def counted(formula, ctx):
            calls.append(formula)
            return value_of(formula, ctx)

        value_of = predictor.formula_value
        monkeypatch.setattr(predictor, "formula_value", counted)
        for eq in Equation:
            calls.clear()
            pm = predict_matrix(eq, CTX)
            assert sorted(f.value for f in calls) == sorted(
                {f.value for row in pm.formulas for f in row} - {"none"})

    def test_ha_grid_symmetric(self):
        pm = predict_matrix(Equation.HA, CTX)
        assert pm.cell(ANY, ANY)[0] is FormulaId.HA_SUM
        for r in CLASSES:
            for c in CLASSES:
                assert pm.cell(r, c)[1] == pm.cell(c, r)[1]
        assert pm.predicted_part == "nontrivial"

    def test_tc_grid_reference_values(self):
        pm = predict_matrix(Equation.TC, CTX)
        assert pm.cell(ANY, RP) == (FormulaId.PHI, Fraction(30240))
        assert pm.cell(ANY, PR)[0] is FormulaId.PHI2_N
        assert pm.cell(RP, RPPR)[0] is FormulaId.PHI4_N3
        assert pm.rows == (*CLASSES, ORD)
        assert pm.cell(ORD, ANY)[0] is FormulaId.PHI
        assert pm.cell(ORD, RP)[0] is FormulaId.PHI2_N
        assert pm.cell(ORD, PR) == (FormulaId.NONE, None)
        assert pm.cell(ORD, RPPR) == (FormulaId.NONE, None)

    @pytest.mark.parametrize("p", [3, 7, 13, 61, 100057])
    def test_tc_row_scaling_identities(self, p):
        # the RP row is (phi/n) times the ANY row, RPPR row (phi/n) times PR row
        ctx = prime_context(p)
        pm = predict_matrix(Equation.TC, ctx)
        scale = Fraction(ctx.phi, ctx.n)
        for col in CLASSES:
            assert pm.cell(RP, col)[1] == scale * pm.cell(ANY, col)[1]
            assert pm.cell(RPPR, col)[1] == scale * pm.cell(PR, col)[1]

    def test_ord_row_absent_outside_tc(self):
        for equation in (Equation.FP, Equation.HA):
            pm = predict_matrix(equation, CTX)
            assert pm.rows == CLASSES
            with pytest.raises(InvalidInputError):
                pm.cell(ORD, ANY)
