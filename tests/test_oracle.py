import pytest

from dlcensus.census import Equation
from dlcensus.errors import InvalidInputError
from dlcensus.oracle import ORACLE_PRIME_LIMIT, oracle_census
from dlcensus.residue_tables import CLASSES, ConditionClass

ANY, PR, RP, RPPR = CLASSES
ORD = ConditionClass.ORD
FP, HA, TC = Equation


class TestOracleFp:
    def test_small_primes(self):
        assert oracle_census(5)[FP].entry("total", ANY, ANY) == 2
        assert oracle_census(7)[FP].entry("total", ANY, ANY) == 6
        assert oracle_census(2)[FP].entry("total", ANY, ANY) == 1  # 1^1 = 1

    def test_class_split(self):
        fp = oracle_census(7)[FP]
        assert fp.entry("total", ANY, PR) == 1 == fp.entry("total", PR, PR)


class TestOracleHa:
    def test_small_primes(self):
        assert oracle_census(7)[HA].entry("nontrivial", ANY, ANY) == 4
        assert oracle_census(5)[HA].entry("nontrivial", ANY, ANY) == 2  # (1,4) and (4,1)
        assert oracle_census(2)[HA].entry("nontrivial", ANY, ANY) == 0

    def test_symmetric(self):
        ha = oracle_census(31)[HA]
        for part in ("trivial", "nontrivial", "total"):
            grid = ha.part(part)
            assert (grid == grid.T).all()


class TestOracleTc:
    def test_small_primes(self):
        assert oracle_census(7)[TC].entry("nontrivial", ANY, ANY) == 6
        tc5 = oracle_census(5)[TC]
        assert tc5.entry("nontrivial", ANY, ANY) == 2
        assert tc5.entry("trivial", ANY, ANY) == 2

    def test_p3_enumeration(self):
        # (g,h)=(2,1): a=2, 2^2=4=1 (mod 3); (g,h)=(2,2): a=1, 2^1=2; both nontrivial
        tc = oracle_census(3)[TC]
        assert tc.entry("trivial", ANY, ANY) == 1
        assert tc.entry("nontrivial", ANY, ANY) == 2

    def test_ord_row(self):
        tc = oracle_census(7)[TC]
        # trivial fp solutions with h coprime to 6: (1,1) and (3,5)
        assert tc.entry("trivial", ORD, ANY) == 2
        assert tc.entry("nontrivial", ORD, ANY) == 1  # only (6,6) via a=1


class TestLimits:
    def test_rejects_oversized_prime(self):
        with pytest.raises(InvalidInputError):
            oracle_census(ORACLE_PRIME_LIMIT + 3)

    def test_rejects_composite(self):
        with pytest.raises(InvalidInputError):
            oracle_census(9)
