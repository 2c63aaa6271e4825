import pytest

from dlcensus.errors import InvalidInputError
from dlcensus.oracle import ORACLE_PRIME_LIMIT, oracle_fp, oracle_ha, oracle_tc
from dlcensus.residue_tables import CLASSES, ConditionClass

ANY, PR, RP, RPPR = CLASSES
ORD = ConditionClass.ORD


class TestOracleFp:
    def test_small_primes(self):
        assert oracle_fp(5).entry("total", ANY, ANY) == 2
        assert oracle_fp(7).entry("total", ANY, ANY) == 6
        assert oracle_fp(2).entry("total", ANY, ANY) == 1  # 1^1 = 1

    def test_class_split(self):
        fp = oracle_fp(7)
        assert fp.entry("total", ANY, PR) == 1 == fp.entry("total", PR, PR)


class TestOracleHa:
    def test_small_primes(self):
        assert oracle_ha(7).entry("nontrivial", ANY, ANY) == 4
        assert oracle_ha(5).entry("nontrivial", ANY, ANY) == 2  # (1,4) and (4,1)
        assert oracle_ha(2).entry("nontrivial", ANY, ANY) == 0

    def test_symmetric(self):
        ha = oracle_ha(31)
        for part in ("trivial", "nontrivial", "total"):
            grid = ha.part(part)
            assert (grid == grid.T).all()


class TestOracleTc:
    def test_small_primes(self):
        assert oracle_tc(7).entry("nontrivial", ANY, ANY) == 6
        tc5 = oracle_tc(5)
        assert tc5.entry("nontrivial", ANY, ANY) == 2
        assert tc5.entry("trivial", ANY, ANY) == 2

    def test_p3_enumeration(self):
        # (g,h)=(2,1): a=2, 2^2=4=1 (mod 3); (g,h)=(2,2): a=1, 2^1=2; both nontrivial
        tc = oracle_tc(3)
        assert tc.entry("trivial", ANY, ANY) == 1
        assert tc.entry("nontrivial", ANY, ANY) == 2

    def test_ord_row(self):
        tc = oracle_tc(7)
        # trivial fp solutions with h coprime to 6: (1,1) and (3,5)
        assert tc.entry("trivial", ORD, ANY) == 2
        assert tc.entry("nontrivial", ORD, ANY) == 1  # only (6,6) via a=1


class TestLimits:
    def test_rejects_oversized_prime(self):
        beyond = ORACLE_PRIME_LIMIT + 3
        for fn in (oracle_fp, oracle_ha, oracle_tc):
            with pytest.raises(InvalidInputError):
                fn(beyond)

    def test_rejects_composite(self):
        with pytest.raises(InvalidInputError):
            oracle_fp(9)
