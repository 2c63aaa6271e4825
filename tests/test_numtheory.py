import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlcensus.errors import InvalidInputError
from dlcensus.numtheory import (
    CongruenceSolution,
    Factored,
    carmichael,
    divisors_with_phi,
    euler_phi,
    factorize,
    is_prime,
    next_primes,
    prime_context,
    smallest_primitive_root,
    solve_linear_congruence,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_reference_values(self):
        assert is_prime(100057)
        assert not is_prime(1)
        assert not is_prime(100056)
        assert not is_prime(0)
        assert is_prime(2)

    def test_matches_trial_division_small(self):
        for n in range(2000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_matches_trial_division_above_witness_cutoff(self):
        # exercises the Miller-Rabin branch
        start = 1 << 32
        for n in range(start, start + 60):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_known_large_prime(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime((2**61 - 1) * 3)


class TestNextPrimes:
    def test_five_primes_from_100000(self):
        # checked against the trial-division oracle below; the reference
        # census prime 100057 is the fifth
        expected = [100003, 100019, 100043, 100049, 100057]
        assert next_primes(100000, 5) == expected
        assert all(trial_division_is_prime(p) for p in expected)
        assert not any(trial_division_is_prime(n)
                       for n in range(100000, 100058) if n not in expected)

    def test_trivial_cases(self):
        assert next_primes(2, 3) == [2, 3, 5]
        assert next_primes(7, 1) == [7]

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            next_primes(1, 1)
        with pytest.raises(InvalidInputError):
            next_primes(10, 0)

    def test_overflow_guarded(self):
        with pytest.raises(InvalidInputError):
            next_primes(2**63 - 2, 2)


class TestFactorize:
    def test_reference_values(self):
        assert factorize(100056).factors == ((2, 3), (3, 1), (11, 1), (379, 1))
        assert factorize(1).factors == ()
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_reconstructs_product_up_to_1e5(self):
        for n in range(1, 100001):
            f = factorize(n)
            product = 1
            previous = 0
            for q, alpha in f:
                assert q > previous and alpha >= 1
                previous = q
                product *= q**alpha
            assert product == n

    def test_factors_are_prime(self):
        for n in range(2, 3000):
            for q, _ in factorize(n):
                assert trial_division_is_prime(q), (n, q)

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            factorize(0)


def phi_sieve(limit: int) -> list[int]:
    """Independent totient computation by sieving, no factorization involved."""
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # q prime
            for multiple in range(q, limit + 1, q):
                phi[multiple] -= phi[multiple] // q
    return phi


class TestEulerPhi:
    def test_reference_values(self):
        assert euler_phi(factorize(100056)) == 30240
        assert euler_phi(factorize(1)) == 1
        assert euler_phi(factorize(6)) == 2

    def test_matches_gcd_count_small(self):
        for n in range(1, 2001):
            expected = sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)
            assert euler_phi(factorize(n)) == expected, n

    def test_matches_sieve_up_to_1e5(self):
        sieve = phi_sieve(100000)
        for n in range(1, 100001):
            assert euler_phi(factorize(n)) == sieve[n], n


class TestCarmichael:
    def test_reference_values(self):
        assert [carmichael(factorize(n)) for n in (1, 2, 4, 8, 16, 1000002)] == \
            [1, 1, 2, 2, 4, 166666]

    def test_is_least_universal_exponent(self):
        for n in range(1, 400):
            lam = carmichael(factorize(n))
            units = [x for x in range(1, n + 1) if math.gcd(x, n) == 1]
            assert all(pow(x, lam, n) == 1 % n for x in units), n
            for q in factorize(lam).primes if lam > 1 else ():
                assert any(pow(x, lam // q, n) != 1 for x in units), n


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestDivisors:
    def test_reference_values(self):
        assert prime_context(13).divisors == (1, 2, 3, 4, 6, 12)
        assert prime_context(2).divisors == (1,)
        ds = prime_context(100057).divisors
        assert len(ds) == 32  # (3+1)*2*2*2 from the 2^3 * 3 * 11 * 379 shape
        assert ds[:6] == (1, 2, 3, 4, 6, 8)
        assert list(ds) == brute_divisors(100056)

    def test_complete_and_sorted(self):
        for n in range(1, 3000):
            assert [d for d, _ in divisors_with_phi(factorize(n))] == brute_divisors(n), n

    def test_divisors_with_phi_consistent(self):
        for n in (1, 2, 12, 360, 100056):
            pairs = divisors_with_phi(factorize(n))
            assert [d for d, _ in pairs] == brute_divisors(n)
            for d, ph in pairs:
                assert ph == euler_phi(factorize(d))


class TestSolveLinearCongruence:
    def test_reference_values(self):
        assert solve_linear_congruence(4, 2, 6) == CongruenceSolution(base=2, step=3, count=2)
        assert solve_linear_congruence(4, 2, 6).values() == [2, 5]
        assert solve_linear_congruence(1, 5, 9) == CongruenceSolution(base=5, step=9, count=1)
        assert solve_linear_congruence(2, 1, 4).count == 0

    def test_matches_brute_force(self):
        for n in range(1, 51):
            for a in range(n):
                for b in range(n):
                    got = solve_linear_congruence(a, b, n)
                    expected = [u for u in range(n) if (a * u - b) % n == 0]
                    assert got.values() == expected, (a, b, n)
                    if got.count > 0:
                        assert got.step * got.count == n
                        assert 0 <= got.base < got.step

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 300))
    @example(0, 0, 1)
    @example(5, 3, 1)
    @example(0, 0, 300)
    @example(0, 7, 300)
    @example(12, 0, 300)
    @example(-7, 0, 256)
    def test_random_matches_brute_force(self, a, b, n):
        got = solve_linear_congruence(a, b, n)
        assert got.values() == [u for u in range(n) if (a * u - b) % n == 0]
        if got.count > 0:
            assert got.count == math.gcd(a, n)
            assert got.step * got.count == n
            assert 0 <= got.base < got.step

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(InvalidInputError):
            solve_linear_congruence(1, 1, 0)


def naive_order(x: int, p: int) -> int:
    order, value = 1, x
    while value != 1:
        value = value * x % p
        order += 1
    return order


class TestSmallestPrimitiveRoot:
    def test_reference_values(self):
        assert smallest_primitive_root(7, factorize(6)) == 3
        assert smallest_primitive_root(2, Factored(1, ())) == 1
        assert smallest_primitive_root(5, factorize(4)) == 2

    def test_is_minimal_generator(self):
        for p in [3, 5, 7, 11, 13, 41, 101, 311]:
            f = factorize(p - 1)
            root = smallest_primitive_root(p, f)
            assert naive_order(root, p) == p - 1
            for g in range(1, root):
                assert naive_order(g, p) != p - 1


class TestPrimeContext:
    def test_fields(self):
        ctx = prime_context(100057)
        assert ctx.n == 100056
        assert ctx.phi == 30240
        assert len(ctx.divisors) == 32
        assert ctx.factors.n == 100056

    def test_smallest_prime(self):
        ctx = prime_context(2)
        assert ctx.n == 1 and ctx.phi == 1 and ctx.divisors == (1,)

    def test_rejects_composite(self):
        with pytest.raises(InvalidInputError):
            prime_context(100058)
