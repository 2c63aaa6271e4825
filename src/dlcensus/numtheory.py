"""Stateless integer primitives: primality, factorization, totients, congruences.

Everything here works on plain Python ints, is deterministic, and is safe to
call concurrently.  Modular exponentiation delegates to the built-in
three-argument ``pow`` (square-and-multiply in C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError

# Deterministic Miller-Rabin witnesses: correct for all n < 3.3 * 10^24,
# far beyond the 2^63 input bound enforced below.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

INT_LIMIT = 1 << 63


@dataclass(frozen=True)
class Factored:
    """A factorization n = prod q^alpha with q strictly increasing.

    n = 1 carries an empty factor list.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(alpha == 1 for _, alpha in self.factors)


@dataclass(frozen=True)
class CongruenceSolution:
    """Solution set of a*u = b (mod n): {base + k*step : 0 <= k < count}.

    count = 0 means no solution; otherwise base is the smallest nonnegative
    solution (0 <= base < step) and step * count equals the modulus.
    """

    base: int
    step: int
    count: int

    def values(self) -> list[int]:
        return [self.base + k * self.step for k in range(self.count)]


@dataclass(frozen=True)
class PrimeContext:
    """A prime p together with derived data about n = p - 1."""

    p: int
    n: int
    factors: Factored
    divisors: tuple[int, ...]
    phi: int


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^63.

    A multiple of a witness prime is prime only if it is that witness; every
    other n runs Miller-Rabin with the fixed witness set, so no answer in
    range is probabilistic.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_primes(start: int, k: int) -> list[int]:
    """The k smallest primes >= start, ascending."""
    if start < 2 or k < 1:
        raise InvalidInputError(f"need start >= 2 and k >= 1, got ({start}, {k})")
    found: list[int] = []
    candidate = start
    while len(found) < k:
        if candidate >= INT_LIMIT:
            raise InvalidInputError("prime search left the 63-bit input range")
        if is_prime(candidate):
            found.append(candidate)
        candidate += 1
    return found


def factorize(n: int) -> Factored:
    """Prime factorization by trial division.

    The remaining cofactor is primality-tested after each extracted factor,
    so large prime cofactors are appended without scanning up to their root.
    """
    if n < 1 or n >= INT_LIMIT:
        raise InvalidInputError(f"factorize needs 1 <= n < 2^63, got {n}")
    m = n
    factors: list[tuple[int, int]] = []
    for q in (2, 3):
        if m % q == 0:
            alpha = 0
            while m % q == 0:
                m //= q
                alpha += 1
            factors.append((q, alpha))
    d = 5
    while m > 1:
        if is_prime(m):
            factors.append((m, 1))
            break
        while d * d <= m and m % d != 0:
            d += 2 if d % 6 == 5 else 4  # skip multiples of 2 and 3
        alpha = 0
        while m % d == 0:
            m //= d
            alpha += 1
        factors.append((d, alpha))
    return Factored(n, tuple(factors))


def euler_phi(f: Factored) -> int:
    """Euler's totient from a factorization: prod q^(alpha-1) * (q-1)."""
    value = 1
    for q, alpha in f:
        value *= q ** (alpha - 1) * (q - 1)
    return value


def carmichael(f: Factored) -> int:
    """Exponent of the unit group mod f.n: the least lambda with x^lambda = 1
    (mod n) for every unit x, hence also mod every divisor of n."""
    value = 1
    for q, alpha in f:
        part = q ** (alpha - 1) * (q - 1) if q > 2 or alpha < 3 else 2 ** (alpha - 2)
        value = value * part // math.gcd(value, part)
    return value


def divisors_with_phi(f: Factored) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of f.n, ascending by d.

    The one divisor enumerator: prime_context keeps the divisors, and the
    divisor sums use the totients without refactorizing each divisor.
    """
    pairs = [(1, 1)]
    for q, alpha in f:
        ext = []
        for d, ph in pairs:
            ext.append((d, ph))
            power = 1
            for beta in range(1, alpha + 1):
                power *= q
                ext.append((d * power, ph * (power - power // q)))
        pairs = ext
    return sorted(pairs)


def solve_linear_congruence(a: int, b: int, n: int) -> CongruenceSolution:
    """Describe all u in [0, n) with a*u = b (mod n).

    There are gcd(a, n) solutions when gcd(a, n) divides b, none otherwise;
    no-solution is count = 0, not an error.
    """
    if n < 1:
        raise InvalidInputError(f"modulus must be positive, got {n}")
    a %= n
    b %= n
    g = math.gcd(a, n)
    if b % g != 0:
        return CongruenceSolution(base=0, step=n, count=0)
    step = n // g
    base = (b // g) * pow((a // g) % step, -1, step) % step if step > 1 else 0
    return CongruenceSolution(base=base, step=step, count=g)


def smallest_primitive_root(p: int, f: Factored) -> int:
    """Least g >= 1 of multiplicative order p - 1 modulo p; f factors p - 1."""
    n = p - 1
    primes = f.primes
    for g in range(1, p):
        if all(pow(g, n // q, p) != 1 for q in primes):
            return g
    raise InvalidInputError(f"no primitive root found; {p} is not prime")


def prime_context(p: int) -> PrimeContext:
    """Bundle a prime with the factorization, divisors, and totient of p - 1."""
    if not is_prime(p):
        raise InvalidInputError(f"not prime: {p}")
    f = factorize(p - 1)
    divs = tuple(d for d, _ in divisors_with_phi(f))
    return PrimeContext(p=p, n=p - 1, factors=f, divisors=divs, phi=euler_phi(f))
