"""Exact arithmetic on "parts" of integers.

For an integer k and a prime w, the w-part ``k_w`` is the largest power of w
dividing k, and the w'-part ``k_{w'}`` is the largest divisor coprime to w.
The heart of k multiplies gcd(k, 3) by the full p-parts of k over all primes
p congruent to 1 mod 3.  Everything here is exact integer arithmetic on
arbitrary-precision ints; group orders such as |GL_6(49)| overflow 64 bits
and silent wraparound is the failure mode this module exists to rule out.
"""

from math import gcd, isqrt

from .errors import ResourceLimitError

# Deterministic Miller-Rabin witness set: exact for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981

# Trial division gives up past this; desk-scale inputs never get there.
_TRIAL_LIMIT = 10_000_000


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BOUND:
        raise ResourceLimitError(f"primality of {n} is beyond the certified witness bound")
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} by trial division.

    Raises ResourceLimitError if a composite cofactor survives the trial
    bound; at desk scale this does not happen.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: expected a positive integer")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    limit = min(isqrt(n), _TRIAL_LIMIT)
    while d <= limit and n > 1:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
            limit = min(isqrt(n), _TRIAL_LIMIT)
        # 5, 7, 11, 13, ... skipping multiples of 2 and 3
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        if is_prime(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            raise ResourceLimitError(f"composite cofactor {n} exceeds trial-division bound")
    return factors


def largest_proper_divisor(n: int) -> int:
    """n // p for the least prime p dividing n (1 for n = 1).

    By Lagrange's theorem a proper subgroup of a group of order n has at
    most this many elements, so a subgroup that passes it is the whole
    group (Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, section 4.1)."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if n % 2 == 0:
        return n // 2
    d = 3
    limit = min(isqrt(n), _TRIAL_LIMIT)
    while d <= limit:
        if n % d == 0:
            return n // d
        d += 2
    if n == 1 or is_prime(n):
        return 1
    raise ResourceLimitError(f"least prime factor of {n} exceeds trial-division bound")


def part_pow(k: int, w: int) -> int:
    """k_w: the largest power of the prime w dividing k."""
    if k < 1:
        raise ValueError(f"expected k >= 1, got {k}")
    if not is_prime(w):
        raise ValueError(f"{w} is not prime")
    part = 1
    while k % w == 0:
        k //= w
        part *= w
    return part


def part_coprime(k: int, w: int) -> int:
    """k_{w'}: the largest divisor of k coprime to the prime w."""
    if k < 1:
        raise ValueError(f"expected k >= 1, got {k}")
    if not is_prime(w):
        raise ValueError(f"{w} is not prime")
    while k % w == 0:
        k //= w
    return k


def heart(k: int) -> int:
    """gcd(k, 3) times the product of the full p-parts of k over primes p = 1 mod 3."""
    if k < 1:
        raise ValueError(f"expected k >= 1, got {k}")
    result = gcd(k, 3)
    for p, e in sorted(factorize(k).items()):
        if p % 3 == 1:
            result *= p**e
    return result


def heart_coprime(k: int, p: int) -> int:
    """The largest divisor of heart(k) coprime to the prime p.

    Computed as heart(k_{p'}), which agrees with heart(k) / heart(k)_p
    because heart only ever keeps whole prime-parts.  Both routes are
    unit-tested against each other.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return heart(part_coprime(k, p))


def geom_sum(q: int, n: int) -> int:
    """q^{n-1} + ... + q + 1 = (q^n - 1) / (q - 1)."""
    if q < 2:
        raise ValueError(f"expected q >= 2, got {q}")
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    return (q**n - 1) // (q - 1)


def gl_order(n: int, q: int) -> int:
    """|GL_n(q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def gl_order_two_part(n: int, q: int) -> int:
    """|GL_n(q)|_2 = prod_{i=1}^{n} (q^i - 1)_2, for odd q."""
    if q % 2 == 0:
        raise ValueError(f"expected odd q, got {q}")
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    part = 1
    for i in range(1, n + 1):
        part *= part_pow(q**i - 1, 2)
    return part


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p^a with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, a),) = factors.items()
    return p, a
