"""An exact certificate of the sharp constant and its equality case, for n = 4..40.

For a symmetric A with eigenvalues λ, |A^2|^2 = Σλ^4 and |A|^2 = Σλ^2, so the bound
|A^2|^2 <= (n^2 - 3n + 3) / (n (n - 1)) |A|^4 on trace-free A says that
F = Σλ^4 / (Σλ^2)^2 is at most that constant on {Σλ = 0}. F is homogeneous of degree 0,
so it suffices to take its largest value on the compact smooth manifold {Σλ = 0, Σλ^2 = 1},
which it reaches at a critical point. There, Lagrange multipliers give 4λ^3 = 2μλ + ν for
every eigenvalue. That cubic has no λ^2 term: a critical point has at most three distinct
values, and three distinct ones are its three roots, which sum to 0. Up to scale and sign:

- two values with multiplicities (k, n - k): n - k (k times) and -k (n - k times);
- three values a, b, c = -a - b with multiplicities (p, q, r). The trace condition
  (p - r) a + (q - r) b = 0 fixes (a, b, c) = (q - r, r - p, p - q) unless p = q = r. In
  that case every (a, b) is a critical point, and F = 1/(2p) along the whole family, since
  a^4 + b^4 + (a + b)^4 = 2 (a^2 + ab + b^2)^2.

The largest F over this finite list is the maximum. Computed in ``fractions``, it proves the
bound for that n, and the points that reach it give the equality case. The random campaigns
of ``verify`` test the implementation; this module checks the theorem itself, with no float.
"""

import math
from fractions import Fraction

import pytest

from rigidity.inequalities import defect_coefficient

DIMENSIONS = range(4, 41)


def sharp_constant(n: int) -> Fraction:
    return Fraction(n * n - 3 * n + 3, n * (n - 1))


def signed(point: dict) -> list:
    """(pattern, F) of a critical point {value: multiplicity} and of its negative. A pattern
    lists the multiplicities of the distinct values, the largest value first."""
    assert sum(value * count for value, count in point.items()) == 0
    found = []
    for sign in (1, -1):
        items = sorted(((sign * value, count) for value, count in point.items()), reverse=True)
        s2 = sum(count * value ** 2 for value, count in items)
        s4 = sum(count * value ** 4 for value, count in items)
        found.append((tuple(count for _, count in items), Fraction(s4, s2 * s2)))
    return found


def critical_points(n: int) -> list:
    """(pattern, F) of every critical point of F on the trace-free unit sphere, up to scale;
    one point stands for the p = q = r family, on which F is constant."""
    found = []
    for k in range(1, n):
        found += signed({n - k: k, -k: n - k})
    for p in range(1, n - 1):
        for q in range(1, n - p):
            r = n - p - q
            values = (1, 0, -1) if p == q == r else (q - r, r - p, p - q)
            if len(set(values)) == 3:  # fewer distinct values are the two-value case
                found += signed(dict(zip(values, (p, q, r))))
    return found


def test_family_identity():
    # both sides are homogeneous quartics in (a, b): equal at five ratios b/a, equal everywhere
    for t in range(5):
        a, b = Fraction(1), Fraction(t)
        assert a ** 4 + b ** 4 + (a + b) ** 4 == 2 * (a * a + a * b + b * b) ** 2


@pytest.mark.parametrize("n", DIMENSIONS)
def test_largest_critical_value_is_the_sharp_constant(n):
    points = critical_points(n)
    best = max(value for _, value in points)
    assert best == sharp_constant(n)
    # equality holds only for one eigenvalue against n - 1 equal ones
    assert {pattern for pattern, value in points if value == best} == {(1, n - 1), (n - 1, 1)}
    if n % 3 == 0:
        assert (n // 3,) * 3 in {pattern for pattern, _ in points}
        assert Fraction(3, 2 * n) in {value for _, value in points}


@pytest.mark.parametrize("n", DIMENSIONS)
def test_defect_coefficient_is_correctly_rounded(n):
    coef = defect_coefficient(n)
    error = abs(Fraction(coef) - sharp_constant(n))
    for neighbour in (math.nextafter(coef, 0.0), math.nextafter(coef, 2.0)):
        assert error <= abs(Fraction(neighbour) - sharp_constant(n))
