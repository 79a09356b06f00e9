"""The paper's exact claims, in exact arithmetic: Born weights in Q(sqrt 2)(i).

The reference shares no code with the package.  It rebuilds each protocol
from its definition: every party tosses a fair coin, prepared as ``|+>``,
and measures the observable its coin picks on its qubit of the shared
state, all as one projective measurement with one projector per outcome,

    |c_1><c_1| (x) ... (x) |c_n><c_n| (x) E^1_{c_1,m_1} (x) ... (x) E^n_{c_n,m_n},

where ``E^k_{c,m} = (I + m A^k_c) / 2``.  CHSH shares the singlet
``(|01> - |10>)/sqrt 2``; party A measures ``R = X`` or ``Q = Z``, party B
``S = -(X + Z)/sqrt 2`` or ``T = (-X + Z)/sqrt 2``.  GHZ shares
``(|000> - |111>)/sqrt 2``, and each party measures ``X`` or ``Y``.
Every amplitude is a Gaussian number over Q(sqrt 2), held as rationals in
:class:`fractions.Fraction`, so each weight ``|E psi|^2`` is exact, and so
is its comparison with the closed form, with the package's floats, and
with the float grid.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from typicality_lab.chsh import chsh_distribution, lhv_chsh_averages
from typicality_lab.ghz import ghz_distribution
from typicality_lab.spaces import point_mass
from typicality_lab.worlds import _cumulative_boundaries, _guide_tables


class Surd(NamedTuple):
    """``a + b sqrt 2`` with ``a`` and ``b`` rational."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __add__(self, other):
        return Surd(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return Surd(-self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return Surd(self.a * other.a + 2 * self.b * other.b, self.a * other.b + self.b * other.a)

    def sign(self) -> int:
        """-1, 0 or 1: the sign of ``a + b sqrt 2``.

        With ``a`` and ``b`` of opposite signs, the larger of ``a**2`` and
        ``2 b**2`` decides; the two are never equal, as sqrt 2 is irrational.
        """
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa
        if sa == 0:
            return sb
        return sa if self.a * self.a > 2 * self.b * self.b else sb


ZERO, ONE = Surd(Fraction(0)), Surd(Fraction(1))
HALF_SQRT2 = Surd(Fraction(0), Fraction(1, 2))  # 1 / sqrt 2


class Gauss(NamedTuple):
    """``re + i im`` over Q(sqrt 2)."""

    re: Surd
    im: Surd = ZERO

    def __add__(self, other):
        return Gauss(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __mul__(self, other):
        return Gauss(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def norm(self) -> Surd:
        return self.re * self.re + self.im * self.im


def real(x) -> Gauss:
    return Gauss(x if isinstance(x, Surd) else Surd(Fraction(x)))


IMAG = Gauss(ZERO, ONE)
ZERO_C = real(0)

#: 2x2 matrices as row tuples.
IDENTITY = ((real(1), real(0)), (real(0), real(1)))
X = ((real(0), real(1)), (real(1), real(0)))
Y = ((real(0), -IMAG), (IMAG, real(0)))
Z = ((real(1), real(0)), (real(0), real(-1)))


def combine(*terms):
    """``sum_k scale_k * M_k`` for ``(scale_k, M_k)`` pairs of 2x2 matrices."""
    return tuple(
        tuple(sum((s * m[r][c] for s, m in terms), real(0)) for c in range(2)) for r in range(2)
    )


S = combine((real(-HALF_SQRT2), X), (real(-HALF_SQRT2), Z))
T = combine((real(-HALF_SQRT2), X), (real(HALF_SQRT2), Z))


def effect(observable, m):
    """``(I + m A) / 2``: the projector onto result ``m`` of the involution ``A``."""
    half = real(Fraction(1, 2))
    return combine((half, IDENTITY), (real(Fraction(m, 2)), observable))


def coin_projector(c):
    return tuple(tuple(real(int(r == c == k)) for k in range(2)) for r in range(2))


def born_weights(observables, shared: dict) -> dict:
    """Each outcome ``(coins..., results...)`` with its exact weight ``|E psi|^2``.

    ``shared`` maps the parties' bits to the shared state's non-zero
    amplitudes; the coins come first on the state's axes, each in ``|+>``.
    """
    n = len(observables)
    plus = real(1)
    for _ in range(n):
        plus = plus * real(HALF_SQRT2)  # the coins' amplitude, 2**(-n/2)
    psi = {
        coins + bits: amp * plus
        for coins in itertools.product((0, 1), repeat=n)
        for bits, amp in shared.items()
    }
    weights = {}
    for coins in itertools.product((0, 1), repeat=n):
        for results in itertools.product((1, -1), repeat=n):
            factors = [coin_projector(c) for c in coins] + [
                effect(observables[k][c], m) for k, (c, m) in enumerate(zip(coins, results))
            ]
            state = psi
            for axis, factor in enumerate(factors):
                # Column ``col`` of the factor, as its non-zero ``(row, entry)`` pairs.
                columns = [
                    [(r, f[c]) for r, f in enumerate(factor) if f[c] != ZERO_C] for c in (0, 1)
                ]
                out: dict = {}
                for key, amp in state.items():
                    for row, entry in columns[key[axis]]:
                        moved = key[:axis] + (row,) + key[axis + 1 :]
                        out[moved] = out.get(moved, ZERO_C) + entry * amp
                state = out
            weights[coins + results] = sum((amp.norm() for amp in state.values()), ZERO)
    return weights


CHSH_WEIGHTS = born_weights(
    ((X, Z), (S, T)), {(0, 1): real(HALF_SQRT2), (1, 0): real(-HALF_SQRT2)}
)
GHZ_WEIGHTS = born_weights(
    ((X, Y),) * 3, {(0, 0, 0): real(HALF_SQRT2), (1, 1, 1): real(-HALF_SQRT2)}
)

#: cos(pi k / 2) for k = c1 + c2 + c3.
COS_QUARTER_TURNS = (1, 0, -1, 0)


def chsh_closed_form(c, d, m, n) -> Surd:
    """``[1 + (-1)^(cd) m n / sqrt 2] / 16``."""
    return Surd(Fraction(1, 16), Fraction((-1) ** (c * d) * m * n, 32))


def ghz_closed_form(c1, c2, c3, m1, m2, m3) -> Surd:
    """``[1 - m1 m2 m3 cos(pi (c1 + c2 + c3) / 2)] / 64``."""
    return Surd(Fraction(1 - m1 * m2 * m3 * COS_QUARTER_TURNS[c1 + c2 + c3], 64))


def correctly_rounded(exact: Surd) -> float:
    """The float nearest ``exact``; a rational's ties go to even, as ``float(Fraction)`` rounds."""
    if exact.b == 0:
        return float(exact.a)
    nearest = float(exact.a) + float(exact.b) * math.sqrt(2.0)
    while True:  # an irrational never equals the midpoint of two floats
        down, up = math.nextafter(nearest, -math.inf), math.nextafter(nearest, math.inf)
        if (exact - Surd((Fraction(nearest) + Fraction(down)) / 2)).sign() < 0:
            nearest = down
        elif (exact - Surd((Fraction(nearest) + Fraction(up)) / 2)).sign() > 0:
            nearest = up
        else:
            return nearest


def ulps_off(value: float, exact: Surd) -> int:
    """How many floats lie from ``correctly_rounded(exact)`` up to the positive ``value``."""
    value_bits, rounded_bits = np.array([value, correctly_rounded(exact)]).view(np.int64)
    return int(value_bits - rounded_bits)


def test_every_born_weight_is_its_closed_form():
    assert len(CHSH_WEIGHTS) == 16 and len(GHZ_WEIGHTS) == 64
    for outcome, weight in CHSH_WEIGHTS.items():
        assert weight == chsh_closed_form(*outcome), outcome
    for outcome, weight in GHZ_WEIGHTS.items():
        assert weight == ghz_closed_form(*outcome), outcome
    assert sum(CHSH_WEIGHTS.values(), ZERO) == ONE == sum(GHZ_WEIGHTS.values(), ZERO)
    zeros = [o for o, w in GHZ_WEIGHTS.items() if w == ZERO]
    assert len(zeros) == 16
    # The zeros are the perfect correlations: no round on coins 000 has the
    # product +1, and none on 011, 101 or 110 has -1.
    for *coins, m1, m2, m3 in zeros:
        assert sum(coins) in (0, 2) and m1 * m2 * m3 == (1 if sum(coins) == 0 else -1)


#: How far each analytic float weight lies from the correctly rounded exact one,
#: in ulps, by the sign of ``(-1)^(cd) m n``: none, for both protocols.  Each
#: closed form is one int ratio, rounded once.
ULPS_OFF = {"chsh": {1: 0, -1: 0}, "ghz": 0}


def test_analytic_floats_are_the_exact_weights_correctly_rounded():
    fps = chsh_distribution("analytic")
    for outcome, value in zip(fps.alphabet, fps.weights):
        c, d, m, n = outcome
        sign = (-1) ** (c * d) * m * n
        assert ulps_off(float(value), CHSH_WEIGHTS[tuple(outcome)]) == ULPS_OFF["chsh"][sign], (
            outcome
        )
    fps = ghz_distribution("analytic")
    for outcome, value in zip(fps.alphabet, fps.weights):
        exact = GHZ_WEIGHTS[tuple(outcome)]
        assert Fraction(float(value)) == exact.a and exact.b == 0, outcome
        assert ulps_off(float(value), exact) == ULPS_OFF["ghz"]


def test_exact_chsh_value_is_two_sqrt_two():
    # <RS> + <QS> + <RT> - <QT>: A's coin picks R (0) or Q (1), B's S (0) or T (1).
    def average(c, d):
        cell = [(m * n, CHSH_WEIGHTS[(c, d, m, n)]) for m in (1, -1) for n in (1, -1)]
        mass = sum((w for _, w in cell), ZERO)
        assert mass == Surd(Fraction(1, 4))
        return sum((Surd(Fraction(4 * p)) * w for p, w in cell), ZERO)

    s_value = average(0, 0) + average(1, 0) + average(0, 1) - average(1, 1)
    assert s_value == Surd(Fraction(0), Fraction(2))  # 2 sqrt 2, Tsirelson's bound
    for c, d in itertools.product((0, 1), repeat=2):
        assert average(c, d) == Surd(Fraction(0), Fraction((-1) ** (c * d), 2))


@pytest.mark.parametrize("vertex", list(itertools.product((1, -1), repeat=4)))
def test_every_vertex_s_value_is_exactly_two(vertex):
    r, q, s, t = vertex
    exact = r * s + q * s + r * t - q * t
    assert exact in (2, -2)
    alphabet = list(itertools.product((1, -1), repeat=4))
    assert lhv_chsh_averages(point_mass(alphabet, vertex)).s_value == exact


def test_ghz_boundaries_lie_on_the_guide_grid():
    fps = ghz_distribution("analytic")
    running = Fraction(0)
    cum = _cumulative_boundaries(fps)
    for outcome, boundary in zip(fps.alphabet, cum):
        running += GHZ_WEIGHTS[tuple(outcome)].a
        assert (running * 64).denominator == 1, outcome
        assert Fraction(float(boundary)) == running, outcome
    assert running == 1
    assert _guide_tables(cum)[1] is None  # no bucket of 1/1024 has a boundary inside
