"""Concrete expanding maps of the interval/circle with Markov partitions.

Four systems are provided:

* ``DAryShift(D)``         -- x -> D*x mod 1, uniform full shift on D symbols.
* ``MarkovLinear(M, p)``   -- piecewise-linear Markov map built from a
  stochastic matrix; preserves Lebesgue measure by construction.
* ``GaussMap()``           -- x -> 1/x - floor(1/x), continued fractions.
* ``BlaschkeBoundary(zeros)`` -- boundary action of a finite Blaschke
  product with B(0)=0, in angle coordinates on [0,1).

All maps expose the same small surface: ``evaluate``, ``log_derivative``,
``inverse_branch``, ``digit_of``, ``block_interval``, ``branch`` and a few
structural attributes (``expansion_beta``; ``partition0`` on the finite
alphabets; the digit chain (``p``, ``M``), a ``Chain``, on the linear maps).
``branch(prev, d)`` is the one check of a digit and of a transition, and
``MapModel.inverse_branch`` the one check of a branch image y in [0, 1]:
``block_interval``, ``slope``, ``subblock_interval`` and ``inverse_branch``
check through them, and raise their errors.  Linear maps and the
Gauss map are exact on ``fractions.Fraction`` inputs; Gauss and Blaschke add
vectorized float ``stepper`` (a row stepper with its own buffers; the Blaschke
one steps points of the unit circle, not angles) / ``log_derivative_array``.

Digit conventions: interval maps use half-open blocks [left, right) so that
itineraries are defined everywhere off a countable set.  The Gauss map uses
(left, right] instead, which is forced by the continued-fraction digit
d(x) = floor(1/x); e.g. the digits of 2/5 are (2, 2).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, count
from operator import or_
from typing import Optional, Sequence, Union

import numpy as np

from .schema import check, integer, kinds, listof, rational, rules, satisfies

Number = Union[int, float, Fraction]


class MapError(ValueError):
    """Invalid map construction or query."""


class InadmissibleDigit(MapError):
    """A symbolic transition forbidden by the Markov structure."""


class ForbiddenTransition(InadmissibleDigit):
    """A digit of the alphabet that the digit before it cannot go to."""


class BoundaryHit(Exception):
    """An orbit touched a partition boundary (or left the coded set X_0).

    Carries the step index and, for itineraries, the digits collected so
    far.  Callers decide whether to perturb, resample or abort.
    """

    def __init__(self, step: int, partial: tuple = (), reason: str = "boundary point"):
        self.step = step
        self.partial = tuple(partial)
        self.reason = reason
        super().__init__(f"{reason} at step {step}")


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def primitivity_exponent(M) -> Optional[int]:
    """Smallest n with M^n strictly positive, or None if M is not primitive.
    Row i of M^n's pattern is an int bit set: one step ORs the rows i reaches."""
    D = len(M)
    succ = [[j for j in range(D) if M[i][j] > 0] for i in range(D)]
    full, cur = (1 << D) - 1, [sum(1 << j for j in row) for row in succ]
    # Wielandt: a primitive matrix has a positive power by (D-1)^2 + 1
    for n in range(1, (D - 1) ** 2 + 2):
        if all(row == full for row in cur):
            return n
        cur = [reduce(or_, (cur[k] for k in row), 0) for row in succ]
    return None


def chain_violations(M, p=None) -> list:
    """Every way in which (p, M) is not a stationary chain: M square, with one
    row per entry of p, each row a probability vector, p strictly positive
    with sum 1, and pM = p.  Without p, the checks of M alone."""
    D = len(M if p is None else p)
    square = len(M) == D and all(len(row) == D for row in M)
    bad = [] if square else ["M must be a square matrix with one row and one column per state"]
    bad += [f"row {i} of M is not a probability vector: its entries must be >= 0 and sum to 1"
            for i, row in enumerate(M) if any(x < 0 for x in row) or sum(row) != 1]
    if p is not None:
        if any(x <= 0 for x in p) or sum(p) != 1:
            bad.append("p must be strictly positive and sum to 1")
        if square and any(sum(p[i] * M[i][j] for i in range(D)) != p[j] for j in range(D)):
            bad.append("p is not stationary for M (sum_i p_i M_ij != p_j)")
    return bad


class Chain:
    """A stationary digit chain (p, M) in integers: the linear maps and the
    chain measure carry one, and every chain product reads it."""

    @cached_property
    def scaled(self) -> tuple:
        """(Q, S): the lcm Q of the denominators of M and the integer matrix S = Q M;
        each distinct row once, so the D-ary map's D shared rows cost O(D)."""
        rows = {id(row): row for row in self.M}
        Q = math.lcm(*(x.denominator for row in rows.values() for x in row))
        S = {k: tuple(int(x * Q) for x in row) for k, row in rows.items()}
        return Q, tuple(S[id(row)] for row in self.M)

    def weight(self, word: Sequence[int]) -> int:     # prod S_{w_k w_{k+1}} along a word
        return math.prod(self.scaled[1][a][b] for a, b in zip(word, word[1:]))

    def word_mass(self, word: Sequence[int]) -> Fraction:
        """p_{w_0} weight(w) / Q^(|w|-1), one integer product and one Fraction."""
        p, Q = self.p[word[0]], self.scaled[0]
        return Fraction(p.numerator * self.weight(word), p.denominator * Q ** (len(word) - 1))


class MapModel:
    """Common interface; see concrete subclasses."""

    kind: str = "abstract"
    expansion_beta: float = 1.0  # certified expansion constant, > 1
    mixing_steps: int = 1        # smallest n0 with the n0-step expansion certified
    circle: bool = False
    exact: bool = True           # branch gives exact integer branches

    # -- geometry -----------------------------------------------------
    def block_interval(self, digit: int):
        """Endpoints (left, right) of the partition block P_digit."""
        self.branch(None, digit)
        return self.partition0[digit]

    def digit_of(self, x):
        raise NotImplementedError

    def branch(self, prev: Optional[int], d: int):
        """Check digit d read after prev (None before the first digit): InadmissibleDigit if
        either is outside the alphabet, ForbiddenTransition if prev cannot go to d.  An exact map
        returns the inverse branch from prev onto P_d, the integer matrix (a, b, c, e) of
        y -> (a*y + b)/(c*y + e), None before the first digit."""
        raise NotImplementedError

    def branch_targets(self, digit: int):
        """Digits d such that P_d is covered by T(P_digit)."""
        raise NotImplementedError

    # -- dynamics -----------------------------------------------------
    def evaluate(self, x):
        raise NotImplementedError

    def log_derivative(self, x) -> float:
        raise NotImplementedError

    def inverse_branch(self, digit: int, y):
        """The point of P_digit that T maps to y, for y in the branch image [0, 1]."""
        self.branch(None, digit)
        if not 0 <= y <= 1:
            raise MapError(f"{y} outside the branch image [0, 1]")
        return self._inverse(digit, y)


class DAryShift(MapModel, Chain):
    """x -> D*x mod 1 on [0,1) with the partition [k/D, (k+1)/D)."""

    kind = "dary"

    def __init__(self, D: int):
        _check("dary", D=D)
        self.D = D
        self.p = (Fraction(1, D),) * D
        self.M = (self.p,) * D          # the uniform chain: every row is the one tuple p
        self.expansion_beta = float(D)
        self.partition0 = tuple(
            (Fraction(k, D), Fraction(k + 1, D)) for k in range(D)
        )

    def digit_of(self, x):
        if not (0 <= x < 1):
            raise MapError(f"point {x} outside [0,1)")
        return math.floor(x * self.D)

    def branch_targets(self, digit):
        return range(self.D)

    def evaluate(self, x):
        return x * self.D - self.digit_of(x)

    def log_derivative(self, x) -> float:
        return math.log(self.D)

    def _inverse(self, digit, y):
        return (digit + y) / Fraction(self.D) if _is_exact(y) else (digit + y) / self.D

    def branch(self, prev, d):
        if not 0 <= d < self.D or prev is not None and not 0 <= prev < self.D:
            bad = prev if 0 <= d < self.D else d
            raise InadmissibleDigit(f"digit {bad} out of range for D={self.D}")
        return None if prev is None else (1, prev, 0, self.D)


class MarkovLinear(MapModel, Chain):
    """Piecewise-linear Markov map of a subshift of finite type.

    ``[0,1)`` is split into consecutive blocks P_i with lambda(P_i) = p_i;
    each P_i is split into sub-blocks P_{i,j} with lambda(P_{i,j}) =
    p_i * M[i][j], and T maps P_{i,j} affinely and increasingly onto P_j.
    Condition sum_i p_i M[i][j] = p_j makes T preserve Lebesgue measure,
    and the itinerary of a Lebesgue-random point is the stationary Markov
    chain (p, M).
    """

    kind = "markov"

    def __init__(self, M: Sequence[Sequence[Number]], p: Sequence[Number]):
        _check("markov", M=M, p=p)
        self.M = M = tuple(tuple(Fraction(x) for x in row) for row in M)
        self.p = p = tuple(Fraction(x) for x in p)
        self.D = D = len(p)

        self._cuts = cuts = tuple(accumulate(p, initial=Fraction(0)))
        # sub-block cuts inside each P_i
        self._subcuts = [tuple(accumulate((p[i] * x for x in M[i]), initial=cuts[i]))
                         for i in range(D)]
        self.partition0 = tuple((cuts[i], cuts[i + 1]) for i in range(D))
        def branch(i, j):       # y -> A + B*y from i onto P_j, lcm-reduced: (B L, A L, 0, L)
            B = p[i] * M[i][j] / p[j]
            A = self._subcuts[i][j] - cuts[j] * B
            L = math.lcm(A.denominator, B.denominator)
            return int(B * L), int(A * L), 0, L
        # built once, None where M forbids i -> j: the walks and the window engine read it
        self._branches = [[branch(i, j) if M[i][j] else None for j in range(D)] for i in range(D)]

        self.expansion_beta = self._certify_beta()

    @cached_property
    def mixing_steps(self) -> int:
        """The primitivity exponent of M, computed on first read."""
        return primitivity_exponent(self.M)

    def slope(self, i: int, j: int) -> Fraction:
        """T' = p_j / (p_i M_ij) on P_{i,j}: 1/B of the branch A + B*y from i onto P_j."""
        b, _, _, L = self.branch(i, j)
        return Fraction(L, b)

    def _certify_beta(self) -> float:
        # n-th roots of the least n-step slope products, n = 1.. until one is > 1 or n = n0
        slopes = {(i, j): self.slope(i, j) for i in range(self.D) for j in self.branch_targets(i)}
        best, prod = 0.0, slopes
        for n in count(1):
            worst = min(prod.values())
            best = max(best, float(worst) ** (1.0 / n))
            if worst > 1 or n >= self.mixing_steps:
                break
            nxt = {}
            for (i, k), s1 in prod.items():
                for j in self.branch_targets(k):
                    nxt[i, j] = min(nxt.get((i, j), math.inf), s1 * slopes[k, j])
            prod = nxt
        if best <= 1:
            raise MapError("could not certify expansion beta > 1")
        return best

    def subblock_interval(self, i: int, j: int):
        self.branch(i, j)
        return self._subcuts[i][j], self._subcuts[i][j + 1]

    def digit_of(self, x):
        if not (0 <= x < 1):
            raise MapError(f"point {x} outside [0,1)")
        # linear scan; D is small
        for i in range(self.D):
            if x < self._cuts[i + 1]:
                return i

    def _subdigit_of(self, i, x):
        sc = self._subcuts[i]
        for j in range(self.D):
            if self.M[i][j] > 0 and sc[j] <= x < sc[j + 1]:
                return j
        # right endpoint of the last nonempty sub-block belongs to the next block
        raise BoundaryHit(0, reason=f"point {x} on a sub-block boundary of P_{i}")

    def branch_targets(self, digit):
        return tuple(j for j in range(self.D) if self.M[digit][j] > 0)

    def evaluate(self, x):
        i = self.digit_of(x)
        j = self._subdigit_of(i, x)
        lo, _ = self.subblock_interval(i, j)
        return self._cuts[j] + (x - lo) * self.slope(i, j)

    def log_derivative(self, x) -> float:
        i = self.digit_of(x)
        j = self._subdigit_of(i, x)
        return math.log(self.slope(i, j))

    def _inverse(self, digit, y):
        b, a, _, L = self.branch(digit, self.digit_of(y) if y < 1 else self.D - 1)
        return Fraction(a, L) + Fraction(b, L) * y

    def branch(self, prev, d):
        if not 0 <= d < self.D or prev is not None and not 0 <= prev < self.D:
            raise InadmissibleDigit(f"digit {prev if 0 <= d < self.D else d} out of range")
        if prev is not None and (b := self._branches[prev][d]) is None:
            raise ForbiddenTransition(f"digit not admissible: transition {prev}->{d} forbidden")
        return None if prev is None else b

    @cached_property
    def float_branches(self):
        """Float copies (A, B) of the branches, indexed [digit, next digit];
        0 where the transition is forbidden.  Built on first use."""
        AB = np.array([[(b[1] / b[3], b[0] / b[3]) if b else (0, 0) for b in row]
                       for row in self._branches], dtype=float)
        return AB[..., 0], AB[..., 1]

    @cached_property
    def float_chain(self):
        """(cum_p, guide, table) for measures.digit_draws: float cumulative sums of p, a
        guide table (Chen & Asau 1974) of the distinct inner cuts of M's rows, and int32
        table[b, s] = d - s for the digit d that state s reads from a uniform past exactly
        b cuts.  The guide (G, base, slots) cuts [0, 1) into G = 2^p cells no wider than the
        gaps between the cuts below 1 and 1 (G <= 2^12); u in cell k = floor(u G) lies past
        the base[k] cuts <= k/G and each next cut slots[r, k] <= u, r < R, R the most in a cell."""
        cum = np.cumsum([[float(x) for x in row] for row in self.M], axis=1)
        for i in range(self.D):     # a uniform past a row's float sum takes its last admissible digit
            cum[i, max(self.branch_targets(i)):] = 1.0
        cuts = np.unique(cum[:, :-1])
        table = [row.searchsorted(np.append(-1.0, cuts), "right") - s for s, row in enumerate(cum)]
        G = 2 ** min(12, 1 - math.frexp(np.diff(cuts[cuts < 1], append=1.0).min())[1])
        base = cuts.searchsorted(np.arange(G) / G, "right")
        R = (cuts.searchsorted(np.arange(1, G + 1) / G) - base).max()
        slots = np.append(cuts, [np.inf] * R)[base + np.arange(R)[:, None]]    # past cell k: > u
        return (np.cumsum([float(x) for x in self.p]), (G, base, slots),
                np.stack(table, 1).astype(np.int32))


class GaussMap(MapModel):
    """Gauss transformation x -> 1/x - floor(1/x); digits are CF digits.

    Blocks are I_d = (1/(d+1), 1/d], d >= 1, so that digit_of(x) =
    floor(1/x).  Rational orbits end at 0, which is flagged rather than
    coded.  The certified expansion constant is beta = 2 via the two-step
    derivative |(T^2)'| >= 4.
    """

    kind = "gauss"

    def __init__(self):
        self.expansion_beta = 2.0
        self.mixing_steps = 2

    def block_interval(self, digit):
        self.branch(None, digit)
        return Fraction(1, digit + 1), Fraction(1, digit)

    def digit_of(self, x):
        if x == 0:
            raise BoundaryHit(0, reason="orbit ended at 0")
        if not (0 < x <= 1):
            raise MapError(f"point {x} outside (0,1]")
        inv = 1 / x if _is_exact(x) else 1.0 / x
        # floor(1/x); under the right-closed convention 1/d itself has digit d
        return int(inv)

    def branch(self, prev, d):
        if d < 1 or prev is not None and prev < 1:
            raise InadmissibleDigit(f"Gauss digit must be >= 1, got {prev if d >= 1 else d}")
        return None if prev is None else (0, 1, 1, prev)

    def branch_targets(self, digit):
        return None  # full: T(I_d) = (0,1)

    def evaluate(self, x):
        d = self.digit_of(x)
        return 1 / x - d if _is_exact(x) else 1.0 / x - d

    def log_derivative(self, x) -> float:
        if x == 0:
            raise MapError("log-derivative undefined at 0")
        return -2.0 * math.log(float(x))

    def stepper(self, width: int):
        """step(x, out): T(x) = 1/x - floor(1/x), exact, of width points into out
        (which may be x); an ended orbit lands on 0, or on nan if 1/x overflowed."""
        fl = np.empty(width)
        return lambda x, out: np.subtract(np.reciprocal(x, out), np.floor(out, fl), out)

    def log_derivative_array(self, x: np.ndarray) -> np.ndarray:
        return -2.0 * np.log(x)

    def _inverse(self, digit, y):
        return 1 / (digit + y) if _is_exact(y) else 1.0 / (digit + y)


class BlaschkeBoundary(MapModel):
    """Boundary map of a finite Blaschke product with B(0)=0.

    Works in angle coordinates t in [0,1), z = e^{2 pi i t}.  The argument
    lift S satisfies e^{2 pi i S(t)} = B(e^{2 pi i t}), S(t+1) = S(t) + N,
    and S'(t) = |B'(e^{2 pi i t})| = sum_k (1-|a_k|^2)/|z-a_k|^2 > 1, so S
    is an increasing diffeomorphism and branch inverses can be found by
    safeguarded Newton iteration on S.
    """

    kind = "blaschke"
    circle = True
    exact = False
    NEWTON_TOL = 1e-14

    def __init__(self, zeros: Sequence[complex]):
        _check("blaschke", zeros=zeros)
        self.zeros = zeros = tuple(map(_point, zeros))
        self.N = len(zeros)
        # |B'| = n0 + sum over the other zeros of (1-|a|^2)/|z-a|^2 >= n0 + sum
        # (1-|a|)/(1+|a|) > 1, with n0 >= 1 the multiplicity of 0 and N >= 2
        n0 = sum(1 for a in zeros if a == 0)
        self.expansion_beta = n0 + sum(
            (1 - abs(a)) / (1 + abs(a)) for a in zeros if a != 0
        )
        self._lift_const = cmath.phase(self._B(1.0 + 0j)) / (2 * math.pi)
        self._boundaries = b = self._compute_boundaries()
        self.partition0 = tuple(zip(b, b[1:]))

    def _B(self, z: complex) -> complex:
        w = 1.0 + 0j
        for a in self.zeros:
            if a == 0:
                w *= z
            else:
                w *= (abs(a) / a) * (z - a) / (1 - a.conjugate() * z)
        return w

    def lift(self, t: float) -> float:
        """The increasing argument lift S(t), normalized so S(0) in [0,1)."""
        tot = self.N * t + self._lift_const
        z = cmath.exp(2j * math.pi * t)
        for a in self.zeros:
            if a != 0:
                tot -= (cmath.phase(1 - a.conjugate() * z)
                        - cmath.phase(1 - a.conjugate())) / math.pi
        return tot

    def derivative_abs(self, t: float) -> float:
        z = cmath.exp(2j * math.pi * t)
        return sum((1 - abs(a) ** 2) / abs(z - a) ** 2 for a in self.zeros)

    def _solve_lift(self, target: float, lo: float, hi: float) -> float:
        """Solve S(t) = target on [lo, hi] by Newton with bisection safeguard."""
        flo = self.lift(lo) - target
        fhi = self.lift(hi) - target
        if flo > 1e-12 or fhi < -1e-12:
            raise MapError("target not bracketed in lift solve")
        t = 0.5 * (lo + hi)
        for _ in range(200):
            f = self.lift(t) - target
            if abs(f) < self.NEWTON_TOL:
                return t
            if f > 0:
                hi = t
            else:
                lo = t
            step = t - f / self.derivative_abs(t)
            t = step if lo < step < hi else 0.5 * (lo + hi)
        return t

    def _compute_boundaries(self):
        c = self._lift_const
        # S maps [0,1] onto [c, c+N]; its N integer crossings m0.. start the arcs, the first
        # at t = 0 if c = 0, and the last arc closes at the first boundary + 1 (wraps if c != 0)
        at_zero = abs(c) < 1e-13
        m0 = 0 if at_zero else math.ceil(c)
        taus = [0.0 if at_zero else self._solve_lift(float(m0), 0.0, 1.0)]
        for m in range(m0 + 1, m0 + self.N):
            taus.append(self._solve_lift(float(m), taus[-1], 1.0))
        return (*taus, taus[0] + 1.0)

    def branch(self, prev, d):
        if not 0 <= d < self.N or prev is not None and not 0 <= prev < self.N:
            bad = prev if 0 <= d < self.N else d
            raise InadmissibleDigit(f"digit {bad} out of range for N={self.N}")

    def digit_of(self, t):
        t = float(t) % 1.0
        b = self._boundaries
        if t < b[0]:
            t += 1.0
        for k in range(self.N):
            if b[k] <= t < b[k + 1]:
                return k
        raise BoundaryHit(0, reason=f"angle {t} on an arc boundary")

    def branch_targets(self, digit):
        return range(self.N)

    def evaluate(self, t):
        t = float(t) % 1.0
        return (cmath.phase(self._B(cmath.exp(2j * math.pi * t))) / (2 * math.pi)) % 1.0

    def log_derivative(self, t) -> float:
        return math.log(self.derivative_abs(float(t) % 1.0))

    def stepper(self, width: int):
        """step(z, out): B(z) of a row of width points z of the unit circle into
        out (which may be z).  On |z| = 1 each factor obeys 1 - conj(a) z =
        z conj(z - a), so B(z) = C zh^k W / conj(W): W is the product of the
        zh - a over the nonzero zeros a, k = (zeros at 0) - (nonzero zeros), a
        negative power is one of conj(zh), and C = prod |a|/a is dropped when it
        is 1.  W / conj(W) has modulus one for every W, so rounding does not
        build up off the circle; where k != 0, zh = z/|z|, so that a lone z^k
        cannot carry |z| drift forward, and zh = z otherwise.  Calls and buffers
        are fixed here, each constant is a full row, and no complex ufunc writes
        into one of its inputs, which rounds differently on a row of one."""
        nonzero = [a for a in self.zeros if a != 0]
        k, C = len(self.zeros) - 2 * len(nonzero), np.prod([abs(a) / a for a in nonzero])
        ops, z_in = [], object()        # z_in stands for the input row

        def call(f, *args):
            ops.append((f, *args, out := np.empty(width, complex)))
            return out
        zh, factors = z_in, [np.full(width, C)] if C != 1 else []
        if k:       # zh = z / (|z| + 0i): a complex divisor, so no row is cast
            ops.append((np.abs, z_in, (norm := np.zeros(width, complex)).real))
            zh = call(np.divide, z_in, norm)
            power = base = zh if k > 0 else call(np.conjugate, zh)
            for _ in range(abs(k) - 1):
                power = call(np.multiply, power, base)
            factors.append(power)
        if nonzero:
            W = call(np.subtract, zh, np.full(width, nonzero[0]))
            for a in nonzero[1:]:
                W = call(np.multiply, W, call(np.subtract, zh, np.full(width, a)))
            factors.append(call(np.divide, W, call(np.conjugate, W)))
        for f in factors[1:]:
            factors[0] = call(np.multiply, factors[0], f)
        # the calls that read z go first, as f(z, *args); the last writes into out
        head = [(f, args) for f, x, *args in ops if x is z_in]
        body = [partial(*op) for op in ops[:-1] if op[1] is not z_in]
        last = partial(*ops[-1][:-1])

        def step(z, out):
            for f, args in head:
                f(z, *args)
            for f in body:
                f()
            return last(out)
        return step

    def log_derivative_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized log|B'(e^{2 pi i t})|."""
        z = np.exp(2j * np.pi * t)
        tot = np.zeros(z.shape)
        for a in self.zeros:
            tot += (1 - abs(a) ** 2) / np.abs(z - a) ** 2
        return np.log(tot)

    def _inverse(self, digit, y):
        lo, hi = self.partition0[digit]
        base = self.lift(lo)
        m = round(base)
        if abs(base - m) > 1e-10:
            raise MapError("arc boundary is not an integer lift point")
        return self._solve_lift(m + float(y), lo, hi) % 1.0


def _chain_rule(spec):
    M = [[Fraction(x) for x in row] for row in spec["M"]]
    bad = chain_violations(M, [Fraction(x) for x in spec["p"]])
    if not bad and len(M) < 2:
        bad = ["M must have two or more states: with one, T is the identity, which does not expand"]
    elif not bad and not primitivity_exponent(M):
        bad = ["M must be primitive: some power of M must have every entry > 0"]
    return "; ".join(bad)


def _point(z):
    """A zero x, [x, y] or x + iy with finite parts as a complex number, else None."""
    xy = (z.real, z.imag) if isinstance(z, complex) else \
        z if isinstance(z, (list, tuple)) else (z, 0)
    if len(xy) == 2 and all(isinstance(t, (int, float)) and not isinstance(t, bool)
                            and math.isfinite(t) for t in xy):
        return complex(*xy)


def _domain(want, ok):
    """Checker of a point, "num/den" or decimal, whose exact value satisfies ok;
    what Fraction cannot read (a float nan or infinity, "abc") has none."""
    return satisfies(lambda x: ok(Fraction(x)), f"a point of {want}")


_ZERO = satisfies(lambda z: (a := _point(z)) is not None and abs(a) < 1,
                  "a point x or [x, y] inside the unit circle")
_LINEAR = _domain("[0, 1)", lambda x: 0 <= x < 1)

# kind -> (class, its config fields by constructor argument or (fields, rule of
# the block), the digits of its words, the domain of its points); each
# constructor checks its converted arguments through its entry
MAP_KINDS = {
    "dary": (DAryShift, {"D": integer(2, 2 ** 16)}, lambda spec: range(spec["D"]), _LINEAR),
    # a stochastic matrix and a distribution, row-major "num/den" entries
    "markov": (MarkovLinear, ({"M": listof(listof(rational(0, 1, closed=True))),
                               "p": listof(rational(0, 1, closed=True))}, _chain_rule),
               lambda spec: range(len(spec["p"])), _LINEAR),
    "gauss": (GaussMap, {}, lambda spec: range(1, 2 ** 63),
              _domain("(0, 1]", lambda x: 0 < x <= 1)),
    "blaschke": (BlaschkeBoundary, ({"zeros": listof(_ZERO)}, rules(
        (lambda spec: len(spec["zeros"]) >= 2 and 0 in map(_point, spec["zeros"]),
         "zeros must hold two or more points, one the origin: B(0) = 0 keeps Lebesgue "
         "measure, and a second zero makes B expand"))),
                 lambda spec: range(len(spec["zeros"])),
                 _domain("[0, 1]", lambda x: 0 <= x <= 1)),     # angle 1 is angle 0
}
MAP_SCHEMA = kinds({k: v[1] for k, v in MAP_KINDS.items()})


def _check(kind, **args):
    check(MAP_SCHEMA, {"kind": kind, **args}, "map", kind, MapError)


def make_map(spec: dict) -> MapModel:
    """Build a map from a config block: {'kind': ..., parameters}.

    Rational parameters are given as 'num/den' strings; stochastic matrices
    row-major.
    """
    kind = spec.get("kind")
    if kind not in MAP_KINDS:
        raise MapError(f"unknown map kind {kind!r}")
    return MAP_KINDS[kind][0](**{k: v for k, v in spec.items() if k != "kind"})

