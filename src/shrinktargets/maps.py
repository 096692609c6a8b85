"""Concrete expanding maps of the interval/circle with Markov partitions.

Four systems are provided:

* ``DAryShift(D)``         -- x -> D*x mod 1, uniform full shift on D symbols.
* ``MarkovLinear(M, p)``   -- piecewise-linear Markov map built from a
  stochastic matrix; preserves Lebesgue measure by construction.
* ``GaussMap()``           -- x -> 1/x - floor(1/x), continued fractions.
* ``BlaschkeBoundary(zeros)`` -- boundary action of a finite Blaschke
  product with B(0)=0, in angle coordinates on [0,1).

All maps expose the same small surface: ``evaluate``, ``log_derivative``,
``inverse_branch``, ``digit_of``, ``block_interval``, ``admissible`` and a
few structural attributes (``branch_count``, ``expansion_beta``,
``partition0``).  Linear maps and the Gauss map are exact on
``fractions.Fraction`` inputs; Gauss and Blaschke add vectorized float
``step`` / ``log_derivative_array``.

Digit conventions: interval maps use half-open blocks [left, right) so that
itineraries are defined everywhere off a countable set.  The Gauss map uses
(left, right] instead, which is forced by the continued-fraction digit
d(x) = floor(1/x); e.g. the digits of 2/5 are (2, 2).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]


class MapError(ValueError):
    """Invalid map construction or query."""


class InadmissibleDigit(MapError):
    """A symbolic transition forbidden by the Markov structure."""


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
    """Smallest n with M^n strictly positive, or None if M is not primitive."""
    D = len(M)
    pos = [[M[i][j] > 0 for j in range(D)] for i in range(D)]
    cur = pos
    # Wielandt: a primitive matrix has a positive power by (D-1)^2 + 1
    for n in range(1, (D - 1) ** 2 + 2):
        if all(all(row) for row in cur):
            return n
        cur = [[any(cur[i][k] and pos[k][j] for k in range(D)) for j in range(D)]
               for i in range(D)]
    return None


class MapModel:
    """Common interface; see concrete subclasses."""

    kind: str = "abstract"
    branch_count = None          # int, or None for countably many branches
    expansion_beta: float = 1.0  # certified expansion constant, > 1
    mixing_steps: int = 1        # smallest n0 with the n0-step expansion certified
    circle: bool = False

    # -- geometry -----------------------------------------------------
    def block_interval(self, digit: int):
        """Endpoints (left, right) of the partition block P_digit."""
        raise NotImplementedError

    def digit_of(self, x):
        raise NotImplementedError

    def admissible(self, d_from: int, d_to: int) -> bool:
        return True

    def branch_targets(self, digit: int):
        """Digits d such that P_d is covered by T(P_digit)."""
        raise NotImplementedError

    def orientation(self, digit: int) -> int:
        """+1 for increasing branches, -1 for decreasing."""
        return 1

    def distance(self, x, y):
        d = abs(x - y)
        if self.circle:
            return min(d, 1 - d)
        return d

    # -- dynamics -----------------------------------------------------
    def evaluate(self, x):
        raise NotImplementedError

    def log_derivative(self, x) -> float:
        raise NotImplementedError

    def inverse_branch(self, digit: int, y):
        raise NotImplementedError

    def key(self) -> str:
        return self.kind


class DAryShift(MapModel):
    """x -> D*x mod 1 on [0,1) with the partition [k/D, (k+1)/D)."""

    kind = "dary"

    def __init__(self, D: int):
        if not isinstance(D, int) or D < 2:
            raise MapError("D must be an integer >= 2")
        self.D = D
        self.branch_count = D
        self.expansion_beta = float(D)
        self.partition0 = tuple(
            (Fraction(k, D), Fraction(k + 1, D)) for k in range(D)
        )

    def key(self):
        return f"dary({self.D})"

    def block_interval(self, digit):
        if not 0 <= digit < self.D:
            raise InadmissibleDigit(f"digit {digit} out of range for D={self.D}")
        return self.partition0[digit]

    def digit_of(self, x):
        if not (0 <= x < 1):
            raise MapError(f"point {x} outside [0,1)")
        return int(x * self.D) if _is_exact(x * self.D) else int(math.floor(x * self.D))

    def branch_targets(self, digit):
        return range(self.D)

    def evaluate(self, x):
        if not (0 <= x < 1):
            raise MapError(f"point {x} outside [0,1)")
        y = x * self.D
        return y - math.floor(y)

    def log_derivative(self, x) -> float:
        return math.log(self.D)

    def inverse_branch(self, digit, y):
        if not 0 <= digit < self.D:
            raise InadmissibleDigit(f"digit {digit} out of range for D={self.D}")
        if not (0 <= y <= 1):
            raise MapError(f"{y} outside the branch image [0,1)")
        return (digit + y) / Fraction(self.D) if _is_exact(y) else (digit + y) / self.D

    def branch_affine(self, d_from, d_to):
        """Exact (A, B) with G_{d_from}(y) = A + B*y on the block of d_to."""
        if not (0 <= d_from < self.D and 0 <= d_to < self.D):
            raise InadmissibleDigit(f"digits {d_from}->{d_to} out of range for D={self.D}")
        return Fraction(d_from, self.D), Fraction(1, self.D)


class MarkovLinear(MapModel):
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
        M = [[Fraction(x) for x in row] for row in M]
        p = [Fraction(x) for x in p]
        D = len(p)
        if len(M) != D or any(len(row) != D for row in M):
            raise MapError("M must be DxD with len(p) == D")
        for i, row in enumerate(M):
            if any(x < 0 for x in row):
                raise MapError("negative transition probability")
            if sum(row) != 1:
                raise MapError(f"row {i} of M does not sum to 1")
        if any(x <= 0 for x in p) or sum(p) != 1:
            raise MapError("p must be strictly positive and sum to 1")
        for j in range(D):
            if sum(p[i] * M[i][j] for i in range(D)) != p[j]:
                raise MapError("p is not stationary for M (sum_i p_i M_ij != p_j)")
        self.M = tuple(tuple(row) for row in M)
        self.p = tuple(p)
        self.D = D
        self.branch_count = D

        cuts = [Fraction(0)]
        for i in range(D):
            cuts.append(cuts[-1] + p[i])
        self._cuts = tuple(cuts)
        # sub-block cuts inside each P_i
        self._subcuts = []
        for i in range(D):
            sc = [cuts[i]]
            for j in range(D):
                sc.append(sc[-1] + p[i] * M[i][j])
            self._subcuts.append(tuple(sc))
        self.partition0 = tuple((cuts[i], cuts[i + 1]) for i in range(D))

        self.mixing_steps = primitivity_exponent(self.M)
        if self.mixing_steps is None:
            raise MapError("transition matrix not primitive")
        self.expansion_beta = self._certify_beta()

    def key(self):
        return f"markov({self.p},{self.M})"

    def slope(self, i: int, j: int) -> Fraction:
        if self.M[i][j] == 0:
            raise InadmissibleDigit(f"transition {i}->{j} forbidden (M[{i}][{j}]=0)")
        return self.p[j] / (self.p[i] * self.M[i][j])

    def _certify_beta(self) -> float:
        # min over n0-step branch compositions of the slope product, rooted
        slopes = {
            (i, j): self.slope(i, j)
            for i in range(self.D)
            for j in range(self.D)
            if self.M[i][j] > 0
        }
        one_step = min(slopes.values())
        if one_step > 1:
            return float(one_step)
        best = 0.0
        prod = {(i, j): s for (i, j), s in slopes.items()}
        for n in range(2, self.mixing_steps + 1):
            nxt = {}
            for (i, k), s1 in prod.items():
                for j in range(self.D):
                    if self.M[k][j] > 0:
                        v = s1 * slopes[(k, j)]
                        key = (i, j)
                        if key not in nxt or v < nxt[key]:
                            nxt[key] = v
            prod = nxt
            worst = min(prod.values())
            best = max(best, float(worst) ** (1.0 / n))
            if worst > 1:
                break
        if best <= 1:
            raise MapError("could not certify expansion beta > 1")
        return best

    def block_interval(self, digit):
        if not 0 <= digit < self.D:
            raise InadmissibleDigit(f"digit {digit} out of range")
        return self.partition0[digit]

    def subblock_interval(self, i: int, j: int):
        if self.M[i][j] == 0:
            raise InadmissibleDigit(f"transition {i}->{j} forbidden (M[{i}][{j}]=0)")
        return self._subcuts[i][j], self._subcuts[i][j + 1]

    def digit_of(self, x):
        if not (0 <= x < 1):
            raise MapError(f"point {x} outside [0,1)")
        # linear scan; D is small
        for i in range(self.D):
            if x < self._cuts[i + 1]:
                return i
        return self.D - 1

    def _subdigit_of(self, i, x):
        sc = self._subcuts[i]
        for j in range(self.D):
            if self.M[i][j] > 0 and sc[j] <= x < sc[j + 1]:
                return j
        # right endpoint of the last nonempty sub-block belongs to the next block
        raise BoundaryHit(0, reason=f"point {x} on a sub-block boundary of P_{i}")

    def admissible(self, d_from, d_to):
        return self.M[d_from][d_to] > 0

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

    def inverse_branch(self, digit, y):
        if not (0 <= y <= 1):
            raise MapError(f"{y} outside [0,1)")
        j = self.digit_of(y) if y < 1 else self.D - 1
        lo, _ = self.subblock_interval(digit, j)  # raises InadmissibleDigit if forbidden
        return lo + (y - self._cuts[j]) / self.slope(digit, j)

    def branch_affine(self, d_from, d_to):
        """Exact (A, B) with G_{d_from}(y) = A + B*y on the block of d_to."""
        lo, _ = self.subblock_interval(d_from, d_to)
        B = 1 / self.slope(d_from, d_to)
        return lo - self._cuts[d_to] * B, B


class GaussMap(MapModel):
    """Gauss transformation x -> 1/x - floor(1/x); digits are CF digits.

    Blocks are I_d = (1/(d+1), 1/d], d >= 1, so that digit_of(x) =
    floor(1/x).  Rational orbits end at 0, which is flagged rather than
    coded.  The certified expansion constant is beta = 2 via the two-step
    derivative |(T^2)'| >= 4.
    """

    kind = "gauss"
    circle = False

    def __init__(self, display_blocks: int = 8):
        self.branch_count = None
        self.expansion_beta = 2.0
        self.mixing_steps = 2
        self.partition0 = tuple(
            (Fraction(1, d + 1), Fraction(1, d)) for d in range(1, display_blocks + 1)
        )

    def key(self):
        return "gauss"

    def block_interval(self, digit):
        if digit < 1:
            raise InadmissibleDigit(f"Gauss digit must be >= 1, got {digit}")
        return Fraction(1, digit + 1), Fraction(1, digit)

    def digit_of(self, x):
        if x == 0:
            raise BoundaryHit(0, reason="orbit ended at 0")
        if not (0 < x <= 1):
            raise MapError(f"point {x} outside (0,1]")
        inv = 1 / x if _is_exact(x) else 1.0 / x
        # floor(1/x); under the right-closed convention 1/d itself has digit d
        return int(inv)

    def admissible(self, d_from, d_to):
        return d_from >= 1 and d_to >= 1

    def branch_targets(self, digit):
        return None  # full: T(I_d) = (0,1)

    def orientation(self, digit):
        return -1

    def evaluate(self, x):
        d = self.digit_of(x)
        return 1 / x - d if _is_exact(x) else 1.0 / x - d

    def log_derivative(self, x) -> float:
        if x == 0:
            raise MapError("log-derivative undefined at 0")
        return -2.0 * math.log(float(x))

    def step(self, x: np.ndarray) -> np.ndarray:
        """Vectorized float T(x) (exact fractional part of 1/x); an orbit
        that ends lands on 0."""
        return np.modf(1.0 / x)[0]

    def log_derivative_array(self, x: np.ndarray) -> np.ndarray:
        return -2.0 * np.log(x)

    def inverse_branch(self, digit, y):
        if digit < 1:
            raise InadmissibleDigit(f"Gauss digit must be >= 1, got {digit}")
        if not (0 <= y <= 1):
            raise MapError(f"{y} outside [0,1)")
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
    NEWTON_TOL = 1e-14

    def __init__(self, zeros: Sequence[complex]):
        zeros = [complex(a) for a in zeros]
        if len(zeros) < 2:
            raise MapError("need at least two zeros for an expanding boundary map")
        if not any(a == 0 for a in zeros):
            raise MapError("need a zero at the origin (B(0)=0) for Lebesgue invariance")
        if any(abs(a) >= 1 for a in zeros):
            raise MapError("all zeros must lie strictly inside the unit disk")
        self.zeros = tuple(zeros)
        self.N = len(zeros)
        self.branch_count = self.N
        # |B'| = n0 + sum over the other zeros of (1-|a|^2)/|z-a|^2
        #      >= n0 + sum (1-|a|)/(1+|a|), with n0 = multiplicity of 0
        n0 = sum(1 for a in zeros if a == 0)
        self.expansion_beta = n0 + sum(
            (1 - abs(a)) / (1 + abs(a)) for a in zeros if a != 0
        )
        if self.expansion_beta <= 1:
            raise MapError("could not certify expansion beta > 1")
        self._lift_const = cmath.phase(self._B(1.0 + 0j)) / (2 * math.pi)
        self._boundaries = self._compute_boundaries()
        self.partition0 = tuple(
            (self._boundaries[k], self._boundaries[k + 1]) for k in range(self.N)
        )

    def key(self):
        return f"blaschke({self.zeros})"

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
                u = 1 - a.conjugate() * z
                u0 = 1 - a.conjugate()
                tot -= (cmath.phase(u) - cmath.phase(u0)) / math.pi
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
        # S maps [0,1] onto [c, c+N]; find the N integer crossings in (c, c+N]
        if abs(c) < 1e-13:
            targets = list(range(0, self.N + 1))
            taus = [0.0]
            for m in targets[1:-1]:
                taus.append(self._solve_lift(float(m), taus[-1], 1.0))
            taus.append(1.0)
            return tuple(taus)
        # wraparound case: first boundary is the smallest crossing in (0,1)
        m0 = math.ceil(c)
        taus = [self._solve_lift(float(m0), 0.0, 1.0)]
        for m in range(m0 + 1, m0 + self.N):
            taus.append(self._solve_lift(float(m), taus[-1], 1.0))
        taus.append(taus[0] + 1.0)  # wrap arc closes back at the first boundary
        return tuple(taus)

    def block_interval(self, digit):
        if not 0 <= digit < self.N:
            raise InadmissibleDigit(f"digit {digit} out of range for N={self.N}")
        return self._boundaries[digit], self._boundaries[digit + 1]

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

    def step(self, t: np.ndarray) -> np.ndarray:
        """Vectorized float T(t) = arg B(e^{2 pi i t}) / (2 pi) mod 1."""
        z = np.exp(2j * np.pi * t)
        w = np.ones_like(z)
        for a in self.zeros:
            w = w * z if a == 0 else w * (abs(a) / a) * (z - a) / (1 - np.conj(a) * z)
        return np.mod(np.angle(w) / (2 * np.pi), 1.0)

    def log_derivative_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized log|B'(e^{2 pi i t})|."""
        z = np.exp(2j * np.pi * t)
        tot = np.zeros(z.shape)
        for a in self.zeros:
            tot += (1 - abs(a) ** 2) / np.abs(z - a) ** 2
        return np.log(tot)

    def inverse_branch(self, digit, y):
        if not 0 <= digit < self.N:
            raise InadmissibleDigit(f"digit {digit} out of range for N={self.N}")
        if not (0 <= y <= 1):
            raise MapError(f"angle {y} outside [0,1)")
        lo, hi = self._boundaries[digit], self._boundaries[digit + 1]
        base = self.lift(lo)
        m = round(base)
        if abs(base - m) > 1e-10:
            raise MapError("arc boundary is not an integer lift point")
        return self._solve_lift(m + float(y), lo, hi) % 1.0


def make_map(spec: dict) -> MapModel:
    """Build a map from a config block: {'kind': ..., parameters}.

    Rational parameters are given as 'num/den' strings; stochastic matrices
    row-major.
    """
    kind = spec.get("kind")
    if kind == "dary":
        return DAryShift(int(spec["D"]))
    if kind == "markov":
        M = [[Fraction(str(x)) for x in row] for row in spec["M"]]
        p = [Fraction(str(x)) for x in spec["p"]]
        return MarkovLinear(M, p)
    if kind == "gauss":
        return GaussMap()
    if kind == "blaschke":
        zeros = [complex(z[0], z[1]) if isinstance(z, (list, tuple)) else complex(z)
                 for z in spec["zeros"]]
        return BlaschkeBoundary(zeros)
    raise MapError(f"unknown map kind {kind!r}")


def bernoulli_map(weights: Sequence[Number]) -> MarkovLinear:
    """Full-branch piecewise-linear map with branch weights p (i.i.d. digits)."""
    p = [Fraction(w) for w in weights]
    M = [list(p) for _ in p]
    return MarkovLinear(M, p)
