"""Invariant measures, stationary vectors, and entropy estimators.

Three measures: Lebesgue, the Gauss measure (density 1/((1+x) log 2)), and
the stationary Markov-chain measure on digit words.  Three entropy
estimators: closed form, Birkhoff averages of log|T'| along sampled
orbits, and finite-depth Shannon-McMillan-Breiman quotients on exact
cylinder masses.  Everything is in nats.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .maps import (
    BlaschkeBoundary,
    DAryShift,
    GaussMap,
    MapModel,
    MarkovLinear,
    primitivity_exponent,
)
from .coding import Target, cylinder_from_word

LOG2 = math.log(2)
GAUSS_ENTROPY = math.pi ** 2 / (6 * LOG2)
_SCAN_CHUNK = 1 << 16    # rows composed per numpy call of the chain scan
ORBIT_BLOCK = 128        # rows x_n per block of the float-orbit engines


def trial_seed(master_seed: int, trial: int) -> int:
    """64-bit per-trial seed: SHA-256 of 'shrinktargets:<seed>:<trial>'.

    Fixed across platforms and worker counts so that merged results are
    bit-stable for a given master seed.
    """
    digest = hashlib.sha256(f"shrinktargets:{master_seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class MeasureError(ValueError):
    pass


def log_mass(mass) -> float:
    """log of a mass; exact masses below the float range keep a finite log."""
    if isinstance(mass, Fraction):
        return math.log(mass.numerator) - math.log(mass.denominator)
    return math.log(float(mass))


class InvariantMeasure:
    kind = "abstract"

    def interval_mass(self, a, b):
        raise NotImplementedError

    def cylinder_mass(self, m: MapModel, word: Sequence[int]):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


class LebesgueMeasure(InvariantMeasure):
    kind = "lebesgue"

    def interval_mass(self, a, b):
        if a > b:
            raise MeasureError("reversed endpoints")
        lo = max(a, 0)
        hi = min(b, 1)
        return max(hi - lo, 0)

    def cylinder_mass(self, m, word):
        c = cylinder_from_word(m, word)
        return c.length

    def sample(self, rng, size):
        return rng.random(size)


class GaussMeasure(InvariantMeasure):
    """mu(A) = (1/log 2) * integral over A of dx/(1+x); the Gauss-map ACIPM."""

    kind = "gauss"

    def interval_mass(self, a, b):
        if a > b:
            raise MeasureError("reversed endpoints")
        a = max(a, 0)
        b = min(b, 1)
        if b <= a:
            return 0.0
        # log1p of the exact relative increment keeps deep cylinders accurate
        t = float(Fraction(b - a) / (1 + Fraction(a))) if isinstance(a, (int, Fraction)) \
            else (b - a) / (1 + a)
        return math.log1p(t) / LOG2

    def log_interval_mass(self, a, b) -> float:
        """log mu([a,b]) computed stably for very short intervals."""
        t = float(Fraction(b - a) / (1 + Fraction(a)))
        return math.log(math.log1p(t)) - math.log(LOG2)

    def density_bounds(self):
        return 1 / (2 * LOG2), 1 / LOG2

    def comparability_constant(self):
        return 2.0

    def cylinder_mass(self, m, word):
        c = cylinder_from_word(m, word)
        return self.interval_mass(c.left, c.right)

    def sample(self, rng, size):
        # inverse CDF: F(x) = log2(1+x), so x = 2^u - 1
        return np.exp2(rng.random(size)) - 1.0


class MarkovStationaryMeasure(InvariantMeasure):
    """Stationary Markov-chain measure; on the interval model it agrees
    with Lebesgue measure, but evaluates digit words directly."""

    kind = "markov"

    def __init__(self, p: Sequence, M: Sequence[Sequence]):
        self.p = tuple(Fraction(x) for x in p)
        self.M = tuple(tuple(Fraction(x) for x in row) for row in M)
        if sum(self.p) != 1 or any(x <= 0 for x in self.p):
            raise MeasureError("p must be strictly positive with sum 1")
        D = len(self.p)
        for j in range(D):
            if sum(self.p[i] * self.M[i][j] for i in range(D)) != self.p[j]:
                raise MeasureError("p is not stationary for M")

    @classmethod
    def bernoulli(cls, p: Sequence):
        p = [Fraction(x) for x in p]
        return cls(p, [list(p) for _ in p])

    def word_mass(self, word: Sequence[int]) -> Fraction:
        w = tuple(word)
        mass = self.p[w[0]]
        for a, b in zip(w, w[1:]):
            mass *= self.M[a][b]
        return mass

    def cylinder_mass(self, m, word):
        return self.word_mass(word)

    def interval_mass(self, a, b):
        """Mass of [a, b); on the interval model it is the length b - a."""
        if a > b:
            raise MeasureError("reversed endpoints")
        return max(min(b, 1) - max(a, 0), 0)

    def sample(self, rng, size):
        return rng.random(size)


_MEASURE_BUILDERS = {
    "lebesgue": lambda spec: LebesgueMeasure(),
    "gauss": lambda spec: GaussMeasure(),
    "markov": lambda spec: MarkovStationaryMeasure(
        M=[[Fraction(str(x)) for x in row] for row in spec["M"]],
        p=[Fraction(str(x)) for x in spec["p"]]),
    "bernoulli": lambda spec: MarkovStationaryMeasure.bernoulli(
        [Fraction(str(x)) for x in spec["p"]]),
}
MEASURE_KINDS = tuple(_MEASURE_BUILDERS)


def make_measure(spec: dict) -> InvariantMeasure:
    kind = spec.get("kind")
    if kind not in _MEASURE_BUILDERS:
        raise MeasureError(f"unknown measure kind {kind!r}")
    return _MEASURE_BUILDERS[kind](spec)


# ---------------------------------------------------------------------------
# stationary vectors

def stationary_vector(M: Sequence[Sequence]) -> tuple:
    """Unique strictly positive p with pM = p, sum p = 1, in exact arithmetic.

    Requires a primitive (some power strictly positive) row-stochastic M.
    """
    M = [[Fraction(x) for x in row] for row in M]
    D = len(M)
    for i, row in enumerate(M):
        if len(row) != D or sum(row) != 1 or any(x < 0 for x in row):
            raise MeasureError(f"row {i} is not a probability vector")
    if primitivity_exponent(M) is None:
        raise MeasureError("transition matrix not primitive")

    # solve (M^T - I) p = 0 with sum p = 1 by exact elimination
    A = [[M[i][j] - (1 if i == j else 0) for i in range(D)] for j in range(D)]
    A.append([Fraction(1)] * D)
    rhs = [Fraction(0)] * D + [Fraction(1)]
    # Gaussian elimination on the (D+1) x D overdetermined system
    rows = [A[i] + [rhs[i]] for i in range(D + 1)]
    piv = 0
    for col in range(D):
        sel = next((r for r in range(piv, D + 1) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        inv = 1 / rows[piv][col]
        rows[piv] = [v * inv for v in rows[piv]]
        for r in range(D + 1):
            if r != piv and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[piv])]
        piv += 1
    p = [Fraction(0)] * D
    for r in range(piv):
        lead = next((c for c in range(D) if rows[r][c] == 1), None)
        if lead is not None:
            p[lead] = rows[r][D]
    if any(x <= 0 for x in p) or sum(p) != 1:
        raise MeasureError("failed to find a strictly positive stationary vector")
    return tuple(p)


# ---------------------------------------------------------------------------
# entropy estimators

@dataclass
class EntropyEstimate:
    value: float
    method: str                      # closed_form | birkhoff | smb
    sample_size: Optional[int] = None
    standard_error: Optional[float] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        rec = {"method": self.method, "value": self.value, "units": "nats"}
        if self.standard_error is not None:
            rec["stderr"] = self.standard_error
        rec.update(self.details)
        return rec


def _blaschke_entropy_quadrature(m: BlaschkeBoundary, tol: float = 1e-11):
    """Integral of log|B'| over the circle by the periodic trapezoid rule.

    The integrand is analytic and 1-periodic, so the rule converges
    geometrically; the mesh is doubled until successive values agree.
    """
    def mean_at(M):
        return float(np.mean(m.log_derivative_array(np.arange(M) / M)))

    M = 64
    prev = mean_at(M)
    for _ in range(14):
        M *= 2
        cur = mean_at(M)
        if abs(cur - prev) < tol:
            return cur, abs(cur - prev)
        prev = cur
    raise MeasureError("Blaschke entropy quadrature did not converge")


def entropy_closed_form(m: MapModel, measure: InvariantMeasure) -> EntropyEstimate:
    """Exact (or quadrature) entropy for the supported map/measure pairs."""
    if isinstance(m, DAryShift) and isinstance(measure, LebesgueMeasure):
        return EntropyEstimate(math.log(m.D), "closed_form",
                               details={"formula": "log D"})
    if isinstance(m, GaussMap) and isinstance(measure, GaussMeasure):
        return EntropyEstimate(GAUSS_ENTROPY, "closed_form",
                               details={"formula": "pi^2/(6 log 2)"})
    if isinstance(m, MarkovLinear) and isinstance(
            measure, (MarkovStationaryMeasure, LebesgueMeasure)):
        if isinstance(measure, MarkovStationaryMeasure):
            p, M = measure.p, measure.M
            if p != m.p or M != m.M:
                raise MeasureError("measure does not match the map's chain")
        else:
            p, M = m.p, m.M
        h = -sum(float(p[i] * M[i][j]) * math.log(float(M[i][j]))
                 for i in range(len(p)) for j in range(len(p)) if M[i][j] > 0)
        return EntropyEstimate(h, "closed_form",
                               details={"formula": "sum p_i M_ij log(1/M_ij)"})
    if isinstance(m, BlaschkeBoundary) and isinstance(measure, LebesgueMeasure):
        h, err = _blaschke_entropy_quadrature(m)
        return EntropyEstimate(h, "closed_form",
                               details={"formula": "integral of log|B'| dλ",
                                        "quadrature_error": err})
    raise MeasureError(
        f"no closed-form entropy for ({m.kind}, {measure.kind})")


def sample_chain(m: MarkovLinear, rng: np.random.Generator, length: int,
                 start=None) -> np.ndarray:
    """Digits of the stationary chain (p, M): one uniform for the first
    digit (or the given start digit, without a draw), then one per
    transition, read against cumulative rows of M.

    Row k of the table g is the step map state -> next state of uniform k.
    A Hillis-Steele doubling scan (Blelloch, "Prefix sums and their
    applications", 1990) turns row k into g_k o ... o g_0 in place, in
    ceil(log2 length) passes.  A pass updates chunks from the top down, so
    each chunk reads rows that this pass has not yet updated.
    """
    cum = np.cumsum([[float(x) for x in row] for row in m.M], axis=1)
    # a float row sum may fall short of 1; a uniform past it takes the last
    # admissible digit, never digit D
    for i in range(m.D):
        cum[i, max(m.branch_targets(i)):] = 1.0
    out = np.empty(length, dtype=np.int64)
    out[0] = start if start is not None else min(
        np.searchsorted(np.cumsum([float(x) for x in m.p]), rng.random(), side="right"), m.D - 1)
    u = rng.random(length - 1)
    g = np.empty((length - 1, m.D), dtype=np.min_scalar_type(m.D))
    for lo in range(0, len(g), _SCAN_CHUNK):
        for s in range(m.D):
            g[lo:lo + _SCAN_CHUNK, s] = np.searchsorted(cum[s], u[lo:lo + _SCAN_CHUNK],
                                                        side="right")
    row = np.arange(_SCAN_CHUNK)[:, None] * m.D   # flat offset of each row of a chunk
    step = 1
    while step < len(g):
        for hi in range(len(g), step, -_SCAN_CHUNK):
            lo = max(hi - _SCAN_CHUNK, step)
            g[lo:hi] = g[lo:hi].ravel()[g[lo - step:hi - step] + row[:hi - lo]]
        step *= 2
    out[1:] = g[:, out[0]]
    return out


def float_orbit_start(measure: InvariantMeasure, seeds):
    """One generator per trial seed and the start points x ~ measure they draw."""
    rngs = [np.random.default_rng(s) for s in seeds]
    return rngs, np.array([measure.sample(r, 1)[0] for r in rngs])


def float_orbit_step(m: MapModel, measure: InvariantMeasure, x: np.ndarray, rngs):
    """(T x, restarts) for the orbits of all trials.  A Gauss orbit that ends
    (T x = 0) restarts from its own trial's generator, so no trial's path
    depends on how many trials run beside it."""
    x = m.step(x)
    if not isinstance(m, GaussMap) or np.count_nonzero(x) == len(x):
        return x, 0
    ended = np.flatnonzero(x == 0)
    for t in ended:
        x[t] = measure.sample(rngs[t], 1)[0]
    return x, len(ended)


def float_orbit_blocks(m: MapModel, measure: InvariantMeasure, seeds, N: int):
    """The float orbits x_0, ..., x_N of all trials, ORBIT_BLOCK rows at a time.

    Yields (n0, xs, restarts): xs[i] holds x_{n0+i} of every trial, and
    restarts counts the Gauss restarts of the steps that made the block.
    xs is a view of one buffer that the next block overwrites.  Only the
    map step runs once per n; consumers decide on whole blocks.
    """
    rngs, x = float_orbit_start(measure, seeds)
    buf = np.empty((ORBIT_BLOCK, len(seeds)))
    buf[0] = x
    for n0 in range(0, N + 1, ORBIT_BLOCK):
        rows = min(ORBIT_BLOCK, N + 1 - n0)
        restarts = 0
        for i in range(1 if n0 == 0 else 0, rows):
            x, r = float_orbit_step(m, measure, x, rngs)
            buf[i] = x
            restarts += r
        yield n0, buf[:rows], restarts


def entropy_birkhoff(m: MapModel, measure: InvariantMeasure, n_iter: int,
                     n_trials: int, seed: int) -> EntropyEstimate:
    """Mean over trials of (1/n) sum_k log|T'(T^k x)| with x ~ measure.

    Trial t draws only from its own trial_seed(seed, t) generator, so its
    value does not depend on n_trials.  Linear maps use the exact symbolic
    engine (digits drive the slopes); Gauss and Blaschke maps advance the
    float pseudo-orbits of all trials in lockstep and take log|T'| of whole
    blocks of them (float_orbit_blocks).
    """
    if n_iter < 1 or n_trials < 1:
        raise MeasureError("n_iter and n_trials must be >= 1")
    seeds = [trial_seed(seed, t) for t in range(n_trials)]
    resampled = 0
    if isinstance(m, DAryShift):
        vals = np.full(n_trials, math.log(m.D))  # constant integrand: exact every trial
    elif isinstance(m, MarkovLinear):
        logslope = np.full((m.D, m.D), np.nan)
        for i in range(m.D):
            for j in m.branch_targets(i):
                logslope[i, j] = math.log(float(m.slope(i, j)))
        vals = np.empty(n_trials)
        for t, s in enumerate(seeds):
            chain = sample_chain(m, np.random.default_rng(s), n_iter + 1)
            vals[t] = float(np.mean(logslope[chain[:-1], chain[1:]]))
    elif isinstance(m, (GaussMap, BlaschkeBoundary)):
        s = np.zeros((1, n_trials))
        for n0, xs, restarts in float_orbit_blocks(m, measure, seeds, n_iter):
            resampled += restarts
            L = m.log_derivative_array(xs[:n_iter - n0])
            # accumulate, not sum: the terms add one n at a time, as in a
            # running sum, so the result does not depend on the block size
            s = np.add.accumulate(np.concatenate((s, L)))[-1:]
        vals = s[0] / n_iter
    else:
        raise MeasureError(f"no Birkhoff engine for {m.kind}")
    stderr = float(vals.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else None
    return EntropyEstimate(float(vals.mean()), "birkhoff",
                           sample_size=n_iter, standard_error=stderr,
                           details={"n_iter": n_iter, "n_trials": n_trials,
                                    "seed": seed, "resampled": resampled})


# Kept under its old name: callers and the benchmark address it by name.
entropy_birkhoff_batch = entropy_birkhoff


def entropy_smb(m: MapModel, measure: InvariantMeasure, x, n: int) -> EntropyEstimate:
    """Finite-depth SMB quotient (1/n) log(1/mu(P(n,x))); x is a point or a
    target with its own prefix walk."""
    if n < 1:
        raise MeasureError("n must be >= 1")
    walk = Target.of(m, x).walk()
    word = walk.digits(n)
    if isinstance(measure, GaussMeasure):
        logmass = measure.log_interval_mass(*walk.bounds(n))
    else:
        logmass = log_mass(measure.cylinder_mass(m, word))
    return EntropyEstimate(-logmass / n, "smb", sample_size=n,
                           details={"depth": n, "word_head": list(word[:8])})


# ---------------------------------------------------------------------------
# exact correlation enumeration (cylinder vs shifted cylinder)

def correlation_mass(measure: MarkovStationaryMeasure, word_a: Sequence[int],
                     word_q: Sequence[int], ell: int) -> Fraction:
    """Exact mu(T^{-ell}(A) cap Q) for cylinders A, Q under the chain measure.

    A is the cylinder of word_a (digit positions ell..ell+|a|-1 after the
    shift), Q the cylinder of word_q (positions 0..|q|-1).
    """
    if ell < 0:
        raise MeasureError("ell must be >= 0")
    a, q = tuple(word_a), tuple(word_q)
    D = len(measure.p)
    gap = ell - len(q)
    if gap >= 0:
        # disjoint windows: bridge with gap+1 transitions from q's end to a's start
        P = _matrix_power(measure.M, gap + 1, D)
        return measure.word_mass(q) * P[q[-1]][a[0]] * measure.word_mass(a) / measure.p[a[0]]
    # overlapping windows: merge digit constraints, empty on mismatch
    constraints = {}
    for k, d in enumerate(q):
        constraints[k] = d
    for k, d in enumerate(a):
        pos = ell + k
        if pos in constraints and constraints[pos] != d:
            return Fraction(0)
        constraints[pos] = d
    top = max(constraints)
    mass = measure.p[constraints[0]]
    for pos in range(top):
        mass *= measure.M[constraints[pos]][constraints[pos + 1]]
        if mass == 0:
            return Fraction(0)
    return mass


def _matrix_power(M, n, D):
    result = [[Fraction(1) if i == j else Fraction(0) for j in range(D)]
              for i in range(D)]
    base = [list(row) for row in M]
    while n:
        if n & 1:
            result = [[sum(result[i][k] * base[k][j] for k in range(D))
                       for j in range(D)] for i in range(D)]
        base = [[sum(base[i][k] * base[k][j] for k in range(D))
                 for j in range(D)] for i in range(D)]
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# SMB-regular cylinder families (exact enumeration)

def smb_regular_cylinders(measure: MarkovStationaryMeasure, N: int, eps: float,
                          block_from: int, block_to: int, h: Optional[float] = None):
    """Depth-N cylinders inside P_block_from mapping onto P_block_to whose
    mass lies in the SMB window (e^{-N(h+eps)}, e^{-N(h-eps)}).

    Returns (words, total_mass) with exact Fraction masses.  M is scaled by
    the lcm Q of its denominators, so a word's mass is p_b * prod / Q^N with
    prod an integer product; the tree carries only these integers, and the
    sum of the prods is divided once at the end.  Thresholds are compared in
    log space with floats; the window has O(N*eps) slack so the comparisons
    are far from the rounding scale.
    """
    D = len(measure.p)
    if h is None:
        h = -sum(float(measure.p[i] * measure.M[i][j]) * math.log(float(measure.M[i][j]))
                 for i in range(D) for j in range(D) if measure.M[i][j] > 0)
    Q = math.lcm(*(x.denominator for row in measure.M for x in row))
    scaled = [[(d, int(x * Q)) for d, x in enumerate(row) if x > 0] for row in measure.M]
    pb = measure.p[block_from]
    # log mass = log prod + log p_b - N log Q, compared against the window
    shift = log_mass(pb) - N * math.log(Q)
    lo, hi = -N * (h + eps) - shift, -N * (h - eps) - shift
    words = []
    total = 0

    def rec(word, prod):
        if len(word) == N + 1:
            if word[-1] == block_to and lo < math.log(prod) < hi:
                words.append(tuple(word))
                nonlocal total
                total += prod
            return
        for d, q in scaled[word[-1]]:
            word.append(d)
            rec(word, prod * q)
            word.pop()

    rec([block_from], 1)
    return words, pb * Fraction(total, Q ** N)


# ---------------------------------------------------------------------------
# invariance checks

def _digamma(x: float) -> float:
    """Asymptotic digamma; accurate to ~1e-16 for x >= 10 (shifted up if not)."""
    acc = 0.0
    while x < 10:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - inv2 * (
        1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 / 240)))


def pushforward_defect(m: MapModel, measure: InvariantMeasure, a, b,
                       branch_cutoff: int = 20000) -> float:
    """|sum_d measure(G_d([a,b])) - measure([a,b])|.

    Exact zero for the linear maps; for the Gauss map the branch tail is
    summed with an Euler-Maclaurin closed-form remainder so the defect is
    resolved well below 1e-12.
    """
    if isinstance(m, (DAryShift, MarkovLinear)):
        total = Fraction(0)
        a, b = Fraction(a), Fraction(b)
        D = m.D
        for d in range(D):
            targets = m.branch_targets(d)
            for j in (targets if targets is not None else range(D)):
                blk = m.block_interval(j)
                lo, hi = max(a, blk[0]), min(b, blk[1])
                if hi <= lo:
                    continue
                # the branch restricted to block j, so that a block's right
                # endpoint does not select the next block's branch
                A, B = m.branch_affine(d, j)
                total += Fraction(measure.interval_mass(A + B * lo, A + B * hi))
        return abs(float(total - Fraction(measure.interval_mass(a, b))))
    if isinstance(m, GaussMap) and isinstance(measure, GaussMeasure):
        af, bf = float(a), float(b)
        K = max(branch_cutoff, 200000)
        # branch d contributes log1p(u_d), u_d = (b-a)/((d+a)(d+b+1));
        # summed stably, with the linear tail in closed form via digamma
        # (the quadratic tail is below 1e-16 for K >= 2e5)
        head = math.fsum(
            math.log1p((bf - af) / ((d + af) * (d + bf + 1)))
            for d in range(1, K + 1)
        )
        tail = (bf - af) / (bf + 1 - af) * (
            _digamma(K + 2 + bf) - _digamma(K + 1 + af))
        total = (head + tail) / LOG2
        return abs(total - measure.interval_mass(af, bf))
    if isinstance(m, BlaschkeBoundary) and isinstance(measure, LebesgueMeasure):
        total = 0.0
        for d in range(m.N):
            x1 = m.inverse_branch(d, a)
            x2 = m.inverse_branch(d, b)
            total += (x2 - x1) % 1.0
        return abs(total - (b - a))
    raise MeasureError(f"no invariance check for ({m.kind}, {measure.kind})")
