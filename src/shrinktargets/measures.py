"""Invariant measures, stationary vectors, and entropy estimators.

Three measures: Lebesgue, the Gauss measure (density 1/((1+x) log 2)), and
the stationary Markov-chain measure on digit words.  Two entropy
estimators: closed form, and Birkhoff averages of log|T'| along sampled
orbits.  Everything is in nats.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .maps import (
    BlaschkeBoundary,
    Chain,
    DAryShift,
    GaussMap,
    InadmissibleDigit,
    MAP_KINDS,
    MapError,
    MapModel,
    MarkovLinear,
    chain_violations,
    primitivity_exponent,
)
from .coding import cylinder_from_word
from .schema import block, check, integer, number

LOG2 = math.log(2)
GAUSS_ENTROPY = math.pi ** 2 / (6 * LOG2)
DRAW_CHUNK = 1 << 16     # digits per numpy draw of digit_draws (a chain's table and scan)
ORBIT_BLOCK = 128        # rows x_n per block of the float-orbit engines
SMB_PARAMS = block({"N": integer(1), "eps": number(0, closed=True)})  # of an SMB family


def trial_seed(master_seed: int, trial: int) -> int:
    """64-bit per-trial seed: SHA-256 of 'shrinktargets:<seed>:<trial>'.

    Fixed across platforms and worker counts so that merged results are
    bit-stable for a given master seed.
    """
    digest = hashlib.sha256(f"shrinktargets:{master_seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class MeasureError(ValueError):
    pass


def log_mass(mass: Fraction) -> float:
    """log of an exact mass, finite where its float is below the float range."""
    return math.log(mass.numerator) - math.log(mass.denominator)


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
        return max(min(b, 1) - max(a, 0), 0)

    def cylinder_mass(self, m, word):
        return cylinder_from_word(m, word).length

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

    def cylinder_mass(self, m, word):
        c = cylinder_from_word(m, word)
        return self.interval_mass(c.left, c.right)

    def sample(self, rng, size):
        # inverse CDF: F(x) = log2(1+x), so x = 2^u - 1
        return np.exp2(rng.random(size)) - 1.0


class MarkovStationaryMeasure(InvariantMeasure, Chain):
    """Stationary Markov-chain measure; on the interval model it agrees
    with Lebesgue measure, but evaluates digit words directly, as a ``Chain``."""

    kind = "markov"

    def __init__(self, p: Sequence, M: Sequence[Sequence]):
        check(block(MAP_KINDS["markov"][1][0]), {"p": p, "M": M}, "measure", "markov",
              MeasureError)       # the entries of a markov map's chain
        self.p = tuple(Fraction(x) for x in p)
        self.M = tuple(tuple(Fraction(x) for x in row) for row in M)
        if bad := chain_violations(self.M, self.p):
            raise MeasureError("; ".join(bad))

    @classmethod
    def bernoulli(cls, p: Sequence):
        return cls(p, [list(p) for _ in p])

    def cylinder_mass(self, m, word):
        return self.word_mass(word)

    # on the interval model the mass of [a, b) is its length, as for Lebesgue
    interval_mass, sample = LebesgueMeasure.interval_mass, LebesgueMeasure.sample


def own_measure(m: MapModel) -> InvariantMeasure:
    """The invariant measure of m that the paper measures with and the engines
    sample: the Gauss measure for the gauss map, else Lebesgue measure, which
    an inner function fixing 0 preserves on the circle (Doering-Mane 1991)."""
    return GaussMeasure() if isinstance(m, GaussMap) else LebesgueMeasure()


def check_invariant(m: MapModel, measure: InvariantMeasure) -> None:
    """Raise MeasureError unless measure is the law the engines sample for m:
    of the type of own_measure(m), or a chain equal to the chain (m.p, m.M)
    that a linear map carries (the uniform chain on a dary map's D digits)."""
    ok = hasattr(m, "M") and (measure.p, measure.M) == (m.p, m.M) \
        if isinstance(measure, MarkovStationaryMeasure) \
        else isinstance(measure, type(own_measure(m)))
    if not ok:
        raise MeasureError(f"the {measure.kind} measure is not invariant for the {m.kind} map")


# ---------------------------------------------------------------------------
# stationary vectors

def stationary_vector(M: Sequence[Sequence]) -> tuple:
    """Unique strictly positive p with pM = p, sum p = 1, in exact arithmetic.

    Requires a primitive (some power strictly positive) row-stochastic M.
    Its balance equations sum_i p_i M_ij = p_j have rank D - 1, so the first
    D - 1 and sum p = 1 form a nonsingular square system: Gauss-Jordan solves it.
    """
    M = [[Fraction(x) for x in row] for row in M]
    D = len(M)
    if bad := chain_violations(M):
        raise MeasureError("; ".join(bad))
    if primitivity_exponent(M) is None:
        raise MeasureError("transition matrix not primitive")

    # rows [coefficients of p_0 .. p_{D-1} | right-hand side]; the leading
    # (D-1)-block is -(I - M'^T), M' = M without its last state, and M irreducible
    # makes I - M'^T a nonsingular M-matrix: no pivot is 0, so no rows swap
    A = [[M[i][j] - (i == j) for i in range(D)] + [0] for j in range(D - 1)]
    A.append([Fraction(1)] * (D + 1))
    for col in range(D):
        A[col] = lead = [v / A[col][col] for v in A[col]]
        for r in range(D):
            if r != col and (f := A[r][col]):
                A[r] = [v - f * w for v, w in zip(A[r], lead)]
    p = [A[j][D] for j in range(D)]
    if any(x <= 0 for x in p) or sum(p) != 1:
        raise MeasureError("failed to find a strictly positive stationary vector")
    return tuple(p)


# ---------------------------------------------------------------------------
# entropy estimators

@dataclass
class EntropyEstimate:
    value: float
    method: str                      # a key of ENTROPY_METHODS
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
    """Exact (or quadrature) entropy of the map's invariant measure."""
    check_invariant(m, measure)
    if isinstance(m, DAryShift):
        return EntropyEstimate(math.log(m.D), "closed_form",
                               details={"formula": "log D"})
    if isinstance(m, GaussMap):
        return EntropyEstimate(GAUSS_ENTROPY, "closed_form",
                               details={"formula": "pi^2/(6 log 2)"})
    if isinstance(m, MarkovLinear):
        return EntropyEstimate(m.entropy, "closed_form",
                               details={"formula": "sum p_i M_ij log(1/M_ij)"})
    h, err = _blaschke_entropy_quadrature(m)
    return EntropyEstimate(h, "closed_form",
                           details={"formula": "integral of log|B'| dλ",
                                    "quadrature_error": err})


def _coalesced(g: np.ndarray) -> bool:    # every row constant; end columns, every 64th row first
    return all((h[:, -1] == h[:, 0]).all() for h in (g[::64], g)) and (g[:, 1:-1] == g[:, :1]).all()


def digit_draws(m: MapModel, rng: np.random.Generator):
    """draw(k): at least the next k digits of one random orbit of m from the
    trial's generator rng.  Digit i depends only on rng's seed and i, however
    the draws split the orbit.  D = 2 draws the bits of uniform bytes, most
    significant first, in whole uint32 words (numpy drops the rest of a call's
    last word); other D bounded int32; a chain one uniform per digit
    (_chain_steps); the Gauss map the digits of a float pseudo-orbit from a
    Gauss-distributed point, which restarts from a fresh point at a boundary.
    Digits are held in np.min_scalar_type(D - 1), int64 for the Gauss map."""
    if isinstance(m, DAryShift) and m.D == 2:
        return lambda k: np.unpackbits(rng.integers(0, 256, -(-k // 32) * 4, np.uint8))
    if isinstance(m, DAryShift):
        steps = lambda c: rng.integers(0, m.D, c, np.int32)     # noqa: E731
    elif isinstance(m, MarkovLinear):
        steps = _chain_steps(m, rng)
    elif isinstance(m, GaussMap):
        steps = _gauss_steps(rng)
    else:
        raise MapError(f"no digit-stream engine for {m.kind}")
    dtype = np.int64 if isinstance(m, GaussMap) else np.min_scalar_type(m.D - 1)

    def draw(k):
        out = np.empty(k, dtype)
        for lo in range(0, k, DRAW_CHUNK):
            out[lo:lo + DRAW_CHUNK] = steps(min(DRAW_CHUNK, k - lo))
        return out
    return draw


def _chain_steps(m: MarkovLinear, rng):
    """steps(c): the chain's next c digits, from the state the steps before ended
    in.  Row k of the table f is the step map g_k: state -> next state of uniform
    k, as flat indices f[k, s] = k D + g_k(s): each uniform's count of cuts, from
    the map's guide, gathers g_k(s) - s from its cut table (the first uniform's row
    maps every state to the digit it reads against p).  A Hillis-Steele doubling
    scan (Blelloch, "Prefix sums and their applications", 1990) turns row k into
    g_k o ... o g_0: the pass of stride s gathers f at f[k - s] + s D into rows
    k >= s of a second buffer, copies the rows below s and swaps the two.  Before
    it, row k >= s holds g_k o ... o g_{k-s+1}; once all are constant, the states
    have coalesced (Propp-Wilson 1996) and the scan stops.  Row k at the start
    state, less k D, is digit k."""
    cum_p, (G, base, slots), table = m.float_chain
    state, D = None, m.D

    def steps(c):
        nonlocal state
        u = rng.random(c)
        b = np.take(base, cell := (u * G).astype(np.intp))
        for cut in slots:
            b += u >= np.take(cut, cell)
        f = np.take(table, b, axis=0)
        if state is None:
            state, f[0] = 0, min(np.searchsorted(cum_p, u[0], side="right"), D - 1) - np.arange(D)
        del u, cell, b                          # freed before the scan's three tables
        f += (g := np.arange(c * D, dtype=np.int32).reshape(c, D))  # k D + s, then a scan buffer
        idx, step = np.empty(f.shape, np.intp), 1                   # intp, as np.take reads it
        while step < c and not _coalesced(f[step:]):
            np.take(f, np.add(f[:-step], step * D, out=idx[:-step]), out=g[step:], mode="clip")
            g[:step] = f[:step]
            f, g, step = g, f, 2 * step
        out = f[:, state] - np.arange(0, c * D, D, dtype=np.int32)
        state = out[-1]
        return out
    return steps


def _gauss_steps(rng):
    x = 0.0     # the pseudo-orbit's point, drawn afresh at the start and at a boundary

    def steps(c):
        nonlocal x
        out = np.empty(c, np.int64)
        for j in range(c):
            if not 0 < x < 1:
                x = float(np.exp2(rng.random()) - 1.0)
            x, out[j] = math.modf(1.0 / x)
        return out
    return steps


def float_orbit_blocks(m: MapModel, measure: InvariantMeasure, seeds, N: int):
    """The float orbits x_0, ..., x_N of all trials, ORBIT_BLOCK rows at a time.

    Yields (n0, xs, restarts): xs[i] holds x_{n0+i} of every trial, and
    restarts counts the Gauss restarts of the steps that made the block.
    xs is a view of one buffer that the next block overwrites.  Each trial
    draws x_0 ~ measure from its own generator.  One stepper of the map steps
    row into row through row views taken once.  A circle map steps the points
    z_n = exp(2 pi i x_n) of the unit circle instead, from z_0 = exp(2 pi i x_0),
    and each block is read once into xs as x = arg(z) / (2 pi) mod 1; x_0 stays
    the drawn angle.  One test per block finds the first row with an ended
    Gauss orbit (0, or nan where 1/x overflowed), whose ended trials restart
    from their own generators in trial order; the rows after it are stepped
    again.
    """
    rngs, step = [np.random.default_rng(s) for s in seeds], m.stepper(len(seeds))
    buf = np.empty((ORBIT_BLOCK, len(seeds)))
    buf[0] = [measure.sample(r, 1)[0] for r in rngs]
    orbit = buf
    if m.circle:
        orbit = np.empty(buf.shape, complex)
        orbit[0] = np.exp(2j * np.pi * buf[0])
    row = list(orbit)   # the row views, built once: orbit[j] builds a new one per use
    for n0 in range(0, N + 1, ORBIT_BLOCK):
        rows, first, restarts = min(ORBIT_BLOCK, N + 1 - n0), int(n0 == 0), 0
        i = first
        # rows past an ended orbit hold inf and nan until they are stepped again
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while i < rows:
                for j in range(i, rows):        # at j = 0, row[-1] is the last row before
                    step(row[j - 1], row[j])
                if not isinstance(m, GaussMap) or buf[i:rows].min() > 0:
                    break
                i += int(np.argmin((buf[i:rows] > 0).all(axis=1)))
                ended = np.flatnonzero(~(buf[i] > 0))
                for t in ended:
                    buf[i, t] = measure.sample(rngs[t], 1)[0]
                restarts, i = restarts + len(ended), i + 1
        if m.circle:
            z, x = orbit[first:rows], buf[first:rows]
            np.mod(np.divide(np.arctan2(z.imag, z.real, x), 2 * np.pi, x), 1.0, x)
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
    check_invariant(m, measure)
    if n_iter < 1 or n_trials < 1:
        raise MeasureError("n_iter and n_trials must be >= 1")
    seeds = [trial_seed(seed, t) for t in range(n_trials)]
    resampled = 0
    if isinstance(m, DAryShift):
        vals = np.full(n_trials, math.log(m.D))  # constant integrand: exact every trial
    elif isinstance(m, MarkovLinear):
        logslope = [Fraction(math.log(float(m.slope(i, j)))) if m.M[i][j] else 0     # exact
                    for i in range(m.D) for j in range(m.D)]    # a forbidden i -> j is never drawn
        vals = np.empty(n_trials)
        for t, s in enumerate(seeds):
            # the transitions i D + j counted a block at a time; their exact mean log-slope
            draw, counts, d = digit_draws(m, np.random.default_rng(s)), 0, np.empty(0, np.uint8)
            for lo in range(0, n_iter + 1, DRAW_CHUNK):     # digits 0..n_iter, one draw a chunk
                d = np.append(d[-1:], draw(min(DRAW_CHUNK, n_iter + 1 - lo)))
                counts += np.bincount(d[:-1].astype(np.intp) * m.D + d[1:], minlength=m.D * m.D)
            vals[t] = float(sum(c * x for c, x in zip(counts.tolist(), logslope) if c) / n_iter)
    else:               # the float-orbit maps, Gauss and Blaschke
        s = np.zeros((1, n_trials))
        for n0, xs, restarts in float_orbit_blocks(m, measure, seeds, n_iter):
            resampled += restarts
            L = m.log_derivative_array(xs[:n_iter - n0])
            # accumulate, not sum: the terms add one n at a time, as in a
            # running sum, so the result does not depend on the block size
            s = np.add.accumulate(np.concatenate((s, L)))[-1:]
        vals = s[0] / n_iter
    stderr = float(vals.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else None
    return EntropyEstimate(float(vals.mean()), "birkhoff", standard_error=stderr,
                           details={"n_iter": n_iter, "n_trials": n_trials,
                                    "seed": seed, "resampled": resampled})


# Kept under its old name: callers and the benchmark address it by name.
entropy_birkhoff_batch = entropy_birkhoff


# method -> the schema of its params, for the entropy experiment
ENTROPY_METHODS = {"closed_form": {}, "birkhoff": {"n_iter": (integer(1), 10 ** 5)}}


# ---------------------------------------------------------------------------
# exact correlation enumeration (cylinder vs shifted cylinder)

def correlation_mass(chain: Chain, word_a: Sequence[int],
                     word_q: Sequence[int], ell: int) -> Fraction:
    """Exact mu(T^{-ell}(A) cap Q) for cylinders A, Q under a chain's measure.

    A is the cylinder of word_a (digit positions ell..ell+|a|-1 after the
    shift), Q the cylinder of word_q (positions 0..|q|-1).  Disjoint windows
    are bridged by (M^{gap+1})[q_last][a_0] = (e_{q_last} S^{gap+1})[a_0] /
    Q^{gap+1}, M = S/Q (``scaled``): a row vector times powers S^(2^i).
    """
    if ell < 0:
        raise MeasureError("ell must be >= 0")
    a, q = tuple(word_a), tuple(word_q)
    gap = ell - len(q)
    if gap >= 0:
        Q, S = chain.scaled
        row, n = [int(j == q[-1]) for j in range(len(S))], gap + 1
        while n:
            if n & 1:
                row = [sum(x * y for x, y in zip(row, col)) for col in zip(*S)]
            n >>= 1
            S = [[sum(x * y for x, y in zip(r, col)) for col in zip(*S)] for r in S] if n else S
        p = chain.p[q[0]]
        return Fraction(p.numerator * chain.weight(q) * row[a[0]] * chain.weight(a),
                        p.denominator * Q ** (ell + len(a) - 1))
    # overlapping windows: the first k digits of a must repeat q's last ones
    k = len(q) - ell
    if q[ell:ell + len(a)] != a[:k]:
        return Fraction(0)
    return chain.word_mass(q + a[k:])


# ---------------------------------------------------------------------------
# SMB-regular cylinder families (counted by type)

class RegularWords(Sequence):
    """The words of one SMB-regular family in depth-first (lexicographic)
    order, kept by type (last digit, prod) instead of listed; a word's mass
    is p_b * prod / Q^N, with prod its weight in the scaled chain M = S/Q
    (``Chain.scaled``).  The family is its end types: ``finals`` maps each to
    its number of words, in the order of their first words.  ``states[n]``,
    built on the first word walk, maps each length-n prefix type to the
    number of words through it and their summed prod.  Words are unranked on
    access; ``size`` counts them, as len() fails past sys.maxsize."""

    def __init__(self, scaled, first: int, Q: int, N: int, finals: dict):
        self.scaled, self.first, self.Q, self.N, self.finals = scaled, first, Q, N, finals
        self.size = sum(finals.values())
        self.prod_sum = sum(m * P for (_, P), m in finals.items())
        self.mass = Fraction(self.prod_sum, Q ** N)    # relative to the entry block

    @cached_property
    def states(self) -> list:
        """The type sets of lengths 0..N-1 forward in first-prefix order, then back from finals."""
        layers, scaled = [{(self.first, 1): None}], self.scaled
        for _ in range(self.N - 1):
            layers.append(dict.fromkeys((d, P * q) for a, P in layers[-1] for d, q in scaled[a]))
        states = [{s: (1, s[1]) for s in self.finals}]     # from the end: words, summed prod
        for layer in reversed(layers):
            nxt, cur = states[-1], {}
            for a, P in layer:
                c = w = 0
                for d, q in scaled[a]:
                    cw = nxt.get((d, P * q))
                    if cw:
                        c, w = c + cw[0], w + cw[1]
                if c:
                    cur[a, P] = c, w
            states.append(cur)
        return states[::-1]

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.unrank(k)[0] for k in range(self.size)[i]]
        return self.unrank(i)[0]

    @cached_property
    def classes(self) -> dict:
        """prod -> (lam, share, count) per end type in first-word order: a
        word's mass relative to the entry block, and its share of ``mass``."""
        return {P: (Fraction(P, self.Q ** self.N), Fraction(P, self.prod_sum), m)
                for (_, P), m in self.finals.items()}

    def prefix_classes(self) -> list:
        """Distinct (lam, share) of the prefix types of lengths 1..N, as in ``classes``
        (length N are the fine blocks); a prefix's share is that of the words through it."""
        seen = dict.fromkeys((n, P, w) for n in range(1, self.N + 1)
                             for (_, P), (_, w) in self.states[n].items())
        return [(Fraction(P, self.Q ** n), Fraction(w, self.prod_sum)) for n, P, w in seen]

    def unrank(self, i: int):
        """(word, prod) of the i-th word."""
        if not -self.size <= i < self.size:
            raise IndexError("word index out of range")
        i %= self.size
        word, P = [self.first], 1
        for layer in self.states[1:]:
            for d, q in self.scaled[word[-1]]:
                c = layer.get((d, P * q), (0,))[0]
                if i < c:
                    break
                i -= c
            word.append(d)
            P *= q
        return tuple(word), P


def smb_regular_cylinders(chain: Chain, N: int, eps: float,
                          block_from: int, block_to: int):
    """Depth-N cylinders inside P_block_from mapping onto P_block_to whose
    chain mass lies in the SMB window (e^{-N(h+eps)}, e^{-N(h-eps)}).

    Returns (words, total_mass): a RegularWords sequence and their exact
    mass.  One forward pass counts the prefixes of each type (last digit,
    integer prod), so the cost grows with the types, not the words (method
    of types, Csiszar-Korner).  Walking the previous layer in order, digits
    upwards, a layer meets types in first-prefix order.  End types meet the
    window in float logs; its O(N*eps) slack dwarfs their rounding.  N must be an integer >= 1
    and eps a finite number >= 0 (MeasureError), each block a digit (InadmissibleDigit).
    """
    check(SMB_PARAMS, {"N": N, "eps": eps}, "", "smb_regular_cylinders", MeasureError)
    for path, b in (("block_from", block_from), ("block_to", block_to)):
        check(integer(0, len(chain.p) - 1), b, path, "smb_regular_cylinders", InadmissibleDigit)
    h, (Q, S) = chain.entropy, chain.scaled
    scaled = [[(d, x) for d, x in enumerate(row) if x > 0] for row in S]
    pb = chain.p[block_from]
    # log mass = log prod + log p_b - N log Q, compared against the window
    shift = log_mass(pb) - N * math.log(Q)
    lo, hi = -N * (h + eps) - shift, -N * (h - eps) - shift
    layer = {(block_from, 1): 1}        # prefix type -> number of prefixes
    for _ in range(N):
        nxt = {}
        for (a, P), m in layer.items():
            for d, q in scaled[a]:
                nxt[s] = nxt.get(s := (d, P * q), 0) + m
        layer = nxt
    finals = {(a, P): m for (a, P), m in layer.items()
              if a == block_to and lo < math.log(P) < hi}
    words = RegularWords(scaled, block_from, Q, N, finals)
    return words, pb * words.mass
