"""Shrinking-target hitting experiments and Borel-Cantelli classification.

Targets are either metric balls B(x0, r_n) or symbolic cylinders
P(t_n, x0).  Orbits of linear maps are driven by exact digit streams (the
"symbolic engine"); Gauss and Blaschke orbits run in double precision.
Metric hits for linear maps are decided from a digit window wide enough
that the position is known to well below the decision margin, with the
rare ambiguous steps resolved in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, count, pairwise, repeat
from typing import Optional

import numpy as np

from .coding import (EXACT_READ, PrefixWalk, Target, ball_holds,  # noqa: F401 (re-exported)
                     cylinder_from_word, period_matrix)
from .maps import (BoundaryHit, DAryShift, ForbiddenTransition, InadmissibleDigit, MapError,
                   MapModel)
from .measures import (GaussMeasure, InvariantMeasure, check_invariant, digit_draws,
                       float_orbit_blocks, trial_seed)
from .schema import check, integer, kinds, listof, number, rules

DENSE_DIGITS = 3         # leading target digits the symbolic engine matches on every index
WINDOW_BLOCK = 1 << 15   # orbit indices per block of the linear metric engine (L2-sized)
MAX_DEPTH = 1 << 62      # the deepest t_n, in int64, where floor(n^kappa) caps; its mass is 0.0


class ScheduleError(ValueError):
    pass


def _sorted_table(step):
    return rules((lambda spec: all(step * (b - a) >= 0 for a, b in pairwise(spec["table"])),
                  f"table must be non-{'de' if step > 0 else 'in'}creasing"))


def _floor_log(n: np.ndarray, base) -> np.ndarray:
    """floor(log_base n) of integers n >= 1.  The float quotient of logs can
    fall just below an integer at an exact power of the base, so an integer
    base counts its exact powers up to n instead."""
    if float(base).is_integer():
        b, top = int(base), int(n.max())
        powers = [b ** k for k in range(1, top.bit_length() + 1) if b ** k <= top]
        return np.searchsorted(np.asarray(powers, dtype=np.int64), n, side="right")
    return np.floor(np.log(n) / math.log(base)).astype(np.int64)


def _table(n, p):
    """Entry n of a custom table, in the dtype of n; the last entry repeats."""
    tab = np.asarray(p["table"], dtype=n.dtype)
    return tab[np.minimum(n, len(tab)).astype(np.int64, copy=False) - 1]


# kind -> (its parameters, by the names its constructor below takes, for
# Schedule itself and the config schema; its values at the indices n = 1..N,
# float for radii and int64 for depths; its growth (g, e), which the classifier
# reads: r_n ~ e^(-g n) n^(-e), or t_n ~ n^e, or log_g n where g > 0)
SCHEDULE_KINDS = {
    "radii_power": ({"alpha": number(0)}, lambda n, p: np.power(n, -1.0 / p["alpha"], out=n),
                    lambda p: (0, 1 / p["alpha"])),
    "radii_exp": ({"kappa": number(0)},
                  lambda n, p: np.exp(np.multiply(n, -p["kappa"], out=n), out=n),
                  lambda p: (p["kappa"], 0)),
    "radii_const": ({"r": number(0)}, lambda n, p: np.full_like(n, p["r"]), lambda p: (0, 0)),
    "depth_log_floor": ({"base": (number(1), math.e)}, lambda n, p: _floor_log(n, p["base"]),
                        lambda p: (p["base"], 0)),
    "depth_power_floor": ({"kappa": number(0)}, lambda n, p: np.floor(
        np.minimum(n ** float(p["kappa"]), MAX_DEPTH)).astype(np.int64),
        lambda p: (0, p["kappa"])),
    "depth_const": ({"t": integer(0, MAX_DEPTH)}, lambda n, p: np.full_like(n, p["t"]),
                    lambda p: (0, 0)),
    "custom_radii": (({"table": listof(number(0))}, _sorted_table(-1)), _table, lambda p: (0, 0)),
    "custom_depths": (({"table": listof(integer(0, MAX_DEPTH))}, _sorted_table(1)), _table,
                      lambda p: (0, 0)),
}


@dataclass(frozen=True)
class Schedule:
    """A radii sequence {r_n} or digit-depth sequence {t_n}.

    kinds: radii_power(alpha): r_n = n^(-1/alpha);  radii_exp(kappa):
    r_n = e^(-kappa n);  radii_const(r);  depth_log_floor(base):
    t_n = floor(log_base n);  depth_power_floor(kappa): t_n = floor(n^kappa);
    depth_const(t);  custom_radii / custom_depths with explicit tables,
    whose last entry repeats for every n past the table, so the classifier
    reads a table as the constant schedule of that entry.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check(kinds({k: v[0] for k, v in SCHEDULE_KINDS.items()}),
              {"kind": self.kind, **self.params}, "schedule", "Schedule", ScheduleError)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def radii_power(alpha) -> "Schedule":
        return Schedule("radii_power", {"alpha": float(alpha)})

    @staticmethod
    def radii_exp(kappa) -> "Schedule":
        return Schedule("radii_exp", {"kappa": float(kappa)})

    @staticmethod
    def radii_const(r) -> "Schedule":
        return Schedule("radii_const", {"r": r})

    @staticmethod
    def depth_log_floor(base: float = math.e) -> "Schedule":
        return Schedule("depth_log_floor", {"base": float(base)})

    @staticmethod
    def depth_power_floor(kappa) -> "Schedule":
        return Schedule("depth_power_floor", {"kappa": float(kappa)})

    @staticmethod
    def depth_const(t: int) -> "Schedule":
        return Schedule("depth_const", {"t": int(t)})

    @staticmethod
    def custom_radii(table) -> "Schedule":
        return Schedule("custom_radii", {"table": list(table)})

    @staticmethod
    def custom_depths(table) -> "Schedule":
        return Schedule("custom_depths", {"table": [int(t) for t in table]})

    # -- evaluation ------------------------------------------------------
    @property
    def is_radii(self) -> bool:
        return "radii" in self.kind

    @property
    def growth(self) -> tuple:
        """(g, e) of its kind's row in SCHEDULE_KINDS."""
        return SCHEDULE_KINDS[self.kind][2](self.params)

    def radii_array(self, N: int, lo: int = 0) -> np.ndarray:
        """r_{lo+1}, ..., r_N, floats."""
        return self._values(N, True, lo)

    def depths_array(self, N: int, lo: int = 0) -> np.ndarray:
        """t_{lo+1}, ..., t_N, int64."""
        return self._values(N, False, lo)

    def blocks(self, N: int):
        """(n0, the values at n = n0, n0 + 1, ...) over n = 1..N, in blocks of the
        orbit indices kB..kB + B - 1, B = WINDOW_BLOCK.  Each kind maps every n
        by itself, so the blocks hold the values of one evaluation at 1..N."""
        ends = [*range(WINDOW_BLOCK - 1, N, WINDOW_BLOCK), N]
        for lo, hi in pairwise([0, *ends]):
            yield lo + 1, self._values(hi, self.is_radii, lo)

    def _values(self, N, radii, lo=0):
        if self.is_radii != radii:
            raise ScheduleError(f"{self.kind} is not a {'radii' if radii else 'depth'} schedule")
        if N < 1:
            raise ScheduleError(f"a schedule is read at n = 1..N for N >= 1, got N = {N}")
        n = np.arange(lo + 1, N + 1, dtype=float if radii else np.int64)
        with np.errstate(over="ignore"):        # an n^kappa past the floats caps at MAX_DEPTH
            return SCHEDULE_KINDS[self.kind][1](n, self.params)


# ---------------------------------------------------------------------------
# hit series

@dataclass
class HitSeries:
    checkpoints: np.ndarray           # sorted horizons, int64
    hits: np.ndarray                  # (trials, len(checkpoints)) cumulative
    normalizer: np.ndarray            # (len(checkpoints),)
    trial_seeds: list
    engine: str
    kind: str                         # "metric" | "symbolic"
    resampled: int = 0
    ambiguous_resolved: int = 0
    window_minima: Optional[np.ndarray] = None   # (trials, windows) of min d/r_n

    def final_ratios(self) -> np.ndarray:
        return self.ratio_of(self.hits)[:, -1]

    def mean_final_ratio(self) -> float:
        return float(self.final_ratios().mean())

    def ci95(self):
        r = self.final_ratios()
        half = float(1.96 * r.std(ddof=1) / math.sqrt(len(r))) if len(r) > 1 else 0.0
        m = float(r.mean())
        return m - half, m + half

    def summary(self) -> dict:
        lo, hi = self.ci95()
        out = {
            "kind": self.kind,
            "engine": self.engine,
            "trials": int(self.hits.shape[0]),
            "checkpoints": self.checkpoints.tolist(),
            "normalizer": self.normalizer.tolist(),
            "mean_ratio": self.mean_final_ratio(),
            "ci95": [lo, hi],
            "resampled": self.resampled,
            "ambiguous_resolved": self.ambiguous_resolved,
        }
        if self.window_minima is not None:
            out["window_minima_median"] = np.median(self.window_minima, axis=0).tolist()
        return out

    def ratio_of(self, hits) -> np.ndarray:
        """hits / normalizer at each checkpoint, nan where the normalizer is <= 0."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.normalizer > 0, hits / self.normalizer, math.nan)

    def csv_rows(self):         # (trial, n, hits, normalizer, ratio)
        cps, norm, ratios = self.checkpoints.tolist(), self.normalizer.tolist(), self.ratio_of(self.hits)
        for t, (hits, ratio) in enumerate(zip(self.hits.tolist(), ratios.tolist())):
            yield from zip(repeat(t), cps, hits, norm, ratio)


def _checkpoints(N: int, horizons) -> np.ndarray:
    """The distinct horizons h <= N and N, ascending (np.unique hashes int64, 40x slower)."""
    h = np.sort(np.fromiter(chain(() if horizons is None else horizons, (N,)), np.int64))
    if h[0] < 1:
        raise ScheduleError(f"a horizon is an index n >= 1, got {h[0]}")
    return h[np.concatenate(([True], h[1:] != h[:-1])) & (h <= N)]


def _trial_seeds(m, measure, seed: int, trials: int) -> list:
    """The trials' seeds, after the checks that both hit engines make."""
    check_invariant(m, measure)
    if trials < 1:
        raise ScheduleError(f"a hit run needs trials >= 1, got {trials}")
    return [trial_seed(seed, t) for t in range(trials)]


# ---------------------------------------------------------------------------
# normalizers

def ball_mass_array(m: MapModel, measure: InvariantMeasure, x0: float,
                    radii: np.ndarray) -> np.ndarray:
    if m.circle:
        return np.minimum(2 * radii, 1.0)
    lo, hi = x0 - radii, x0 + radii
    np.maximum(lo, 0.0, out=lo)
    width = np.subtract(np.minimum(hi, 1.0, out=hi), lo, out=hi)
    if isinstance(measure, GaussMeasure):
        return np.log1p(width / (1 + lo)) / math.log(2)
    return width  # Lebesgue / Markov-stationary on the interval model


class _Normalizer:
    """sum_{k <= n} mass_k at the checkpoints n, a block of n at a time: each block's
    cumsum goes on from the running total, adding left to right as one cumsum."""

    def __init__(self, cps):
        self.cps, self.sums, self.carry = cps, np.zeros(len(cps)), 0.0

    def add(self, n0, mass):        # the masses of n = n0, n0 + 1, ..., summed in place
        mass[0] += self.carry
        self.carry = np.cumsum(mass, out=mass)[-1]
        k0, k1 = self.cps.searchsorted((n0, n0 + len(mass)))
        self.sums[k0:k1] = mass[self.cps[k0:k1] - n0]


def cylinder_mass_by_depth(m: MapModel, measure: InvariantMeasure,
                           target: Target, depths: np.ndarray, mass_at=None) -> np.ndarray:
    """Masses mu(P(t, x0)), each exact and rounded to a float, for each run
    of equal depths t, repeated over the run.

    depths must be non-decreasing, as every depth schedule is; a decrease
    raises ValueError.  mass_at, the _mass_at of an earlier call, goes on
    from that call's depths, so one sequence can be read a block at a time.
    """
    step = np.diff(depths)
    if np.any(step < 0):
        raise ValueError("depths must be non-decreasing")
    starts = np.concatenate(([0], np.flatnonzero(step) + 1))     # first index of each run
    mass_at, mass = mass_at or _mass_at(m, measure, target), np.zeros(len(starts))
    for k, t in enumerate(depths[starts].tolist()):
        mass[k] = mass_at(t)
        if mass[k] == 0.0:
            break
    return np.repeat(mass, np.diff(starts, append=len(depths)))


def _mass_at(m, measure, target):
    """mass(t) = mu(P(t, x0)) at non-decreasing t, a float: the product of a
    linear map's own chain for any admitted measure, else the walk's.  Masses of
    nested cylinders never increase, so after a 0 all are 0, and on the way to a
    far depth the walk looks at depths 64, 128, 256, ... to stop at a 0.0 there."""
    walk = target.walk()
    exact = _chain_mass(m, walk) if hasattr(m, "M") \
        else lambda t: float(measure.interval_mass(*walk.bounds(t)))
    probe, last = 64, None

    def mass(t):
        nonlocal probe, last
        if last != 0:
            while probe < t and exact(probe) > 0:
                probe *= 2
            last = exact(t) if probe >= t else 0.0      # else it underflowed at the probe
        return last
    return mass


def _chain_mass(chain, walk):
    """mass(t) at non-decreasing t: p_{w_0} M[w_0][w_1] ... M[w_{t-1}][w_t] of the
    walk's digits w (slices of its word list), a running product num / den in the
    chain's integers, rounded by one int / int division (correctly rounded, 0.0
    below 2^-1075), or the int 0 past a forbidden transition, where the walk stops."""
    w, Q = walk.read(0)[0], chain.scaled[0]
    num, den, at = chain.p[w].numerator, chain.p[w].denominator, 0

    def mass(t):
        nonlocal num, den, at
        try:
            num *= chain.weight(walk.read(t)[at:t + 1])
        except ForbiddenTransition:
            num = 0
        den, at = den * Q ** (t - at), t
        return num / den if num else 0
    return mass


# ---------------------------------------------------------------------------
# symbolic engine

class _Digits:
    """A trial's digits (digit_draws) from the lowest index still read."""

    def __init__(self, m, rng):
        self.draw, self.base = digit_draws(m, rng), 0
        self.held = self.draw(0)                            # digits base, base + 1, ...

    def read(self, lo, hi):         # digits lo..hi-1; lo never decreases from read to read
        if self.base + len(self.held) < hi:
            new = self.draw(hi - self.base - len(self.held))
            self.held, self.base = np.concatenate((self.held, new))[lo - self.base:], lo
        return self.held[lo - self.base:hi - self.base]


def _first_at_depth(sched: Schedule, N: int):
    """first(mm): the 0-based index of the first t_n >= mm, or N, from one forward
    scan over the schedule's blocks as deep as asked (depths never decrease)."""
    blocks, firsts, blk = sched.blocks(N), [], (1, np.empty(0, np.int64))

    def first(mm):
        nonlocal blk
        while len(firsts) <= mm:
            k = int(np.searchsorted(blk[1], len(firsts)))
            if k == len(blk[1]) and (nxt := next(blocks, None)) is not None:
                blk = nxt
            else:
                firsts.append(blk[0] - 1 + k)
        return firsts[mm]
    return first


def run_symbolic_hits(m: MapModel, measure: InvariantMeasure, target, sched: Schedule,
                      N: int, trials: int, seed: int, horizons=None) -> HitSeries:
    """Count visits T^i(x) in P(t_i, x0) by exact word-prefix comparison: a
    hit matches the target through its own t_i, however deep."""
    seeds = _trial_seeds(m, measure, seed, trials)
    t_max = int(sched.depths_array(N, N - 1)[0])    # t_N first: it checks the kind and N
    target = Target.of(m, target)
    cps = _checkpoints(N, horizons)
    norm, mass_at = _Normalizer(cps), _mass_at(m, measure, target)
    for n0, depths in sched.blocks(N):
        norm.add(n0, cylinder_mass_by_depth(m, measure, target, depths, mass_at))
    first = _first_at_depth(sched, N)
    dense = min(DENSE_DIGITS, t_max + 1)

    def digit(mm):      # target digit mm; -1 past a forbidden transition, which no orbit takes
        try:
            return target.walk().read(mm)[mm]
        except ForbiddenTransition:
            return -1

    hits = np.zeros((trials, len(cps)), dtype=np.int64)
    for t in range(trials):
        digits = _Digits(m, np.random.default_rng(seeds[t]))
        stream = digits.read(0, N + dense)
        # the leading digits on contiguous slices, while most indices match;
        # the 0-based indices from first(mm) on need digit mm
        live = stream[1:N + 1] == digit(0)
        for mm in range(1, dense):
            f = first(mm)
            live[f:] &= stream[1 + mm + f:1 + mm + N] == digit(mm)
        live, found = np.flatnonzero(live), []
        # then only the survivors: an index matched through its own depth is a hit
        for mm in count(dense):
            k = np.searchsorted(live, first(mm))
            found.append(live[:k])
            live = live[k:]
            if not len(live):
                break
            if len(stream) < 2 + mm + live[-1]:     # read on, past N at least twice as far
                stream = digits.read(0, max(2 + mm + int(live[-1]), 2 * len(stream) - N))
            live = live[stream[1 + mm + live] == digit(mm)]
        idx = np.concatenate(found) + 1       # ascending, as retired
        hits[t] = np.searchsorted(idx, cps, side="right")
    return HitSeries(cps, hits, norm.sums, seeds, engine="symbolic", kind="symbolic")


# ---------------------------------------------------------------------------
# metric engines

def _window_width(m, r_min):
    """(W, truncation, rounding): the window width W = ceil(log(1/r_min) / log beta)
    + 25 for radii down to r_min >= 1e-18, within 30 and 52 (D = 2), 40 (D > 2)
    or 60 (chains), and the two parts of the certified margin of a window
    position at that width (_window_margin).

    Position i composes the W branches G_k(y) = alpha_k + beta_k y after
    digit i and applies the result to a start point y0 (0 for the D-ary map,
    1/2 for Markov maps).  A run of n consecutive branches contracts by at
    most K c^n, c = 1/beta, K = (worst single branch / c)^(mixing_steps - 1)
    (K = 1 for the D-ary map).  The true point is the composition at z = T^W
    of it, a point of [0, 1], so the exact window value X lies within
    K c^W |y0 - z| of it: truncation = c^W (D-ary) or K c^W / 2 (Markov).

    rounding bounds the float error of the distance |pos - x0f| against the
    exact |X - bracket midpoint|, with u = 2^-53 and |fl(x) - x| <= u |x|.
    X = sum_{k<W} alpha_{k+1} pi_k + y0 pi_W with pi_k = beta_1 ... beta_k,
    and the float constants are correctly rounded.  The doubling composition
    (A, B) o (A', B') = (A + B A', B B') forms term k as a product of its
    k + 1 constants (k multiplications) and, as W < 64, adds it to others at
    most 12 times: 5 compositions build a block of up to 32 branches, 6 fold
    blocks into the result and one applies it to y0.  So term k carries at
    most 2k + 13 rounding factors (1 + delta) and the start term 2W + 1, and
    with |alpha| <= a, pi_k <= K c^k and sum_{k>=0} (2k + 13) c^k =
    13 / (1 - c) + 2c / (1 - c)^2,
        |pos - X| <= u K (a (13 / (1 - c) + 2c / (1 - c)^2) + (2W + 1) y0 c^W) = u P.
    |X| <= Y = 1 + truncation; rounding x0f adds u and the subtraction
    u |pos - x0f| <= u (Y + 1).  Hence rounding = 1.05 u (P + Y + 2), the
    factor 1.05 covering the second-order terms.  Rounding is monotone, so
    the float test |d - r| <= margin flags every step whose computed d is
    within margin of r.
    """
    need = math.ceil(-math.log(max(r_min, 1e-18)) / math.log(m.expansion_beta)) + 25
    W = min(60 if not isinstance(m, DAryShift) else 52 if m.D == 2 else 40, max(need, 30))
    return (W, *_window_margin(m, W))


def _window_margin(m, W):
    """(truncation, rounding) of a window of W branches, as derived in
    _window_width."""
    c = 1.0 / m.expansion_beta
    if isinstance(m, DAryShift):
        K, a, y0 = 1.0, 1 - c, 0.0              # a: the largest |alpha|
    else:
        A, B = m.float_branches
        K = (B.max() / c) ** (m.mixing_steps - 1)
        a, y0 = np.abs(A).max(), 0.5
    truncation = K * c ** W * max(y0, 1 - y0)   # max |y0 - z| over z in [0, 1]
    P = K * (a * (13 / (1 - c) + 2 * c / (1 - c) ** 2) + (2 * W + 1) * y0 * c ** W)
    return truncation, 1.05 * 2.0 ** -53 * (P + truncation + 3)


def _window_positions(m, stream: np.ndarray, N: int, W: int) -> np.ndarray:
    """Float positions of T^i x, i = 1..N, from the W digits after digit i.

    Window i applies y -> a[i+k] + b[i+k] y for k = W-1, ..., 0 to y0.  Each pass
    composes neighbouring blocks of L branches into blocks of 2L, (A, B) o (A', B') =
    (A + B A', B B') (a Hillis-Steele doubling scan), and the block at offset `done`
    joins the result y -> ra + rb y for each binary digit L of W.  The D-ary branches
    have the one slope 1/D, a scalar.  Passes run in place on the blocks and a scratch
    t of length N + W, in the order of _window_width's rounding bound.  The rows of a
    2-D stream are digits and its columns streams, each column's floats its own.
    """
    n, scalar = N + W, isinstance(m, DAryShift)     # the blocks are a[:n] (and b[:n])
    if scalar:
        a, b, y0 = stream[1:n + 1] / m.D, 1.0 / m.D, 0.0
    else:
        # pair j is (stream[j+1], stream[j+2]), so the innermost branch of each
        # window leads to a stream digit and is admissible
        A, B = m.float_branches
        pair = stream[1:n + 1] * np.intp(m.D) + stream[2:n + 2]   # not uint8: digit * D overflows
        a, b, y0 = A.ravel()[pair], B.ravel()[pair], 0.5
    t, ra, done, L = np.empty(a.shape), np.zeros(a[:N].shape), 0, 1
    rb = 1.0 if scalar else np.ones(ra.shape)
    while True:
        if W & L:
            ra += np.multiply(rb, a[done:done + N], out=t[:N])
            rb = rb * b if scalar else np.multiply(rb, b[done:done + N], out=rb)
            done += L
            if done == W:
                return np.add(ra, rb * y0, out=ra)
        a[:n - L] += np.multiply(b if scalar else b[:n - L], a[L:n], out=t[:n - L])
        # a Markov b composes into the scratch, and the old b becomes the scratch
        b, t = (b * b, t) if scalar else (np.multiply(b[:n - L], b[L:n], out=t[:n - L]), b)
        n, L = n - L, L * 2


def run_metric_hits(m: MapModel, measure: InvariantMeasure, target, sched: Schedule,
                    N: int, trials: int, seed: int, horizons=None) -> HitSeries:
    """Count visits d(T^i x, x0) <= r_i; returns ratio traces and windowed
    minima of the scaled distance d/r_n between consecutive checkpoints."""
    seeds = _trial_seeds(m, measure, seed, trials)
    r_min = float(sched.radii_array(N, N - 1)[0])   # r_N first: it checks the kind and N
    target = Target.of(m, target)
    x0f = target.float_value()
    cps = _checkpoints(N, horizons)
    norm = _Normalizer(cps)

    def blocks():       # each block's radii, read once by the engine and the normalizer
        for n0, r in sched.blocks(N):
            norm.add(n0, ball_mass_array(m, measure, x0f, r))
            yield n0, r

    if hasattr(m, "M"):
        hits, wmins, amb = _metric_linear(m, target, blocks(), r_min, N, trials, seeds, cps)
        return HitSeries(cps, hits, norm.sums, seeds, engine="symbolic-window",
                         kind="metric", ambiguous_resolved=amb, window_minima=wmins)
    hits, wmins, resampled = _metric_float_orbit(m, measure, x0f, blocks(), N, trials, seeds, cps)
    return HitSeries(cps, hits, norm.sums, seeds, engine="float-orbit", kind="metric",
                     resampled=resampled, window_minima=wmins)


class _CheckpointTally:
    """Cumulative hits at the checkpoints and minima of d/r_n over each
    window (cps[k-1], cps[k]], fed in blocks of consecutive orbit indices:
    rows are n, columns trials."""

    def __init__(self, cps, trials):
        self.cps = np.asarray(cps)
        self.count = np.zeros(trials, dtype=np.int64)
        self.hits = np.zeros((trials, len(cps)), dtype=np.int64)
        self.wmins = np.full((trials, len(cps)), np.inf)

    def add(self, n0, hit, d, r, t0=0, rows=None, n=None):
        """Rows n0, n0+1, ... of the hits and the distances d to radii r, for
        trials t0, t0+1, ..., or the rows n0 + rows of n, one in each window and
        every other a miss above their d/r.  d is divided by r in place.  A radius that
        underflowed to 0 scales to inf (or nan at d = 0) without a numpy warning."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = np.divide(d, r, out=d)
        cols = slice(t0, t0 + hit.shape[1])
        n1 = n0 + (len(hit) if rows is None else n) - 1
        k0, k1, k2 = np.searchsorted(self.cps, [n0, n1, n1 + 1])
        # windows k0..k1 meet the block; window k > k0 starts at row cps[k-1]+1,
        # and checkpoints k0..k2-1 close the first k2-k0 of them
        starts = np.concatenate(([0], self.cps[k0:k1] + 1 - n0))
        starts = starts if rows is None else np.searchsorted(rows, starts)
        cum = np.add.reduceat(hit, starts, axis=0, dtype=np.int64).cumsum(axis=0)
        cum += self.count[cols]
        self.hits[cols, k0:k2] = cum[:k2 - k0].T
        self.count[cols] = cum[-1]
        seg = np.minimum.reduceat(scaled, starts, axis=0)
        np.minimum(self.wmins[cols, k0:k1 + 1], seg.T, out=self.wmins[cols, k0:k1 + 1])


def _metric_linear(m, target, blocks, r_min, N, trials, seeds, cps):
    """(hits, window minima, steps resolved exactly), a block at a time: d =
    |window position - x0f|, a hit if d <= r_n, the exact test if |d - r_n| <= margin.
    D-ary blocks past the first position only the indices near x0.  The code c of
    the k digits after index n (the largest power of two k with D^k <= 2^16) puts
    its window value (W >= 30 > k digits) in [c, c + 1] / D^k, its float within
    rounding < 2^-40.  With R = r + 3 margin (r the block's first, largest radius),
    v± = fl(fl(x0f ± R) D^k) is within 2^-35 of (x0f ± R) D^k (two roundings below
    2^17), so a code outside [floor(v-) - 1, floor(v+) + 1] puts the position beyond
    x0f ± R: by monotone rounding d >= R, d - r_n >= 2 margin - ulp, d / r_n > 1, a
    certain miss, not ambiguous.  The rest get positions from their W + 2 digits as
    columns of a 2-D stream (the same floats); the window minima are the full scan's
    if each window holds a kept d <= r_n.  If not, if fewer than half are expected
    to (2 r_n hits an index), if R >= 1/32, in the first block and on chains
    (depth-k cylinders are not intervals c / D^k): the full scan.
    """
    W, truncation, rounding = _window_width(m, r_min)
    lo_b, hi_b = target.bracket(120)
    margin = truncation + rounding + float(hi_b - lo_b)     # plus the target's bracket
    x0f = float((lo_b + hi_b) / 2)
    tally = _CheckpointTally(cps, trials)
    reach = W + EXACT_READ + 1      # digits of T^n x that the exact test may read
    ambiguous, gap = 0, np.empty(min(N, WINDOW_BLOCK))
    streams = [_Digits(m, np.random.default_rng(s)) for s in seeds]
    k = isinstance(m, DAryShift) and m.D <= 1 << 16 and 1 << int(math.log2(16 / math.log2(m.D)))
    for n0, r in blocks:                    # orbit indices n0..n0+len(r)-1
        R, (k0, k1) = r[0] + 3 * margin, np.searchsorted(tally.cps, [n0, n0 + len(r) - 1])
        edges, w = np.concatenate(([0], tally.cps[k0:k1] + 1 - n0, [len(r)])), k1 - k0 + 1
        near = (k and n0 > 1 and 32 * R < 1 and 2 * r.sum() >= w * math.log(2 * w)    # Jensen,
                and np.exp(-2 * np.add.reduceat(r, edges[:-1])).sum() <= 0.5)   # then each window
        for t, stream in enumerate(streams):
            digits = stream.read(n0 - 1, n0 + len(r) + W + 1)
            rows, d = near and _near_rows(m, digits, r, W, x0f, k, R, edges) or (
                None, _window_positions(m, digits, len(r), W))
            if rows is None:
                np.abs(np.subtract(d, x0f, out=d), out=d)
            rr = r if rows is None else r[rows]
            hit, g = d <= rr, gap[:len(d)]
            np.abs(np.subtract(d, rr, out=g), out=g)
            for i in np.flatnonzero(g <= margin):
                n = n0 + int(i if rows is None else rows[i])
                point = PrefixWalk(m, stream.read(n, n + reach).tolist())
                hit[i] = ball_holds(point.bounds, target.bracket, Fraction(float(rr[i])), W)
                ambiguous += 1
            tally.add(n0, hit[:, None], d[:, None], rr[:, None], t0=t, rows=rows, n=len(r))
            del rr          # so the block's radii are freed as the next block replaces r
    return tally.hits, tally.wmins, ambiguous


def _near_rows(m, digits, r, W, x0f, k, R, edges):
    """(rows, d) of the rows whose k-digit code is near x0, or None (_metric_linear)."""
    c = digits[1:len(r) + k].astype(np.uint16)
    for L in (1 << j for j in range(k.bit_length() - 1)):   # c[i]: digits i + 1..i + 2L
        c[:-L] = c[:-L] * m.D ** L + c[L:]
    lo, hi = math.floor((x0f - R) * m.D ** k) - 1, math.floor((x0f + R) * m.D ** k) + 1
    rows = np.flatnonzero((c[:len(r)] >= lo) & (c[:len(r)] <= hi))
    d = np.abs(_window_positions(m, digits[rows + np.arange(W + 2)[:, None]], 1, W)[0] - x0f)
    return (rows, d) if np.all(np.diff(np.searchsorted(rows[d <= r[rows]], edges)) > 0) else None


def _metric_float_orbit(m, measure, x0f, blocks, N, trials, seeds, cps):
    tally = _CheckpointTally(cps, trials)
    resampled, a, r = 0, 1, np.empty(0)
    for n0, xs, restarts in float_orbit_blocks(m, measure, seeds, N):
        resampled += restarts
        if n0 == 0:
            n0, xs = 1, xs[1:]          # x_0 is the start, not a visit
        if n0 == a + len(r):            # the orbit's blocks of ORBIT_BLOCK rows nest in the radii's
            a, r = next(blocks)
        d = np.abs(xs - x0f)
        if m.circle:
            d = np.minimum(d, 1.0 - d)
        rb = r[n0 - a:n0 - a + len(xs), None]
        tally.add(n0, d <= rb, d, rb)
    return tally.hits, tally.wmins, resampled


# ---------------------------------------------------------------------------
# Borel-Cantelli classification

@dataclass
class BCVerdict:
    verdict: str                 # "FullMeasure" | "MeasureZero" | "Inconclusive"
    series: str                  # description of the series tested
    partial_sums: list
    reasoning: str
    heuristic: bool = False

    def to_json(self) -> dict:
        return asdict(self)


PARTIAL_SUM_SCALES = (10 ** 3, 10 ** 4, 10 ** 5)


def borel_cantelli_classify(m: MapModel, measure: InvariantMeasure, target,
                            sched: Schedule) -> BCVerdict:
    """Measure dichotomy for the "infinitely often" set of the schedule.

    Convergent mass series  => MeasureZero (direct Borel-Cantelli).
    Divergent series        => FullMeasure, by the divergence theorem for
    cylinder targets and the dynamical Borel-Cantelli lemma for balls.

    Every admitted (map, measure) pair (check_invariant) has a density
    bounded above and below, so sum mu(B(x0, r_n)) diverges iff sum r_n
    does, and then so does sum mu(I_n) for the half I_n of B_n, [x0, x0 +
    r_n) or (x0 - r_n, x0], with more room in the domain (on the circle, cut
    at a fixed point p: S(t) - t gains N - 1 >= 1 per turn).  T^n x is in
    I_n for infinitely many n, for mu-a.e. x, by Philipp ("Some metrical
    theorems in number theory", Pacific J. Math. 1967) on the Gauss map and
    x -> Dx mod 1, and by Kim ("The dynamical Borel-Cantelli lemma for
    interval maps", Discrete Contin. Dyn. Syst. 2007: finitely many C^2
    expanding branches, a mixing acim) on the Markov maps (affine branches,
    density 1, mixing as M is primitive; if only T^k expands, Kim for T^k on
    a class n = j mod k whose sum diverges) and the Blaschke maps cut at p
    (N full branches, |T'| = |B'| > 1: exact for Lebesgue measure).

    Log-floor depths floor(log_b n) give about (b - 1) b^t indices depth t,
    and the masses of a target with period p shrink by rho, the inverse of
    the period's multiplier, per period (Chernov-Kleinbock 2001 for Markov
    measures, Philipp 1967 for the Gauss map), so the series diverges iff
    b^p rho >= 1.  Two exact rules read rho (_log_floor_diverges): uniform
    chains, the D-ary map among them, and word targets on maps with an exact
    walk.  Every other log-floor target gets one estimated rate per digit
    (_mass_rate), and log b >= rate, monotone in b, is its verdict, unless
    a forbidden transition makes its masses exactly 0: a finite sum.

    The kind's growth (g, e) in SCHEDULE_KINDS picks the rule, and a custom
    table grows as the constant schedule of its last entry, which repeats.
    Only those rate verdicts are heuristic.
    """
    check_invariant(m, measure)
    target = Target.of(m, target)
    if sched.is_radii:
        return _classify_radii(m, measure, target, sched)
    return _classify_depths(m, measure, target, sched)


def _classify_radii(m, measure, target, sched):
    ends = (0, *PARTIAL_SUM_SCALES)     # the mass series summed up to each scale
    terms = ball_mass_array(m, measure, target.float_value(), sched.radii_array(ends[-1]))
    psums = list(accumulate(float(np.sum(terms[a:b])) for a, b in pairwise(ends)))
    g, e = sched.growth
    series = f"sum mu(B(x0, r_n)), r_n ~ e^(-g n) n^(-e), (g, e) = ({g}, {e})"
    if g > 0 or e > 1:
        return BCVerdict("MeasureZero", series, psums,
                         "sum r_n converges for g > 0 or e > 1: direct Borel-Cantelli")
    return BCVerdict("FullMeasure", series, psums,
                     "sum r_n diverges for g = 0 and e <= 1: dynamical Borel-Cantelli")


def _classify_depths(m, measure, target, sched):
    depths = sched.depths_array(10 ** 4)
    masses = cylinder_mass_by_depth(m, measure, target, depths)
    psums = [float(v) for v in np.cumsum(masses)[[999, 9999 // 2, 9999]]]
    g, e = sched.growth
    if e > 0:
        # sum c^(n^e) converges for every e > 0 and c < 1
        return BCVerdict("MeasureZero",
                         "sum mu(P(floor(n^kappa), x0)) <= sum (max mass ratio)^(n^kappa)",
                         psums, "stretched-geometric masses are summable for kappa > 0")
    if g == 0:
        # n copies of one mass (a table's last entry repeats), 0 only where the
        # word (one period and its wrap, for a periodic word) leaves a chain's
        # support; its float also reads 0 where it underflows, as deep Gauss cylinders do
        t = int(sched.depths_array(MAX_DEPTH, MAX_DEPTH - 1)[0])
        t = t if target.word is None else min(t, len(target.word))
        try:
            if target.value is None:
                target.digits(t)
        except InadmissibleDigit:
            return BCVerdict("MeasureZero", "sum mu(P(t, x0)) with constant t", psums,
                             "the depth-t word leaves the support: every term is 0")
        return BCVerdict("FullMeasure", "sum mu(P(t, x0)) with constant t", psums,
                         "constant-depth cylinder masses diverge linearly")
    series = f"sum mu(P(floor(log_{g:g} n), x0))"       # g > 0 is the base
    diverges = _log_floor_diverges(m, target, Fraction(g))
    if diverges is None:        # one estimated rate, so monotone in g
        rate = _mass_rate(m, measure, target)
        if rate is None:
            return BCVerdict("Inconclusive", series, psums, "the masses end or fall "
                             "below 2^-40 by depth 1 (heuristic)", heuristic=True)
        if rate == math.inf:
            return BCVerdict("MeasureZero", series, psums, "a transition the chain "
                             "forbids makes the masses exactly 0: the series is a finite sum")
        verdict = "FullMeasure" if math.log(g) >= rate else "MeasureZero"
        return BCVerdict(verdict, series, psums, f"masses shrink by e^-{rate:.4g} "
                         f"per digit; log b = {math.log(g):.4g} (heuristic)", heuristic=True)
    if diverges:
        return BCVerdict("FullMeasure", series, psums,
                         "about (b-1) b^t terms of depth t, masses shrinking by "
                         "rho per period p, and b^p rho >= 1: the series diverges")
    return BCVerdict("MeasureZero", series, psums,
                     "b^p rho < 1: a convergent geometric series bounds it")


def _log_floor_diverges(m, target, b: Fraction) -> Optional[bool]:
    """Whether b^p >= the multiplier of the target's period p, or None when
    no exact rule reads it.  The multiplier is 1/q per digit where the nonzero
    entries of a linear map's M all equal q (1/D on the D-ary map, whose rows
    are one tuple, read once), at every target in the support, a word
    target's periodic point included; else it is lambda^2 / |ad - bc| for a
    word target with the integer period matrix (a, b, c, d) (period_matrix),
    lambda its Perron root, and a word that leaves the support has masses 0.
    """
    rows = {id(row): row for row in getattr(m, "M", ())}      # each distinct row once
    entries = {x for row in rows.values() for x in row}
    if len(entries - {0}) == 1 and (0 not in entries or target.value is not None):
        return b * max(entries) >= 1
    try:
        mat = None if target.word is None else period_matrix(m, target.word)
    except MapError:        # InadmissibleDigit
        return False
    if mat is None:
        return None
    # lambda = (tr + sqrt(tr^2 - 4 det)) / 2 and lambda^2 = tr lambda - det,
    # so b^p |det| >= lambda^2 iff 2 (b^p |det| + det) - tr^2 >= tr sqrt(tr^2 - 4 det)
    a, x, c, d = mat
    tr, det = a + d, a * d - x * c
    lhs = 2 * (b ** len(target.word) * abs(det) + det) - tr * tr
    return lhs >= 0 and lhs * lhs >= tr * tr * (tr * tr - 4 * det)


RATE_FLOOR, RATE_DEPTH = 2.0 ** -40, 64     # where _mass_rate stops reading masses


def _mass_rate(m, measure, target) -> Optional[float]:
    """log(mu(P(h)) / mu(P(T))) / (T - h), the masses' decay per digit, a
    ratio in which constant factors cancel.  T is the first depth whose mass
    is below RATE_FLOOR, at most RATE_DEPTH, or the last before the walk ends
    (BoundaryHit).  h = T // 2, but a word target of period p <= T reads
    whole periods: max(1, (T - T // 2) // p) of them end at T.  None if
    T < 2; math.inf only once a mass is exactly 0 (_chain_mass)."""
    masses = []
    try:
        mass_at = _mass_at(m, measure, target)
        while len(masses) <= RATE_DEPTH and (not masses or masses[-1] >= RATE_FLOOR):
            masses.append(mass_at(len(masses)))
    except BoundaryHit:
        pass
    if masses and isinstance(masses[-1], int):
        return math.inf
    T, p = len(masses) - 1, len(target.word or ())
    if T < 2:
        return None
    h = T - p * max(1, (T - T // 2) // p) if 0 < p <= T else T // 2
    # a mass that rounds to 0.0 is below ulp(0.0), so the rate read is a lower bound
    return (math.log(masses[h]) - math.log(masses[T] or math.ulp(0.0))) / (T - h)
