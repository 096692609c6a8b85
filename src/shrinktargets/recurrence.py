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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .coding import PrefixWalk, Target, ball_holds, cylinder_from_word  # noqa: F401 (re-exported)
from .maps import (
    DAryShift,
    GaussMap,
    MapError,
    MapModel,
    MarkovLinear,
)
from .measures import (
    GaussMeasure,
    InvariantMeasure,
    LebesgueMeasure,
    MarkovStationaryMeasure,
    MeasureError,
    float_orbit_blocks,
    log_mass,
    sample_chain,
    trial_seed,
)

PREFIX_CAP = 64          # symbolic prefix depth cap (miss probability < 2^-64)


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    """A radii sequence {r_n} or digit-depth sequence {t_n}.

    kinds: radii_power(alpha): r_n = n^(-1/alpha);  radii_exp(kappa):
    r_n = e^(-kappa n);  radii_const(r);  depth_log_floor(base):
    t_n = floor(log_base n);  depth_power_floor(kappa): t_n = floor(n^kappa);
    depth_const(t);  custom_radii / custom_depths with explicit tables.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        known = {"radii_power", "radii_exp", "radii_const", "depth_log_floor",
                 "depth_power_floor", "depth_const", "custom_radii",
                 "custom_depths"}
        if self.kind not in known:
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        if self.kind.startswith("custom") and not self.params["table"]:
            raise ScheduleError("custom table is empty")
        if self.kind == "custom_radii":
            tab = self.params["table"]
            if any(b > a for a, b in zip(tab, tab[1:])):
                raise ScheduleError("custom radii must be non-increasing")
        if self.kind == "custom_depths":
            tab = self.params["table"]
            if any(b < a for a, b in zip(tab, tab[1:])):
                raise ScheduleError("custom depths must be non-decreasing")
            if tab[0] < 0:
                raise ScheduleError("custom depths must be >= 0")
        if self.kind == "depth_const" and self.params["t"] < 0:
            raise ScheduleError("depth must be >= 0")
        key, low = {"radii_power": ("alpha", 0), "radii_exp": ("kappa", 0),
                    "radii_const": ("r", 0), "depth_power_floor": ("kappa", 0),
                    "depth_log_floor": ("base", 1)}.get(self.kind, (None, 0))
        if key and not (math.isfinite(self.params[key]) and self.params[key] > low):
            raise ScheduleError(f"{key} must be finite and > {low}")

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
        return self.kind.startswith("radii") or self.kind == "custom_radii"

    def radius(self, n: int):
        if not self.is_radii:
            raise ScheduleError("not a radii schedule")
        if self.kind == "radii_power":
            return n ** (-1.0 / self.params["alpha"])
        if self.kind == "radii_exp":
            return math.exp(-self.params["kappa"] * n)
        if self.kind == "radii_const":
            return self.params["r"]
        tab = self.params["table"]
        return tab[min(n - 1, len(tab) - 1)]

    def radii_array(self, N: int) -> np.ndarray:
        n = np.arange(1, N + 1, dtype=float)
        if self.kind == "radii_power":
            return n ** (-1.0 / self.params["alpha"])
        if self.kind == "radii_exp":
            return np.exp(-self.params["kappa"] * n)
        if self.kind == "radii_const":
            return np.full(N, float(self.params["r"]))
        tab = np.asarray([float(x) for x in self.params["table"]])
        out = np.empty(N)
        k = min(N, len(tab))
        out[:k] = tab[:k]
        out[k:] = tab[-1]
        return out

    def depth(self, n: int) -> int:
        if self.is_radii:
            raise ScheduleError("not a depth schedule")
        if self.kind == "depth_log_floor":
            return int(math.floor(math.log(n, self.params["base"]))) if n > 1 else 0
        if self.kind == "depth_power_floor":
            return int(math.floor(n ** self.params["kappa"]))
        if self.kind == "depth_const":
            return self.params["t"]
        tab = self.params["table"]
        return tab[min(n - 1, len(tab) - 1)]

    def depths_array(self, N: int) -> np.ndarray:
        n = np.arange(1, N + 1, dtype=float)
        if self.kind == "depth_log_floor":
            with np.errstate(divide="ignore"):
                t = np.floor(np.log(n) / math.log(self.params["base"]))
            t[0] = 0
            return t.astype(np.int64)
        if self.kind == "depth_power_floor":
            return np.floor(n ** self.params["kappa"]).astype(np.int64)
        if self.kind == "depth_const":
            return np.full(N, self.params["t"], dtype=np.int64)
        tab = np.asarray(self.params["table"], dtype=np.int64)
        out = np.empty(N, dtype=np.int64)
        k = min(N, len(tab))
        out[:k] = tab[:k]
        out[k:] = tab[-1]
        return out

    def rates(self) -> dict:
        """Closed-form exponential rates of the schedule."""
        if self.kind in ("radii_power", "radii_const"):
            return {"ell_bar": 0.0, "ell_lower": 0.0}
        if self.kind == "radii_exp":
            k = self.params["kappa"]
            return {"ell_bar": k, "ell_lower": k}
        if self.kind in ("depth_log_floor", "depth_const"):
            return {"w_bar": 0.0, "w_lower": 0.0}
        if self.kind == "depth_power_floor":
            k = self.params["kappa"]
            if k < 1:
                return {"w_bar": 0.0, "w_lower": 0.0}
            if k == 1:
                return {"w_bar": 1.0, "w_lower": 1.0}
            return {"w_bar": math.inf, "w_lower": math.inf}
        # custom: numeric estimate from the table (flagged)
        tab = self.params["table"]
        n = np.arange(1, len(tab) + 1, dtype=float)
        if self.kind == "custom_radii":
            vals = -np.log(np.asarray([float(x) for x in tab])) / n
            return {"ell_bar": float(vals[len(vals) // 2:].max()),
                    "ell_lower": float(vals[len(vals) // 2:].min()),
                    "numeric": True}
        vals = np.asarray(tab, dtype=float) / n
        return {"w_bar": float(vals[len(vals) // 2:].max()),
                "w_lower": float(vals[len(vals) // 2:].min()),
                "numeric": True}

    def to_json(self) -> dict:
        return {"kind": self.kind, **{k: (v if not isinstance(v, list) else list(v))
                                      for k, v in self.params.items()}}


# ---------------------------------------------------------------------------
# hit series

@dataclass
class HitSeries:
    checkpoints: list                 # sorted horizons
    hits: np.ndarray                  # (trials, len(checkpoints)) cumulative
    normalizer: np.ndarray            # (len(checkpoints),)
    trial_seeds: list
    engine: str
    kind: str                         # "metric" | "symbolic"
    resampled: int = 0
    ambiguous_resolved: int = 0
    window_minima: Optional[np.ndarray] = None   # (trials, windows) of min d/r_n
    hit_indices: Optional[list] = None

    @property
    def ratios(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.hits / self.normalizer[None, :]

    def final_ratios(self) -> np.ndarray:
        return self.ratios[:, -1]

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
            "checkpoints": [int(c) for c in self.checkpoints],
            "normalizer": [float(v) for v in self.normalizer],
            "mean_ratio": self.mean_final_ratio(),
            "ci95": [lo, hi],
            "resampled": self.resampled,
            "ambiguous_resolved": self.ambiguous_resolved,
        }
        if self.window_minima is not None:
            out["window_minima_median"] = [
                float(np.median(self.window_minima[:, w]))
                for w in range(self.window_minima.shape[1])]
        return out

    def csv_rows(self):
        for t in range(self.hits.shape[0]):
            for k, n in enumerate(self.checkpoints):
                norm = float(self.normalizer[k])
                ratio = float(self.hits[t, k] / norm) if norm > 0 else math.nan
                yield (t, int(n), int(self.hits[t, k]), norm, ratio)


def _checkpoints(N: int, horizons) -> list:
    if horizons:
        cps = sorted(set(int(h) for h in horizons if h <= N))
        if not cps or cps[-1] != N:
            cps.append(N)
        return cps
    return [N]


# ---------------------------------------------------------------------------
# normalizers

def ball_mass_array(measure: InvariantMeasure, m: MapModel, x0: float,
                    radii: np.ndarray) -> np.ndarray:
    if m.circle:
        if not isinstance(measure, LebesgueMeasure):
            raise MeasureError("circle targets need Lebesgue measure")
        return np.minimum(2 * radii, 1.0)
    lo = np.maximum(x0 - radii, 0.0)
    hi = np.minimum(x0 + radii, 1.0)
    if isinstance(measure, GaussMeasure):
        return np.log1p((hi - lo) / (1 + lo)) / math.log(2)
    return hi - lo  # Lebesgue / Markov-stationary on the interval model


def target_mass_rates(sched: Schedule, m: MapModel, measure: InvariantMeasure,
                      target: Target, n_grid=(50, 200, 1000)) -> dict:
    """Exponential rates L of the target cylinder masses along a depth
    schedule: L = (1/n) log(1/mu(P(t_n, x0))), sampled at the grid and
    reported as (max, min) over the tail; exact closed form L = w * rate
    for uniform-mass words."""
    if sched.is_radii:
        raise ScheduleError("mass rates apply to depth schedules")
    vals = []
    for n in n_grid:
        t = sched.depth(n)
        word = target.digits(min(t, 200))
        vals.append(-log_mass(measure.cylinder_mass(m, word)) / n)
    out = {"L_bar": max(vals), "L_lower": min(vals), "samples": vals}
    if isinstance(m, DAryShift):
        r = sched.rates()
        out["closed_form"] = {"L_bar": r.get("w_bar", math.nan) * math.log(m.D),
                              "L_lower": r.get("w_lower", math.nan) * math.log(m.D)}
    return out


def cylinder_mass_by_depth(measure: InvariantMeasure, m: MapModel,
                           target: Target, depths: np.ndarray,
                           exact_cap: int = 400) -> np.ndarray:
    """Masses mu(P(t, x0)) for each distinct depth t, gathered to all n.

    One target word, at the largest depth needed, serves every depth as a
    prefix, and one prefix walk (or, for the Markov measure, one running
    product) adds one factor per depth.  Depths past exact_cap get mass 0: the mass lies below any
    representable float, so the target is unhittable.
    """
    uniq, inverse = np.unique(depths, return_inverse=True)
    word = target.digits(int(min(uniq[-1], exact_cap)))
    if isinstance(measure, MarkovStationaryMeasure):
        # the running product p_{w_0} M[w_0][w_1] ... M[w_{t-1}][w_t]
        prefix = [measure.p[word[0]]]
        for a, b in zip(word, word[1:]):
            prefix.append(prefix[-1] * measure.M[a][b])
        mass_at = prefix.__getitem__
    else:
        walk = target.walk()
        of_ends = (lambda lo, hi: hi - lo) if isinstance(measure, LebesgueMeasure) \
            else measure.interval_mass
        mass_at = lambda t: of_ends(*walk.bounds(t))
    mass = np.array([float(mass_at(t)) if t <= exact_cap else 0.0 for t in uniq.tolist()])
    return mass[inverse]


# ---------------------------------------------------------------------------
# symbolic engine

def _digit_stream(m: MapModel, measure: InvariantMeasure, rng, length: int, after=None):
    """length digits of a random orbit; a chain stream that reads on past
    the digit ``after`` steps from that digit's row of M."""
    if isinstance(m, DAryShift):
        return rng.integers(0, m.D, size=length, dtype=np.int64)
    if isinstance(m, MarkovLinear):
        return sample_chain(m, rng, length) if after is None \
            else sample_chain(m, rng, length + 1, start=after)[1:]
    if isinstance(m, GaussMap):
        # digits of a pseudo-orbit started from a Gauss-distributed point
        x = float(np.exp2(rng.random()) - 1.0)
        out = np.empty(length, dtype=np.int64)
        for k in range(length):
            inv = 1.0 / x
            d = int(inv)
            out[k] = d
            x = inv - d
            if not (0 < x < 1):
                x = float(np.exp2(rng.random()) - 1.0)
        return out
    raise MapError(f"no digit-stream engine for {m.kind}")


def run_symbolic_hits(m: MapModel, measure: InvariantMeasure, target, sched: Schedule,
                      N: int, trials: int, seed: int, horizons=None,
                      collect_hits: bool = False) -> HitSeries:
    """Count visits T^i(x) in P(t_i, x0) by exact word-prefix comparison."""
    if sched.is_radii:
        raise ScheduleError("symbolic runs need a depth schedule")
    target = Target.of(m, target)
    depths = sched.depths_array(N)
    cap = int(min(depths.max(), PREFIX_CAP))
    word = np.asarray(target.digits(cap), dtype=np.int64)
    cps = _checkpoints(N, horizons)
    norm = np.cumsum(cylinder_mass_by_depth(measure, m, target, depths))[
        np.asarray(cps) - 1]

    capped = np.minimum(depths, cap)
    uniq = np.unique(capped)
    hits = np.zeros((trials, len(cps)), dtype=np.int64)
    seeds = [trial_seed(seed, t) for t in range(trials)]
    hit_idx = [] if collect_hits else None
    for t in range(trials):
        rng = np.random.default_rng(seeds[t])
        stream = _digit_stream(m, measure, rng, N + cap + 2)
        acc = np.ones(N, dtype=bool)       # acc[i-1]: prefix match at orbit index i
        hit = np.zeros(N, dtype=bool)
        depth_done = -1
        for u in uniq:
            for mm in range(depth_done + 1, int(u) + 1):
                acc &= stream[1 + mm: 1 + mm + N] == word[mm]
            depth_done = int(u)
            sel = capped == u
            hit[sel] = acc[sel]
        cum = np.cumsum(hit)
        hits[t] = cum[np.asarray(cps) - 1]
        if collect_hits:
            hit_idx.append(np.flatnonzero(hit) + 1)
    return HitSeries(cps, hits, norm, seeds, engine="symbolic", kind="symbolic",
                     hit_indices=hit_idx)


# ---------------------------------------------------------------------------
# metric engines

def _window_width(m, r_min):
    """(W, truncation, rounding): window width for radii down to r_min and
    the two parts of the certified margin of a window position.

    Position i applies the branches of the W digit pairs after digit i to a
    start point y_W (0 in the D-ary correlation, 1/2 for Markov maps).  A
    run of n consecutive branches contracts by at most K c^n, c = 1/beta,
    K = (worst single branch / c)^(mixing_steps - 1).  The composition G of
    the W branches is affine with slope at most K c^W, and the true point
    is G(z) with z = T^W of it, a point of [0, 1].  So the exact window
    value G(y_W) lies within K c^W |y_W - z| of the true point, and
    truncation = K c^W / 2 for Markov maps (y_W = 1/2) and c^W for the
    D-ary map (y_W = 0, K = 1).

    rounding bounds the float error of the distance |pos - x0f| against the
    exact |window value - bracket midpoint|, with u = 2^-53 and
    |fl(x) - x| <= u |x|:
    * Markov: y_{k-1} = fl(A_k + fl(B_k y_k)) with A, B rounded branch
      constants adds at most u(|A_k| + 2 B_k |y_k| + |y_{k-1}|) per step,
      which the outer branches scale by at most K.  Every y_k lies within
      K/2 of a point of [0, 1], so |y_k| <= Y = 1 + K/2 and
      P = K W (a + (2 b + 1) Y), with a, b the largest |A| and B.
    * D-ary: the weights fl(fl(1/D)^k) (pow within one unit in the last
      place) carry a relative error of at most (k + 2) u, at most 4u summed
      over the digits; the products and the sum add at most W u, as the
      terms sum to below 1.  P = W + 4, Y = 1.
    * Both: rounding x0f adds u and the subtraction u |pos - x0f| <= u (Y + 1).
    Hence rounding = 1.05 u (P + Y + 2), the factor 1.05 covering the
    second-order terms.  Rounding is monotone, so the float test
    |d - r| <= margin flags every step whose computed d is within margin
    of r.
    """
    c = 1.0 / m.expansion_beta
    if isinstance(m, DAryShift):
        need = int(math.ceil(-math.log(max(r_min, 1e-18)) / math.log(m.D))) + 25
        W = int(min(52 if m.D == 2 else 40, max(need, 30)))
        K, Y, P, gap = 1.0, 1.0, W + 4, 1.0    # gap: max |y_W - z| over z in [0, 1]
    else:
        need = int(math.ceil(math.log(max(r_min, 1e-18)) / math.log(c))) + 25
        W = int(min(60, max(need, 30)))
        A, B = _branch_table(m)
        K = (B.max() / c) ** (m.mixing_steps - 1)
        Y = 1 + K / 2
        P = K * W * (np.abs(A).max() + (2 * B.max() + 1) * Y)
        gap = 0.5
    return W, K * c ** W * gap, 1.05 * 2.0 ** -53 * (P + Y + 2)


def _branch_table(m: MarkovLinear):
    """Float copies (A, B) of the exact branches, indexed [digit, next digit];
    0 where the transition is forbidden."""
    AB = np.array([[m.branch_affine(i, j) if m.admissible(i, j) else (0, 0)
                    for j in range(m.D)] for i in range(m.D)], dtype=float)
    return AB[..., 0], AB[..., 1]


def _window_positions(m, stream: np.ndarray, N: int, W: int) -> np.ndarray:
    """Float positions of T^i x, i = 1..N, from the W digits after digit i."""
    if isinstance(m, DAryShift):
        # np.correlate computes sum_k a[j+k] v[k]: no kernel flip
        w = (1.0 / m.D) ** np.arange(1, W + 1)
        return np.correlate(stream[1:N + W + 1].astype(float), w, mode="valid")[:N]
    # pair j is (stream[j+1], stream[j+2]), so the innermost branch of each
    # window leads to a stream digit and is admissible
    A, B = _branch_table(m)
    pair = stream[1:N + W + 1] * m.D + stream[2:N + W + 2]
    a, b = A.ravel()[pair], B.ravel()[pair]
    y = np.full(N, 0.5)
    for k in range(W - 1, -1, -1):
        y *= b[k:k + N]
        y += a[k:k + N]
    return y


def run_metric_hits(m: MapModel, measure: InvariantMeasure, target, sched: Schedule,
                    N: int, trials: int, seed: int, horizons=None,
                    collect_hits: bool = False) -> HitSeries:
    """Count visits d(T^i x, x0) <= r_i; returns ratio traces and windowed
    minima of the scaled distance d/r_n between consecutive checkpoints."""
    if not sched.is_radii:
        raise ScheduleError("metric runs need a radii schedule")
    target = Target.of(m, target)
    x0f = target.float_value()
    cps = _checkpoints(N, horizons)
    radii = sched.radii_array(N)
    norm = np.cumsum(ball_mass_array(measure, m, x0f, radii))[np.asarray(cps) - 1]
    seeds = [trial_seed(seed, t) for t in range(trials)]

    if isinstance(m, (DAryShift, MarkovLinear)):
        hits, wmins, amb, hit_idx = _metric_linear(
            m, measure, target, radii, N, trials, seeds, cps, collect_hits)
        return HitSeries(cps, hits, norm, seeds, engine="symbolic-window",
                         kind="metric", ambiguous_resolved=amb,
                         window_minima=wmins, hit_indices=hit_idx)
    hits, wmins, resampled, hit_idx = _metric_float_orbit(
        m, measure, x0f, radii, N, trials, seeds, cps, collect_hits)
    return HitSeries(cps, hits, norm, seeds, engine="float-orbit", kind="metric",
                     resampled=resampled, window_minima=wmins, hit_indices=hit_idx)


class _CheckpointTally:
    """Cumulative hits at the checkpoints, minima of d/r_n over each window
    (cps[k-1], cps[k]] and, if asked, the hit indices, fed in blocks of
    consecutive orbit indices: rows are n, columns trials."""

    def __init__(self, cps, trials, collect_hits):
        self.cps = np.asarray(cps)
        self.count = np.zeros(trials, dtype=np.int64)
        self.hits = np.zeros((trials, len(cps)), dtype=np.int64)
        self.wmins = np.full((trials, len(cps)), np.inf)
        self.found = [] if collect_hits else None

    def add(self, n0, hit, d, r, t0=0):
        """Rows n0, n0+1, ... of the hits and the distances d to radii r, for
        trials t0, t0+1, ...  A radius that underflowed to 0 scales to inf
        (or nan at d = 0) without a numpy warning."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = d / r
        cols = slice(t0, t0 + hit.shape[1])
        n1 = n0 + len(hit) - 1
        k0, k1, k2 = np.searchsorted(self.cps, [n0, n1, n1 + 1])
        # windows k0..k1 meet the block; window k > k0 starts at row cps[k-1]+1,
        # and checkpoints k0..k2-1 close the first k2-k0 of them
        starts = np.concatenate(([0], self.cps[k0:k1] + 1 - n0))
        cum = np.add.reduceat(hit, starts, axis=0, dtype=np.int64).cumsum(axis=0)
        cum += self.count[cols]
        self.hits[cols, k0:k2] = cum[:k2 - k0].T
        self.count[cols] = cum[-1]
        seg = np.minimum.reduceat(scaled, starts, axis=0)
        np.minimum(self.wmins[cols, k0:k1 + 1], seg.T, out=self.wmins[cols, k0:k1 + 1])
        if self.found is not None:
            t, i = np.nonzero(hit.T)
            self.found.append((t + t0, i + n0))

    def hit_indices(self):
        """Per trial, the ascending orbit indices of its hits."""
        if self.found is None:
            return None
        t = np.concatenate([t for t, _ in self.found])
        n = np.concatenate([n for _, n in self.found])
        # blocks arrive in ascending n, so a stable sort by trial keeps order
        n = n[np.argsort(t, kind="stable")]
        return np.split(n, np.cumsum(np.bincount(t, minlength=len(self.count)))[:-1])


def _metric_linear(m, measure, target, radii, N, trials, seeds, cps, collect_hits):
    W, truncation, rounding = _window_width(m, float(radii[-1]))
    margin = truncation + rounding
    lo_b, hi_b = target.bracket(120)
    x0f = float((lo_b + hi_b) / 2)
    tally = _CheckpointTally(cps, trials, collect_hits)
    reach = W + 193         # digits of T^n x that the exact test may read
    ambiguous = 0
    for t in range(trials):
        rng = np.random.default_rng(seeds[t])
        stream = _digit_stream(m, measure, rng, N + W + 2)
        pos = _window_positions(m, stream, N, W)
        d = np.abs(pos - x0f)
        hit = d <= radii
        unsure = np.abs(d - radii) <= margin + (hi_b - lo_b)
        for i in np.flatnonzero(unsure):
            n = int(i) + 1
            if len(stream) < n + reach:
                # the orbit reads on from the trial's own generator, once per trial
                stream = np.concatenate(
                    (stream, _digit_stream(m, measure, rng, reach, after=int(stream[-1]))))
            point = PrefixWalk(m, stream[n:n + reach].tolist())
            hit[i] = ball_holds(point.bounds, target.bracket, Fraction(float(radii[i])), W)
            ambiguous += 1
        tally.add(1, hit[:, None], d[:, None], radii[:, None], t0=t)
    return tally.hits, tally.wmins, ambiguous, tally.hit_indices()


def _metric_float_orbit(m, measure, x0f, radii, N, trials, seeds, cps, collect_hits):
    tally = _CheckpointTally(cps, trials, collect_hits)
    resampled = 0
    for n0, xs, restarts in float_orbit_blocks(m, measure, seeds, N):
        resampled += restarts
        if n0 == 0:
            n0, xs = 1, xs[1:]          # x_0 is the start, not a visit
        d = np.abs(xs - x0f)
        if m.circle:
            d = np.minimum(d, 1.0 - d)
        r = radii[n0 - 1:n0 - 1 + len(xs), None]
        tally.add(n0, d <= r, d, r)
    return tally.hits, tally.wmins, resampled, tally.hit_indices()


# ---------------------------------------------------------------------------
# Borel-Cantelli classification

@dataclass
class BCVerdict:
    verdict: str                 # "FullMeasure" | "MeasureZero" | "Inconclusive"
    series: str                  # description of the series tested
    exponent: Optional[float]    # epsilon-strengthened exponent, when used
    partial_sums: list
    reasoning: str
    heuristic: bool = False

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "series": self.series,
            "exponent": self.exponent,
            "partial_sums": self.partial_sums,
            "reasoning": self.reasoning,
            "heuristic": self.heuristic,
        }


PARTIAL_SUM_SCALES = (10 ** 3, 10 ** 4, 10 ** 5)


def _partial_sums(terms: np.ndarray) -> list:
    """Partial sums of the series terms[n-1], n = 1.., up to each scale."""
    out = []
    total = 0.0
    prev = 0
    for s in PARTIAL_SUM_SCALES:
        total += float(np.sum(terms[prev:s]))
        out.append(total)
        prev = s
    return out


def borel_cantelli_classify(m: MapModel, measure: InvariantMeasure, target,
                            sched: Schedule) -> BCVerdict:
    """Measure dichotomy for the "infinitely often" set of the schedule.

    Convergent mass series  => MeasureZero (direct Borel-Cantelli).
    Divergent series        => FullMeasure, via the divergence theorem for
    cylinder targets, or via the epsilon-strengthened radii series with
    exponent delta_bar + tau_bar/log(beta) for metric targets.
    """
    target = Target.of(m, target)
    if sched.is_radii:
        return _classify_radii(m, measure, target, sched)
    return _classify_depths(m, measure, target, sched)


def local_dims(target: Target, measure: InvariantMeasure, depth_cap: int = 30):
    """(delta_lower, delta_bar) at the target from log mass / log diam, with
    the exact value 1 for finite-partition interval maps."""
    m = target.map
    if isinstance(m, (DAryShift, MarkovLinear)):
        return 1.0, 1.0, {"exact": True}
    vals = []
    for c in map(target.walk().cylinder, range(max(2, depth_cap - 10), depth_cap + 1)):
        num = measure.interval_mass(c.left, c.right) if not isinstance(
            measure, MarkovStationaryMeasure) else measure.cylinder_mass(m, c.word)
        lnum = math.log(float(num)) if float(num) > 0 else -math.inf
        vals.append(lnum / math.log(float(c.length)))
    return min(vals), max(vals), {"exact": False, "depth_cap": depth_cap}


def tau_bar(target: Target, depth_cap: int = 30):
    """Decay rate of consecutive cylinder masses at the target; 0 exactly
    for finite partitions, and 0 for Gauss targets with subexponential
    digits."""
    if isinstance(target.map, (DAryShift, MarkovLinear)):
        return 0.0, {"exact": True}
    walk = target.walk()
    # if log i_n = o(n) the decay rate vanishes; digits bounded over
    # the sampled depth is the desk-scale proxy for that condition
    if isinstance(target.map, GaussMap) and max(walk.digits(depth_cap)) <= 10 ** 6:
        return 0.0, {"exact": False, "justification": "bounded digits to sampled depth"}
    lengths = [hi - lo for lo, hi in map(walk.bounds, range(1, depth_cap + 1))]
    vals = [math.log(float(prev / cur)) / (n - 1)
            for n, prev, cur in zip(range(2, depth_cap + 1), lengths, lengths[1:])]
    return max(vals[-5:]), {"exact": False}


def _classify_radii(m, measure, target, sched):
    x0 = target.float_value()
    dlo, dbar, _ = local_dims(target, measure)
    tau, _ = tau_bar(target)
    logbeta = math.log(m.expansion_beta)
    e0 = dbar + tau / logbeta
    psums = _partial_sums(ball_mass_array(
        measure, m, x0, sched.radii_array(PARTIAL_SUM_SCALES[-1])))
    if sched.kind == "radii_const":
        return BCVerdict("FullMeasure", "sum mu(B(x0,r)) with constant r",
                         None, psums,
                         "constant radii: the mass series diverges linearly and "
                         "the strengthened series diverges for every exponent")
    if sched.kind == "radii_exp":
        return BCVerdict("MeasureZero", "sum mu(B(x0, e^{-kappa n})) (geometric)",
                         None, psums,
                         "geometrically summable ball masses: direct Borel-Cantelli")
    if sched.kind == "radii_power":
        alpha = sched.params["alpha"]
        if alpha < 1:
            return BCVerdict("MeasureZero",
                             f"sum mu(B(x0, n^-1/alpha)), alpha={alpha}",
                             None, psums,
                             "sum n^(-1/alpha) converges for alpha < 1: "
                             "direct Borel-Cantelli")
        if alpha > e0:
            eps = (alpha - e0) / 2
            n = np.arange(1, PARTIAL_SUM_SCALES[-1] + 1, dtype=float)
            strengthened = _partial_sums(n ** (-(e0 + eps) / alpha))
            return BCVerdict("FullMeasure",
                             f"sum r_n^(delta_bar + tau_bar/log beta + eps), "
                             f"alpha={alpha}",
                             e0, strengthened,
                             f"the strengthened series diverges for eps = {eps:.3g}")
        return BCVerdict("Inconclusive",
                         f"sum mu(B) diverges but sum r_n^({e0}+eps) converges "
                         "for every eps > 0", e0, psums,
                         "between the convergence and divergence criteria")
    # custom radii: numeric heuristic on partial sums
    return _heuristic_from_partials(psums, "sum mu(B(x0, r_n)) (custom table)")


def _classify_depths(m, measure, target, sched):
    depths = sched.depths_array(10 ** 4)
    masses = cylinder_mass_by_depth(measure, m, target, depths, exact_cap=200)
    psums = [float(v) for v in np.cumsum(masses)[[999, 9999 // 2, 9999]]]
    if sched.kind == "depth_const":
        return BCVerdict("FullMeasure", "sum mu(P(t, x0)) with constant t",
                         None, psums, "constant-depth cylinder masses diverge linearly")
    if sched.kind == "depth_power_floor":
        # sum c^(n^kappa) converges for every kappa > 0 and c < 1
        return BCVerdict("MeasureZero",
                         "sum mu(P(floor(n^kappa), x0)) <= sum (max mass ratio)^(n^kappa)",
                         None, psums,
                         "stretched-geometric masses are summable for every kappa > 0")
    if sched.kind == "depth_log_floor":
        # masses ~ n^(-L/log base) with L the per-depth log-mass rate
        b = sched.params["base"]
        q = _uniform_digit_mass(m, measure, target)
        if q is not None:
            # exact: about (b-1) b^t indices n have t_n = t, each with mass
            # c q^t, so the series diverges iff q*b >= 1
            expo = math.log(1 / q) / math.log(b)
            verdict = "FullMeasure" if q * Fraction(b) >= 1 else "MeasureZero"
        else:
            expo = _mass_log_rate(m, measure, target) / math.log(b)
            verdict = ("FullMeasure" if expo < 1 else
                       "MeasureZero" if expo > 1 else "Inconclusive")
        series = f"sum mu(P(floor(log_{b:g} n), x0)) ~ sum n^-{expo:.3g}"
        if verdict == "FullMeasure":
            return BCVerdict(verdict, series, None, psums,
                             "log-floor depths give a divergent power series "
                             f"(exponent {expo:.3g} <= 1)")
        if verdict == "MeasureZero":
            return BCVerdict(verdict, series, None, psums,
                             f"convergent power series (exponent {expo:.3g} > 1)")
        return BCVerdict("Inconclusive", "borderline log-floor schedule",
                         None, psums, "exponent = 1 exactly")
    return _heuristic_from_partials(psums, "sum mu(P(t_n, x0)) (custom table)")


def _uniform_digit_mass(m, measure, target) -> Optional[Fraction]:
    """q when every depth-t cylinder about the target has mass exactly c q^t,
    with c > 0 fixed by its first digit; else None.

    A chain qualifies when all its nonzero entries equal q and every
    transition of the map has positive probability.  With forbidden
    transitions the target must also be a point of the map: a word that does
    not close into an admissible cycle has no exact value and may leave the
    chain's support.
    """
    if isinstance(measure, LebesgueMeasure) and isinstance(m, DAryShift):
        return Fraction(1, m.D)
    chain = m if isinstance(measure, LebesgueMeasure) else measure
    if not (isinstance(chain, (MarkovLinear, MarkovStationaryMeasure))
            and isinstance(m, (DAryShift, MarkovLinear)) and len(chain.M) == m.D):
        return None
    if any(chain.M[i][j] == 0 and m.admissible(i, j)
           for i in range(m.D) for j in range(m.D)):
        return None
    entries = {x for row in chain.M for x in row}
    if 0 in entries and target.value is None:
        return None
    entries.discard(0)
    return entries.pop() if len(entries) == 1 else None


def _mass_log_rate(m, measure, target, depth: int = 24) -> float:
    """Per-depth exponential rate of cylinder masses at the target."""
    word = target.digits(depth)
    mass = measure.cylinder_mass(m, word)
    if mass == 0:
        return math.inf     # the word left the support: finitely many terms
    return -log_mass(mass) / (depth + 1)


def _heuristic_from_partials(psums, series):
    d1 = psums[1] - psums[0]
    d2 = psums[2] - psums[1]
    if d2 < 0.25 * d1 and d2 < 1e-3:
        return BCVerdict("MeasureZero", series, None, psums,
                         "partial sums look Cauchy (heuristic)", heuristic=True)
    if d2 > 0.5 * d1 and d2 > 1e-6:
        return BCVerdict("FullMeasure", series, None, psums,
                         "partial-sum increments are not decaying (heuristic)",
                         heuristic=True)
    return BCVerdict("Inconclusive", series, None, psums,
                     "ambiguous partial sums", heuristic=True)
