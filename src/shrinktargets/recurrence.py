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

from .coding import WordTarget, cylinder_from_word, itinerary
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
    float_orbit_start,
    float_orbit_step,
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
        if self.kind == "custom_radii":
            tab = self.params["table"]
            if any(b > a for a, b in zip(tab, tab[1:])):
                raise ScheduleError("custom radii must be non-increasing")
        if self.kind == "custom_depths":
            tab = self.params["table"]
            if any(b < a for a, b in zip(tab, tab[1:])):
                raise ScheduleError("custom depths must be non-decreasing")
        if self.kind == "radii_power" and self.params["alpha"] <= 0:
            raise ScheduleError("alpha must be > 0")
        if self.kind == "radii_exp" and self.params["kappa"] <= 0:
            raise ScheduleError("kappa must be > 0")
        if self.kind == "depth_log_floor" and not self.params["base"] > 1:
            raise ScheduleError("log base must be > 1")

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
        if self.kind == "radii_power":
            return {"ell_bar": 0.0, "ell_lower": 0.0}
        if self.kind == "radii_exp":
            k = self.params["kappa"]
            return {"ell_bar": k, "ell_lower": k}
        if self.kind == "radii_const":
            return {"ell_bar": 0.0, "ell_lower": 0.0}
        if self.kind == "depth_log_floor":
            return {"w_bar": 0.0, "w_lower": 0.0}
        if self.kind == "depth_power_floor":
            k = self.params["kappa"]
            if k < 1:
                return {"w_bar": 0.0, "w_lower": 0.0}
            if k == 1:
                return {"w_bar": 1.0, "w_lower": 1.0}
            return {"w_bar": math.inf, "w_lower": math.inf}
        if self.kind == "depth_const":
            return {"w_bar": 0.0, "w_lower": 0.0}
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
# target points

@dataclass
class TargetPoint:
    """A target x0 with its local scaling data.

    For maps with a finite partition the local dimension is 1 and the decay
    rate tau is 0 (exact); for the Gauss map they depend on the digits and
    are estimated from exact cylinder masses when not known.
    """

    map: MapModel
    value: Optional[object] = None      # exact Fraction / float when known
    word_target: Optional[WordTarget] = None

    @classmethod
    def from_point(cls, m: MapModel, x0) -> "TargetPoint":
        return cls(m, value=x0)

    @classmethod
    def from_word(cls, m: MapModel, digits, value=None) -> "TargetPoint":
        wt = WordTarget(m, digits, value)
        return cls(m, value=wt.value, word_target=wt)

    def digits(self, n: int) -> tuple:
        if self.word_target is not None:
            return self.word_target.digits(n)
        return itinerary(self.map, self.value, n)

    def float_value(self) -> float:
        if self.value is not None:
            return float(self.value)
        lo, hi = self.word_target.bracket(80 if isinstance(self.map, (DAryShift, MarkovLinear)) else 40)
        return float((lo + hi) / 2)

    def bracket(self, depth: int):
        if self.word_target is not None:
            return self.word_target.bracket(depth)
        x = Fraction(self.value)
        return x, x

    def cylinder(self, n: int):
        return cylinder_from_word(self.map, self.digits(n))

    def local_dims(self, measure: InvariantMeasure, depth_cap: int = 30):
        """(delta_lower, delta_bar) from log mass / log diam, with the exact
        value 1 for finite-partition interval maps."""
        if isinstance(self.map, (DAryShift, MarkovLinear)):
            return 1.0, 1.0, {"exact": True}
        vals = []
        for n in range(max(2, depth_cap - 10), depth_cap + 1):
            c = self.cylinder(n)
            num = measure.interval_mass(c.left, c.right) if not isinstance(
                measure, MarkovStationaryMeasure) else measure.cylinder_mass(self.map, c.word)
            lnum = math.log(float(num)) if float(num) > 0 else -math.inf
            vals.append(lnum / math.log(float(c.length)))
        return min(vals), max(vals), {"exact": False, "depth_cap": depth_cap}

    def tau_bar(self, depth_cap: int = 30):
        """Decay rate of consecutive cylinder masses; 0 exactly for finite
        partitions, and 0 for Gauss targets with subexponential digits."""
        if isinstance(self.map, (DAryShift, MarkovLinear)):
            return 0.0, {"exact": True}
        if isinstance(self.map, GaussMap):
            # if log i_n = o(n) the decay rate vanishes; digits bounded over
            # the sampled depth is the desk-scale proxy for that condition
            digs = self.digits(depth_cap)
            if max(digs) <= 10 ** 6:
                return 0.0, {"exact": False,
                             "justification": "bounded digits to sampled depth"}
        vals = []
        prev = self.cylinder(1)
        for n in range(2, depth_cap + 1):
            cur = self.cylinder(n)
            vals.append(math.log(float(prev.length / cur.length)) / (n - 1))
            prev = cur
        return max(vals[-5:]), {"exact": False}


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


def ball_mass_bruteforce(measure: InvariantMeasure, m: MapModel, x0: float,
                         radii) -> list:
    """Per-ball masses via measure_interval, as an independent route."""
    out = []
    for r in radii:
        if m.circle:
            out.append(min(2 * float(r), 1.0))
        else:
            out.append(float(measure.interval_mass(max(x0 - r, 0), min(x0 + r, 1))))
    return out


def target_mass_rates(sched: Schedule, m: MapModel, measure: InvariantMeasure,
                      target: "TargetPoint", n_grid=(50, 200, 1000)) -> dict:
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
        mass = measure.cylinder_mass(m, word)
        if isinstance(mass, Fraction):
            lm = math.log(mass.numerator) - math.log(mass.denominator)
        else:
            lm = math.log(float(mass))
        vals.append(-lm / n)
    out = {"L_bar": max(vals), "L_lower": min(vals), "samples": vals}
    if isinstance(m, DAryShift):
        r = sched.rates()
        out["closed_form"] = {"L_bar": r.get("w_bar", math.nan) * math.log(m.D),
                              "L_lower": r.get("w_lower", math.nan) * math.log(m.D)}
    return out


def cylinder_mass_by_depth(measure: InvariantMeasure, m: MapModel,
                           target: TargetPoint, depths: np.ndarray,
                           exact_cap: int = 400) -> np.ndarray:
    """Masses mu(P(t, x0)) for each distinct depth t, gathered to all n."""
    uniq = np.unique(depths)
    mass = {}
    for t in uniq:
        t = int(t)
        word = target.digits(min(t, exact_cap))
        if t > exact_cap:
            # mass below any representable float; record 0 (target unhittable)
            mass[t] = 0.0
            continue
        mass[t] = float(measure.cylinder_mass(m, word))
    return np.asarray([mass[int(t)] for t in depths])


# ---------------------------------------------------------------------------
# symbolic engine

def _digit_stream(m: MapModel, measure: InvariantMeasure, rng, length: int):
    if isinstance(m, DAryShift):
        return rng.integers(0, m.D, size=length, dtype=np.int64)
    if isinstance(m, MarkovLinear):
        return sample_chain(m, rng, length)
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
    if not isinstance(target, TargetPoint):
        target = TargetPoint.from_point(m, target) if not isinstance(target, (tuple, list)) \
            else TargetPoint.from_word(m, target)
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

def _window_positions_dary(m: DAryShift, stream: np.ndarray, N: int, W: int):
    # np.correlate computes sum_k a[j+k] v[k]: no kernel flip
    w = (1.0 / m.D) ** np.arange(1, W + 1)
    vals = np.correlate(stream[1:N + W + 1].astype(float), w, mode="valid")
    return vals[:N]


def _resolve_ambiguous_linear(m, stream, i, x0_lo, x0_hi, r_exact) -> bool:
    """Exact hit decision at orbit index i from the stored digit window."""
    word = tuple(int(d) for d in stream[i: i + min(120, len(stream) - i)])
    c = cylinder_from_word(m, word)
    lo, hi = c.left, c.right
    # certified inside / outside the closed ball around [x0_lo, x0_hi]
    if x0_lo - r_exact <= lo and hi <= x0_hi + r_exact:
        return True
    if hi < x0_lo - r_exact or lo > x0_hi + r_exact:
        return False
    # window exhausted while straddling; declare by the midpoint (documented)
    mid = (lo + hi) / 2
    x0m = (x0_lo + x0_hi) / 2
    return abs(mid - x0m) <= r_exact


def run_metric_hits(m: MapModel, measure: InvariantMeasure, target, sched: Schedule,
                    N: int, trials: int, seed: int, horizons=None,
                    collect_hits: bool = False) -> HitSeries:
    """Count visits d(T^i x, x0) <= r_i; returns ratio traces and windowed
    minima of the scaled distance d/r_n between consecutive checkpoints."""
    if not sched.is_radii:
        raise ScheduleError("metric runs need a radii schedule")
    if not isinstance(target, TargetPoint):
        target = TargetPoint.from_point(m, target) if not isinstance(target, (tuple, list)) \
            else TargetPoint.from_word(m, target)
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


def _metric_linear(m, measure, target, radii, N, trials, seeds, cps, collect_hits):
    r_min = float(radii[-1])
    if isinstance(m, DAryShift):
        need = int(math.ceil(-math.log(max(r_min, 1e-18)) / math.log(m.D))) + 25
        W = int(min(52 if m.D == 2 else 40, max(need, 30)))
        margin = (1.0 / m.D) ** W * (W + 2)
    else:
        # the certified contraction 1/beta holds over mixing_steps digits;
        # fewer leftover digits contract by at most the worst single branch
        c = 1.0 / m.expansion_beta
        worst = max(float(1 / m.slope(i, j))
                    for i in range(m.D) for j in m.branch_targets(i))
        need = int(math.ceil(math.log(max(r_min, 1e-18)) / math.log(c))) + 25
        W = int(min(60, max(need, 30)))
        margin = c ** W * (W + 2) * (worst / c) ** (m.mixing_steps - 1)
    lo_b, hi_b = target.bracket(120)
    x0f = float((lo_b + hi_b) / 2)
    r_float = radii.astype(float)
    hits = np.zeros((trials, len(cps)), dtype=np.int64)
    nwin = len(cps)
    wmins = np.full((trials, nwin), np.inf)
    ambiguous = 0
    hit_idx = [] if collect_hits else None
    for t in range(trials):
        rng = np.random.default_rng(seeds[t])
        stream = _digit_stream(m, measure, rng, N + W + 2)
        if isinstance(m, DAryShift):
            pos = _window_positions_dary(m, stream, N, W)
        else:
            pos = np.empty(N)
            for i in range(N):
                y = 0.5
                for d in reversed(stream[i + 1: i + 1 + W]):
                    y = float(m.inverse_branch(int(d), y))
                pos[i] = y
        d = np.abs(pos - x0f)
        hit = d <= r_float
        unsure = np.abs(d - r_float) <= margin + (hi_b - lo_b)
        for i in np.flatnonzero(unsure):
            ambiguous += 1
            hit[i] = _resolve_ambiguous_linear(
                m, stream, int(i) + 1, lo_b, hi_b, Fraction(float(r_float[i])))
        cum = np.cumsum(hit)
        hits[t] = cum[np.asarray(cps) - 1]
        scaled = d / r_float
        prev = 0
        for k, c in enumerate(cps):
            wmins[t, k] = scaled[prev:c].min() if c > prev else np.inf
            prev = c
        if collect_hits:
            hit_idx.append(np.flatnonzero(hit) + 1)
    return hits, wmins, ambiguous, hit_idx


def _metric_float_orbit(m, measure, x0f, radii, N, trials, seeds, cps, collect_hits):
    rngs, x = float_orbit_start(measure, seeds)
    resampled = 0
    hitcount = np.zeros(trials, dtype=np.int64)
    hits = np.zeros((trials, len(cps)), dtype=np.int64)
    wmins = np.full((trials, len(cps)), np.inf)
    cp_set = {c: k for k, c in enumerate(cps)}
    hit_idx = [[] for _ in range(trials)] if collect_hits else None
    window = 0
    for n in range(1, N + 1):
        x, restarts = float_orbit_step(m, measure, x, rngs)
        resampled += restarts
        d = np.abs(x - x0f)
        if m.circle:
            d = np.minimum(d, 1.0 - d)
        r = radii[n - 1]
        sel = d <= r
        hitcount += sel
        if collect_hits and sel.any():
            for t in np.flatnonzero(sel):
                hit_idx[t].append(n)
        np.minimum(wmins[:, window], d / r, out=wmins[:, window])
        if n in cp_set:
            hits[:, cp_set[n]] = hitcount
            window = min(window + 1, len(cps) - 1)
    return hits, wmins, resampled, hit_idx


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


def _partial_sums(term_fn, scales=(10 ** 3, 10 ** 4, 10 ** 5)) -> list:
    out = []
    total = 0.0
    prev = 0
    for s in scales:
        n = np.arange(prev + 1, s + 1, dtype=float)
        total += float(np.sum(term_fn(n)))
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
    if not isinstance(target, TargetPoint):
        target = TargetPoint.from_point(m, target) if not isinstance(target, (tuple, list)) \
            else TargetPoint.from_word(m, target)
    if sched.is_radii:
        return _classify_radii(m, measure, target, sched)
    return _classify_depths(m, measure, target, sched)


def _classify_radii(m, measure, target, sched):
    x0 = target.float_value()
    dlo, dbar, _ = target.local_dims(measure)
    tau, _ = target.tau_bar()
    logbeta = math.log(m.expansion_beta)
    e0 = dbar + tau / logbeta
    psums = _partial_sums(lambda n: ball_mass_array(
        measure, m, x0, np.asarray([sched.radius(int(k)) for k in n])))
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
            strengthened = _partial_sums(lambda n: n ** (-(e0 + eps) / alpha))
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
        expo = _mass_log_rate(m, measure, target) / math.log(b)
        q = _uniform_digit_mass(m, measure)
        if q is not None:
            # exact: about (b-1) b^t indices n have t_n = t, each with mass
            # q^(t+1), so the series diverges iff q*b >= 1
            verdict = "FullMeasure" if q * Fraction(b) >= 1 else "MeasureZero"
        else:
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


def _uniform_digit_mass(m, measure) -> Optional[Fraction]:
    """q when every depth-t cylinder has mass exactly q^(t+1), else None."""
    if isinstance(measure, LebesgueMeasure) and isinstance(m, DAryShift):
        return Fraction(1, m.D)
    chain = m if isinstance(measure, LebesgueMeasure) else measure
    if not isinstance(chain, (MarkovLinear, MarkovStationaryMeasure)):
        return None
    entries = {x for row in chain.M for x in row}
    return entries.pop() if len(entries) == 1 else None


def _mass_log_rate(m, measure, target, depth: int = 24) -> float:
    """Per-depth exponential rate of cylinder masses at the target."""
    word = target.digits(depth)
    mass = measure.cylinder_mass(m, word)
    if isinstance(mass, Fraction):
        lm = math.log(mass.numerator) - math.log(mass.denominator)
    else:
        lm = math.log(float(mass))
    return -lm / (depth + 1)


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
