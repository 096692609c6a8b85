"""Dimension-bound evaluators, finite Cantor stages, and grid probes.

The bound formulas are pure arithmetic in the scaling data (entropy h,
local dimension delta, radii rate ell, mass rate L, depth rate w, decay
rate tau, expansion log beta, alphabet size D, Ahlfors exponent s).

The Cantor builder realizes finitely many levels of the two-family nested
construction used to bound the dimension of shrinking-target sets from
below: coarse blocks J~ return to the target's base block under T^{d_j},
fine blocks J return into P(k_j, x0), and the mass distribution nu splits
the lambda-mass of each admissible family.  A Frostman exponent extracted
from the finished stage is the desk-scale stand-in for the true Hausdorff
dimension, which is not computable at finite depth.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .maps import DAryShift, MapModel, MarkovLinear
from .measures import MarkovStationaryMeasure, log_mass, smb_regular_cylinders
from .coding import Target, refine_depth
from .recurrence import Schedule


class DimensionError(ValueError):
    pass


class StageConstructionError(DimensionError):
    """A hypothesis of the nested construction failed at the given sizes."""


# ---------------------------------------------------------------------------
# bound evaluators

@dataclass
class DimensionBound:
    grid_lower: Optional[float] = None
    hausdorff_lower: Optional[float] = None
    upper: Optional[float] = None
    formula: str = ""
    inputs: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "grid_lower": self.grid_lower,
            "hausdorff_lower": self.hausdorff_lower,
            "upper": self.upper,
            "formula": self.formula,
            "inputs": self.inputs,
            "notes": self.notes,
        }


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def bound_radii_lower(h: float, delta_bar: float, ell_bar: float,
                      tau_bar: float, log_beta: float) -> DimensionBound:
    """Grid lower bound h/(h + delta_bar*ell_bar) for metric targets, and
    the Hausdorff version with the decay-rate correction factor.

    The correction factor is evaluated with ell_bar in the squared term;
    this is flagged in the notes since the symbol is not pinned down.
    """
    if h <= 0:
        raise DimensionError("entropy must be positive")
    if log_beta <= 0:
        raise DimensionError("log beta must be positive")
    if min(delta_bar, ell_bar, tau_bar) < 0:
        raise DimensionError("rates must be nonnegative")
    grid = h / (h + delta_bar * ell_bar)
    factor = max(0.0, 1.0 - tau_bar * delta_bar * ell_bar ** 2 / (h ** 2 * log_beta))
    return DimensionBound(
        grid_lower=_clamp01(grid),
        hausdorff_lower=_clamp01(grid * factor),
        formula="h/(h+delta*ell) and correction (1 - tau*delta*ell^2/(h^2 log beta))",
        inputs={"h": h, "delta_bar": delta_bar, "ell_bar": ell_bar,
                "tau_bar": tau_bar, "log_beta": log_beta},
        notes={"ell_squared_term": "evaluated with ell_bar"},
    )


def bound_doubling(delta_bar: float, ell_bar: float, s: float,
                   log_beta: float) -> DimensionBound:
    """Hausdorff lower bound 1 - delta_bar*ell_bar/(s log beta) for doubling
    reference measures with mass(B(x,r)) <= C r^s."""
    if s <= 0:
        raise DimensionError("Ahlfors exponent s must be positive")
    if log_beta <= 0:
        raise DimensionError("log beta must be positive")
    val = _clamp01(1.0 - delta_bar * ell_bar / (s * log_beta))
    return DimensionBound(hausdorff_lower=val,
                          formula="1 - delta*ell/(s log beta)",
                          inputs={"delta_bar": delta_bar, "ell_bar": ell_bar,
                                  "s": s, "log_beta": log_beta})


def bound_code_lower(h: float, L_bar: float) -> DimensionBound:
    """Grid lower bound h/(h + L_bar) for cylinder targets."""
    if h <= 0:
        raise DimensionError("entropy must be positive")
    if L_bar < 0:
        raise DimensionError("L_bar must be nonnegative")
    return DimensionBound(grid_lower=_clamp01(h / (h + L_bar)),
                          formula="h/(h+L)", inputs={"h": h, "L_bar": L_bar})


def bound_code_w(w_bar: float) -> DimensionBound:
    """Grid lower bound 1/(1 + w_bar) from the depth-growth rate alone."""
    if w_bar < 0:
        raise DimensionError("w_bar must be nonnegative")
    return DimensionBound(grid_lower=_clamp01(1.0 / (1.0 + w_bar)),
                          formula="1/(1+w)", inputs={"w_bar": w_bar})


def bound_upper_finite(D: int, h: float, L_lower: Optional[float] = None,
                       delta_lower: Optional[float] = None,
                       ell_lower: Optional[float] = None) -> DimensionBound:
    """Upper bound min(1, log D/(h + rate)) for finite alphabets, where the
    rate is L_lower for cylinder targets or delta_lower*ell_lower for balls."""
    if D < 2:
        raise DimensionError("alphabet size must be >= 2")
    if h <= 0:
        raise DimensionError("entropy must be positive")
    if L_lower is not None:
        rate = L_lower
        tag = "log D/(h + L_lower)"
    elif delta_lower is not None and ell_lower is not None:
        rate = delta_lower * ell_lower
        tag = "log D/(h + delta_lower*ell_lower)"
    else:
        raise DimensionError("need L_lower or (delta_lower, ell_lower)")
    return DimensionBound(upper=min(1.0, math.log(D) / (h + rate)),
                          formula=tag,
                          inputs={"D": D, "h": h, "rate": rate})


def bound_hoeffding(p: Sequence[float], L_lower: float) -> DimensionBound:
    """Tail-inequality upper bound for i.i.d. digit measures.

    With R = log(max p / min p) and h the digit entropy:
        (sqrt((h+L)^2 + 2 L R^2) + h - L) / (sqrt((h+L)^2 + 2 L R^2) + h + L).
    Collapses to h/(h+L) for uniform p.
    """
    p = [float(x) for x in p]
    if any(x <= 0 for x in p):
        raise DimensionError("all digit probabilities must be positive "
                             "(the max/min ratio is undefined otherwise)")
    if abs(sum(p) - 1) > 1e-12:
        raise DimensionError("p must sum to 1")
    if L_lower < 0:
        raise DimensionError("L_lower must be nonnegative")
    h = -sum(x * math.log(x) for x in p)
    R = math.log(max(p) / min(p))
    root = math.sqrt((h + L_lower) ** 2 + 2 * L_lower * R ** 2)
    val = (root + h - L_lower) / (root + h + L_lower)
    return DimensionBound(upper=_clamp01(val),
                          formula="(sqrt((h+L)^2+2LR^2)+h-L)/(sqrt(..)+h+L)",
                          inputs={"p": p, "h": h, "L_lower": L_lower, "R": R})


def cantor_lambda(a: float, b: float, c: float, delta: float,
                  N_js: Sequence[int]) -> DimensionBound:
    """Level-geometric lower bound b/(a+c) - log(1/delta)/(a+c) * lim j/sum N_j.

    The limit term is evaluated at the last provided level; for
    superlinearly growing N_j the true limit is 0 and the value reported
    here is conservative.
    """
    if a <= 0 and c <= 0:
        raise DimensionError("a + c must be positive")
    if not (0 < delta <= 1):
        raise DimensionError("delta must lie in (0, 1]")
    N_js = [int(n) for n in N_js]
    if any(n2 < n1 for n1, n2 in zip(N_js, N_js[1:])):
        raise DimensionError("N_j must be non-decreasing")
    j = len(N_js)
    lim_term = j / sum(N_js) if N_js else 0.0
    ratios = [N_js[k + 1] / N_js[k] for k in range(j - 1)]
    superlinear = bool(j >= 3 and min(ratios) > 1.2)
    val = b / (a + c) - math.log(1.0 / delta) / (a + c) * lim_term
    return DimensionBound(
        grid_lower=_clamp01(val),
        formula="b/(a+c) - log(1/delta)/(a+c) * j/sum(N)",
        inputs={"a": a, "b": b, "c": c, "delta": delta, "N_js": N_js},
        notes={"lim_term": lim_term,
               "lim_term_vanishes_in_the_limit": superlinear},
    )


def grid_transfer(a_n: Sequence[float], b_n: Sequence[float],
                  grid_dim: float) -> DimensionBound:
    """Transfer a grid-dimension bound to a Hausdorff bound through the
    level mass envelope a_n <= mass <= b_n of a regular subgrid:

        dim >= 1 - (1 - grid_dim) * limsup log(1/a_n)/log(1/b_{n-1}).

    The limsup is extrapolated from the tail ratios (Aitken acceleration
    when the tail is monotone)."""
    a_n = [float(x) for x in a_n]
    b_n = [float(x) for x in b_n]
    if len(a_n) != len(b_n) or len(a_n) < 3:
        raise DimensionError("need matched sequences of length >= 3")
    if any(a > b for a, b in zip(a_n, b_n)):
        raise DimensionError("need a_n <= b_n")
    if any(x2 >= x1 for x1, x2 in zip(b_n, b_n[1:])):
        raise DimensionError("b_n must be strictly decreasing")
    if not 0 <= grid_dim <= 1:
        raise DimensionError("grid_dim must lie in [0,1]")
    ratios = [math.log(1 / a_n[k]) / math.log(1 / b_n[k - 1])
              for k in range(1, len(a_n))]
    factor = _extrapolated_limit(ratios)
    val = _clamp01(1.0 - (1.0 - grid_dim) * factor)
    return DimensionBound(hausdorff_lower=val,
                          formula="1 - (1-grid_dim)*limsup log(1/a_n)/log(1/b_{n-1})",
                          inputs={"grid_dim": grid_dim, "levels": len(a_n)},
                          notes={"transfer_factor": factor,
                                 "ratio_tail": ratios[-3:]})


def _extrapolated_limit(seq: Sequence[float]) -> float:
    """Tail limit of a sequence settling like L + A/n (Richardson in the
    index); falls back to the last value for non-monotone tails."""
    if len(seq) < 3:
        return seq[-1]
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    n1, n2 = len(seq) - 1, len(seq)
    rich = (n2 * x2 - n1 * x1) / (n2 - n1)
    # the limit of a monotone tail lies beyond its last term
    if x0 >= x1 >= x2 and rich <= x2 + 1e-15:
        return rich
    if x0 <= x1 <= x2 and rich >= x2 - 1e-15:
        return rich
    return x2


# ---------------------------------------------------------------------------
# Cantor stage construction

DUMP_BLOCK_BUDGET = 2_000_000    # most blocks per level that dump_json writes


class _BlockView(Sequence):
    """Read-only sequence of n per-block values computed on access."""

    def __init__(self, n: int, item):
        self._n = n
        self._item = item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if not -self._n <= i < self._n:
            raise IndexError("block index out of range")
        return self._item(i % self._n)


@dataclass
class StageLevel:
    """One level of the two-family construction, stored as one family.

    Every parent (a nested block of the previous level, or the root word)
    ends at ``base_digit``, so all parents share one family of fine blocks
    (J~): block i is the parent i // F followed by ``suffixes[i % F]``, and
    its lambda and nu are the parent's times that suffix's factors.  Each
    fine block has one nested child (J) that appends the target's digits.
    The ``fine_*`` and ``nested_lam`` views index blocks in that order."""
    suffixes: tuple              # digit tuples of the fine family
    suffix_lam: tuple            # Fraction lam(J~)/lam(parent) per suffix
    suffix_nu: tuple             # Fraction nu(J~)/nu(parent) per suffix
    nested_suffix: tuple         # shared x0-digit suffix appended to each fine block
    nested_rel: Fraction         # lam(J)/lam(J~)
    parent_lam: Sequence         # lam of each parent block
    parent_nu: Sequence          # nu of each parent block
    base_digit: int = 0          # last digit of every parent
    N_j: int = 0
    k_j: int = 0
    d_j: int = 0                 # depth of the fine blocks
    alpha_j: float = 0.0         # min lam(J~)/lam(J_parent)
    beta_j: float = 0.0          # max lam(J~)/lam(J_parent)
    gamma_j: float = 0.0         # min lam(J)/lam(J~)
    delta_j: float = 0.0         # min_parent lam(family)/lam(parent)

    @property
    def count(self) -> int:
        return len(self.parent_lam) * len(self.suffixes)

    def _view(self, item) -> _BlockView:
        F = len(self.suffixes)
        return _BlockView(self.count, lambda i: item(*divmod(i, F)))

    @property
    def fine_parent(self):
        return self._view(lambda p, s: p)

    @property
    def fine_suffix(self):
        return self._view(lambda p, s: self.suffixes[s])

    @property
    def fine_lam(self):
        return self._view(lambda p, s: self.parent_lam[p] * self.suffix_lam[s])

    @property
    def fine_nu(self):
        return self._view(lambda p, s: self.parent_nu[p] * self.suffix_nu[s])

    @property
    def nested_lam(self):
        return self._view(lambda p, s: self.parent_lam[p] * self.suffix_lam[s]
                          * self.nested_rel)


@dataclass
class CantorStage:
    map: MapModel
    measure: MarkovStationaryMeasure
    x0_digits: tuple
    root_word: tuple
    root_lam: Fraction
    levels: list                 # list[StageLevel]
    epsilon: float
    schedule: Schedule
    notes: dict = field(default_factory=dict)

    # -- iteration ------------------------------------------------------
    def fine_word(self, j: int, i: int) -> tuple:
        """Full digit word of the i-th fine block of ``levels[j]``."""
        parts = []
        for k in range(j, -1, -1):
            lvl = self.levels[k]
            i, s = divmod(i, len(lvl.suffixes))
            if k < j:
                parts.append(lvl.nested_suffix)
            parts.append(lvl.suffixes[s])
        parts.append(self.root_word)
        return tuple(d for p in reversed(parts) for d in p)

    def nested_word(self, j: int, i: int) -> tuple:
        return self.fine_word(j, i) + self.levels[j].nested_suffix

    def iter_blocks(self, j: int, kind: str = "fine"):
        """(word, lam, nu) of the fine or nested blocks of ``levels[j]`` in
        block order."""
        lvl = self.levels[j]
        tail, rel = (lvl.nested_suffix, lvl.nested_rel) if kind == "nested" else ((), 1)
        family = [(suf + tail, lam * rel, nu)
                  for suf, lam, nu in zip(lvl.suffixes, lvl.suffix_lam, lvl.suffix_nu)]
        parents = self.iter_blocks(j - 1, "nested") if j else \
            [(self.root_word, self.root_lam, Fraction(1))]
        for w, lam, nu in parents:
            for suf, s_lam, s_nu in family:
                yield w + suf, lam * s_lam, nu * s_nu

    def level_classes(self) -> list:
        """Per level, the distinct (fine lam, nested lam, nu) of its blocks
        with their multiplicities, in the order the block list first meets
        them.

        A block's class is fixed by its parent's class and its suffix's
        lam, so a level costs (parent classes) x (distinct suffix masses).
        Both are visited in order of their first block, and the first block
        of such a pair is (first parent) * F + (first suffix), so classes
        enter ``merged`` in block order."""
        out = []
        parents = [(0, self.root_lam, Fraction(1), 1)]   # (first block, lam, nu, count)
        for lvl in self.levels:
            F = len(lvl.suffixes)
            family = {}                                  # suffix lam -> (first, count, nu)
            for s, (s_lam, s_nu) in enumerate(zip(lvl.suffix_lam, lvl.suffix_nu)):
                first, cnt, _ = family.get(s_lam, (s, 0, s_nu))
                family[s_lam] = (first, cnt + 1, s_nu)
            merged = {}
            for p_first, p_lam, p_nu, p_cnt in parents:
                for s_lam, (s_first, s_cnt, s_nu) in family.items():
                    key = (p_lam * s_lam, p_nu * s_nu)
                    first, cnt = merged.get(key, (p_first * F + s_first, 0))
                    merged[key] = (first, cnt + p_cnt * s_cnt)
            out.append([(lam, lam * lvl.nested_rel, nu, cnt)
                        for (lam, nu), (_, cnt) in merged.items()])
            parents = [(first, lam * lvl.nested_rel, nu, cnt)
                       for (lam, nu), (first, cnt) in merged.items()]
        return out

    # -- invariants -----------------------------------------------------
    def nu_level_sums(self) -> list:
        return [sum((cnt * nu for _, _, nu, cnt in classes), Fraction(0))
                for classes in self.level_classes()]

    def nesting_violations(self) -> int:
        """Blocks whose closure is not strictly inside the coarse parent.

        The nested block sits inside its fine block at the relative
        position of the appended x0-digit suffix, so strictness fails only
        for all-minimal or all-maximal admissible suffixes; the check is on
        exact words and shared per level."""
        bad = 0
        for j, lvl in enumerate(self.levels):
            if not lvl.nested_suffix:
                continue  # degenerate level: J = J~, nothing to check
            flush_left = True
            flush_right = True
            prev = None  # the suffix always follows the target's first digit
            for pos, d in enumerate(lvl.nested_suffix):
                lo_d, hi_d = self._admissible_extremes(prev, j, pos)
                if d != lo_d:
                    flush_left = False
                if d != hi_d:
                    flush_right = False
                prev = d
            if flush_left or flush_right:
                bad += lvl.count
        return bad

    def _admissible_extremes(self, prev, j, pos):
        m = self.map
        if isinstance(m, DAryShift):
            return 0, m.D - 1
        if prev is None:
            prev = self.x0_digits[0]
        allowed = [d for d in range(m.D) if m.M[prev][d] > 0]
        return allowed[0], allowed[-1]

    def level_params(self) -> list:
        return [{"N_j": lvl.N_j, "k_j": lvl.k_j, "d_j": lvl.d_j,
                 "alpha_j": lvl.alpha_j, "beta_j": lvl.beta_j,
                 "gamma_j": lvl.gamma_j, "delta_j": lvl.delta_j}
                for lvl in self.levels]

    def geometric_rates(self) -> dict:
        """Per-level exponential rates (a_j, b_j, c_j, delta) aggregated
        conservatively for the level-geometric bound."""
        a = max(-math.log(lvl.alpha_j) / lvl.N_j for lvl in self.levels)
        b = min(-math.log(lvl.beta_j) / lvl.N_j for lvl in self.levels)
        c = max(-math.log(max(lvl.gamma_j, 1e-300)) / lvl.N_j for lvl in self.levels)
        delta = min(lvl.delta_j for lvl in self.levels)
        return {"a": a, "b": b, "c": c, "delta": delta,
                "N_js": [lvl.N_j for lvl in self.levels]}

    def lambda_hypothesis_margin(self) -> float:
        """Largest exponent satisfying the cross-level product hypothesis
        (1/delta_{j+1}) prod beta_i/delta_i <= [prod alpha_i gamma_i]^Lambda
        at the deepest built level."""
        out = math.inf
        for j in range(len(self.levels)):
            lhs = 0.0
            for i in range(j + 1):
                lvl = self.levels[i]
                lhs += math.log(lvl.beta_j) - math.log(lvl.delta_j)
            nxt = self.levels[j + 1].delta_j if j + 1 < len(self.levels) else \
                self.levels[j].delta_j
            lhs -= math.log(nxt)
            rhs_log = sum(math.log(self.levels[i].alpha_j) +
                          math.log(max(self.levels[i].gamma_j, 1e-300))
                          for i in range(j + 1))
            if rhs_log < 0:
                out = min(out, lhs / rhs_log)
        if out <= 0:
            raise StageConstructionError(
                "cross-level product hypothesis violated (no positive exponent)")
        return out

    # -- serialization ----------------------------------------------------
    def dump_json(self, path):
        """Write every fine and nested block with its exact lambda and nu.

        The file grows with the number of blocks, so a stage with a level
        of more than DUMP_BLOCK_BUDGET blocks is refused before writing."""
        for j, lvl in enumerate(self.levels, start=1):
            if lvl.count > DUMP_BLOCK_BUDGET:
                raise DimensionError(
                    f"level {j}: {lvl.count} blocks exceed the dump budget "
                    f"{DUMP_BLOCK_BUDGET}")
        with open(path, "w") as fh:
            fh.write('{"levels": [\n')
            for j in range(len(self.levels)):
                sep = "["
                for kind in ("fine", "nested"):
                    for word, lam, nu in self.iter_blocks(j, kind):
                        fh.write(sep + json.dumps({
                            "kind": kind,
                            "word": list(word),
                            "lambda": f"{lam.numerator}/{lam.denominator}",
                            "nu": f"{nu.numerator}/{nu.denominator}",
                        }))
                        sep = ",\n"
                fh.write("]")
                fh.write(",\n" if j + 1 < len(self.levels) else "\n")
            fh.write("]}\n")


def _relative_lam(measure: MarkovStationaryMeasure, last: int, suffix) -> Fraction:
    """lambda(w + suffix) / lambda(w) for a word w ending at digit ``last``
    (integer products, reduced once)."""
    num = den = 1
    for d in suffix:
        num *= measure.M[last][d].numerator
        den *= measure.M[last][d].denominator
        last = d
    return Fraction(num, den)


def build_cantor_stage(m: MapModel, target, sched: Schedule, levels: int,
                       level_sizes: Sequence[int], epsilon: float = 0.3,
                       root_depth: int = 0) -> CantorStage:
    """Finite-depth realization of the two-family nested construction.

    Per level j: d_j = (previous depth) + N_j; the fine family collects the
    SMB-regular depth-N_j return words from the previous base block back
    onto P(0, x0); each fine block gains one nested child by appending
    x0's digits to depth k_j, where k_j is the refine depth for r_{d_j}
    (radii schedules) or t_{d_j} (depth schedules).  The mass nu splits
    proportionally to lambda within each admissible family.  A level
    stores its family once, so the cost is the sum of the family sizes,
    not their product.
    """
    if not isinstance(m, (DAryShift, MarkovLinear)):
        raise DimensionError("stage construction needs a finite-alphabet linear map")
    if levels != len(level_sizes):
        raise DimensionError("need one level size per level")
    if levels < 1 or levels > 6:
        raise DimensionError("levels must be between 1 and 6")
    measure = (MarkovStationaryMeasure.bernoulli([Fraction(1, m.D)] * m.D)
               if isinstance(m, DAryShift)
               else MarkovStationaryMeasure(m.p, m.M))
    target = Target.of(m, target)
    walk = target.walk()
    deep = sum(int(n) for n in level_sizes) * 4 + 64
    x0_digits = walk.digits(deep)

    root_word = (x0_digits[0],) if root_depth == 0 else tuple(x0_digits[:root_depth + 1])
    root_lam = measure.word_mass(root_word)
    h = None

    stage_levels = []
    depth = len(root_word) - 1           # current nested depth d_{j-1} + k_{j-1}
    parent_lam, parent_nu = (root_lam,), (Fraction(1),)
    base_digit = root_word[-1]           # block the next family must start from

    for j, N_j in enumerate([int(n) for n in level_sizes], start=1):
        if N_j < 2:
            raise StageConstructionError(
                f"level {j}: size {N_j} too small for the regularity window")
        words, total = smb_regular_cylinders(
            measure, N_j, epsilon, base_digit, x0_digits[0], h)
        if not words:
            raise StageConstructionError(
                f"level {j}: SMB regularity window empty at N_j={N_j} "
                f"(hypothesis of the regular-family mass bound violated)")
        suffixes = tuple(w[1:] for w in words)      # entry digit is the base block
        d_j = depth + N_j

        # k_j from the schedule at index d_j
        if sched.is_radii:
            r_j = sched.radius(d_j)
            r_j = Fraction(r_j) if isinstance(r_j, (int, Fraction)) else Fraction(float(r_j))
            k_j = refine_depth(m, target, r_j)
        else:
            k_j = max(int(sched.depth(d_j)), 0)
        nested_suffix = walk.digits(k_j)[1:k_j + 1]

        # every parent ends at the same base digit, so one family serves all
        suffix_lam = tuple(_relative_lam(measure, base_digit, suf) for suf in suffixes)
        family_lam = sum(suffix_lam, Fraction(0))
        nested_rel = _relative_lam(measure, x0_digits[0], nested_suffix)
        lvl = StageLevel(suffixes, suffix_lam,
                         tuple(lam / family_lam for lam in suffix_lam),
                         nested_suffix, nested_rel, parent_lam, parent_nu,
                         base_digit, N_j=N_j, k_j=k_j, d_j=d_j,
                         alpha_j=float(min(suffix_lam)),
                         beta_j=float(max(suffix_lam)),
                         gamma_j=float(nested_rel), delta_j=float(family_lam))
        stage_levels.append(lvl)

        depth = d_j + k_j
        parent_lam, parent_nu = lvl.nested_lam, lvl.fine_nu
        base_digit = nested_suffix[-1] if nested_suffix else x0_digits[0]

    stage = CantorStage(m, measure, walk.digits(max(deep, depth)), root_word, root_lam,
                        stage_levels, epsilon, sched)
    bad = stage.nesting_violations()
    if bad:
        raise StageConstructionError(
            f"containment hypothesis violated: {bad} nested blocks are flush "
            "with their coarse parent (closure not strictly inside)")
    return stage


# ---------------------------------------------------------------------------
# Frostman exponents

def frostman_exponent(stage: CantorStage, c_cap: float = 1e3,
                      include_intermediate: bool = True) -> dict:
    """Largest gamma with nu(Q) <= c_cap * lambda(Q)^gamma over the stage.

    Constraints come from every fine and nested block and from the
    intermediate cylinders between a nested parent and its fine children
    (where nu aggregates over siblings).  Cylinders between a fine block
    and its nested child carry constant nu with shrinking lambda, so only
    the nested endpoint binds; those are skipped.  The log-log regression
    slope over the blocks is reported for diagnostics.  Blocks of one
    (lambda, nu) class give one constraint and one weighted point.
    """
    log_cap = math.log(c_cap)
    constraints = []
    pairs = []       # (log lam, log nu, count) over distinct block classes
    total_blocks = 0
    classes = stage.level_classes()
    for lvl, level_classes in zip(stage.levels, classes):
        for lam_f, lam_n, nu, cnt in level_classes:
            ln = log_mass(nu)
            for lam in ((lam_f, lam_n) if lam_n != lam_f else (lam_f,)):
                ll = log_mass(lam)
                constraints.append((log_cap - ln) / (-ll))
                pairs.append((ll, ln, cnt))
        total_blocks += lvl.count * (2 if lvl.nested_suffix else 1)
    if total_blocks < 10:
        raise DimensionError("insufficient resolution: fewer than 10 blocks")

    if include_intermediate:
        parents = [(stage.root_lam, Fraction(1))]
        for lvl, level_classes in zip(stage.levels, classes):
            constraints.extend(_intermediate_constraints(stage.measure, lvl,
                                                         parents, log_cap))
            parents = [(lam_n, nu) for _, lam_n, nu, _ in level_classes]

    gamma = min(1.0, min(constraints))
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    wts = np.array([p[2] for p in pairs], dtype=float)
    A = np.vstack([xs, np.ones_like(xs)]).T * np.sqrt(wts)[:, None]
    yw = ys * np.sqrt(wts)
    sol, res, _, _ = np.linalg.lstsq(A, yw, rcond=None)
    slope = float(sol[0])
    resid = float(np.sqrt(res[0] / wts.sum())) if len(res) else 0.0
    return {"gamma": float(gamma), "cap": c_cap, "blocks": total_blocks,
            "regression_slope": slope, "regression_rms_residual": resid}


def _intermediate_constraints(measure: MarkovStationaryMeasure, lvl: StageLevel,
                              parents, log_cap: float):
    """Constraints from prefixes strictly between a parent and its fine
    children, where nu sums over the children sharing the prefix.

    Every parent sees the same prefixes, so the family is walked once for
    the prefixes' relative (lam, nu), which then scale by each distinct
    parent (lam, nu).  The walk adds integers: lam scaled by the common
    denominator of the family, reduced once per prefix."""
    scale = math.lcm(*(lam.denominator for lam in lvl.suffix_lam))
    by_length = [{suf: lam.numerator * (scale // lam.denominator)
                  for suf, lam in zip(lvl.suffixes, lvl.suffix_lam)}]
    for n in range(len(lvl.suffixes[0]) - 1, 0, -1):
        shorter = {}                                   # prefix -> scaled lam of its children
        for key, w in by_length[-1].items():
            shorter[key[:n]] = shorter.get(key[:n], 0) + w
        by_length.append(shorter)
    total = sum(by_length[0].values())
    lams = {(): (1, 1)}                                # prefix -> relative lam (num, den)
    rel = {}
    for prefixes in reversed(by_length[1:]):
        for key, w in prefixes.items():
            q = measure.M[key[-2] if len(key) > 1 else lvl.base_digit][key[-1]]
            num, den = lams[key[:-1]]
            lams[key] = num * q.numerator, den * q.denominator
            rel[lams[key] + (w,)] = None
    rel = [(Fraction(num, den), Fraction(w, total)) for num, den, w in rel]
    return [(log_cap - log_mass(p_nu * nu)) / (-log_mass(p_lam * lam))
            for p_lam, p_nu in parents for lam, nu in rel]


# ---------------------------------------------------------------------------
# grids and regularity probes

class GridSpec:
    """A nested family of partitions with vanishing diameters."""

    def sup_block_measure(self, n: int) -> float:
        raise NotImplementedError


class IntervalSplitGrid(GridSpec):
    """1-D grid on [0,1]: level n splits each level-(n-1) interval at
    ratio ``split``; level n has (n+1)-fold splits (level 0 = 2 blocks)."""

    def __init__(self, split=Fraction(1, 2)):
        self.split = Fraction(split)
        if not 0 < self.split < 1:
            raise DimensionError("split ratio must be in (0,1)")

    def sup_block_measure(self, n: int) -> float:
        s = max(self.split, 1 - self.split)
        return float(s ** (n + 1))

    def leaf_containing(self, point: Fraction, n: int):
        """Leaf [lo, hi) of level n containing the point (exact descent);
        points on a grid line return the leaf to their right."""
        lo, hi = Fraction(0), Fraction(1)
        for _ in range(n + 1):
            mid = lo + self.split * (hi - lo)
            if point < mid:
                hi = mid
            else:
                lo = mid
        return lo, hi

    def band(self, a: Fraction, b: Fraction, n: int):
        """Union extent [lo, hi] of the level-n leaves meeting the open
        interval (a, b)."""
        lo_leaf = self.leaf_containing(a, n)
        lo = lo_leaf[0] if lo_leaf[1] > a else lo_leaf[1]
        hi_leaf = self.leaf_containing(b, n) if b < 1 else (Fraction(1), Fraction(1))
        hi = hi_leaf[1] if b < 1 and hi_leaf[0] < b else (hi_leaf[0] if b < 1 else Fraction(1))
        return lo, hi


class ProductSplitGrid(GridSpec):
    """2-D grid on the unit square: x-split at ratio a, y-split at ratio b
    (the rectangle grid; 1/2 < b < a < 1 gives the irregular example,
    a = b = 1/2 the square grid)."""

    def __init__(self, a, b):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.gx = IntervalSplitGrid(self.a)
        self.gy = IntervalSplitGrid(self.b)

    def sup_block_measure(self, n: int) -> float:
        sx = max(self.a, 1 - self.a)
        sy = max(self.b, 1 - self.b)
        return float((sx * sy) ** (n + 1))


@dataclass
class ProbeRecord:
    k: int
    level: int
    ball_measure: float
    union_measure: float

    @property
    def ratio(self) -> float:
        return self.union_measure / self.ball_measure


def _leaves_meeting(grid: IntervalSplitGrid, a: Fraction, b: Fraction, n: int,
                    cap: int = 10 ** 4):
    """Level-n leaves meeting the open interval (a, b)."""
    out = []
    stack = [(Fraction(0), Fraction(1), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi <= a or lo >= b:
            continue
        if depth == n + 1:
            out.append((lo, hi))
            if len(out) > cap:
                raise DimensionError("leaf enumeration exceeded the cap")
            continue
        mid = lo + grid.split * (hi - lo)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return out


def grid_regularity_probe(grid: GridSpec, balls, levels=None) -> list:
    """Ratio trace C_k = lambda(union of level-n(k) blocks meeting B_k) /
    lambda(B_k), with n(k) the smallest level whose largest block does not
    exceed the ball measure.

    ``balls``: for 1-D grids a list of (center, radius); for 2-D grids a
    list of (cx, cy, radius) with Fraction entries (the ball is the open
    Euclidean disc, lambda = area pi r^2).
    """
    out = []
    for k, ball in enumerate(balls, start=1):
        if isinstance(grid, IntervalSplitGrid):
            x, r = ball
            bmass = float(min(x + r, 1) - max(x - r, 0))
            n = _probe_level(grid, bmass, levels)
            leaves = _leaves_meeting(grid, max(x - r, Fraction(0)),
                                     min(x + r, Fraction(1)), n)
            union = float(sum(hi - lo for lo, hi in leaves))
            out.append(ProbeRecord(k, n, bmass, union))
        elif isinstance(grid, ProductSplitGrid):
            cx, cy, r = ball
            bmass = math.pi * float(r) ** 2
            n = _probe_level(grid, bmass, levels)
            xlv = _leaves_meeting(grid.gx, max(cx - r, Fraction(0)),
                                  min(cx + r, Fraction(1)), n, cap=512)
            union = Fraction(0)
            r2 = Fraction(r) ** 2
            for xl, xh in xlv:
                if xl <= cx <= xh:
                    ylo, yhi = grid.gy.band(max(cy - r, Fraction(0)),
                                            min(cy + r, Fraction(1)), n)
                    union += (xh - xl) * (yhi - ylo)
                else:
                    dx = min(abs(cx - xl), abs(cx - xh))
                    if dx * dx >= r2:
                        continue
                    ylv = _leaves_meeting(grid.gy, max(cy - r, Fraction(0)),
                                          min(cy + r, Fraction(1)), n, cap=4096)
                    for yl, yh in ylv:
                        dy = Fraction(0) if yl <= cy <= yh else \
                            min(abs(cy - yl), abs(cy - yh))
                        if dx * dx + dy * dy < r2:
                            union += (xh - xl) * (yh - yl)
            out.append(ProbeRecord(k, n, bmass, float(union)))
        else:
            raise DimensionError("unsupported grid type")
    return out


def _probe_level(grid: GridSpec, ball_measure: float, levels) -> int:
    n = 0
    while grid.sup_block_measure(n) > ball_measure:
        n += 1
        if n > 10 ** 5:
            raise DimensionError("probe level exceeded bound")
    if levels is not None:
        n = max(n, int(levels))
    return n


def rectangle_counterexample_balls(a, b, kmax: int) -> list:
    """The shrinking discs of the irregular rectangle-grid example: the
    k-th disc is inscribed in the top-left corner square of side (1-b)^k."""
    b = Fraction(b)
    out = []
    for k in range(1, kmax + 1):
        side = (1 - b) ** k
        r = side / 2
        out.append((r, 1 - r, r))
    return out
