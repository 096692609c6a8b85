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
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import pairwise
from numbers import Real
from typing import Optional

import numpy as np

from .maps import MapModel
from .measures import RegularWords, log_mass, smb_regular_cylinders
from .coding import Target, refine_depth
from .recurrence import Schedule
from .schema import block, check, integer, kinds, listof, number, rational, rules, satisfies


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
        return asdict(self)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def _clamped(formula, *args) -> float:
    """formula(*args) in floats, clamped to [0, 1]; where an intermediate
    under- or overflows (so the float value may be inf, nan or far off), in
    Fractions of the float args, clamped, then rounded."""
    try:
        with np.errstate(all="raise"):
            return _clamp01(float(formula(*map(np.float64, args))))
    except FloatingPointError:
        return float(min(1, max(0, formula(*map(Fraction, args)))))


def _log_inv(x: float) -> float:
    """log(1/x) of a float 0 < x <= 1; -log(x) where 1/x overflows."""
    return math.log(inv) if (inv := 1 / x) < math.inf else -math.log(x)


def bound_radii_lower(h: float, delta_bar: float, ell_bar: float,
                      tau_bar: float, log_beta: float) -> DimensionBound:
    """Grid lower bound h/(h + delta_bar*ell_bar) for metric targets, and
    the Hausdorff version with the decay-rate correction factor.

    The correction factor is evaluated with ell_bar in the squared term;
    this is flagged in the notes since the symbol is not pinned down.
    """
    _check("radii_lower", locals())
    grid = _clamped(lambda h, d, l: h / (h + d * l), h, delta_bar, ell_bar)
    factor = 1.0 - _clamped(lambda t, d, l, h, b: t * d * (l * l) / (h * h * b),
                            tau_bar, delta_bar, ell_bar, h, log_beta)
    return DimensionBound(
        grid_lower=grid,
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
    _check("doubling", locals())
    val = 1.0 - _clamped(lambda d, l, s, b: d * l / (s * b), delta_bar, ell_bar, s, log_beta)
    return DimensionBound(hausdorff_lower=val,
                          formula="1 - delta*ell/(s log beta)",
                          inputs={"delta_bar": delta_bar, "ell_bar": ell_bar,
                                  "s": s, "log_beta": log_beta})


def bound_code_lower(h: float, L_bar: float) -> DimensionBound:
    """Grid lower bound h/(h + L_bar) for cylinder targets."""
    _check("code_lower", locals())
    return DimensionBound(grid_lower=_clamped(lambda h, L: h / (h + L), h, L_bar),
                          formula="h/(h+L)", inputs={"h": h, "L_bar": L_bar})


def bound_code_w(w_bar: float) -> DimensionBound:
    """Grid lower bound 1/(1 + w_bar) from the depth-growth rate alone."""
    _check("code_w", locals())
    return DimensionBound(grid_lower=_clamp01(1.0 / (1.0 + w_bar)),
                          formula="1/(1+w)", inputs={"w_bar": w_bar})


def bound_upper_finite(D: int, h: float, L_lower: Optional[float] = None,
                       delta_lower: Optional[float] = None,
                       ell_lower: Optional[float] = None) -> DimensionBound:
    """Upper bound min(1, log D/(h + rate)) for finite alphabets, where the
    rate is L_lower for cylinder targets or delta_lower*ell_lower for balls."""
    given = {k: v for k, v in locals().items() if v is not None}
    _check("upper_finite", given)
    # one formula for both rates: L_lower is the product L_lower * 1.0, exact
    rate, tag = ((L_lower, 1.0), "log D/(h + L_lower)") if L_lower is not None else \
        ((delta_lower, ell_lower), "log D/(h + delta_lower*ell_lower)")
    return DimensionBound(upper=_clamped(lambda l, h, d, e: l / (h + d * e), math.log(D), h, *rate),
                          formula=tag, inputs=given)


def bound_hoeffding(p: Sequence[float], L_lower: float) -> DimensionBound:
    """Tail-inequality upper bound for i.i.d. digit measures.

    With R = log(max p / min p) and h the digit entropy:
        (sqrt((h+L)^2 + 2 L R^2) + h - L) / (sqrt((h+L)^2 + 2 L R^2) + h + L).
    Collapses to h/(h+L) for uniform p.
    """
    _check("hoeffding", locals())
    p = [float(x) for x in p]
    h = -sum(x * math.log(x) for x in p)
    R = math.log(max(p) / min(p)) if min(p) >= sys.float_info.min else \
        math.log(max(p)) - math.log(min(p))     # the quotient would overflow
    if L_lower <= 8:
        root = math.sqrt((h + L_lower) * (h + L_lower) + 2 * L_lower * (R * R))
        val = (root + h - L_lower) / (root + h + L_lower)
    else:   # root + h - L cancels, and root overflows: the value rationalized, over L^2
        a = h / L_lower
        u = math.hypot(1 + a, R * math.sqrt(2 / L_lower))       # root / L
        val = 2 * (2 * h + R * R) / L_lower / ((u + 1 + a) * (u + 1 - a))
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
    _check("cantor_lambda", locals())
    N_js = [int(n) for n in N_js]
    j = len(N_js)
    lim_term = j / sum(N_js)
    ratios = [N_js[k + 1] / N_js[k] for k in range(j - 1)]
    superlinear = bool(j >= 3 and min(ratios) > 1.2)
    return DimensionBound(
        grid_lower=_clamped(lambda a, b, c, log_inv, lim: b / (a + c) - log_inv / (a + c) * lim,
                            a, b, c, _log_inv(delta), lim_term),
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
    _check("grid_transfer", locals())
    a_n = [float(x) for x in a_n]
    b_n = [float(x) for x in b_n]
    ratios = [_log_inv(a_n[k]) / _log_inv(b_n[k - 1])
              for k in range(1, len(a_n))]
    factor = _extrapolated_limit(ratios)
    val = _clamp01(1.0 - (1.0 - grid_dim) * factor)
    return DimensionBound(hausdorff_lower=val,
                          formula="1 - (1-grid_dim)*limsup log(1/a_n)/log(1/b_{n-1})",
                          inputs={"grid_dim": grid_dim, "levels": len(a_n)},
                          notes={"transfer_factor": factor,
                                 "ratio_tail": ratios[-3:]})


REAL, POSITIVE, RATE = number(), number(0), number(0, closed=True)
RATE_OR_INF = satisfies(lambda v: isinstance(v, Real) and not isinstance(v, bool) and v >= 0,
                        "a number >= 0, or inf")        # 1/(1 + w) is 0 at w = inf

# formula -> (bound function, its fields by the function's argument names or
# (fields, rule of the evaluation)); each function checks its arguments through it
BOUNDS = {
    "radii_lower": (bound_radii_lower, {"h": POSITIVE, "delta_bar": RATE, "ell_bar": RATE,
                                        "tau_bar": (RATE, 0.0), "log_beta": POSITIVE}),
    "doubling": (bound_doubling, {"delta_bar": RATE, "ell_bar": RATE, "s": POSITIVE,
                                  "log_beta": POSITIVE}),
    "code_lower": (bound_code_lower, {"h": POSITIVE, "L_bar": RATE}),
    "code_w": (bound_code_w, {"w_bar": RATE_OR_INF}),
    "upper_finite": (bound_upper_finite, (
        {"D": integer(2), "h": POSITIVE, "L_lower": (RATE, None), "delta_lower": (RATE, None),
         "ell_lower": (RATE, None)}, rules(
            (lambda e: "L_lower" in e or {"delta_lower", "ell_lower"} <= e.keys(),
             "upper_finite needs L_lower, or both delta_lower and ell_lower")))),
    "hoeffding": (bound_hoeffding, ({"p": listof(POSITIVE), "L_lower": RATE}, rules(
        (lambda e: len(e["p"]) >= 2, "p must have two or more entries, for entropy h > 0"),
        (lambda e: max(e["p"]) <= 1, "p must have entries <= 1, for entropy h > 0"),
        (lambda e: abs(sum(map(float, e["p"])) - 1) <= 1e-12, "p must sum to 1")))),
    "cantor_lambda": (cantor_lambda, ({"a": REAL, "b": REAL, "c": REAL, "delta": POSITIVE,
                                       "N_js": listof(integer(1))}, rules(
        (lambda e: e["a"] + e["c"] > 0, "a + c must be > 0"),
        (lambda e: e["delta"] <= 1, "delta must be <= 1"),
        (lambda e: all(m <= n for m, n in pairwise(e["N_js"])), "N_js must be non-decreasing")))),
    "grid_transfer": (grid_transfer, ({"a_n": listof(number(0, 1)), "b_n": listof(number(0, 1)),
                                       "grid_dim": number(0, 1, closed=True)}, rules(
        (lambda e: len(e["a_n"]) == len(e["b_n"]) >= 3, "a_n and b_n must have one length >= 3"),
        (lambda e: all(a <= b for a, b in zip(e["a_n"], e["b_n"])), "a_n <= b_n must hold"),
        (lambda e: all(x > y for x, y in pairwise(e["b_n"])), "b_n must be strictly decreasing")))),
}
BOUND_SCHEMA = kinds({k: v[1] for k, v in BOUNDS.items()}, tag="formula")


def _check(formula, args):
    """Check the arguments of a bound function, its locals() on entry, by name."""
    check(BOUND_SCHEMA, {"formula": formula, **args}, "", formula, DimensionError)


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
    ends at the family's entry digit, so all parents share one family of
    fine blocks (J~): block i is the parent i // F followed by
    ``family[i % F]`` without its entry digit, and its lambda and nu are the
    parent's times that suffix's factors in ``family.classes``.  Each fine
    block has one nested child (J) that appends the target's digits.  The
    builder stores the level's classes once, in the order blocks meet them;
    nu splits in proportion to lambda, so every class has one nu / fine lam."""
    family: RegularWords         # the SMB-regular return words, entry digit first
    nested_suffix: tuple         # shared x0-digit suffix appended to each fine block
    nested_rel: Fraction         # lam(J)/lam(J~)
    classes: list                # the distinct (fine lam, nested lam, nu) with their counts
    d_j: int = 0                 # depth of the fine blocks
    alpha_j: Fraction = Fraction(0)  # min lam(J~)/lam(J_parent)
    beta_j: Fraction = Fraction(0)   # max lam(J~)/lam(J_parent)

    @property
    def count(self) -> int:
        return sum(cnt for *_, cnt in self.classes)

    @property
    def fine_suffix(self):
        """Per fine block, its suffix past the parent (block order)."""
        F = self.family.size
        return _BlockView(self.count, lambda i: self.family[i % F][1:])


@dataclass
class CantorStage:
    """A finished stage: x0's digits through its depth d_J + k_J, the root's lam, the levels."""
    map: MapModel
    x0_digits: tuple
    root_lam: Fraction
    levels: list                 # list[StageLevel]

    # -- invariants -----------------------------------------------------
    def nu_level_sums(self) -> list:
        return [sum((cnt * nu for _, _, nu, cnt in lvl.classes), Fraction(0))
                for lvl in self.levels]

    def nesting_violations(self) -> int:
        """Blocks whose closure is not strictly inside the coarse parent.

        The nested block sits inside its fine block at the relative
        position of the appended x0-digit suffix, so strictness fails only
        for all-minimal or all-maximal admissible suffixes; the check is on
        exact words and shared per level."""
        bad = 0
        for lvl in self.levels:
            # each suffix digit against the digits admissible after its predecessor
            prevs = self.x0_digits[:1] + lvl.nested_suffix
            ends = [(d == min(t), d == max(t)) for d, t in
                    zip(lvl.nested_suffix, map(self.map.branch_targets, prevs))]
            if ends and (all(lo for lo, _ in ends) or all(hi for _, hi in ends)):
                bad += lvl.count      # a level without suffix has J = J~: nothing to check
        return bad

    def level_params(self) -> list:
        return [{"N_j": lvl.family.N, "k_j": len(lvl.nested_suffix), "d_j": lvl.d_j,
                 "alpha_j": float(lvl.alpha_j), "beta_j": float(lvl.beta_j),
                 "gamma_j": float(lvl.nested_rel), "delta_j": float(lvl.family.mass)}
                for lvl in self.levels]

    def geometric_rates(self) -> dict:
        """Per-level exponential rates (a_j, b_j, c_j, delta) aggregated
        conservatively for the level-geometric bound; the logs are of the
        exact ratios, finite where their floats underflow."""
        a = max(-log_mass(lvl.alpha_j) / lvl.family.N for lvl in self.levels)
        b = min(-log_mass(lvl.beta_j) / lvl.family.N for lvl in self.levels)
        c = max(-log_mass(lvl.nested_rel) / lvl.family.N for lvl in self.levels)
        delta = float(min(lvl.family.mass for lvl in self.levels))
        return {"a": a, "b": b, "c": c, "delta": delta,
                "N_js": [lvl.family.N for lvl in self.levels]}

    # -- serialization ----------------------------------------------------
    def dump_json(self, path):
        """Write the stage as it is stored: per level its classes (fine lam,
        nested lam, nu, count), nested suffix, nested_rel, parent count and
        family end types (first, N, Q, finals), so the file grows with the end
        types, not the blocks.  Each exact number is hex, "0x..." or
        "0x.../0x...", read back by int(s, 16) whatever its digits.  With the
        map's scaled chain, RegularWords(scaled, first, Q, N, finals) unranks its blocks."""
        levels = []
        for lvl in self.levels:
            f = lvl.family
            levels.append({
                "classes": [list(map(_hex, c)) for c in lvl.classes],
                "nested_suffix": list(lvl.nested_suffix), "nested_rel": _hex(lvl.nested_rel),
                "parents": _hex(lvl.count // f.size), "first": f.first, "N": f.N, "Q": _hex(f.Q),
                "finals": [[d, _hex(P), _hex(m)] for (d, P), m in f.finals.items()]})
        with open(path, "w") as fh:
            json.dump({"root_word": list(self.x0_digits[:1]), "root_lam": _hex(self.root_lam),
                       "levels": levels}, fh, separators=(",", ":"))


def _hex(x) -> str:
    """An exact int or Fraction in hex, which has no limit on its digits."""
    return hex(x) if isinstance(x, int) else f"{x.numerator:#x}/{x.denominator:#x}"


# the params of a cantor run; build_cantor_stage checks its arguments through it
CANTOR_PARAMS = block({
    "levels": (integer(1, 6), 2), "level_sizes": listof(integer(2)),
    "epsilon": (POSITIVE, 0.3), "c_cap": (POSITIVE, 1e3)},
    lambda p: None if len(p["level_sizes"]) == p["levels"] else
    "cantor needs params.level_sizes matching params.levels")


def build_cantor_stage(m: MapModel, target, sched: Schedule, levels: int,
                       level_sizes: Sequence[int], epsilon: float = 0.3) -> CantorStage:
    """Finite-depth realization of the two-family nested construction.

    Per level j: d_j = (previous depth) + N_j; the fine family collects the
    SMB-regular depth-N_j return words from the previous base block back
    onto P(0, x0); each fine block gains one nested child by appending
    x0's digits to depth k_j, where k_j is the refine depth for r_{d_j}
    (radii schedules) or t_{d_j} (depth schedules).  The mass nu splits
    proportionally to lambda within each admissible family, so a class is one
    integer weight W, the product of its suffixes' prods: its fine lam, nested
    lam and nu are the level's units times W.  A level keeps its family by type
    and its classes, built once, so the cost grows with the types, not the
    blocks.  x0's walk reads each digit once, as deep as the stage goes, and
    composes branches only for the depths a refinement asks.
    """
    check(CANTOR_PARAMS, {"levels": levels, "level_sizes": level_sizes, "epsilon": epsilon},
          "params", "cantor", DimensionError)
    target = Target.of(m, target)
    if not hasattr(m, "M"):
        raise DimensionError("stage construction needs a finite-alphabet linear map")
    # x0's digits through the current nested depth; the next family starts from the last one's block
    head = target.digits(0)
    root, root_lam = head[0], m.word_mass(head)

    stage_levels, depth = [], 0          # depth: the nested depth d_{j-1} + k_{j-1}
    # the parents' classes, weight W -> count; a parent's nested lam and nu are the units times W
    parents, lam_unit, nu_unit = {1: 1}, root_lam, Fraction(1)

    for j, N_j in enumerate([int(n) for n in level_sizes], start=1):
        words, _ = smb_regular_cylinders(m, N_j, epsilon, head[-1], root)
        if not words.size:
            raise StageConstructionError(
                f"level {j}: SMB regularity window empty at N_j={N_j} "
                f"(hypothesis of the regular-family mass bound violated)")
        d_j = depth + N_j

        # k_j from the schedule at index d_j, read as every other consumer reads it
        k_j = refine_depth(m, target, Fraction(float(sched.radii_array(d_j, d_j - 1)[0]))) \
            if sched.is_radii else int(sched.depths_array(d_j, d_j - 1)[0])
        head = target.digits(k_j)
        nested_rel = m.word_mass(head) / m.p[root]

        # one family serves every parent, as each ends at the base digit; a suffix of prod P
        # has lam P/Q^N and nu P/prod_sum, so a child's weight is its parent's times P
        lam_unit, nu_unit = lam_unit / words.Q ** N_j, nu_unit / words.prod_sum
        nested_unit, merged = lam_unit * nested_rel, {}          # pairs meet in block order
        for W, p_cnt in parents.items():
            for P, (_, _, s_cnt) in words.classes.items():
                merged[W * P] = merged.get(W * P, 0) + p_cnt * s_cnt
        classes = [(lam_unit * W, nested_unit * W, nu_unit * W, cnt) for W, cnt in merged.items()]
        lams = [lam for lam, _, _ in words.classes.values()]
        stage_levels.append(StageLevel(words, head[1:], nested_rel, classes, d_j=d_j,
                                       alpha_j=min(lams), beta_j=max(lams)))

        depth, parents, lam_unit = d_j + k_j, merged, nested_unit

    stage = CantorStage(m, target.digits(depth), root_lam, stage_levels)
    bad = stage.nesting_violations()
    if bad:
        raise StageConstructionError(
            f"containment hypothesis violated: {bad} nested blocks are flush "
            "with their coarse parent (closure not strictly inside)")
    return stage


# ---------------------------------------------------------------------------
# Frostman exponents

def frostman_exponent(stage: CantorStage, c_cap: float = 1e3) -> dict:
    """Largest gamma with nu(Q) <= c_cap * lambda(Q)^gamma over the stage.

    Constraints come from every nested block and every family prefix below
    a nested parent, lengths 1..N_j, the fine blocks at N_j (nu sums over the
    children through a prefix).  Cylinders between a fine block and its
    nested child carry constant nu with shrinking lambda, so only the nested
    endpoint binds; those are skipped.  One (lambda, nu) class, one constraint.
    A level's parents share one nu/lambda, so with x = -log lambda_p a prefix's constraint
    is (A + x)/(B + x): least at the greatest lambda_p if A <= B, above 1 (gamma's start)
    at every parent if A > B; only parents within a factor 1 + 1e-9 of the greatest bind.
    """
    check(POSITIVE, c_cap, "params.c_cap", "cantor", DimensionError)   # CANTOR_PARAMS' c_cap
    log_cap, tie = math.log(c_cap), Fraction(10 ** 9 + 1, 10 ** 9)
    gamma, total_blocks = 1.0, 0
    parents = [(stage.root_lam, Fraction(1))]
    for lvl in stage.levels:
        hi = max(lam for lam, _ in parents)
        ends = [(lam, nu) for lam, nu in parents if hi <= lam * tie]
        gamma = min(gamma, *((log_cap - log_mass(nu)) / (-log_mass(lam_n))
                             for _, lam_n, nu, _ in lvl.classes),
                    *((log_cap - log_mass(p_nu * nu)) / (-log_mass(p_lam * lam))
                      for lam, nu in lvl.family.prefix_classes() for p_lam, p_nu in ends))
        parents = [(lam_n, nu) for _, lam_n, nu, _ in lvl.classes]
        total_blocks += lvl.count * (2 if lvl.nested_suffix else 1)
    if total_blocks < 10:
        raise DimensionError("insufficient resolution: fewer than 10 blocks")
    return {"gamma": float(gamma), "cap": c_cap, "blocks": total_blocks}


# ---------------------------------------------------------------------------
# grids and regularity probes

# grid kind -> its fields, by the constructor's argument names (square is the
# rectangle at a = b = 1/2); the grids check their arguments through it
GRIDS = {"interval": {"split": (rational(0, 1), "1/2")},
         "rectangle": {"a": rational(0, 1), "b": rational(0, 1)}, "square": {}}


class IntervalSplitGrid:
    """1-D grid on [0,1]: level n splits each level-(n-1) interval at
    ratio ``split`` = p/q; level n has (n+1)-fold splits (level 0 = 2
    blocks), so its endpoints are integers over q^(n+1): a node at depth
    k spans a multiple of q^(n+1-k), and its split lo + p (hi - lo) // q
    is exact.  Its largest level-n block has measure sup_ratio^(n+1)."""

    def __init__(self, split=Fraction(1, 2)):
        check(kinds(GRIDS), {"kind": "interval", "split": split}, "params.grid", "gridprobe",
              DimensionError)
        self.split = Fraction(split)
        self.sup_ratio = max(self.split, 1 - self.split)
        self.p, self.q = self.split.numerator, self.split.denominator

    def leaf_containing(self, point: Fraction, n: int):
        """Leaf [lo, hi) of level n containing the point, as integers over
        q^(n+1); points on a grid line return the leaf to their right."""
        lo, hi = 0, self.q ** (n + 1)
        at, den = point.numerator * hi, point.denominator     # point = at / (den q^(n+1))
        for _ in range(n + 1):
            mid = lo + self.p * (hi - lo) // self.q
            lo, hi = (lo, mid) if at < mid * den else (mid, hi)
        return lo, hi

    def band(self, a: Fraction, b: Fraction, n: int):
        """Union extent [lo, hi] of the level-n leaves meeting the open
        interval (a, b), which are contiguous, as integers over q^(n+1)."""
        S = self.q ** (n + 1)
        (lo, hi), (left, right) = self.leaf_containing(a, n), self.leaf_containing(b, n)
        return (lo if hi * a.denominator > a.numerator * S else hi,
                right if left * b.denominator < b.numerator * S else left)


class ProductSplitGrid:
    """2-D grid on the unit square: x-split at ratio a, y-split at ratio b
    (the rectangle grid; 1/2 < b < a < 1 gives the irregular example,
    a = b = 1/2 the square grid)."""

    def __init__(self, a=Fraction(1, 2), b=Fraction(1, 2)):
        check(kinds(GRIDS), {"kind": "rectangle", "a": a, "b": b}, "params.grid", "gridprobe",
              DimensionError)
        self.a, self.b = Fraction(a), Fraction(b)
        self.gx, self.gy = IntervalSplitGrid(self.a), IntervalSplitGrid(self.b)
        self.sup_ratio = self.gx.sup_ratio * self.gy.sup_ratio


def fitting_balls(v, path, bad, owner, dim):
    """Checker of the rule that balls fit a grid of dimension dim: each is a
    tuple or list of rationals (Fraction or int), dim centre coordinates and a
    radius > 0; the entries are checked first, as the config checks them."""
    n = len(bad)
    listof(listof(satisfies(lambda x: isinstance(x, (int, Fraction)) and not isinstance(x, bool),
                            "a rational (Fraction or int)")), empty=True)(v, path, bad, owner)
    for i, ball in enumerate(v if len(bad) == n else ()):
        if len(ball) != dim + 1:
            bad.append(f"{path}.{i}: must be {dim} centre coordinate(s) and a radius "
                       f"for {owner}, got {len(ball)} values")
        elif ball[-1] <= 0:
            bad.append(f"{path}.{i}.{dim}: must be a radius > 0 for {owner}, got {ball[-1]}")
    return v


_GRIDPROBE_FIELDS = block({"grid": kinds(GRIDS), "balls": kinds({
    "corner_discs": {"kmax": (integer(1), 40)},
    "shrinking_intervals": {"center": (rational(0, 1, closed=True), "1/3"),
                            "scale": (rational(0), "3/7"), "kmax": (integer(1), 20)},
    "table": {"balls": listof(listof(rational(0, 1, closed=True)))}})})


def GRIDPROBE_PARAMS(v, path, bad, owner):
    """Checker of the params of a gridprobe run: a grid, the balls, and, once
    both pass, the rule that the balls fit the grid."""
    n, p = len(bad), _GRIDPROBE_FIELDS(v, path, bad, owner)
    if len(bad) == n:
        grid, balls = p["grid"]["kind"], p["balls"]
        dim = 1 if grid == "interval" else 2
        if balls["kind"] == "table":
            fitting_balls([tuple(map(Fraction, row)) for row in balls["balls"]],
                          f"{path}.balls.balls", bad, grid, dim)
        elif balls["kind"] != ("shrinking_intervals" if dim == 1 else "corner_discs"):
            bad.append(f"{path}.balls.kind: balls of kind {balls['kind']} do not fit "
                       f"the grid of kind {grid}")
    return p


@dataclass
class ProbeRecord:
    k: int
    level: int
    ball_measure: float
    union_measure: float

    @property
    def ratio(self) -> float:
        return self.union_measure / self.ball_measure


def _leaves_meeting(grid: IntervalSplitGrid, a: Fraction, b: Fraction, n: int, cap: int):
    """Level-n leaves meeting the open interval (a, b), as integers over q^(n+1)."""
    S = grid.q ** (n + 1)
    a_num, a_den, b_num, b_den = a.numerator * S, a.denominator, b.numerator * S, b.denominator
    out, stack = [], [(0, S, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi * a_den <= a_num or lo * b_den >= b_num:     # hi <= a or lo >= b
            continue
        if depth == n + 1:
            out.append((lo, hi))
            if len(out) > cap:
                raise DimensionError("leaf enumeration exceeded the cap")
            continue
        mid = lo + grid.p * (hi - lo) // grid.q
        stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
    return out


def grid_regularity_probe(grid, balls, levels=None) -> list:
    """Ratio trace C_k = lambda(union of level-n(k) blocks meeting B_k) /
    lambda(B_k), with n(k) the smallest level whose largest block does not
    exceed the ball measure.

    ``balls``: for 1-D grids a list of (center, radius); for 2-D grids a
    list of (cx, cy, radius), each ball checked by fitting_balls and of
    float measure > 0 (the open Euclidean disc, lambda = area pi r^2).  Leaf
    endpoints are exact integers over q^(n+1); the union is the nearest float.
    """
    if not isinstance(grid, (IntervalSplitGrid, ProductSplitGrid)):
        raise DimensionError("unsupported grid type")
    dim, owner = (1, "interval") if isinstance(grid, IntervalSplitGrid) else (2, "rectangle")
    check(lambda *args: fitting_balls(*args, dim), balls, "balls", owner, DimensionError)
    masses = [float(min(b[0] + b[-1], 1) - max(b[0] - b[-1], 0)) if dim == 1 else
              math.pi * float(b[-1]) ** 2 for b in balls]         # b[-1] is the radius
    for i, m in enumerate(masses):
        if not m > 0:
            raise DimensionError(f"balls.{i}: its measure {m!r} as a float is not > 0")
    out = []
    for k, (ball, bmass) in enumerate(zip(balls, masses), start=1):
        n = _probe_level(grid, bmass, levels)
        if dim == 1:
            x, r = ball
            lo, hi = grid.band(max(x - r, Fraction(0)), min(x + r, Fraction(1)), n)
            out.append(ProbeRecord(k, n, bmass, (hi - lo) / grid.q ** (n + 1)))
        else:
            cx, cy, r = ball
            xlv = _leaves_meeting(grid.gx, max(cx - r, Fraction(0)),
                                  min(cx + r, Fraction(1)), n, cap=512)
            ya, yb = max(cy - r, Fraction(0)), min(cy + r, Fraction(1))
            # the centre on the lattices: cx = X / (Sx xd), cy = Y / (Sy yd);
            # dx^2 + dy^2 < r^2 cleared to dx^2 wx + dy^2 wy < wr
            Sx, Sy = grid.gx.q ** (n + 1), grid.gy.q ** (n + 1)
            X, xd, Y, yd = cx.numerator * Sx, cx.denominator, cy.numerator * Sy, cy.denominator
            wx, wy = (Sy * yd * r.denominator) ** 2, (Sx * xd * r.denominator) ** 2
            wr = (r.numerator * Sx * xd * Sy * yd) ** 2
            union, ylv = 0, None
            for xl, xh in xlv:
                if xl * xd <= X <= xh * xd:
                    ylo, yhi = grid.gy.band(ya, yb, n)
                    union += (xh - xl) * (yhi - ylo)
                    continue
                dx2 = min(abs(X - xl * xd), abs(X - xh * xd)) ** 2 * wx
                if dx2 >= wr:
                    continue
                if ylv is None:     # (height, dy^2 wy) of each y-leaf meeting the disc's band
                    ylv = [(yh - yl, 0 if yl * yd <= Y <= yh * yd else
                            min(abs(Y - yl * yd), abs(Y - yh * yd)) ** 2 * wy)
                           for yl, yh in _leaves_meeting(grid.gy, ya, yb, n, cap=4096)]
                union += (xh - xl) * sum(h for h, dy2 in ylv if dx2 + dy2 < wr)
            out.append(ProbeRecord(k, n, bmass, union / (Sx * Sy)))
    return out


def _probe_level(grid, ball_measure: float, levels) -> int:
    p, q = grid.sup_ratio.numerator, grid.sup_ratio.denominator
    n, num, den = 0, p, q        # num / den = sup_ratio^(n+1), kept exact
    while num / den > ball_measure:     # int / int is correctly rounded
        n, num, den = n + 1, num * p, den * q
        if n > 10 ** 5:
            raise DimensionError("probe level exceeded bound")
    if levels is not None:
        n = max(n, int(levels))
    return n


def rectangle_counterexample_balls(a, b, kmax: int) -> list:
    """The shrinking discs of the irregular rectangle-grid example: the
    k-th disc is inscribed in the top-left corner square of side (1-b)^k."""
    radii = ((1 - Fraction(b)) ** k / 2 for k in range(1, kmax + 1))
    return [(r, 1 - r, r) for r in radii]
