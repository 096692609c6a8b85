import math
import os
import tempfile
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from shrinktargets import (
    BlaschkeBoundary,
    DAryShift,
    GaussMap,
    GaussMeasure,
    LebesgueMeasure,
    MarkovLinear,
    MarkovStationaryMeasure,
    stationary_vector,
)

LOG2 = math.log(2)
GAUSS_H = math.pi ** 2 / (6 * LOG2)

M_EXAMPLE = [[F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)]]


@pytest.fixture(scope="session")
def dary2():
    return DAryShift(2)


@pytest.fixture(scope="session")
def dary3():
    return DAryShift(3)


@pytest.fixture(scope="session")
def gauss():
    return GaussMap()


@pytest.fixture(scope="session")
def markov():
    p = stationary_vector(M_EXAMPLE)
    return MarkovLinear(M_EXAMPLE, p)


@pytest.fixture(scope="session")
def golden_markov():
    # golden-mean shift: transition 1->1 forbidden
    M = [[F(1, 2), F(1, 2)], [F(1, 1), F(0, 1)]]
    p = stationary_vector(M)
    return MarkovLinear(M, p)


@pytest.fixture(scope="session")
def zero_diagonal():
    # three states, every self-transition forbidden; 1/2 lies in the block
    # of digit 1, whose own branch 1->1 does not exist
    h = F(1, 2)
    return MarkovLinear([[0, h, h], [h, 0, h], [h, h, 0]], [F(1, 3)] * 3)


@pytest.fixture(scope="session")
def blaschke_square():
    return BlaschkeBoundary([0, 0])


@pytest.fixture(scope="session")
def blaschke_two():
    return BlaschkeBoundary([0, 0.5])


@pytest.fixture(scope="session")
def lebesgue():
    return LebesgueMeasure()


@pytest.fixture(scope="session")
def gauss_measure():
    return GaussMeasure()


@pytest.fixture(scope="session")
def markov_measure(markov):
    return MarkovStationaryMeasure(markov.p, markov.M)


# property tests draw the same examples on every run and keep no example
# database, so the suite is deterministic; Hypothesis still caches the
# constants it reads from the source, and keeps them out of the checkout
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "shrinktargets-hypothesis"))


def float_orbit_start_reference(m, measure, seeds):
    """One generator per trial seed, the start points x ~ measure they draw,
    and the state that a float orbit of m steps: x itself, or the point
    z = exp(2 pi i x) of the unit circle on a circle map."""
    rngs = [np.random.default_rng(s) for s in seeds]
    x = np.array([measure.sample(r, 1)[0] for r in rngs])
    return rngs, x, np.exp(2j * np.pi * x) if m.circle else x


def blaschke_product_reference(m, t):
    """Float T(t) = arg B(e^{2 pi i t}) / (2 pi) mod 1 of a Blaschke boundary
    map on angles t, as the product of its factors (|a|/a)(z - a)/(1 - conj(a) z)."""
    z = np.exp(2j * np.pi * t)
    w = np.ones_like(z)
    for a in m.zeros:
        w = w * z if a == 0 else w * (abs(a) / a) * (z - a) / (1 - np.conj(a) * z)
    return np.mod(np.angle(w) / (2 * np.pi), 1.0)


def blaschke_step_reference(m, z):
    """B(z) of a Blaschke boundary map on points z of the unit circle as one
    numpy expression, with a fresh array per operation: C zh^k W / conj(W),
    W the product of the zh - a over the nonzero zeros a, k = (zeros at 0) -
    (nonzero zeros), zh = z/|z| if k != 0 and z otherwise, C = prod |a|/a.
    The reference that BlaschkeBoundary.stepper must match bit for bit."""
    nonzero = [a for a in m.zeros if a != 0]
    k = len(m.zeros) - 2 * len(nonzero)
    C = np.prod([abs(a) / a for a in nonzero])
    zh, factors = z / np.abs(z) if k else z, [C] if C != 1 else []
    if k:
        power = base = zh if k > 0 else np.conj(zh)
        for _ in range(abs(k) - 1):
            power = power * base
        factors.append(power)
    if nonzero:
        W = zh - nonzero[0]
        for a in nonzero[1:]:
            W = W * (zh - a)
        factors.append(W / np.conj(W))
    for f in factors[1:]:
        factors[0] = factors[0] * f
    return factors[0]


def circle_angle_reference(z):
    """The angles x = arg(z) / (2 pi) mod 1 of a row of points z."""
    return np.mod(np.arctan2(z.imag, z.real) / (2 * np.pi), 1.0)


def float_orbit_step_reference(m, measure, state, rngs):
    """(state, x, restarts) of the float orbits of all trials after one step:
    the reference that measures.float_orbit_blocks must match bit for bit.
    A Gauss step is np.modf(1/x) of the state x.  A Blaschke step is
    blaschke_step_reference of the state z, and x is its angle, read per row
    (circle_angle_reference).  A Gauss orbit that ends (T x = 0) restarts from
    its own trial's generator, in ascending trial order.  1/x of a subnormal
    start overflows to inf, whose fractional part is 0."""
    if m.circle:
        state = blaschke_step_reference(m, state)
        return state, circle_angle_reference(state), 0
    with np.errstate(over="ignore"):
        x = np.modf(1.0 / state)[0]
    if np.count_nonzero(x) == len(x):
        return x, x, 0
    ended = np.flatnonzero(x == 0)
    for t in ended:
        x[t] = measure.sample(rngs[t], 1)[0]
    return x, x, len(ended)


class ScriptedGaussMeasure(GaussMeasure):
    """Gauss measure that reads draws from a script: script[seed][k], where
    given and not None, is the k-th draw for the generator seeded `seed`
    (k = 0 its trial's start, then its restarts).  Other draws come from the
    generator."""

    def __init__(self, script):
        self.script = script
        self.draws = {}

    def sample(self, rng, size):
        seed = rng.bit_generator.seed_seq.entropy
        k = self.draws[seed] = self.draws.get(seed, -1) + 1
        values = self.script.get(seed, [])
        if k < len(values) and values[k] is not None:
            return np.array([values[k]])
        return super().sample(rng, size)


def affine_branch_reference(m, prev, d):
    """(A, B) of the inverse branch y -> A + B*y from digit prev onto P_d of a
    linear map: the increasing affine map of P_d onto P_{prev,d}, the part of
    P_prev that T maps onto P_d.  A chain gives P_{prev,d} by
    subblock_interval (ForbiddenTransition where it forbids prev -> d); the
    D-ary map cuts P_prev as its blocks cut [0, 1)."""
    lo, hi = m.block_interval(d)
    if isinstance(m, MarkovLinear):
        s_lo, s_hi = m.subblock_interval(prev, d)
    else:
        a, b = m.block_interval(prev)
        s_lo, s_hi = a + (b - a) * lo, a + (b - a) * hi
    B = (s_hi - s_lo) / (hi - lo)
    return s_lo - B * lo, B


def allowed(m, a, b):
    """Whether digit b may follow digit a: a positive chain entry; off a chain, always."""
    return not hasattr(m, "M") or m.M[a][b] > 0


def regular_states(scaled, first, N, finals):
    """The prefix-type table (``RegularWords.states``) of a family of N + 1
    digit words from first, rebuilt from its end types as stage.json's readers
    do: the forward pass of smb_regular_cylinders gives the types of each
    prefix length in first-prefix order, and the backward pass from finals
    the words through each and their summed prod."""
    layers = [{(first, 1): None}]
    for _ in range(N):
        layers.append(dict.fromkeys((d, P * q) for a, P in layers[-1] for d, q in scaled[a]))
    states = [{s: (1, s[1]) for s in finals}]
    for layer in reversed(layers[:-1]):
        nxt, cur = states[-1], {}
        for a, P in layer:
            cw = [nxt[d, P * q] for d, q in scaled[a] if (d, P * q) in nxt]
            if cw:
                cur[a, P] = sum(c for c, _ in cw), sum(w for _, w in cw)
        states.append(cur)
    return states[::-1]


def level_classes_reference(stage):
    """Per level, the distinct (fine lam, nested lam, nu, count) of its blocks,
    merged from the parent classes and the family classes as CantorStage
    once did on every call, in the order the block list first meets them."""
    out, parents = [], [(stage.root_lam, F(1), 1)]      # (lam, nu, count)
    for lvl in stage.levels:
        merged = {}
        for p_lam, p_nu, p_cnt in parents:
            for s_lam, s_nu, s_cnt in lvl.family.classes.values():
                key = (p_lam * s_lam, p_nu * s_nu)
                merged[key] = merged.get(key, 0) + p_cnt * s_cnt
        out.append([(lam, lam * lvl.nested_rel, nu, cnt) for (lam, nu), cnt in merged.items()])
        parents = [(lam_n, nu, cnt) for _, lam_n, nu, cnt in out[-1]]
    return out


def weighted_chain(W):
    """The chain whose rows are the integer weights W normalized, after a
    cycle through every state and a loop at state 0 make it primitive."""
    D = len(W)
    for i in range(D):
        W[i][(i + 1) % D] = max(W[i][(i + 1) % D], 1)
    W[0][0] = max(W[0][0], 1)
    M = [[F(w, sum(row)) for w in row] for row in W]
    return MarkovLinear(M, stationary_vector(M))


@st.composite
def primitive_chains(draw, max_states=6):
    """Chains on 2 to max_states states from weights 0..3, so that zero entries
    (rows that end in zeros among them) are common and the cut table's
    thresholds often coincide across rows."""
    D = draw(st.integers(2, max_states))
    return weighted_chain([draw(st.lists(st.integers(0, 3), min_size=D, max_size=D))
                           for _ in range(D)])
