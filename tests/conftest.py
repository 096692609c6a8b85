import math
import os
import tempfile
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import settings
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


def float_orbit_start_reference(measure, seeds):
    """One generator per trial seed and the start points x ~ measure they draw."""
    rngs = [np.random.default_rng(s) for s in seeds]
    return rngs, np.array([measure.sample(r, 1)[0] for r in rngs])


def blaschke_step_reference(m, t):
    """Float T(t) of a Blaschke boundary map as one numpy expression, with a
    fresh array per operation: the reference that BlaschkeBoundary.stepper
    must match bit for bit."""
    z = np.exp(2j * np.pi * t)
    w = np.ones_like(z)
    for a in m.zeros:
        w = w * z if a == 0 else w * (abs(a) / a) * (z - a) / (1 - np.conj(a) * z)
    return np.mod(np.angle(w) / (2 * np.pi), 1.0)


def float_orbit_step_reference(m, measure, x, rngs):
    """(T x, restarts) for the float orbits of all trials, one step per n:
    the reference that measures.float_orbit_blocks must match bit for bit.
    A Gauss step is np.modf(1/x), a Blaschke step blaschke_step_reference,
    and an orbit that ends (T x = 0) restarts from its own trial's
    generator, in ascending trial order.  1/x of a subnormal start
    overflows to inf, whose fractional part is 0."""
    with np.errstate(over="ignore"):
        x = np.modf(1.0 / x)[0] if isinstance(m, GaussMap) else blaschke_step_reference(m, x)
    if not isinstance(m, GaussMap) or np.count_nonzero(x) == len(x):
        return x, 0
    ended = np.flatnonzero(x == 0)
    for t in ended:
        x[t] = measure.sample(rngs[t], 1)[0]
    return x, len(ended)


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
