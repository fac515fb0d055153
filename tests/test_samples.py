"""The run-emitting generators against the per-point generators they
replaced (oracles.per_point_*): equal runs and schedules, equal errors,
and for hop orbits the same random numbers drawn."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexpansive.samples import (drifting_two_sided_orbit, hop_pseudo_orbit,
                                switching_limit_orbit)
from nexpansive.shadowing import PseudoOrbit
from nexpansive.space import AugSystem
from oracles import per_point_drifting, per_point_hop, per_point_switching

WORDS = st.text("01", min_size=1, max_size=4)
SYSTEMS = (AugSystem(2, "standard", 64), AugSystem(3, "standard", 64),
           AugSystem(3, "finite_expansive", 64))


def assert_same_orbit(build, oracle):
    """build() stores the runs and schedule of PseudoOrbit(*oracle()), or
    raises the same ValueError."""
    try:
        want = PseudoOrbit(*oracle())
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build()
        return
    got = build()
    assert got.schedule == want.schedule
    assert got.runs == want.runs


@pytest.mark.parametrize("stages", range(1, 15))
@pytest.mark.parametrize("words", [("001", "01"), ("011", "0001")])
def test_switching_matches_the_per_point_build(words, stages):
    assert_same_orbit(lambda: switching_limit_orbit(*words, stages=stages),
                      lambda: per_point_switching(*words, stages=stages))


@settings(max_examples=60, deadline=None)
@given(WORDS, WORDS, st.integers(1, 10))
def test_switching_matches_on_drawn_words(word_a, word_b, stages):
    assert_same_orbit(
        lambda: switching_limit_orbit(word_a, word_b, stages=stages),
        lambda: per_point_switching(word_a, word_b, stages=stages))


@settings(max_examples=60, deadline=None)
@given(WORDS, WORDS, st.integers(8, 2048), st.integers(1, 5))
def test_drifting_matches_the_per_point_build(past, future, half, step):
    assert_same_orbit(
        lambda: drifting_two_sided_orbit(past, future, half=half,
                                         defect_step=step),
        lambda: per_point_drifting(past, future, half=half, defect_step=step))


@pytest.mark.parametrize("half", [0, 1, 7, 9])
def test_drifting_short_windows(half):
    assert_same_orbit(lambda: drifting_two_sided_orbit(half=half),
                      lambda: per_point_drifting(half=half))


def test_drifting_refuses_a_non_positive_step():
    with pytest.raises(ValueError, match="defect_step must be positive"):
        drifting_two_sided_orbit(half=16, defect_step=0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10), st.integers(1, 100),
       st.sampled_from(SYSTEMS))
def test_hop_matches_the_per_point_build(seed, delta_exp, length, system):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    assert_same_orbit(
        lambda: hop_pseudo_orbit(system, rng, length=length,
                                 delta_exp=delta_exp),
        lambda: per_point_hop(system, oracle_rng, length=length,
                              delta_exp=delta_exp))
    # the same numbers were drawn, so the next orbit of a seeded sequence
    # is the same too
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("runs, message", [
    ([], "at least one point"),
    ([(0, 2, "x"), (4, 5, "y")], "run 4..5 is empty or does not follow"),
    ([(0, 2, "x"), (3, 2, "y")], "run 3..2 is empty or does not follow"),
    ([(1, 2, "x")], "window must contain time zero"),
])
def test_from_runs_refuses_runs_that_do_not_tile_a_window(runs, message):
    with pytest.raises(ValueError, match=message):
        PseudoOrbit.from_runs(1, runs)
