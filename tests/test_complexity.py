"""Complexity gates read off deterministic operation counts.

The count is the number of symbols BiSeq.window builds during one call,
which does not depend on the machine. A gate asserts how that count grows
with the input, so a per-index or quadratic path that comes back fails
here even while every result stays right (growth measured as in
Goldsmith, Aiken and Wilkerson, *Measuring empirical computational
complexity*, FSE 2007).
"""

from fractions import Fraction

import pytest

from nexpansive.base import BiSeq, dyadic, periodic_point, right_tails_agree
from nexpansive.expansivity import dynamic_ball
from nexpansive.samples import drifting_two_sided_orbit, switching_limit_orbit
from nexpansive.shadowing import limit_shadow, two_sided_limit_shadow
from nexpansive.space import AugSystem, BasePoint, ExtraPoint


def window_symbols(monkeypatch, call):
    """(result, symbols) of one call(), counting what BiSeq.window builds."""
    plain = BiSeq.window
    symbols = 0

    def counted(self, lo, hi):
        nonlocal symbols
        word = plain(self, lo, hi)
        symbols += len(word)
        return word

    with monkeypatch.context() as m:
        m.setattr(BiSeq, "window", counted)
        result = call()
    return result, symbols


def test_two_sided_trace_grows_linearly_in_the_half(monkeypatch):
    # The trace reads one window per run of each half, of a width its
    # thresholds and jump bounds fix, and spells the traced point once, so
    # its symbols grow linearly: 2x per doubling, plus 10% for the few
    # windows that grow with a schedule entry. Re-checking each mirrored
    # run break would read a window about |t|/2 wide at time t, which is
    # quadratic (2.55x and 2.79x per doubling over these halves).
    system = AugSystem(3, "standard", 50)
    thresholds = tuple(dyadic(t) for t in range(1, 5))
    counts = []
    for half in (256, 512, 1024):
        tslpo = drifting_two_sided_orbit(half=half)
        _, symbols = window_symbols(monkeypatch, lambda: (
            two_sided_limit_shadow(system, tslpo, thresholds=thresholds)))
        counts.append(symbols)
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.2 * small, counts


@pytest.mark.parametrize("k", [64, 128, 256])
def test_unequal_tail_periods_read_no_symbols(monkeypatch, k):
    # Canonical right periods are primitive, hence least periods: tails of
    # periods k + 1 and k + 2 never agree, and their lengths say so. A
    # mismatch scan would read about 2k symbols up to the Fine-Wilf cap.
    x, y = periodic_point(k), periodic_point(k + 1)
    agree, symbols = window_symbols(monkeypatch,
                                    lambda: right_tails_agree(x, y))
    assert not agree
    assert symbols == 0


def test_limit_trace_grows_linearly_in_the_prefix(monkeypatch):
    # The stage keys share one spelled word and one verifying sweep, and
    # the candidates' decays read one window per run, so the symbols grow
    # with the prefix: 2x per doubling of the points (2**stages), plus 10%
    # for the windows that widen with the schedule's finer entries: 10,945
    # -> 23,284 -> 45,613 symbols over these stages. One trace per stage
    # key (a re-based tail, a spelled word and a sweep each) read 11,762
    # -> 26,890 -> 54,082, 2.29x at the first doubling.
    system = AugSystem(3, "standard", 50)
    thresholds = tuple(dyadic(t) for t in range(1, 6))
    counts = []
    for stages in (9, 10, 11):
        lpo = switching_limit_orbit(stages=stages)
        _, symbols = window_symbols(monkeypatch, lambda: (
            limit_shadow(system, lpo, thresholds=thresholds)))
        counts.append(symbols)
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.2 * small, counts


@pytest.mark.parametrize("center", [BasePoint(periodic_point(5)),
                                    ExtraPoint(1, 5, 0)])
def test_horizon_ball_reads_the_same_symbols_at_every_horizon(monkeypatch,
                                                              center):
    # README: a horizon-mode ball costs one mismatch scan per pool point
    # whatever the horizon. The tag part of a distance is the same at every
    # time and the nearest mismatch to any |t| <= h is read off one scan
    # (space.window_sup_dist), so the symbols do not depend on h at all.
    # Comparing the 2h + 1 images one time at a time grows them with h
    # (14.2M -> 28.5M -> 56.6M symbols for the base center).
    system = AugSystem(3, "standard", 50)
    counts = []
    for horizon in (50, 100, 200):
        _, symbols = window_symbols(monkeypatch, lambda: dynamic_ball(
            system, center, Fraction(3, 4), mode="horizon", horizon=horizon))
        counts.append(symbols)
    assert counts[0] > 0 and len(set(counts)) == 1, counts
