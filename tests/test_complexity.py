"""Complexity gates read off deterministic operation counts.

The count is the number of symbols BiSeq.window builds during one call,
or the number of points one call moves along an orbit; neither depends on
the machine. A gate asserts how that count grows with the input, so a
per-index or quadratic path that comes back fails here even while every
result stays right (growth measured as in Goldsmith, Aiken and
Wilkerson, *Measuring empirical computational complexity*, FSE 2007).
"""

import random
import sys
from fractions import Fraction

import pytest

from nexpansive import space
from nexpansive.base import (BiSeq, base_dist, dyadic, periodic_point,
                             right_tails_agree)
from nexpansive.expansivity import dynamic_ball
from nexpansive.samples import (drifting_two_sided_orbit, hop_pseudo_orbit,
                                switching_limit_orbit)
from nexpansive.shadowing import (limit_shadow, shadow_pseudo_orbit,
                                  two_sided_limit_shadow)
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


def orbit_moves(monkeypatch, call):
    """(result, moves) of one call(), counting the calls of BiSeq.shift and
    of space.aug_iterate under every name the package binds it to."""
    moves = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal moves
            moves += 1
            return fn(*args)
        return wrapper

    plain = space.aug_iterate
    with monkeypatch.context() as m:
        m.setattr(BiSeq, "shift", counted(BiSeq.shift))
        for name, module in list(sys.modules.items()):
            if (name.startswith("nexpansive")
                    and getattr(module, "aug_iterate", None) is plain):
                m.setattr(module, "aug_iterate", counted(plain))
        result = call()
    return result, moves


def test_switching_orbit_builds_per_run(monkeypatch):
    # The generator emits per region its carrier and at most four one-point
    # defect runs, each pulled back to time 0 by two shifts, and the
    # constructor checks the run breaks on windows; so the points moved
    # grow by one region's four defects per stage: 46 -> 54 -> 62. Building
    # every point and pulling it back moves about three per point: 1,536
    # -> 3,072 -> 6,144, 2x per stage.
    counts = []
    for stages in (9, 10, 11):
        _, moves = orbit_moves(monkeypatch,
                               lambda: switching_limit_orbit(stages=stages))
        counts.append(moves)
    assert counts[0] > 0
    for small, large in zip(counts, counts[1:]):
        assert large <= 1.5 * small, counts


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
    # for the windows that widen with the schedule's finer entries: 9,917
    # -> 21,233 -> 41,513 symbols over these stages. One trace per stage
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


def test_near_mismatch_reads_the_same_symbols_at_every_level(monkeypatch):
    # bench/run.py's case "base_dist near k=K": the nearest mismatch of
    # p(k) and p(k + 1).shift(k // 2) is at index -1, and the outward scan
    # stops there, so it reads one probe window whatever the period (66
    # symbols at every k). Opening the scan at the Fine-Wilf cap, r =
    # right_cap(x, y, hi + 1) - hi in place of _PROBE, reads a window as
    # wide as the periods (526 -> 1,038 -> 2,062 -> 4,110) and fails this
    # gate.
    counts = []
    for k in (64, 128, 256, 512):
        x, y = periodic_point(k), periodic_point(k + 1).shift(k // 2)
        _, symbols = window_symbols(monkeypatch, lambda: base_dist(x, y))
        counts.append(symbols)
    assert counts[0] > 0 and len(set(counts)) == 1, counts


def test_far_mismatch_grows_linearly_in_the_level(monkeypatch):
    # bench/run.py's case "base_dist far k=K": the nearest mismatch of
    # p(k) and p(k + 1) lies k away, and the scan doubles its radius until
    # it gets there, so its symbols grow linearly in k: 454 -> 968 -> 1,994 ->
    # 4,044 over these levels, at most 2.2x per doubling. Growing the
    # radius by _PROBE per round instead of doubling it reads k / _PROBE
    # windows of width up to 2k, quadratic (648 -> 2,320 -> 8,736 ->
    # 33,856), and fails this gate.
    counts = []
    for k in (64, 128, 256, 512):
        x, y = periodic_point(k), periodic_point(k + 1)
        _, symbols = window_symbols(monkeypatch, lambda: base_dist(x, y))
        counts.append(symbols)
    assert counts[0] > 0
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.2 * small, counts


def test_standard_trace_grows_linearly_in_the_length(monkeypatch):
    # shadow_pseudo_orbit checks each run break on the window its bound
    # fixes, spells each run in one slice and verifies one window per run,
    # so a hop orbit's trace reads symbols in proportion to its runs:
    # 1,264 -> 2,420 -> 4,548 -> 9,205 over these lengths, at most 2.2x
    # per doubling. Reading each break's window in base.base_shadow from
    # the first time on, and comparing only its last 2e + 1 symbols, is
    # quadratic (5,348 -> 22,354 -> 80,250 -> 341,591) and fails this gate.
    counts = []
    for length in (100, 200, 400, 800):
        po = hop_pseudo_orbit(AugSystem(3), random.Random(5), length=length,
                              delta_exp=6)
        _, symbols = window_symbols(monkeypatch, lambda: (
            shadow_pseudo_orbit(po, Fraction(1, 4))))
        counts.append(symbols)
    assert counts[0] > 0
    for small, large in zip(counts, counts[1:]):
        assert large <= 2.2 * small, counts
