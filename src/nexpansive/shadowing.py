"""Pseudo-orbit tracing: standard, limit and two-sided limit variants.

Every engine here returns a point whose tracking quality has been verified
in exact arithmetic, one window per run, before it is handed back; the
verifier is part of the postcondition, not an afterthought. A bound is
checked on the window it fixes: a base distance is below 2**-e exactly
when the two sequences agree on [-e, e], so jump, tracking and
specification bounds compare windows and exact distances are computed only
where they are reported (failed checks and verify_shadow). Finite prefixes
stand in for infinite data throughout: a limit statement is always checked
as a schedule of thresholds with recorded achievement indices, each read
off one mismatch mask per run (space.failure_times), and schedules are
caller data, never invented here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from nexpansive.base import (HALF, agree_radius, assemble, base_shadow,
                             dyadic, glue_specification)
from nexpansive.space import (
    AugPoint,
    BasePoint,
    ExtraPoint,
    aug_dist,
    aug_iterate,
    canonical_key,
    dist_below,
    failure_times,
    mirror_point,
    orbit_worst,
    project,
    stages_within,
)
from nexpansive.expansivity import (
    _stable_entry_time,
    in_local_stable,
    in_stable_set,
    local_stable_radius,
    stable_class_count,
)


# The stable-set scale of the limit tracers; stage j traces at AMBIENT/(j+1).
AMBIENT = Fraction(1, 4)


class ScheduleError(ValueError):
    """The schedule and prefix cannot support the requested procedure."""


class IsolationError(ValueError):
    """Satellite orbits cannot be glued to anything below their isolation
    distance, so the requested specification or gluing does not exist."""


class DecayThresholdError(ValueError):
    """No candidate point achieved every requested decay threshold; the
    traced window is too short for the smallest threshold. The message
    lists the thresholds that no candidate reached."""


@dataclass(frozen=True)
class ShadowModulus:
    """The arithmetic of the tracing guarantee at quality eps.

    Base pseudo-orbits with dyadic gap bound ``base_eps`` are traced within
    ``base_eps`` <= eps/2; projecting a pseudo-orbit of the augmented
    system costs at most 1/m per comparison and three such costs must stay
    below the base gap bound, whence 1/m < min(eps/2, base_eps/3). The
    final tracking error is then eps/2 + 1/m < eps as an exact inequality.
    """

    eps: Fraction
    base_exp: int
    base_eps: Fraction
    m: int

    @property
    def delta(self):
        return Fraction(1, self.m)


def shadow_modulus(eps):
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = max(1, agree_radius(eps / 2, False))
    need = min(eps / 2, dyadic(n) / 3)
    m = int(1 / need) + 1
    return ShadowModulus(eps=eps, base_exp=n, base_eps=dyadic(n), m=m)


def _normalize_schedule(schedule):
    if not isinstance(schedule, (tuple, list)):
        schedule = ((0, schedule),)
    schedule = tuple((int(k), Fraction(b)) for k, b in schedule)
    if not schedule:
        raise ValueError("schedule must not be empty")
    ks = [k for k, _ in schedule]
    bs = [b for _, b in schedule]
    if ks[0] < 0 or any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError("schedule indices must be nonnegative and increasing")
    if bs[-1] <= 0 or any(a <= b for a, b in zip(bs, bs[1:])):
        raise ValueError("schedule bounds must be positive and decreasing")
    return schedule


@dataclass(frozen=True, init=False)
class PseudoOrbit:
    """Points at the times start..end with a jump schedule, kept as runs.

    The jump at time t is d(f(x_t), x_{t+1}). Each schedule entry
    (k, bound), indices strictly increasing and bounds strictly decreasing,
    promises every jump at a time t >= k or t <= -k - 1 strictly below
    bound; a bare bound delta stands for ((0, delta),), one bound on every
    jump. The window must contain time zero.

    Only the runs are stored, the maximal stretches of times joined by zero
    jumps (f(x_t) == x_{t+1}): (first, last, x) in time order, the point
    at time t of the run being aug_iterate(x, t). Every run break the
    schedule covers is checked against the tightest entry covering its
    time, on the window that entry's bound fixes (space.dist_below); the
    exact jump appears only in the error message. from_runs takes the runs
    themselves through the same check; the two halves of a two-sided trace
    are the unchecked derivations (_derived).
    """

    schedule: tuple
    runs: tuple

    def __init__(self, points, schedule, start=0):
        self._settle(schedule, ((t, t, aug_iterate(p, -t))
                                for t, p in enumerate(points, start)))

    @classmethod
    def from_runs(cls, schedule, runs):
        """The pseudo-orbit of runs (first, last, x) that follow each other
        in time, x the run's point at time 0: what the constructor makes
        of their points, at a cost per run rather than per point."""
        return object.__new__(cls)._settle(schedule, runs)

    def _settle(self, schedule, runs):
        """Merge neighbours with equal x, then check and store the runs."""
        schedule = _normalize_schedule(schedule)
        merged = []
        for first, last, x in runs:
            if first > last or merged and first != merged[-1][1] + 1:
                raise ValueError(f"run {first}..{last} is empty or does "
                                 "not follow the run before it")
            if merged and merged[-1][2] == x:
                merged[-1][1] = last
            else:
                merged.append([first, last, x])
        if not merged:
            raise ValueError("pseudo-orbit must contain at least one point")
        if not merged[0][0] <= 0 <= merged[-1][1]:
            raise ValueError("window must contain time zero")
        ks = [k for k, _ in schedule]
        for (_, t, x), (_, _, y) in zip(merged, merged[1:]):
            # the first entry covers the most: times before -k0 and from k0 on
            reach = t if t >= 0 else -t - 1
            if reach < ks[0]:
                continue
            k, bound = schedule[bisect_right(ks, reach) - 1]
            if not dist_below(x, y, bound, t + 1):
                jump = aug_dist(aug_iterate(x, t + 1), aug_iterate(y, t + 1))
                raise ValueError(
                    f"jump {jump} at time {t} (index {t - merged[0][0]}) "
                    f"violates bound {bound} from |t| >= {k}")
        return self._store(schedule, map(tuple, merged))

    def _store(self, schedule, runs):
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "runs", tuple(runs))
        return self

    @classmethod
    def _derived(cls, schedule, runs):
        """Store a normalized schedule and maximal runs valid under it,
        unchecked, as derived from a checked pseudo-orbit."""
        return object.__new__(cls)._store(schedule, runs)

    @property
    def delta(self):
        """The bound on every jump: the bound of an index-0 entry, or None."""
        k, bound = self.schedule[0]
        return bound if k == 0 else None

    @property
    def start(self):
        return self.runs[0][0]

    @property
    def end(self):
        return self.runs[-1][1]

    @property
    def points(self):
        """The points at the times start..end, built on each read."""
        return tuple(aug_iterate(x, t) for first, last, x in self.runs
                     for t in range(first, last + 1))

    def at(self, time):
        if not self.start <= time <= self.end:
            raise ValueError(f"time {time} lies outside {self.start}..{self.end}")
        i = bisect_right(self.runs, time, key=lambda run: run[0]) - 1
        return aug_iterate(self.runs[i][2], time)


@dataclass(frozen=True)
class ShadowCheck:
    ok: bool
    eps: Fraction
    worst_index: int
    worst_dist: Fraction


def verify_shadow(po, y, eps):
    """Exact check that y tracks the pseudo-orbit within eps at every index.

    The point at time s of the pseudo-orbit is compared against the s-th
    image of y, one run at a time (space.orbit_worst); the report carries
    the first index of the worst distance and that exact distance. The
    comparison is non-strict so that eps equal to the diameter accepts
    every point.
    """
    t, worst = orbit_worst(y, po)
    return ShadowCheck(ok=worst <= eps, eps=eps,
                       worst_index=t - po.start, worst_dist=worst)


def shadow_pseudo_orbit(po, eps):
    """A point whose orbit traces the pseudo-orbit within eps.

    The point sits at time zero: its t-th image tracks po.at(t). Requires
    a uniform jump bound po.delta <= 1/m for the modulus of eps. It is the
    one-key case of the limit tracers' stage pass (_trace_stages), the key
    (po.start, m, base_exp) at resolution eps: a pseudo-orbit touching a
    satellite of level below m is that satellite's orbit; otherwise the
    projected runs are traced by a base point within eps/2 (base_shadow,
    one slice per run), the combined error stays below eps, and the result
    is verified at every time, one window per run (space.stages_within).
    """
    mod = shadow_modulus(eps)
    if po.delta is None:
        raise ValueError("tracing needs a uniform jump bound: a schedule "
                         "entry at index 0")
    if po.delta > mod.delta:
        raise ValueError(
            f"pseudo-orbit delta {po.delta} is too coarse; tracing at eps={eps} "
            f"needs delta <= {mod.delta}")
    key = po.start, mod.m, mod.base_exp
    return aug_iterate(_trace_stages(po, {key: eps})[key], -po.start)


def specification_spacing(eps):
    """Interval spacing under which specifications are traced within eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 2 * agree_radius(eps, False) + 1


def shadow_specification(segments, eps):
    """A single point tracing every glue segment ((a, b), point) within eps:
    at each time t in [a, b] the target is aug_iterate(point, t - a).

    Gluing happens in the base (glue_specification, which rejects empty
    and unordered intervals), where distant coordinate windows are
    independent; satellite points are isolated by 1/k and cannot be glued
    below that, so they are rejected. The returned point is verified
    strictly within eps on one window per interval: the segment's own on
    [a, b], widened by m - 1 for m = agree_radius(eps, True).
    """
    for _, p in segments:
        if isinstance(p, ExtraPoint):
            raise IsolationError(
                f"{p} is isolated at distance 1/{p.k}; specifications must "
                "use base points")
    spacing = specification_spacing(eps)
    prev = None
    for (a, b), _ in segments:
        if prev is not None and a < prev + spacing:
            raise ScheduleError(
                f"intervals must be {spacing}-spaced for eps={eps}")
        prev = b
    glued = glue_specification([(ab, p.seq) for ab, p in segments], spacing)
    m = agree_radius(eps, True)
    for (a, b), p in segments:
        # the widened copy forbids a failure here
        if glued.window(a - m + 1, b + m) != p.seq.window(1 - m, b - a + m):
            raise RuntimeError(  # pragma: no cover
                f"specification trace failed on [{a}, {b}]")
    return BasePoint(glued)


@dataclass(frozen=True)
class LimitStage:
    resolution: Fraction
    start_index: int
    gap_bound: Fraction
    consistent: bool


@dataclass(frozen=True)
class LimitShadowReport:
    point: AugPoint
    decay: tuple          # ((threshold, first index), ...)
    stages: tuple
    stabilization: int
    candidates: tuple     # canonical keys of the representatives tried


def _decays(y, po, thresholds):
    """((threshold, first index), ...): for each threshold, the first index
    from which every distance d(aug_iterate(y, t), po.at(t)) stays strictly
    below it, or None. Indices count the steps from time 0 over [0,
    po.end], po starting at time 0; the past is read through the mirror
    (_mirror_limit_orbit).

    The index is one past the last failing time (space.failure_times), or
    0 when none fails. That tail must hold at least two entries; a single
    matching value at the very end is no evidence of decay (the traced
    point always agrees with the final pseudo-orbit entry by
    construction).
    """
    out = []
    for th, t in zip(thresholds, failure_times(y, po, thresholds)):
        idx = 0 if t is None else t + 1
        out.append((th, idx if idx < po.end else None))
    return tuple(out)


def _check_thresholds(thresholds):
    if any(th <= 0 for th in thresholds):
        raise ValueError("thresholds must be positive")


def _trace_stages(lpo, finest):
    """{key: point at its start} for stage keys (start, m, base_exp),
    listed by start: a point tracing lpo from that start on within
    finest[key], lpo's jumps from there on below 1/m, all in one pass in
    lpo's own time. A valid tail touching a satellite of level below m is
    one run of it, the last (it lies over 1/m from every other point),
    traced by its own point. The other keys' points are one base_shadow
    word from the first such start s0, each over the carrier of the run
    holding its start (the word itself at s0, whose carrier base_shadow
    already spells below s0), verified in one sweep (space.stages_within).
    """
    runs, traced, stages = lpo.runs, {}, []
    final = runs[-1][2]
    for key, res in finest.items():
        s, m, _ = key
        if isinstance(final, ExtraPoint) and final.k < m:
            traced[key] = aug_iterate(final, s)
        else:
            i = bisect_right(runs, s, key=lambda run: run[0]) - 1
            stages.append((key, res, project(runs[i][2])))
    if not stages:
        return traced
    (s0, _, e0), _, _ = stages[0]
    y = base_shadow([(max(a, s0), b, project(x)) for a, b, x in runs
                     if b >= s0], e0)
    # the modulus arithmetic forbids a failure here
    if not stages_within(BasePoint(y), lpo, [(key[0], res, c)
                                             for key, res, c in stages]):
        raise RuntimeError(  # pragma: no cover
            "traced stage points failed their own verification")
    for (s, m, e), _, c in stages:
        word = y if s == s0 else assemble(c, s, "", s, y, 0)
        traced[s, m, e] = BasePoint(word.shift(s))
    return traced


def limit_shadow(sys, lpo, thresholds=None):
    """Trace a limit pseudo-orbit by a point with vanishing forward error.

    Works in stages: stage j retraces the tail of the prefix from the
    first schedule index whose bound meets the tracing modulus for
    resolution AMBIENT/(j+1), then pulls the traced point back to time
    zero. Finer resolutions keep producing stages as long as the schedule
    supports them, up to eight; three stages are the minimum. Stages that
    share their start and modulus share one key, and the keys share one
    spelled word and one verifying sweep (_trace_stages). The stage-1
    point's stable classes (at the iterate where their count stabilizes
    within 16 steps) provide finitely many candidates, and the candidate
    whose forward distance to the prefix passes every requested threshold
    is returned with the index where each threshold is reached. Thresholds
    must be positive and default to the schedule bounds in the prefix. The
    pseudo-orbit must be a forward prefix starting at time zero.
    """
    if thresholds is not None:
        _check_thresholds(thresholds)
    if lpo.start != 0:
        raise ScheduleError("limit tracing needs a prefix starting at time 0")
    stages = []
    for j in range(1, 9):
        res = AMBIENT / (j + 1)
        mod = shadow_modulus(res)
        entry = next(((k, b) for k, b in lpo.schedule if b <= mod.delta), None)
        if entry is None or entry[0] >= lpo.end:
            break
        stages.append((res, (entry[0], mod.m, mod.base_exp)))
    if len(stages) < 3:
        raise ScheduleError(
            "prefix too short relative to the schedule: "
            f"only {len(stages)} usable stages")
    # Stages with one key (start, m, base_exp) trace the same tail with the
    # same modulus, hence to the same point, verified at the key's finest
    # resolution, the last one listed, which implies the coarser ones.
    finest = {key: res for res, key in stages}
    traced = _trace_stages(lpo, finest)
    # a stage's point sits at its start; stage 1's, at time 0, is the reference
    first = aug_iterate(traced[stages[0][1]], -stages[0][1][0])
    consistent = {key: in_local_stable(point, aug_iterate(first, key[0]),
                                       AMBIENT)
                  for key, point in traced.items()}
    stage_reports = tuple(
        LimitStage(resolution=res, start_index=key[0],
                   gap_bound=Fraction(1, key[1]), consistent=consistent[key])
        for res, key in stages)
    # stabilization_index(sys, first, AMBIENT, 16) without its class count
    entry = _stable_entry_time(first, AMBIENT, sys.multiplicity)
    stab = entry if entry < 16 else 0
    anchor = aug_iterate(first, stab)
    reps = stable_class_count(sys, anchor, AMBIENT).representatives
    candidates = [aug_iterate(r, -stab) for r in reps]
    if thresholds is None:
        thresholds = tuple(b for k, b in lpo.schedule if k <= lpo.end)
    missed = set(thresholds)
    for cand in candidates:
        decay = _decays(cand, lpo, thresholds)
        if all(idx is not None for _, idx in decay):
            break
        missed &= {th for th, idx in decay if idx is None}
    else:
        raise DecayThresholdError(
            f"none of {len(candidates)} candidates decays through "
            f"{[str(t) for t in thresholds if t in missed]}")
    return LimitShadowReport(
        point=cand, decay=decay, stages=stage_reports,
        stabilization=stab,
        candidates=tuple(canonical_key(c) for c in candidates))


@dataclass(frozen=True)
class TwoSidedShadowReport:
    point: AugPoint
    past_point: AugPoint
    future_point: AugPoint
    eps: Fraction | None
    delta: Fraction | None
    glue_eps: Fraction | None
    spacing: int | None
    junction: int | None
    past_decay: tuple
    future_decay: tuple


def _mirror_limit_orbit(tslpo):
    """The past half of a two-sided pseudo-orbit, conjugated to run forward.

    Sequence reversal is an isometric conjugacy between the map and its
    inverse, so a run (a, b, x) with a <= 0 mirrors to (-min(b, 0), -a,
    mirror_point(x)), and the conjugacy proves what a check would find.
    Breaks map to breaks, time t's to time s = -t - 1's, and mirror_point
    is injective, so the runs stay maximal. The mirrored jump at s is
    d(f^-1(x_{t+1}), x_t), at most twice the jump at t, since the inverse
    map stretches distances by at most the base shift's factor two; and an
    entry (k, b) covers t <= -k - 1, that is s >= k. So the runs are valid
    under the original schedule with doubled bounds, unchecked (_derived).
    """
    return PseudoOrbit._derived(
        tuple((k, 2 * b) for k, b in tslpo.schedule),
        [(-min(b, 0), -a, mirror_point(x))
         for a, b, x in reversed(tslpo.runs) if a <= 0])


def _trace_half(sys, lpo, thresholds, side):
    """limit_shadow of one half, naming the half when it is too short to
    trace or misses a threshold."""
    try:
        return limit_shadow(sys, lpo, thresholds=thresholds)
    except DecayThresholdError as exc:
        raise DecayThresholdError(
            f"{side} tail does not reach every threshold within its "
            f"{lpo.end} steps: {exc}") from None
    except ScheduleError as exc:
        raise ScheduleError(
            f"{side} tail of {lpo.end} steps is too short to limit-trace: "
            f"{exc}") from None


def two_sided_limit_shadow(sys, tslpo, thresholds=(HALF, HALF ** 2, HALF ** 3,
                                                   HALF ** 4)):
    """Trace a two-sided limit pseudo-orbit with both tails vanishing.

    The past half (run backwards through the mirror conjugacy) and the
    future half are limit-traced separately. When both traced points are
    base points they are glued: two one-time segments pin the past
    point's orbit at time -N and the future point's at time N, N the
    junction from which both tails stay within the gluing bound,
    shadow_specification glues them in the base, and the resulting
    three-piece pseudo-orbit is traced at the smaller of the two uniform
    local-stable radii. That radius forces the final point into the
    unstable set of the past point and the stable set of the future
    point, which is verified exactly, as are the requested decay
    thresholds on both tails.

    A pair of tails falling into one and the same satellite orbit is
    traced by that orbit directly; tails in distinct satellite orbits
    cannot be glued below their isolation distance and raise. Thresholds
    must be positive.

    The future half is the runs from time 0 on, under the same schedule,
    unchecked (_derived): an entry covers a break after time t >= 0 in the
    half exactly when it does in tslpo, where it was checked, and a slice
    of maximal runs stays maximal, so no run is re-based or rechecked.
    """
    _check_thresholds(thresholds)
    past_half = _mirror_limit_orbit(tslpo)
    past_report = _trace_half(sys, past_half, thresholds, "past")
    future_half = PseudoOrbit._derived(tslpo.schedule, [
        (max(a, 0), b, x) for a, b, x in tslpo.runs if b >= 0])
    future_report = _trace_half(sys, future_half, thresholds, "future")
    p1 = mirror_point(past_report.point)
    p2 = future_report.point
    eps = delta = glue_eps = None
    spacing = junction = None
    if isinstance(p1, ExtraPoint) or isinstance(p2, ExtraPoint):
        if p1 != p2:
            raise IsolationError(
                f"tails converge to {p1} and {p2}, which cannot be glued "
                "below their isolation distance")
        final = p1
    else:
        eps = min(local_stable_radius(sys, past_report.point, AMBIENT),
                  local_stable_radius(sys, p2, AMBIENT))
        delta = shadow_modulus(eps).delta
        glue_eps = delta / 4
        spacing = specification_spacing(glue_eps)
        junction = (spacing + 1) // 2
        # the mirror is an isometry, so the past half's distances to the
        # traced past point are those of the past to p1's orbit
        for side, point, half in (("past", past_report.point, past_half),
                                  ("future", p2, future_half)):
            [(_, idx)] = _decays(point, half, (delta,))
            if idx is None:
                raise ScheduleError(
                    f"{side} tail never comes within the gluing bound {delta}")
            junction = max(junction, idx)
        if junction > min(-tslpo.start, tslpo.end) - 1:
            raise ScheduleError(
                f"window too short: gluing needs both tails within "
                f"{delta} by time {junction}")
        z = shadow_specification(
            [((-junction, -junction), aug_iterate(p1, -junction)),
             ((junction, junction), aug_iterate(p2, junction))], glue_eps)
        glued = PseudoOrbit.from_runs(delta, [
            (tslpo.start, -junction - 1, p1), (-junction, junction, z),
            (junction + 1, tslpo.end, p2)])
        final = shadow_pseudo_orbit(glued, eps)
    # the mirror carries the past forward: the unstable set of p1 is the
    # mirrored stable set of the traced past point
    mirrored = mirror_point(final)
    if (not in_stable_set(mirrored, past_report.point)
            or not in_stable_set(final, p2)):
        raise RuntimeError(  # pragma: no cover - construction guarantees both
            "glued trace lost a tail equivalence")
    past_decay, future_decay = (_decays(mirrored, past_half, thresholds),
                                _decays(final, future_half, thresholds))
    for side, decay in (("past", past_decay), ("future", future_decay)):
        missing = [str(th) for th, idx in decay if idx is None]
        if missing:
            raise DecayThresholdError(
                f"{side} tail never reaches thresholds {missing}")
    return TwoSidedShadowReport(
        point=final, past_point=p1, future_point=p2,
        eps=eps, delta=delta, glue_eps=glue_eps, spacing=spacing,
        junction=junction, past_decay=past_decay, future_decay=future_decay)
