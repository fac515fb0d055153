import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexpansive import samples, shadowing
from nexpansive.base import (BiSeq, base_shadow, dyadic, flip_symbol,
                             periodic_point)
from nexpansive.space import (
    AugSystem,
    BasePoint,
    ExtraPoint,
    aug_dist,
    aug_iterate,
    aug_map,
    canonical_key,
    mirror_point,
    project,
)
from nexpansive.expansivity import (
    StabilizationNotReached,
    in_local_stable,
    in_stable_set,
    stabilization_index,
    stable_class_count,
)
from nexpansive.shadowing import (
    AMBIENT,
    DecayThresholdError,
    IsolationError,
    LimitShadowReport,
    LimitStage,
    PseudoOrbit,
    ScheduleError,
    _decays,
    _mirror_limit_orbit,
    limit_shadow,
    shadow_modulus,
    shadow_pseudo_orbit,
    shadow_specification,
    specification_spacing,
    two_sided_limit_shadow,
    verify_shadow,
)
from nexpansive.samples import (
    drifting_two_sided_orbit,
    hop_pseudo_orbit,
    piecewise_periodic,
    random_point,
    switching_limit_orbit,
)
from oracles import (brute_decay_index, brute_left_tails_agree,
                     brute_orbit_dists, brute_runs, brute_schedule_ok,
                     per_key_trace, point_runs)

QUARTER = Fraction(1, 4)
SCHEDULE_BOUNDS = (*(dyadic(e) for e in range(8)), Fraction(1, 3),
                   Fraction(3, 16), Fraction(2, 3), Fraction(5, 8),
                   Fraction(19, 48), Fraction(5, 4), Fraction(9, 20))


class TestModulus:
    def test_quarter(self):
        mod = shadow_modulus(QUARTER)
        assert mod.base_eps == Fraction(1, 8)
        assert mod.m == 25
        assert mod.delta == Fraction(1, 25)

    def test_error_budget_closes(self):
        for eps in (QUARTER, Fraction(1, 8), Fraction(2, 7), Fraction(1, 3)):
            mod = shadow_modulus(eps)
            assert mod.base_eps <= eps / 2
            assert mod.delta < eps / 2
            assert 3 * mod.delta < mod.base_eps
            assert eps / 2 + mod.delta < eps


class TestPseudoOrbitTypes:
    def test_jump_validation(self):
        with pytest.raises(ValueError, match="index 0"):
            PseudoOrbit((BasePoint(BiSeq("0")), BasePoint(BiSeq("1"))),
                        Fraction(1, 4))
        PseudoOrbit((BasePoint(BiSeq("0")), BasePoint(BiSeq("0"))),
                    Fraction(1, 4))

    def test_limit_schedule_validation(self):
        zero = BasePoint(BiSeq("0"))
        pts = tuple(aug_iterate(zero, t) for t in range(8))
        PseudoOrbit(pts, ((0, Fraction(1, 2)), (2, Fraction(1, 4))))
        with pytest.raises(ValueError, match="decreasing"):
            PseudoOrbit(pts, ((0, Fraction(1, 4)), (2, Fraction(1, 2))))
        with pytest.raises(ValueError, match="increasing"):
            PseudoOrbit(pts, ((2, Fraction(1, 2)), (2, Fraction(1, 4))))

    def test_limit_gap_checks(self):
        zero = BasePoint(BiSeq("0"))
        spike = BasePoint(BiSeq("0", "1", "0", 6))
        pts = (zero, spike, aug_iterate(spike, 1), aug_iterate(spike, 2))
        # the jump into the spike point has size 2**-6
        PseudoOrbit(pts, ((0, Fraction(1, 32)),))
        with pytest.raises(ValueError, match="violates"):
            PseudoOrbit(pts, ((0, Fraction(1, 128)),))

    def test_two_sided_window_contains_zero(self):
        zero = BasePoint(BiSeq("0"))
        with pytest.raises(ValueError, match="zero"):
            PseudoOrbit((zero, zero), ((0, Fraction(1, 2)),), 3)

    def test_delta_is_the_index_zero_bound(self):
        zero = BasePoint(BiSeq("0"))
        assert PseudoOrbit((zero,), Fraction(1, 8)).delta == Fraction(1, 8)
        po = PseudoOrbit((zero, zero), ((1, Fraction(1, 8)),))
        assert po.delta is None
        with pytest.raises(ValueError, match="uniform jump bound"):
            shadow_pseudo_orbit(po, QUARTER)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_validation_matches_definition(self, data):
        # a true orbit with symbol flips at small depths, so jumps take
        # many dyadic values, and in half the examples satellites of levels
        # 1-4 (on the ridden orbit when it is a tagged one), whose jumps
        # add a tag 1/k;
        # bounds include non-dyadic ones and sums of a tag and a dyadic,
        # and schedules may repeat an index or a bound
        k = data.draw(st.integers(0, 4))
        if k:
            x = periodic_point(k)
        else:
            word = data.draw(st.text("01", min_size=1, max_size=4))
            x = BiSeq(word, data.draw(st.text("01", max_size=4)), "0")
        start = data.draw(st.integers(-6, 0))
        length = data.draw(st.integers(-start + 1, -start + 8))
        satellites = data.draw(st.booleans())
        points = []
        for t in range(start, start + length):
            level = data.draw(st.integers(0, 4)) if satellites else 0
            if level:
                phase = (t % (level + 1) if level == k
                         else data.draw(st.integers(0, level)))
                points.append(ExtraPoint(data.draw(st.integers(1, 2)), level,
                                         phase))
                continue
            seq = x.shift(t)
            for pos in data.draw(st.lists(st.integers(-6, 6), max_size=2)):
                seq = flip_symbol(seq, pos)
            points.append(BasePoint(seq))
        size = data.draw(st.integers(1, 3))
        ks = sorted(data.draw(st.lists(st.integers(0, 7), min_size=size,
                                       max_size=size)))
        bounds = sorted(data.draw(st.lists(st.sampled_from(SCHEDULE_BOUNDS),
                                           min_size=size, max_size=size)),
                        reverse=True)
        schedule = tuple(zip(ks, bounds))
        try:
            PseudoOrbit(points, schedule, start)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == brute_schedule_ok(points, start, schedule)

    @pytest.mark.parametrize("bound", SCHEDULE_BOUNDS)
    def test_jumps_on_either_side_of_the_bound(self, bound):
        # jumps 2**-n and tag + 2**-n for the n just around the bound's
        # window radius, with the mismatch on either side of index 0
        x = BiSeq("011", "1", "0")
        pairs = []
        for k in (None, 1, 2, 3, 4):
            tag = Fraction(1, k) if k else 0
            n = next(n for n in range(64) if dyadic(n) < bound - tag) \
                if bound > tag else 1
            for pos in {n - 1, n, n + 1, -n + 1, -n, -n - 1}:
                if k:
                    pairs.append((ExtraPoint(1, k, 0),
                                  BasePoint(flip_symbol(periodic_point(k)
                                                        .shift(1), pos))))
                else:
                    pairs.append((BasePoint(x),
                                  BasePoint(flip_symbol(x.shift(1), pos))))
        for a, b in pairs:
            jump = aug_dist(aug_map(a), b)
            try:
                PseudoOrbit((a, b), bound)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (jump < bound), (a, b, jump)

    def test_specification_ordering(self):
        zero = BasePoint(BiSeq("0"))
        for segments in ([((0, 3), zero), ((2, 5), zero)],
                         [((4, 5), zero), ((0, 1), zero)],
                         [((3, 1), zero)], []):
            with pytest.raises(ValueError):
                shadow_specification(segments, Fraction(2))


def _generator_input(build, *args, **kwargs):
    """(points, schedule, start) as a samples generator hands them to
    PseudoOrbit: the per-point form, before any run is formed."""
    with mock.patch.object(samples, "PseudoOrbit",
                           lambda pts, schedule, start=0:
                           (list(pts), schedule, start)):
        return build(*args, **kwargs)


def _sample_points(data):
    """(kind, points, schedule, start) for a hop, switching, drifting or
    mirrored drifting pseudo-orbit of small size, the points of a mirrored
    one being the drifting orbit's; a hop orbit may be moved to start
    below zero."""
    kind = data.draw(st.sampled_from(["hop", "switching", "drifting",
                                      "mirrored"]))
    if kind == "hop":
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        sys3 = AugSystem(3, "standard", 64)
        pts, bound, _ = _generator_input(
            hop_pseudo_orbit, sys3, rng, length=data.draw(st.integers(1, 40)),
            delta_exp=data.draw(st.integers(2, 8)))
        return kind, pts, bound, -data.draw(st.integers(0, len(pts) - 1))
    if kind == "switching":
        words = data.draw(st.sampled_from([("001", "01"), ("0", "1")]))
        return (kind, *_generator_input(switching_limit_orbit, *words,
                                      stages=data.draw(st.integers(3, 7))))
    return (kind, *_generator_input(
        drifting_two_sided_orbit,
        *data.draw(st.sampled_from([("001", "0001"), ("01", "1")])),
        half=data.draw(st.integers(8, 40)),
        defect_step=data.draw(st.integers(1, 5))))


def _sample_orbits(data):
    """A _sample_points case as a PseudoOrbit, mirrored by
    _mirror_limit_orbit."""
    kind, pts, schedule, start = _sample_points(data)
    po = PseudoOrbit(pts, schedule, start)
    return _mirror_limit_orbit(po) if kind == "mirrored" else po


def _mirror_per_point(ts):
    """The mirrored past half built point by point: every past point
    mirrored and the copy validated as a new pseudo-orbit under doubled
    bounds."""
    pts = [mirror_point(ts.at(-t)) for t in range(-ts.start + 1)]
    return PseudoOrbit(pts, [(k, 2 * b) for k, b in ts.schedule])


def _glue_per_index(ts, junction, p1, z, p2, delta):
    """The glued pseudo-orbit of two_sided_limit_shadow built index by
    index: one point per time of ts, on p1's orbit before -junction, on
    z's up to junction and on p2's after it."""
    glued = []
    for t in range(ts.start, ts.end + 1):
        if t < -junction:
            glued.append(aug_iterate(p1, t))
        elif t <= junction:
            glued.append(aug_iterate(z, t))
        else:
            glued.append(aug_iterate(p2, t))
    return PseudoOrbit(glued, delta, ts.start)


class TestRunTable:
    """The run table against the per-point forms it replaced: the input
    points, the point-by-point mirror and the per-index glue."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_points_and_at_give_back_the_input(self, data):
        _, pts, schedule, start = _sample_points(data)
        po = PseudoOrbit(pts, schedule, start)
        assert po.points == tuple(pts)
        assert [po.at(t) for t in range(start, start + len(pts))] == pts
        for t in (start - 1, po.end + 1):
            with pytest.raises(ValueError,
                               match=f"^time {t} lies outside {start}.."):
                po.at(t)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mirror_matches_the_per_point_mirror(self, data):
        ts = _sample_orbits(data)
        try:
            want = _mirror_per_point(ts)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                _mirror_limit_orbit(ts)
            return
        got = _mirror_limit_orbit(ts)
        assert got == want
        assert got.points == want.points

    @settings(max_examples=60, deadline=None)
    @given(st.text("01", min_size=1, max_size=4),
           st.text("01", min_size=1, max_size=4), st.integers(8, 96),
           st.integers(1, 5))
    def test_mirror_equals_the_checked_mirror(self, past, future, half,
                                              step):
        # _mirror_limit_orbit stores its runs unchecked on the strength of
        # the conjugacy; the checked path, _settle under the doubled
        # schedule, must accept the same runs and store them unchanged
        ts = drifting_two_sided_orbit(past, future, half=half,
                                      defect_step=step)
        checked = object.__new__(PseudoOrbit)._settle(
            [(k, 2 * b) for k, b in ts.schedule],
            [(-min(b, 0), -a, mirror_point(x))
             for a, b, x in reversed(ts.runs) if a <= 0])
        got = _mirror_limit_orbit(ts)
        assert got.schedule == checked.schedule
        assert got.runs == checked.runs

    @pytest.mark.parametrize("words, half, step", [
        (("001", "0001"), 64, 4), (("001", "0001"), 128, 4),
        (("001", "0001"), 100, 3), (("001", "001"), 64, 8)])
    def test_glue_matches_the_per_index_glue(self, sys3, monkeypatch, words,
                                             half, step):
        ts = drifting_two_sided_orbit(*words, half=half, defect_step=step)
        traced = []
        trace = shadowing.shadow_pseudo_orbit

        def spy(po, eps):
            traced.append((po, eps))
            return trace(po, eps)

        monkeypatch.setattr(shadowing, "shadow_pseudo_orbit", spy)
        report = two_sided_limit_shadow(sys3, ts)
        # the glued pseudo-orbit is the last one traced
        glued, eps = traced[-1]
        j, p1, p2 = report.junction, report.past_point, report.future_point
        z = shadow_specification(
            [((-j, -j), aug_iterate(p1, -j)), ((j, j), aug_iterate(p2, j))],
            report.glue_eps)
        want = _glue_per_index(ts, j, p1, z, p2, report.delta)
        assert glued == want
        assert glued.points == want.points
        assert len(glued.runs) <= 3
        assert trace(want, eps) == report.point


class TestRuns:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_runs_match_brute_split(self, data):
        po = _sample_orbits(data)
        assert [(a, b) for a, b, _ in po.runs] == brute_runs(po.points,
                                                            po.start)

    def test_one_run_per_true_orbit(self):
        q = ExtraPoint(2, 4, 3)
        po = PseudoOrbit([aug_iterate(q, t) for t in range(-5, 9)],
                         Fraction(1, 64), -5)
        assert po.runs == ((-5, 8, q),)


def _bound_at(schedule, time):
    """The tightest bound an entry of the schedule puts on the jump at a
    time >= 0, or None: the least bound over the entries (k, b), k <= time."""
    return min((b for k, b in schedule if k <= time), default=None)


class TestTail:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_tail_matches_a_fresh_pseudo_orbit(self, data):
        po = _sample_orbits(data)
        k = data.draw(st.integers(po.start, po.end))
        size = data.draw(st.integers(1, 3))
        js = sorted(set(data.draw(st.lists(st.integers(0, 12), min_size=size,
                                           max_size=size))))
        bounds = sorted(set(data.draw(st.lists(
            st.sampled_from(SCHEDULE_BOUNDS), min_size=len(js),
            max_size=len(js)))), reverse=True)
        schedule = tuple(zip(js, bounds))
        implied = all(
            (parent := _bound_at(po.schedule, k + j)) is not None
            and parent <= b for j, b in schedule)
        if not implied:
            with pytest.raises(ValueError, match="not implied"):
                po.tail(k, schedule)
            return
        tail = po.tail(k, schedule)
        fresh = PseudoOrbit(po.points[k - po.start:], schedule)
        assert tail == fresh
        assert tail.runs == fresh.runs

    def test_refusals(self):
        po = switching_limit_orbit(stages=5)   # first entry (2, 1/2)
        assert po.tail(2, ((0, Fraction(1, 2)),)).runs == (
            PseudoOrbit(po.points[2:], Fraction(1, 2)).runs)
        # time 1 + 0 lies below the first schedule index
        with pytest.raises(ValueError, match="not implied"):
            po.tail(1, ((0, Fraction(1, 2)),))
        # 1/4 is tighter than the parent's 1/2 at time 2
        with pytest.raises(ValueError, match="not implied"):
            po.tail(2, ((0, Fraction(1, 4)),))
        with pytest.raises(ValueError, match="outside"):
            po.tail(po.end + 1, Fraction(1, 2))


class TestStandardShadowing:
    def test_true_orbit(self, sys3):
        x = BasePoint(BiSeq("01", "100", "0", -1))
        po = PseudoOrbit(tuple(aug_iterate(x, t) for t in range(12)),
                         Fraction(1, 64))
        traced = shadow_pseudo_orbit(po, QUARTER)
        check = verify_shadow(po, traced, QUARTER)
        assert check.ok and check.worst_dist == 0

    def test_satellite_orbit_traces_itself(self, sys3):
        q = ExtraPoint(1, 5, 0)
        po = PseudoOrbit(tuple(aug_iterate(q, t) for t in range(9)),
                         Fraction(1, 64))
        assert shadow_pseudo_orbit(po, QUARTER) == q

    def test_coarse_delta_rejected(self, sys3):
        po = PseudoOrbit((BasePoint(BiSeq("0")),), Fraction(1, 16))
        with pytest.raises(ValueError, match="too coarse"):
            shadow_pseudo_orbit(po, QUARTER)

    def test_leaving_a_shallow_satellite_is_refused(self, sys3):
        # the points leave a level-3 satellite orbit, a jump of its tag
        # gap 1/3, far above a delta that passes the modulus gate
        pts = (ExtraPoint(1, 3, 0), BasePoint(periodic_point(3).shift(1)))
        with pytest.raises(ValueError,
                           match=r"jump 1/3 at time 0 \(index 0\)"):
            PseudoOrbit(pts, Fraction(1, 1000))

    def test_wandering_orbits_verified(self, sys3):
        rng = random.Random(131)
        for _ in range(12):
            po = hop_pseudo_orbit(sys3, rng, length=100, delta_exp=6)
            traced = shadow_pseudo_orbit(po, QUARTER)
            check = verify_shadow(po, traced, QUARTER)
            assert check.ok
            # the modulus arithmetic promises strictly better than eps
            assert check.worst_dist < QUARTER

    def test_verify_shadow_flags_perturbation(self, sys3):
        x = BasePoint(periodic_point(6))
        po = PseudoOrbit(tuple(aug_iterate(x, t) for t in range(10)),
                         Fraction(1, 64))
        from nexpansive.base import flip_symbol
        bad = BasePoint(flip_symbol(x.seq, 3))
        check = verify_shadow(po, bad, Fraction(1, 16))
        assert not check.ok
        assert check.worst_dist == 1
        assert check.worst_index == 3

    def test_diameter_accepts_everything(self, sys3):
        po = PseudoOrbit((BasePoint(BiSeq("0")), BasePoint(BiSeq("0"))),
                         Fraction(1, 8))
        assert verify_shadow(po, ExtraPoint(1, 1, 0), Fraction(3)).ok


def assert_traces(traced, segments, eps):
    """Every in-interval time is traced strictly within eps, checked by one
    exact distance per time against aug_iterate(point, t - a)."""
    for (a, b), point in segments:
        for t in range(a, b + 1):
            assert aug_dist(aug_iterate(traced, t),
                            aug_iterate(point, t - a)) < eps, (a, b, t)


class TestSpecificationShadowing:
    def test_single_interval(self, sys3):
        segments = [((-2, 4), BasePoint(BiSeq("011", "0", "10", 0)))]
        traced = shadow_specification(segments, Fraction(1, 8))
        assert_traces(traced, segments, Fraction(1, 8))

    def test_two_intervals(self, sys3):
        segments = [((-8, -4), BasePoint(periodic_point(2))),
                    ((5, 9), BasePoint(periodic_point(1)))]
        traced = shadow_specification(segments, Fraction(1, 8))
        assert isinstance(traced, BasePoint)
        assert_traces(traced, segments, Fraction(1, 8))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SCHEDULE_BOUNDS), st.data())
    def test_random_segments_traced(self, eps, data):
        # the window check of shadow_specification against one exact
        # distance per time, at dyadic and non-dyadic eps
        spacing = specification_spacing(eps)
        segments, a = [], data.draw(st.integers(-20, 20))
        for _ in range(data.draw(st.integers(1, 3))):
            b = a + data.draw(st.integers(0, 6))
            seq = BiSeq(data.draw(st.text("01", min_size=1, max_size=4)),
                        data.draw(st.text("01", max_size=6)),
                        data.draw(st.text("01", min_size=1, max_size=4)),
                        data.draw(st.integers(-5, 5)))
            segments.append(((a, b), BasePoint(seq)))
            a = b + spacing + data.draw(st.integers(0, 3))
        assert_traces(shadow_specification(segments, eps), segments, eps)

    def test_spacing_formula(self):
        assert specification_spacing(Fraction(1, 8)) == 7
        assert specification_spacing(Fraction(1)) == 1
        assert specification_spacing(Fraction(1, 5)) == 7

    def test_satellite_rejected(self, sys3):
        segments = [((0, 0), BasePoint(BiSeq("0"))),
                    ((40, 40), ExtraPoint(1, 4, 0))]
        with pytest.raises(IsolationError, match="1/4"):
            shadow_specification(segments, Fraction(1, 8))

    def test_crowded_intervals_rejected(self, sys3):
        segments = [((0, 0), BasePoint(BiSeq("0"))),
                    ((3, 3), BasePoint(BiSeq("1")))]
        with pytest.raises(ScheduleError):
            shadow_specification(segments, Fraction(1, 8))


class TestPiecewisePeriodic:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=5, unique=True),
           st.lists(st.tuples(st.text(alphabet="01", min_size=1, max_size=5),
                              st.integers(-6, 6)), min_size=6, max_size=6))
    def test_matches_direct_construction(self, boundaries, patterns):
        boundaries = sorted(boundaries)
        seqs = [BiSeq(w).shift(j) for w, j in patterns[:len(boundaries) + 1]]

        def direct(boundaries, seqs):
            """The construction through BiSeq(left, core, right, first)."""
            first, last = boundaries[0], boundaries[-1]
            chunks = [seqs[i + 1].window(boundaries[i], boundaries[i + 1])
                      for i in range(len(boundaries) - 1)]
            left = seqs[0].window(first - len(seqs[0].left), first)
            right = seqs[-1].window(last, last + len(seqs[-1].right))
            return BiSeq(left, "".join(chunks), right, first)

        got = piecewise_periodic(boundaries, seqs)
        want = direct(boundaries, seqs)
        assert (got.left, got.core, got.right, got.offset) == (
            want.left, want.core, want.right, want.offset)
        for t in range(boundaries[0] - 8, boundaries[-1] + 8):
            region = sum(1 for b in boundaries if b <= t)
            assert got[t] == seqs[region][t]


# thresholds: dyadic and non-dyadic values, sums of a tag and a dyadic, the
# diameter 3 and one far below every distance drawn here
DECAY_THRESHOLDS = (*(dyadic(e) for e in range(7)), Fraction(1, 3),
                    Fraction(5, 48), Fraction(2, 7), Fraction(19, 48),
                    Fraction(3), Fraction(1, 2 ** 40))


def _riders(po, picks):
    """The points whose orbits ride po at the picked indices."""
    pts = po.points
    return [aug_iterate(pts[i % len(pts)], -(po.start + i % len(pts)))
            for i in picks]


@st.composite
def decay_cases(draw):
    """(y, po): a hop pseudo-orbit with satellites over times from start <=
    0, or a switching, drifting or mirrored drifting one, and a rider of
    it, a satellite, a random point or a base trace of it."""
    kind = draw(st.sampled_from(["hop", "switching", "drifting", "mirrored"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    sys3 = AugSystem(3, "standard", 64)
    if kind == "hop":
        delta_exp = draw(st.integers(4, 8))
        pts = hop_pseudo_orbit(sys3, rng, length=draw(st.integers(1, 40)),
                               delta_exp=delta_exp).points
        # the bound 4 exceeds the diameter 3, so every start validates
        po = PseudoOrbit(pts, 4, -min(draw(st.integers(0, 8)), len(pts) - 1))
        extra = [ExtraPoint(1, 2 ** delta_exp + 1, 3), BasePoint(base_shadow(
            point_runs([project(p) for p in pts]), delta_exp))]
    elif kind == "switching":
        words = draw(st.sampled_from([("001", "01"), ("0", "1"),
                                      ("011", "0001")]))
        po = switching_limit_orbit(*words, stages=draw(st.integers(3, 7)))
        extra = [BasePoint(BiSeq(words[0]))]
    else:
        words = draw(st.sampled_from([("001", "0001"), ("01", "1"),
                                      ("0", "011")]))
        po = drifting_two_sided_orbit(*words, half=draw(st.integers(8, 48)),
                                      defect_step=draw(st.integers(1, 5)))
        if kind == "mirrored":
            po = _mirror_limit_orbit(po)
        extra = []
    picks = draw(st.lists(st.integers(0, 96), min_size=1, max_size=3))
    ys = _riders(po, picks) + extra + [random_point(sys3, rng, 10)]
    return draw(st.sampled_from(ys)), po


class TestDecay:
    """_decays on both sides of time 0, the past read forward through the
    mirror as two_sided_limit_shadow reads it, and verify_shadow, against
    brute_decay_index and the maximum over brute_orbit_dists."""

    @settings(max_examples=300, deadline=None)
    @given(decay_cases(), st.lists(st.sampled_from(DECAY_THRESHOLDS),
                                   max_size=6), st.data())
    def test_matches_backward_scan(self, case, thresholds, data):
        y, po = case
        dists = brute_orbit_dists(y, po.points, po.start)
        # thresholds equal to listed distances, where a tie fails
        thresholds += data.draw(st.lists(st.sampled_from(dists), max_size=3))
        split = -po.start
        for point, half, want in (
                (mirror_point(y), _mirror_limit_orbit(po), dists[split::-1]),
                (y, po.tail(0, po.schedule), dists[split:])):
            assert _decays(point, half, thresholds) == tuple(
                (th, brute_decay_index(want, th)) for th in thresholds)
        worst = max(dists)
        for eps in (worst, *thresholds):
            check = verify_shadow(po, y, eps)
            assert (check.ok, check.worst_index, check.worst_dist) == (
                worst <= eps, dists.index(worst), worst)

    @pytest.mark.parametrize("dists", [
        [Fraction(1, 4), Fraction(1, 2), Fraction(0)], [Fraction(0)],
        [Fraction(1)], [Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)],
        [Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 2)] * 5])
    def test_two_trailing_entries(self, dists):
        # the point 0^Z against flips of it realizing the listed distances,
        # from time 0 forward and, mirrored, backward
        zero = BiSeq("0")
        pts = [BasePoint(zero if d == 0 else flip_symbol(
            zero, d.denominator.bit_length() - 1)) for d in dists]
        thresholds = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))
        want = tuple((th, brute_decay_index(dists, th)) for th in thresholds)
        y = BasePoint(zero)
        past = PseudoOrbit(pts[::-1], 4, 1 - len(pts))
        assert brute_orbit_dists(y, past.points, past.start) == dists[::-1]
        for point, po in ((y, PseudoOrbit(pts, 4)),
                          (mirror_point(y), _mirror_limit_orbit(past))):
            assert brute_orbit_dists(point, po.points, po.start) == dists
            decay = _decays(point, po, thresholds)
            assert decay == want
            for th, idx in decay:
                assert idx is None or len(dists) - idx >= 2


def _limit_shadow_per_stage(sys, lpo, thresholds):
    """limit_shadow with one trace per stage, each verified at its own
    resolution: the loop that one trace per stage key replaced."""
    horizon = len(lpo.points)
    stages = []
    for j in range(1, 9):
        res = AMBIENT / (j + 1)
        mod = shadow_modulus(res)
        entry = next(((k, b) for k, b in lpo.schedule if b <= mod.delta), None)
        if entry is None or entry[0] > horizon - 2:
            break
        start = entry[0]
        tail = lpo.tail(start, mod.delta)
        stages.append((res, start, mod.delta, shadow_pseudo_orbit(tail, res)))
    if len(stages) < 3:
        raise ScheduleError(
            "prefix too short relative to the schedule: "
            f"only {len(stages)} usable stages")
    first = aug_iterate(stages[0][3], -stages[0][1])
    stage_reports = tuple(
        LimitStage(resolution=res, start_index=start, gap_bound=bound,
                   consistent=in_local_stable(
                       traced, aug_iterate(first, start), AMBIENT))
        for res, start, bound, traced in stages)
    try:
        stab, _ = stabilization_index(sys, first, AMBIENT, 16)
    except StabilizationNotReached:
        stab = 0
    anchor = aug_iterate(first, stab)
    reps = stable_class_count(sys, anchor, AMBIENT).representatives
    candidates = [aug_iterate(r, -stab) for r in reps]
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
        point=cand, decay=decay, stages=stage_reports, stabilization=stab,
        candidates=tuple(canonical_key(c) for c in candidates))


def _same_limit_outcome(sys, lpo, thresholds):
    """limit_shadow and the per-stage loop give equal reports, or raise
    the same error."""
    try:
        want = _limit_shadow_per_stage(sys, lpo, thresholds)
    except (DecayThresholdError, ScheduleError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            limit_shadow(sys, lpo, thresholds=thresholds)
    else:
        assert limit_shadow(sys, lpo, thresholds=thresholds) == want


class TestStageSharing:
    """One trace per stage key against one trace per stage."""

    @pytest.mark.parametrize("stages", range(8, 13))
    @pytest.mark.parametrize("words", [("001", "01"), ("011", "0001")])
    def test_switching_orbits(self, sys3, words, stages):
        _same_limit_outcome(sys3, switching_limit_orbit(*words, stages=stages),
                            tuple(dyadic(t) for t in range(1, 6)))

    @pytest.mark.parametrize("half", [64, 100, 256, 512])
    def test_drifting_halves(self, sys3, half):
        ts = drifting_two_sided_orbit(half=half)
        thresholds = tuple(dyadic(t) for t in range(1, 5))
        for lpo in (_mirror_limit_orbit(ts), ts.tail(0, ts.schedule)):
            _same_limit_outcome(sys3, lpo, thresholds)

    def test_one_word_and_one_sweep_per_call(self, sys3, monkeypatch):
        # every key's point is spelled from one word and verified in one
        # sweep at the key's finest resolution; no tail is traced alone
        lpo = switching_limit_orbit(stages=10)
        words, sweeps = [], []
        spell, sweep = shadowing.base_shadow, shadowing.stages_within

        def spy_spell(runs, delta_exp):
            words.append((runs[0][0], runs[-1][1]))
            return spell(runs, delta_exp)

        def spy_sweep(y, po, stages):
            sweeps.append([(s, eps) for s, eps, _ in stages])
            return sweep(y, po, stages)

        monkeypatch.setattr(shadowing, "base_shadow", spy_spell)
        monkeypatch.setattr(shadowing, "stages_within", spy_sweep)
        monkeypatch.setattr(shadowing, "shadow_pseudo_orbit", lambda *args: (
            pytest.fail("a stage key was traced on its own")))
        report = limit_shadow(sys3, lpo)
        finest = {}
        for stage in report.stages:
            key = stage.start_index, stage.gap_bound
            finest[key] = min(finest.get(key, stage.resolution),
                              stage.resolution)
        assert len(report.stages) == 8 and len(finest) == 4
        assert words == [(report.stages[0].start_index, lpo.end)]
        assert sweeps == [[(s, eps) for (s, _), eps in finest.items()]]


def _mixed_branch_orbit():
    """A prefix riding p(60) on the base for t < 40, then its satellite
    ExtraPoint(1, 60, .): the stage key (0, 49) traces in the base, and
    (41, 97), (42, 193) and (43, 385) take the satellite's orbit, since
    its level 60 sits below their m."""
    p = periodic_point(60)
    pts = [BasePoint(p.shift(t)) if t < 40 else ExtraPoint(1, 60, t % 61)
           for t in range(100)]
    return PseudoOrbit(pts, ((0, Fraction(1, 50)), *(
        (40 + j, Fraction(1, 50 * 2 ** j)) for j in range(1, 6))))


def _shared_stage_pass(sys, lpo, thresholds):
    """Run limit_shadow and check that the points of its shared stage pass
    equal the per-key traces (oracles.per_key_trace) of the same keys.
    Returns those points, or None when the prefix is too short to trace."""
    seen = []
    shared = shadowing._trace_stages

    def spy(lpo, finest):
        seen.append((finest, shared(lpo, finest)))
        return seen[-1][1]

    with mock.patch.object(shadowing, "_trace_stages", spy):
        try:
            limit_shadow(sys, lpo, thresholds=thresholds)
        except (DecayThresholdError, ScheduleError):
            pass
    if not seen:
        return None
    [(finest, traced)] = seen
    assert traced == per_key_trace(lpo, finest)
    return traced


class TestSharedStagePass:
    """The shared stage pass against one trace per stage key."""

    @pytest.mark.parametrize("stages", range(8, 15))
    @pytest.mark.parametrize("words", [("001", "01"), ("011", "0001")])
    def test_switching_orbits(self, sys3, words, stages):
        assert _shared_stage_pass(
            sys3, switching_limit_orbit(*words, stages=stages),
            tuple(dyadic(t) for t in range(1, 6)))

    @pytest.mark.parametrize("half", [64, 128, 256, 512])
    def test_drifting_halves(self, sys3, half):
        ts = drifting_two_sided_orbit(half=half)
        thresholds = tuple(dyadic(t) for t in range(1, 5))
        for lpo in (_mirror_limit_orbit(ts), ts.tail(0, ts.schedule)):
            assert _shared_stage_pass(sys3, lpo, thresholds)

    @settings(max_examples=60, deadline=None)
    @given(st.text("01", min_size=1, max_size=4),
           st.text("01", min_size=1, max_size=4), st.integers(8, 96),
           st.integers(1, 5))
    def test_drawn_drifting_halves(self, past, future, half, step):
        ts = drifting_two_sided_orbit(past, future, half=half,
                                      defect_step=step)
        thresholds = tuple(dyadic(t) for t in range(1, 5))
        sys3 = AugSystem(3, "standard", 50)
        for lpo in (_mirror_limit_orbit(ts), ts.tail(0, ts.schedule)):
            _shared_stage_pass(sys3, lpo, thresholds)

    def test_mixed_branches(self):
        # one key traces in the base and three take the satellite's orbit
        sys = AugSystem(3, "standard", 200)
        lpo = _mixed_branch_orbit()
        thresholds = tuple(dyadic(t) for t in range(1, 6))
        traced = _shared_stage_pass(sys, lpo, thresholds)
        assert {(s, m): type(y) for (s, m, _), y in traced.items()} == {
            (0, 49): BasePoint, (41, 97): ExtraPoint, (42, 193): ExtraPoint,
            (43, 385): ExtraPoint}
        _same_limit_outcome(sys, lpo, thresholds)


class TestLimitShadowing:
    def test_true_orbit_prefix(self, sys3):
        w = BasePoint(BiSeq("011", "0", "10", 0))
        pts = tuple(aug_iterate(w, t) for t in range(40))
        lpo = PseudoOrbit(pts, ((0, Fraction(1, 64)),
                                (1, Fraction(1, 256)),
                                (2, Fraction(1, 1024))))
        report = limit_shadow(sys3, lpo)
        assert in_stable_set(report.point, w)
        assert all(idx == 0 for _, idx in report.decay)

    def test_switching_prefix_decays(self, sys3):
        lpo = switching_limit_orbit(stages=8)
        thresholds = tuple(dyadic(t) for t in range(1, 6))
        report = limit_shadow(sys3, lpo, thresholds=thresholds)
        assert [th for th, _ in report.decay] == list(thresholds)
        assert all(idx is not None for _, idx in report.decay)
        assert all(stage.consistent for stage in report.stages)
        assert len(report.stages) >= 3
        # recompute the decay claim independently
        pts = lpo.points
        for th, idx in report.decay:
            for t in range(idx, len(pts)):
                assert aug_dist(aug_iterate(report.point, t), pts[t]) < th

    def test_convergence_into_satellite_orbit(self, sys3):
        q = ExtraPoint(1, 4, 0)
        pts = tuple(aug_iterate(q, t) for t in range(64))
        lpo = PseudoOrbit(pts, ((0, Fraction(1, 64)),
                                (4, Fraction(1, 256)),
                                (8, Fraction(1, 1024))))
        report = limit_shadow(sys3, lpo)
        assert isinstance(report.point, ExtraPoint)
        assert report.point.k == 4
        assert aug_dist(report.point, q) == 0

    def test_short_prefix_rejected(self, sys3):
        w = BasePoint(BiSeq("0"))
        pts = tuple(aug_iterate(w, t) for t in range(40))
        lpo = PseudoOrbit(pts, ((0, Fraction(1, 2)),))
        with pytest.raises(ScheduleError, match="stages"):
            limit_shadow(sys3, lpo)

    def test_unreachable_threshold_raises(self, sys3):
        # the drifting orbit keeps a defect at every fourth index, so no
        # single point can track it to absurd precision
        ts = drifting_two_sided_orbit(half=64)
        lpo = PseudoOrbit(tuple(ts.at(t) for t in range(ts.end + 1)),
                          ts.schedule)
        with pytest.raises(DecayThresholdError):
            limit_shadow(sys3, lpo, thresholds=(Fraction(1, 2 ** 4000),))

    def test_mirrored_run_matches_past_half_treatment(self, sys3):
        # running the mirrored half forward and mirroring back is exactly
        # how the two-sided engine produces its past point
        ts = drifting_two_sided_orbit(half=64)
        from nexpansive.shadowing import _mirror_limit_orbit
        mirrored = _mirror_limit_orbit(ts)
        report = limit_shadow(sys3, mirrored,
                              thresholds=(Fraction(1, 2), Fraction(1, 4)))
        full = two_sided_limit_shadow(sys3, ts,
                                      thresholds=(Fraction(1, 2),
                                                  Fraction(1, 4)))
        assert mirror_point(report.point) == full.past_point


class TestTwoSidedShadowing:
    def test_drifting_orbit(self, sys3):
        ts = drifting_two_sided_orbit(half=128)
        report = two_sided_limit_shadow(sys3, ts)
        assert brute_left_tails_agree(report.point.seq,
                                      report.past_point.seq)
        assert in_stable_set(report.point, report.future_point)
        assert report.junction is not None
        assert 2 * report.junction >= report.spacing
        for th, idx in report.past_decay + report.future_decay:
            assert idx is not None
        # the past tail really converges to the past pattern's orbit
        assert brute_left_tails_agree(report.past_point.seq,
                                      periodic_point(2))

    def test_degenerate_same_orbit(self, sys3):
        ts = drifting_two_sided_orbit(past_word="001", future_word="001",
                                      half=64, defect_step=8)
        report = two_sided_limit_shadow(sys3, ts)
        assert in_stable_set(report.point, report.future_point)
        assert brute_left_tails_agree(report.point.seq,
                                      report.past_point.seq)
        assert in_stable_set(report.past_point, report.future_point)

    def test_same_satellite_orbit_short_circuits(self, sys3):
        q = ExtraPoint(1, 3, 0)
        pts = tuple(aug_iterate(q, t) for t in range(-20, 21))
        ts = PseudoOrbit(pts, ((0, Fraction(1, 64)),
                               (4, Fraction(1, 256)),
                               (8, Fraction(1, 1024))), -20)
        report = two_sided_limit_shadow(sys3, ts)
        assert isinstance(report.point, ExtraPoint)
        assert report.point.k == 3
        assert report.junction is None

    @pytest.mark.parametrize("side", ["past", "future"])
    def test_unreachable_threshold_names_the_tail(self, sys3, side):
        # the drifting orbit with the defects of one half taken out: that
        # half is a true orbit and reaches every threshold, the other
        # keeps a defect at every fourth index and misses 2**-40
        ts = drifting_two_sided_orbit(half=64)
        backbone = piecewise_periodic([0], [BiSeq("001"), BiSeq("0001")])
        clean = range(1, 65) if side == "past" else range(-64, 0)
        pts = tuple(BasePoint(backbone.shift(t)) if t in clean else ts.at(t)
                    for t in range(-64, 65))
        ts = PseudoOrbit(pts, ts.schedule, -64)
        with pytest.raises(DecayThresholdError,
                           match=f"^{side} tail does not reach every "
                                 r"threshold within its 64 steps: none of "
                                 r"\d+ candidates decays through "
                                 r"\['1/1099511627776'\]$"):
            two_sided_limit_shadow(sys3, ts, thresholds=(Fraction(1, 2),
                                                         Fraction(1, 2**40)))

    def test_distinct_satellite_orbits_rejected(self, sys3):
        left = [ExtraPoint(1, 3, t % 4) for t in range(-20, 0)]
        right = [ExtraPoint(2, 3, t % 4) for t in range(0, 21)]
        pts = tuple(left + right)
        ts = PseudoOrbit(pts, ((0, Fraction(1, 2)),
                               (6, Fraction(1, 128)),
                               (10, Fraction(1, 1024))), -20)
        with pytest.raises(IsolationError):
            two_sided_limit_shadow(sys3, ts)
