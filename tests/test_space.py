import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nexpansive.space as space
from nexpansive.base import (
    BiSeq,
    assemble,
    base_dist,
    base_shadow,
    flip_symbol,
    periodic_point,
)
from nexpansive.space import (
    AugSystem,
    BasePoint,
    ExtraPoint,
    aug_dist,
    aug_iterate,
    aug_map,
    canonical_key,
    dist_below,
    failure_times,
    mirror_point,
    orbit_label,
    orbit_worst,
    project,
    stages_within,
    tail_label,
)
from nexpansive.shadowing import PseudoOrbit, _mirror_limit_orbit
from nexpansive.samples import (
    drifting_two_sided_orbit,
    hop_pseudo_orbit,
    random_point,
    random_triple,
    switching_limit_orbit,
)
from oracles import (
    brute_aug_dist,
    brute_base_dist,
    brute_orbit_dists,
    brute_tagged_point,
    point_runs,
)


class TestSystemParameters:
    def test_variant_multiplicities(self, sys3, fe):
        assert sys3.multiplicity(7) == 2
        assert fe.multiplicity(1) == 0
        assert fe.multiplicity(7) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            AugSystem(0)
        with pytest.raises(ValueError):
            AugSystem(3, "weird")
        with pytest.raises(ValueError):
            AugSystem(3, "standard", 2)

    def test_point_validation(self, sys3):
        sys3.validate_point(ExtraPoint(2, 5, 5))
        with pytest.raises(ValueError):
            sys3.validate_point(ExtraPoint(3, 5, 0))
        with pytest.raises(ValueError):
            sys3.validate_point(ExtraPoint(1, 5, 6))

    def test_enumeration_counts(self, sys3, fe):
        pts = sys3.extra_points(2)
        assert len(pts) == len(set(pts)) == sys3.extra_count(2) == 10
        assert AugSystem(1, "standard").extra_points(5) == []
        assert fe.extra_count(3) == 11
        assert len(fe.extra_points(3)) == 11
        with pytest.raises(ValueError):
            sys3.extra_points(sys3.k_max + 1)


class TestMetric:
    def test_copies_at_tag_distance(self):
        # a copy over the same position stays 1/k away; the point itself
        # (satellite or base) is at 0
        for k in (3, 5, 9):
            for j in range(k + 1):
                q, copy = ExtraPoint(1, k, j), ExtraPoint(2, k, j)
                assert aug_dist(q, copy) == Fraction(1, k)
                for x in (q, BasePoint(project(q))):
                    assert aug_dist(x, x) == 0
                for b in (Fraction(0), Fraction(1, k), Fraction(1, k + 1),
                          Fraction(1, k - 1), Fraction(-1, 8)):
                    assert dist_below(q, copy, b) == (Fraction(1, k) < b)
                    assert dist_below(q, q, b) == (b > 0)

    def test_satellite_to_its_projection(self):
        assert aug_dist(ExtraPoint(1, 5, 0),
                        BasePoint(periodic_point(5))) == Fraction(1, 5)
        assert aug_dist(ExtraPoint(1, 5, 2),
                        BasePoint(periodic_point(5).shift(2))) == Fraction(1, 5)

    def test_cross_level_value(self):
        # tag parts 1/2 + 1/3, projections first disagree two steps out
        d0 = base_dist(periodic_point(2), periodic_point(3))
        assert d0 == brute_base_dist(periodic_point(2), periodic_point(3))
        assert d0 == Fraction(1, 4)
        d = aug_dist(ExtraPoint(1, 2, 0), ExtraPoint(1, 3, 0))
        assert d == Fraction(1, 2) + Fraction(1, 3) + d0 == Fraction(13, 12)

    def test_same_level_distinct_phase(self):
        d = aug_dist(ExtraPoint(1, 4, 0), ExtraPoint(1, 4, 2))
        assert d == Fraction(2, 4) + base_dist(periodic_point(4),
                                               periodic_point(4).shift(2))

    def test_axioms_on_seeded_triples(self, sys3):
        rng = random.Random(41)
        for _ in range(2000):
            a, b, c = random_triple(sys3, rng, k_hi=10)
            ab, ba = aug_dist(a, b), aug_dist(b, a)
            assert ab == ba
            assert (ab == 0) == (a == b)
            assert aug_dist(a, c) <= ab + aug_dist(b, c)

    def test_satellite_isolation(self, sys3):
        rng = random.Random(43)
        others = sys3.extra_points(8) + [random_point(sys3, rng, 8)
                                         for _ in range(50)]
        for q in (ExtraPoint(1, 4, 2), ExtraPoint(2, 7, 0)):
            for y in others:
                if y != q:
                    assert aug_dist(q, y) >= Fraction(1, q.k)


satellites = st.integers(1, 40).flatmap(
    lambda k: st.builds(ExtraPoint, st.integers(1, 2), st.just(k),
                        st.integers(0, k)))
base_points = st.builds(
    BiSeq, st.text("01", min_size=1, max_size=5),
    st.text("01", max_size=6), st.text("01", min_size=1, max_size=5),
    st.integers(-6, 6)).map(BasePoint)


@st.composite
def point_pairs(draw):
    """A pair of every kind in the metric's table: base/base, satellite and
    base (its own projection, a near copy of it, or any), two copies over
    one position, two satellites on the same or different orbits, and a
    point of either kind with itself."""
    kind = draw(st.sampled_from(["base", "satellite-base", "copies",
                                 "same-level", "orbits", "self"]))
    if kind == "base":
        return draw(base_points), draw(base_points)
    q = draw(satellites)
    if kind == "self":
        x = draw(st.sampled_from([q, BasePoint(project(q))]) | base_points)
        return x, x
    if kind == "satellite-base":
        near = flip_symbol(brute_tagged_point(q.k, q.j),
                           draw(st.integers(-20, 20)))
        y = draw(st.sampled_from([BasePoint(brute_tagged_point(q.k, q.j)),
                                  BasePoint(near)]) | base_points)
        return (q, y) if draw(st.booleans()) else (y, q)
    if kind == "copies":
        return q, ExtraPoint(3 - q.i, q.k, q.j)
    if kind == "same-level":
        return q, ExtraPoint(draw(st.integers(1, 2)), q.k,
                             draw(st.integers(0, q.k)))
    return q, draw(satellites)


class TestAgainstMetricTable:
    """aug_dist against brute_aug_dist, which reads the four-case table of
    the metric with the base part from a symbol scan."""

    @settings(max_examples=400, deadline=None)
    @given(point_pairs())
    def test_every_pair_kind(self, pair):
        x, y = pair
        assert aug_dist(x, y) == aug_dist(y, x) == brute_aug_dist(x, y)

    def test_seeded_triples(self, sys3):
        rng = random.Random(17)
        for _ in range(300):
            a, b, c = random_triple(sys3, rng, k_hi=25)
            for x, y in ((a, b), (b, c), (a, c), (a, aug_map(a))):
                assert aug_dist(x, y) == brute_aug_dist(x, y)

    def test_triple_stream_is_pinned(self):
        # The first 10k criterion-09 triples. A change to random's stream
        # (a Python upgrade) or to the samplers changes every report that
        # draws points, so it must show up here first.
        rng = random.Random(7)
        digest = hashlib.sha256()
        for _ in range(10_000):
            triple = random_triple(AugSystem(3, "standard", 50), rng, k_hi=25)
            digest.update(" ".join(map(canonical_key, triple)).encode()
                          + b"\n")
        assert digest.hexdigest() == TRIPLE_STREAM_SHA256


TRIPLE_STREAM_SHA256 = (
    "610e430824cddb5e260a6591651a25c9823c1f4eb9c35db02d3e0cc90c26e450")


class TestDynamics:
    def test_wraparound(self):
        assert aug_map(ExtraPoint(1, 2, 2)) == ExtraPoint(1, 2, 0)

    def test_inverse_law(self, sys3):
        rng = random.Random(47)
        pts = sys3.extra_points(6) + [random_point(sys3, rng, 6)
                                      for _ in range(40)]
        for p in pts:
            assert aug_iterate(aug_map(p), -1) == p
            assert aug_map(aug_iterate(p, -1)) == p
            assert aug_iterate(p, 5) == aug_map(aug_map(
                aug_map(aug_map(aug_map(p)))))

    def test_satellite_orbit_size(self):
        for k in (2, 5, 8):
            seen = set()
            cur = ExtraPoint(1, k, 0)
            for _ in range(3 * (k + 1)):
                seen.add(cur)
                cur = aug_map(cur)
            assert len(seen) == k + 1

    def test_map_is_shift_on_base(self):
        x = BasePoint(BiSeq("01", "100", "0", -1))
        assert aug_map(x).seq == x.seq.shift(1)


class TestProjection:
    def test_base_fixed(self):
        s = BiSeq("01", "100", "0", -1)
        assert project(BasePoint(s)) == s

    def test_satellite_goes_to_orbit_position(self):
        assert project(ExtraPoint(1, 5, 0)) == periodic_point(5)
        assert project(ExtraPoint(2, 5, 3)) == periodic_point(5).shift(3)

    def test_projection_commutes_with_map(self, sys3):
        for p in sys3.extra_points(6):
            assert project(aug_map(p)) == project(p).shift(1)

    def test_tag_gap_is_constant_along_orbits(self):
        q1, q2 = ExtraPoint(1, 3, 1), ExtraPoint(2, 5, 4)
        for s in range(-8, 9):
            lhs = aug_dist(aug_iterate(q1, s), aug_iterate(q2, s))
            rhs = base_dist(project(q1).shift(s), project(q2).shift(s))
            assert lhs - Fraction(1, 3) - Fraction(1, 5) == rhs


class TestOrbitLabel:
    def test_round_trip(self):
        for k in (1, 2, 5, 9):
            for j in range(k + 1):
                assert orbit_label(periodic_point(k).shift(j)) == (k, j)

    def test_rejects_other_sequences(self):
        assert orbit_label(BiSeq("0")) is None
        assert orbit_label(BiSeq("0011")) is None
        assert orbit_label(BiSeq("0", "1", "0", 0)) is None

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01", min_size=1, max_size=4),
           st.text(alphabet="01", max_size=6),
           st.text(alphabet="01", min_size=1, max_size=4),
           st.integers(-5, 5), st.integers(1, 12), st.integers(0, 12))
    def test_tail_label_matches_tagged_orbits(self, left, core, right, offset,
                                              k, turn):
        # the label names the p(k, j) the right tail continues, found here
        # by comparing the continuation with every shift of p(k)
        tagged = "0" * k + "1"
        for r in (right, tagged[turn % (k + 1):] + tagged[:turn % (k + 1)]):
            seq = BiSeq(left, core, r, offset)
            ext = BiSeq(seq.right, "", seq.right, seq.core_end)
            n = len(ext.right) - 1
            found = [(n, j) for j in range(n + 1)
                     if n >= 1 and periodic_point(n).shift(j) == ext]
            assert tail_label(seq) == (found[0] if found else None)


class TestMirror:
    def test_involution_and_conjugacy(self, sys3):
        rng = random.Random(53)
        pts = sys3.extra_points(6) + [random_point(sys3, rng, 6)
                                      for _ in range(40)]
        for p in pts:
            assert mirror_point(mirror_point(p)) == p
            assert mirror_point(aug_iterate(p, -1)) == aug_map(mirror_point(p))

    def test_satellite_rule_matches_reversed_orbit(self):
        # the closed form against reversing the shadowed orbit and reading
        # its label
        for k in range(1, 80):
            for j in range(k + 1):
                x = ExtraPoint(2, k, j)
                rev = orbit_label(project(x).reverse())
                assert mirror_point(x) == ExtraPoint(2, *rev), (k, j)

    def test_isometry(self, sys3):
        rng = random.Random(59)
        for _ in range(300):
            a, b, _ = random_triple(sys3, rng, 8)
            assert aug_dist(mirror_point(a), mirror_point(b)) == aug_dist(a, b)


def test_canonical_key_orders_deterministically(sys3):
    pts = sys3.extra_points(4) + [BasePoint(periodic_point(2))]
    keys = sorted(canonical_key(p) for p in pts)
    assert keys == sorted(set(keys))
    assert keys[0].startswith("base:")


def _mixed_riders(own, rng):
    """A satellite's own orbit segment with some points swapped for its
    copy, its base point or a flip of that base point."""
    k = own[0].k
    return [ExtraPoint(2, k, p.j) if rng.random() < 0.3 else
            BasePoint(project(p)) if rng.random() < 0.2 else
            BasePoint(flip_symbol(project(p), rng.randint(-8, 8)))
            if rng.random() < 0.2 else p
            for p in own]


def _riders(points, start, picks):
    """The points whose orbits ride points[i] at time start + i."""
    return [aug_iterate(points[i % len(points)], -(start + i % len(points)))
            for i in picks]


def _any_po(points, back):
    """points as a pseudo-orbit starting at time -min(back, len - 1), so
    that its window holds 0; the bound 4 exceeds the diameter 3, so every
    list of points validates."""
    return PseudoOrbit(points, 4, -min(back, len(points) - 1))


def _assert_sweeps(y, po):
    """orbit_worst and failure_times against the per-index oracle
    brute_orbit_dists: the first time of the largest distance, and for each
    threshold the last failing time over the whole window; through the
    mirror, failure_times reads the first failing time in [po.start, 0],
    negated."""
    pts = po.points
    dists = brute_orbit_dists(y, pts, po.start)
    worst = max(dists)
    assert orbit_worst(y, po) == (po.start + dists.index(worst), worst)
    ths = sorted(th for th in _bounds_around(dists, pts) | SWEEP_BOUNDS
                 if th > 0)
    last, first_past = [], []
    for th in ths:
        failing = [t for t in range(po.start, po.end + 1)
                   if dists[t - po.start] >= th]
        last.append(failing[-1] if failing else None)
        past = [-t for t in failing if t <= 0]
        first_past.append(past[0] if past else None)
    assert failure_times(y, po, ths) == tuple(last), y
    mirrored = failure_times(mirror_point(y), _mirror_limit_orbit(po), ths)
    assert mirrored == tuple(first_past), y


class TestOrbitDists:
    """The run sweeps orbit_worst and failure_times against the per-index
    oracle brute_orbit_dists."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 10), st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.integers(0, 6), st.lists(st.integers(0, 39), max_size=4))
    def test_hop_orbits(self, delta_exp, seed, length, back, picks):
        rng = random.Random(seed)
        sys3 = AugSystem(3, "standard", 64)
        pts = hop_pseudo_orbit(sys3, rng, length=length,
                               delta_exp=delta_exp).points
        po = _any_po(pts, back)
        ys = _riders(pts, po.start, picks) + [
            random_point(sys3, rng, 10),
            ExtraPoint(1, 2 ** delta_exp + 1, rng.randint(0, 2 ** delta_exp)),
            BasePoint(base_shadow(point_runs([project(p) for p in pts]),
                                  delta_exp))]
        for y in ys:
            _assert_sweeps(y, po)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([("001", "01"), ("0", "1"), ("011", "0001")]),
           st.integers(3, 7), st.lists(st.integers(0, 127), max_size=4))
    def test_switching_limit_orbits(self, words, stages, picks):
        po = switching_limit_orbit(*words, stages=stages)
        pts = po.points
        for y in _riders(pts, 0, picks) + [BasePoint(BiSeq(words[0]))]:
            _assert_sweeps(y, po)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([("001", "0001"), ("01", "1"), ("0", "011")]),
           st.integers(8, 48), st.integers(1, 5),
           st.lists(st.integers(0, 96), max_size=4))
    def test_two_sided_windows(self, words, half, step, picks):
        po = drifting_two_sided_orbit(*words, half=half, defect_step=step)
        assert po.start < 0
        for y in _riders(po.points, po.start, picks):
            _assert_sweeps(y, po)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 29),
           st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_satellite_y(self, k, j, back, length, seed):
        rng = random.Random(seed)
        q = ExtraPoint(1, k, j % (k + 1))
        start = -min(back, length - 1)
        own = [aug_iterate(q, start + t) for t in range(length)]
        for pts in (own, _mixed_riders(own, rng)):
            _assert_sweeps(q, PseudoOrbit(pts, 4, start))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 29),
           st.integers(1, 30))
    def test_y_on_the_ridden_orbit(self, seed, back, length):
        rng = random.Random(seed)
        sys3 = AugSystem(3, "standard", 64)
        y = random_point(sys3, rng, 10)
        start = -min(back, length - 1)
        pts = [aug_iterate(y, start + t) for t in range(length)]
        assert orbit_worst(y, PseudoOrbit(pts, 4, start)) == (start, 0)
        # one index moves off: a flip of a base point, or a satellite's copy
        # or base point at the same position
        i = rng.randrange(length)
        if isinstance(y, BasePoint):
            pts[i] = BasePoint(flip_symbol(pts[i].seq, rng.randint(-9, 9)))
        else:
            pts[i] = rng.choice([ExtraPoint(3 - y.i, y.k, pts[i].j),
                                 BasePoint(project(pts[i]))])
        _assert_sweeps(y, PseudoOrbit(pts, 4, start))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["0", "01", "0010", "1"]), st.integers(0, 10),
           st.integers(1, 20), st.integers(1, 300), st.booleans(),
           st.booleans())
    def test_first_mismatch_beyond_the_span(self, word, back, length, far,
                                            right, tail):
        y = BasePoint(BiSeq(word))
        start = -min(back, length - 1)
        end = start + length - 1
        at = end + far if right else start - far
        if tail:
            flipped = BiSeq(word.translate(str.maketrans("01", "10")))
            z = (assemble(y.seq, at, "", at, flipped, 0) if right
                 else assemble(flipped, at + 1, "", at + 1, y.seq, 0))
        else:
            z = flip_symbol(y.seq, at)
        pts = [BasePoint(z.shift(start + t)) for t in range(length)]
        po = PseudoOrbit(pts, 4, start)
        _assert_sweeps(y, po)
        assert all(0 < d <= Fraction(1, 2) ** far
                   for d in brute_orbit_dists(y, pts, start))


# Bounds that are not powers of two, and sums of a tag 1/k and a dyadic.
ODD_BOUNDS = (Fraction(1, 3), Fraction(3, 16), Fraction(2, 3), Fraction(5, 8),
              Fraction(19, 48), Fraction(5, 4))


# Thresholds for the failure sweeps beyond _bounds_around: the diameter 3
# and one far below every distance drawn here.
SWEEP_BOUNDS = {Fraction(3), Fraction(1, 2 ** 40)}


def _bounds_around(dists, points):
    """Every listed distance (ties), odd bounds, the tags 1/k of the
    satellites present (a residual of 0), and 0, 1, 2 and -1/8."""
    tags = {Fraction(1, p.k) for p in points if isinstance(p, ExtraPoint)}
    return (set(dists) | tags | set(ODD_BOUNDS)
            | {Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 8)})


class TestDistBelow:
    """dist_below(x, y, bound, t) against aug_dist of the t-th images
    below bound."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(-12, 12))
    def test_random_pairs(self, seed, k_hi, t):
        rng = random.Random(seed)
        sys3 = AugSystem(3, "standard", 64)
        a, b, c = random_triple(sys3, rng, k_hi)
        pairs = [(a, b), (b, c), (a, a), (c, c), (aug_map(a), a),
                 (a, BasePoint(project(a))) if isinstance(a, ExtraPoint)
                 else (a, BasePoint(flip_symbol(a.seq, rng.randint(-9, 9))))]
        if isinstance(a, ExtraPoint):
            pairs.append((a, ExtraPoint(3 - a.i, a.k, a.j)))
        for x, y in pairs:
            d = aug_dist(x, y)
            for bound in _bounds_around([d, d / 2, 2 * d], [x, y]):
                assert dist_below(x, y, bound) == (d < bound), (x, y, bound)
            xt, yt = aug_iterate(x, t), aug_iterate(y, t)
            d = aug_dist(xt, yt)
            for bound in _bounds_around([d, d / 2, 2 * d], [xt, yt]):
                assert dist_below(x, y, bound, t) == (d < bound), (x, y, t)


def orbit_within(y, po, eps):
    """y within eps of po.at(t) at every time t of po: stages_within with
    one stage at po.start, y spelling its own projection below it."""
    return stages_within(y, po, [(po.start, eps, project(y))])


class TestOrbitWithin:
    """One stage of stages_within from po.start (orbit_within) against
    all(d <= eps) over brute_orbit_dists."""

    @staticmethod
    def _agree(y, po):
        pts = po.points
        dists = brute_orbit_dists(y, pts, po.start)
        for eps in _bounds_around(dists, pts):
            want = all(d <= eps for d in dists)
            assert orbit_within(y, po, eps) == want, (y, po.start, eps)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.integers(0, 6), st.lists(st.integers(0, 39), max_size=3))
    def test_hop_orbits(self, delta_exp, seed, length, back, picks):
        rng = random.Random(seed)
        sys3 = AugSystem(3, "standard", 64)
        pts = hop_pseudo_orbit(sys3, rng, length=length,
                               delta_exp=delta_exp).points
        po = _any_po(pts, back)
        ys = _riders(pts, po.start, picks) + [
            random_point(sys3, rng, 10),
            BasePoint(base_shadow(point_runs([project(p) for p in pts]),
                                  delta_exp))]
        for y in ys:
            self._agree(y, po)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([("001", "0001"), ("01", "1"), ("0", "011")]),
           st.integers(8, 40), st.integers(1, 5),
           st.lists(st.integers(0, 80), max_size=3))
    def test_two_sided_windows(self, words, half, step, picks):
        po = drifting_two_sided_orbit(*words, half=half, defect_step=step)
        for y in _riders(po.points, po.start, picks):
            self._agree(y, po)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 11), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_satellites_on_the_ridden_orbit(self, k, back, length, seed):
        # y rides the level-k orbit and some indices are its satellites:
        # at eps = 1/k the residual is 0, below it negative
        rng = random.Random(seed)
        start = -min(back, length - 1)
        y = BasePoint(periodic_point(k))
        pts = [ExtraPoint(rng.randint(1, 2), k, (start + t) % (k + 1))
               if rng.random() < 0.4 else aug_iterate(y, start + t)
               for t in range(length)]
        far = BasePoint(flip_symbol(y.seq, rng.choice([-1, 1])
                                    * rng.randint(0, 12)))
        flipped = [BasePoint(flip_symbol(p.seq, rng.randint(-4, 4)))
                   if isinstance(p, BasePoint) and rng.random() < 0.3 else p
                   for p in pts]
        for z in (y, far):
            self._agree(z, PseudoOrbit(pts, 4, start))
            self._agree(z, PseudoOrbit(flipped, 4, start))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 29),
           st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_satellite_y(self, k, j, back, length, seed):
        # a satellite riding its own orbit: the tag levels are read at its
        # image, so its own points sit at 0 and its copies at 1/k
        rng = random.Random(seed)
        q = ExtraPoint(1, k, j % (k + 1))
        start = -min(back, length - 1)
        own = [aug_iterate(q, start + t) for t in range(length)]
        for pts in (own, _mixed_riders(own, rng)):
            self._agree(q, PseudoOrbit(pts, 4, start))

    def test_ties_and_zero_residual(self):
        y = BasePoint(periodic_point(4))
        run = [aug_iterate(y, t) for t in range(-3, 5)]
        # one point off by a flip at depth 3 of its own window: d = 1/8
        off = list(run)
        off[2] = BasePoint(flip_symbol(run[2].seq, 3))
        sat = list(run)
        sat[5] = ExtraPoint(1, 4, orbit_label(project(run[5]))[1])
        run, off, sat = (PseudoOrbit(pts, 4, -3) for pts in (run, off, sat))
        assert orbit_within(y, off, Fraction(1, 8))
        assert not orbit_within(y, off, Fraction(1, 9))
        assert orbit_within(y, sat, Fraction(1, 4))
        assert not orbit_within(y, sat, Fraction(1, 5))
        assert not orbit_within(BasePoint(flip_symbol(y.seq, 40)), sat,
                                Fraction(1, 4))
        assert orbit_within(y, run, Fraction(0))
        assert not orbit_within(y, off, Fraction(0))


class TestStagesWithin:
    """stages_within against, for each stage (start, eps, c), all(d <= eps)
    over the brute distances of the point spelling c below start and y
    from start on, from time start on."""

    @staticmethod
    def _agree(y, po, rng):
        pts = po.points
        starts = sorted(rng.sample(range(po.start, po.end + 1),
                                   rng.randint(1, min(4, len(pts)))))
        stages, want = [], True
        for s in starts:
            held = project(po.at(s)).shift(-s)
            c = rng.choice([held, flip_symbol(held, s - rng.randint(1, 6)),
                            project(y)])
            w = BasePoint(assemble(c, s, "", s, project(y), 0))
            dists = brute_orbit_dists(w, pts[s - po.start:], s)
            eps = rng.choice(sorted(_bounds_around(dists, pts)))
            stages.append((s, eps, c))
            want = want and all(d <= eps for d in dists)
        assert stages_within(y, po, stages) == want, (y, po.start, stages)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.integers(0, 6), st.lists(st.integers(0, 39), max_size=3))
    def test_hop_orbits(self, delta_exp, seed, length, back, picks):
        rng = random.Random(seed)
        sys3 = AugSystem(3, "standard", 64)
        pts = hop_pseudo_orbit(sys3, rng, length=length,
                               delta_exp=delta_exp).points
        po = _any_po(pts, back)
        ys = [y for y in _riders(pts, po.start, picks)
              if isinstance(y, BasePoint)] + [
            BasePoint(base_shadow(point_runs([project(p) for p in pts]),
                                  delta_exp))]
        for y in ys:
            self._agree(y, po, rng)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([("001", "0001"), ("01", "1"), ("0", "011")]),
           st.integers(8, 40), st.integers(1, 5),
           st.lists(st.integers(0, 80), max_size=3),
           st.integers(0, 2**32 - 1))
    def test_two_sided_windows(self, words, half, step, picks, seed):
        rng = random.Random(seed)
        po = drifting_two_sided_orbit(*words, half=half, defect_step=step)
        for y in _riders(po.points, po.start, picks):
            self._agree(y, po, rng)

    def test_left_tail_and_residual_rules(self):
        # on the level-k satellite orbit the residual of eps is eps - 1/k:
        # above 0 a left tail c flipped below the start is read there; at
        # 0 (radius -1) the stage's whole projection must be the orbit's,
        # so only the unflipped tail passes; below 0 (None) it fails
        y = BasePoint(periodic_point(4))
        po = PseudoOrbit([ExtraPoint(1, 4, t % 5) for t in range(9)]
                         + [aug_iterate(y, t) for t in range(9, 12)], 4)
        flipped = flip_symbol(y.seq, 3)
        third = Fraction(1, 3)
        assert stages_within(y, po, [(5, third, y.seq)])
        assert not stages_within(y, po, [(5, third, flipped)])
        assert any(aug_dist(aug_iterate(BasePoint(assemble(
            flipped, 5, "", 5, y.seq, 0)), t), po.at(t)) > third
                   for t in range(5, 12))
        quarter = Fraction(1, 4)
        assert stages_within(y, po, [(5, quarter, y.seq)])
        assert not stages_within(y, po, [(5, quarter, flipped)])
        assert not stages_within(y, po, [(5, Fraction(1, 5), y.seq)])

    def test_one_stage_is_orbit_within(self):
        ts = drifting_two_sided_orbit(half=24)
        y = BasePoint(project(ts.at(0)))
        dists = brute_orbit_dists(y, ts.points, ts.start)
        for eps in (Fraction(1, 2 ** e) for e in range(1, 12)):
            assert (stages_within(y, ts, [(ts.start, eps, project(y))])
                    == all(d <= eps for d in dists))


def test_worst_ties_across_tag_levels_go_to_the_first_time():
    # orbit_worst keeps one least mismatch distance per tag-level pair: a
    # flipped base point and a level-4 satellite both lie 1/2 away, and
    # the first time wins whichever pair it belongs to
    y = BasePoint(periodic_point(4))
    sat = ExtraPoint(1, 4, 2)  # 1/4 + 2**-2 from aug_iterate(y, 1)
    flips = [BasePoint(flip_symbol(project(aug_iterate(y, t)), 1))
             for t in range(3)]
    for pts, first in (([flips[0], sat, aug_iterate(y, 2)], 0),
                       ([y, sat, flips[2]], 1)):
        po = PseudoOrbit(pts, 4)
        assert orbit_worst(y, po) == (first, Fraction(1, 2))
        _assert_sweeps(y, po)


@pytest.mark.parametrize("y", [None, ExtraPoint(1, 3, 0)])
def test_sweeps_fill_one_radius_table_per_call(monkeypatch, y):
    # each sweep computes the residual radius once per tag-level pair and
    # threshold, so the count does not grow with the window
    calls = []
    plain = space.residual_radius

    def spy(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(space, "residual_radius", spy)
    thresholds = tuple(Fraction(1, 2 ** t) for t in range(1, 5))
    counts = []
    for half in (64, 512):
        po = drifting_two_sided_orbit(half=half)
        point = po.at(0) if y is None else y
        calls.clear()
        failure_times(point, po, thresholds)
        orbit_within(point, po, Fraction(1, 4))
        orbit_worst(point, po)
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1]
