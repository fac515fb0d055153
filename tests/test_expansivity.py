import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexpansive import space
from nexpansive.base import (
    BiSeq,
    agree_radius,
    assemble,
    flip_symbol,
    periodic_orbit,
    periodic_point,
    right_tails_agree,
)
from nexpansive.space import (
    VARIANTS,
    AugSystem,
    BasePoint,
    ExtraPoint,
    aug_iterate,
    aug_map,
    canonical_key,
    level_gap,
    orbit_label,
    project,
    tag_levels,
    tail_label,
    window_sup_dist,
)
from nexpansive.expansivity import (
    ExpansivityCertificate,
    ExpansivityFalsifier,
    StabilizationNotReached,
    check_expansivity,
    dynamic_ball,
    in_local_stable,
    in_stable_set,
    local_stable_radius,
    lower_expansivity_falsifier,
    stabilization_index,
    stable_class_count,
    _stable_candidates,
    _stable_entry_time,
)
from nexpansive.samples import construction_sample, random_point, window_probe
from oracles import (
    brute_ball_members,
    brute_first_mismatch_bwd,
    brute_first_mismatch_fwd,
    brute_left_tails_agree,
    brute_stable_classes,
    brute_sup_forward,
    brute_sup_orbit,
    brute_sup_window,
    pair_horizon,
)

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def mixed_points(sys, seed, count=12):
    rng = random.Random(seed)
    pts = [BasePoint(periodic_point(3)), BasePoint(periodic_point(5).shift(2)),
           ExtraPoint(1, 3, 0), ExtraPoint(2, 5, 4), ExtraPoint(1, 8, 1),
           BasePoint(BiSeq("0")), BasePoint(flip_symbol(periodic_point(5), -3)),
           BasePoint(window_probe(periodic_point(4), 3))]
    pts += [random_point(sys, rng, 9) for _ in range(count)]
    return pts


words = st.text(alphabet="01", min_size=1, max_size=4)
cores = st.text(alphabet="01", min_size=0, max_size=6)
offsets = st.integers(-5, 5)
DEPTHS = [d for d in range(-8, 9) if d]
EPSILONS = ([Fraction(0), Fraction(3, 16), Fraction(1, 3), Fraction(9, 20),
             Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4),
             Fraction(-1, 4)] + [Fraction(1, k) for k in range(2, 17)])


@st.composite
def stable_pairs(draw):
    """(y, x) for in_local_stable: a tagged periodic, random or long-tail
    base sequence under x, and under y the same sequence with flips at
    depths +-1..+-8, a tail agreeing with it for long, or another tagged
    periodic sequence; either side is a satellite over a tagged one."""
    def tagged():
        k = draw(st.integers(1, 9))
        return periodic_point(k).shift(draw(st.integers(0, k)))

    def over(seq):
        label = orbit_label(seq)
        if label is not None and draw(st.booleans()):
            return ExtraPoint(draw(st.integers(1, 3)), *label)
        return BasePoint(seq)

    kind = draw(st.sampled_from(["tagged", "random", "tails"]))
    if kind == "tails":
        u, left, core, o = draw(words), draw(words), draw(cores), draw(offsets)
        s = BiSeq(left, core, u, o)
        t = BiSeq(left, core, (u * 12)[:draw(st.integers(1, 12))], o)
    else:
        s = tagged() if kind == "tagged" else BiSeq(
            draw(words), draw(cores), draw(words), draw(offsets))
        if draw(st.integers(0, 4)) == 0:
            t = tagged()
        else:
            t = s
            for d in draw(st.lists(st.sampled_from(DEPTHS), max_size=3)):
                t = flip_symbol(t, d)
    return over(t), over(s)


class TestLocalStableSets:
    @settings(max_examples=600, deadline=None)
    @given(stable_pairs(), st.sampled_from(EPSILONS))
    def test_window_check_matches_brute_supremum(self, pair, eps):
        y, x = pair
        assert in_local_stable(y, x, eps) == (brute_sup_forward(y, x) <= eps)

    def test_reflexive(self, sys3):
        # every point kind is in its own local stable set at every eps >= 0,
        # and a copy over the same position stays 1/k away
        for x in mixed_points(sys3, 67, count=4):
            for eps in EPSILONS:
                assert in_local_stable(x, x, eps) == (eps >= 0), (x, eps)
            if isinstance(x, ExtraPoint):
                copy = ExtraPoint(3 - x.i, x.k, x.j)
                for eps in EPSILONS:
                    assert in_local_stable(copy, x, eps) == (
                        eps >= Fraction(1, x.k)), (x, eps)

    def test_satellite_sits_on_the_boundary(self):
        for k in (3, 5, 8):
            pk = BasePoint(periodic_point(k))
            q = ExtraPoint(1, k, 0)
            assert in_local_stable(q, pk, Fraction(1, k))
            assert not in_local_stable(q, pk, Fraction(1, k + 1))

    def test_stable_set_membership(self):
        zeros = BasePoint(BiSeq("0"))
        assert in_stable_set(zeros, zeros)
        assert in_stable_set(BasePoint(flip_symbol(BiSeq("0"), -1)), zeros)
        assert not in_stable_set(ExtraPoint(1, 5, 0),
                                 BasePoint(periodic_point(5)))
        assert not in_stable_set(BasePoint(periodic_point(1)), zeros)
        assert brute_left_tails_agree(flip_symbol(BiSeq("0"), 1), zeros.seq)

    def test_stable_equivalence_relation(self, sys3):
        pts = mixed_points(sys3, 71)
        for x in pts:
            assert in_stable_set(x, x)
            for y in pts:
                assert in_stable_set(x, y) == in_stable_set(y, x)
                for z in pts:
                    if in_stable_set(x, y) and in_stable_set(y, z):
                        assert in_stable_set(x, z)


class TestDynamicBalls:
    def test_cluster_membership(self, sys3, sys5, fe):
        for k in range(3, 16):
            ball = dynamic_ball(sys3, BasePoint(periodic_point(k)),
                                Fraction(1, k))
            assert len(ball) == 3
            expected = {BasePoint(periodic_point(k)), ExtraPoint(1, k, 0),
                        ExtraPoint(2, k, 0)}
            assert set(ball.members) == expected
        assert len(dynamic_ball(sys5, BasePoint(periodic_point(7)),
                                Fraction(1, 7))) == 5
        assert len(dynamic_ball(fe, BasePoint(periodic_point(7)),
                                Fraction(1, 7))) == 7

    def test_zero_radius_is_singleton(self, sys3):
        for x in (ExtraPoint(1, 5, 2), BasePoint(periodic_point(4))):
            ball = dynamic_ball(sys3, x, Fraction(0))
            assert ball.members == (x,)

    def test_satellite_center(self, sys3):
        ball = dynamic_ball(sys3, ExtraPoint(1, 5, 2), Fraction(1, 5))
        assert set(ball.members) == {ExtraPoint(1, 5, 2), ExtraPoint(2, 5, 2),
                                     BasePoint(periodic_point(5).shift(2))}

    def test_monotone_in_radius(self, sys3):
        for x in mixed_points(sys3, 73, count=4):
            small = set(dynamic_ball(sys3, x, Fraction(1, 9)).members)
            large = set(dynamic_ball(sys3, x, QUARTER).members)
            assert x in small and small <= large

    def test_exact_mode_needs_small_radius(self, sys3):
        with pytest.raises(ValueError):
            dynamic_ball(sys3, BasePoint(BiSeq("0")), Fraction(1, 2))

    def test_against_brute_universe(self, sys3, fe):
        universe = sys3.extra_points(10)
        for k in range(1, 11):
            universe += [BasePoint(s) for s in periodic_orbit(k)]
        rng = random.Random(79)
        universe += [random_point(sys3, rng, 10) for _ in range(20)]
        centers = [BasePoint(periodic_point(5)), ExtraPoint(1, 7, 3),
                   BasePoint(BiSeq("0")), universe[17]]
        for c in centers:
            for radius in (Fraction(1, 5), Fraction(1, 8), QUARTER):
                got = set(dynamic_ball(sys3, c, radius).members)
                want = set(brute_ball_members(c, radius, universe))
                # brute restricted to the universe: library set must contain
                # it and add nothing outside the closed-form cluster
                assert want <= got
                for extra_member in got - want:
                    assert brute_sup_orbit(c, extra_member) <= radius

    def test_horizon_mode_reports_window(self, sys3):
        center = BasePoint(periodic_point(5))
        ball = dynamic_ball(sys3, center, Fraction(1, 5), k_hi=8,
                            mode="horizon", horizon=30)
        assert ball.mode == "horizon" and ball.horizon == 30
        exact = dynamic_ball(sys3, center, Fraction(1, 5))
        assert set(exact.members) <= set(ball.members)

    def test_negative_horizon_rejected(self, sys3):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            dynamic_ball(sys3, BasePoint(periodic_point(5)), Fraction(1, 5),
                         mode="horizon", horizon=-1)

    def test_window_sup_lower_bounds_orbit_sup(self, sys3):
        pts = mixed_points(sys3, 83, count=4)
        for x in pts:
            for y in pts:
                h = pair_horizon(x, y)
                sup = brute_sup_orbit(x, y)
                assert window_sup_dist(x, y, h) == sup
                assert window_sup_dist(x, y, 2) <= sup

    @pytest.mark.parametrize("horizon", [0, 1, 4, 13, 40])
    def test_window_sup_matches_brute(self, sys3, horizon):
        # base pairs, satellites at one orbit position (with the base point
        # under them) and satellites at different positions and levels
        base = [BasePoint(periodic_point(3)), BasePoint(BiSeq("0")),
                BasePoint(flip_symbol(periodic_point(5), -3)),
                BasePoint(BiSeq("01", "1", "0", -2))]
        same = [ExtraPoint(1, 5, 2), ExtraPoint(2, 5, 2),
                BasePoint(periodic_point(5).shift(2))]
        different = [ExtraPoint(1, 5, 0), ExtraPoint(2, 3, 1),
                     ExtraPoint(1, 8, 7)]
        pts = base + same + different
        for x in pts:
            for y in pts:
                assert window_sup_dist(x, y, horizon) == brute_sup_window(
                    x, y, -horizon, horizon), (x, y)

    def test_builds_without_orbit_sweeps(self, sys3, monkeypatch):
        # a window supremum is one mismatch scan, so no orbit segment is
        # swept, whatever the horizon and whichever the center's kind
        def refuse(*args):
            raise AssertionError("an orbit sweep ran")

        monkeypatch.setattr(space, "_carriers", refuse)
        radius = Fraction(3, 4)
        for center in (BasePoint(periodic_point(5)), ExtraPoint(1, 5, 0)):
            ball = dynamic_ball(sys3, center, radius, mode="horizon",
                                horizon=200)
            assert center in ball.members and len(ball) >= 2
            for y, d in zip(ball.members, ball.distances):
                assert d == brute_sup_window(center, y, -200, 200) <= radius


class TestExpansivityCertificates:
    def test_certificate_at_level(self, sys3):
        sample = mixed_points(sys3, 89, count=30) + sys3.extra_points(10)
        cert = check_expansivity(sys3, QUARTER, sample)
        assert isinstance(cert, ExpansivityCertificate)
        assert cert.largest_ball == 3
        assert cert.sample_size == len(sample)

    def test_falsifier_below_level(self, sys3):
        sample = [BasePoint(periodic_point(k)) for k in range(3, 12)]
        fal = check_expansivity(sys3, QUARTER, sample, bound=2)
        assert isinstance(fal, ExpansivityFalsifier)
        assert len(fal.members) == 3
        assert all(d <= QUARTER for d in fal.distances)

    def test_bare_base_is_expansive(self):
        from nexpansive.space import AugSystem
        bare = AugSystem(1, "standard")
        sample = [BasePoint(periodic_point(k)) for k in range(1, 10)]
        cert = check_expansivity(bare, QUARTER, sample, bound=1)
        assert isinstance(cert, ExpansivityCertificate)
        assert cert.largest_ball == 1

    def test_lower_falsifier_all_scales(self, sys3, sys5):
        for c in (QUARTER, Fraction(1, 8), Fraction(1, 16), Fraction(2, 7)):
            fal = lower_expansivity_falsifier(sys3, c)
            assert fal.bound == 2
            assert len(fal.members) == 3
            assert all(d < c for d in fal.distances if d > 0)
            fal5 = lower_expansivity_falsifier(sys5, c)
            assert len(fal5.members) == 5


def oracle_stable_classes(sys, center, eps, universe):
    """Enumerate-and-partition oracle over an explicit universe."""
    members = [y for y in set(universe) | {center}
               if brute_sup_forward(y, center) <= eps]
    classes = []
    for y in sorted(members, key=canonical_key):
        for cls in classes:
            if in_stable_set(y, cls[0]):
                cls.append(y)
                break
        else:
            classes.append([y])
    return {frozenset(c) for c in classes}


def level_radius(point):
    """1/k for points over a level-k tagged orbit with k >= 3, else None."""
    label = ((point.k, point.j) if isinstance(point, ExtraPoint)
             else orbit_label(point.seq))
    return Fraction(1, label[0]) if label and label[0] >= 3 else None


class TestStableClassCounts:
    def test_classes_match_pairwise_grouping(self):
        # the acceptance samples at criterion 05's radii and at 0; the
        # finite expansive variant's multiplicities ignore n, so its
        # satellites stop at level 12 to keep the sample small. The metric
        # is symmetric, so the oracle supremum of each pair of distinct
        # points is computed once, for both orders, every eps and every
        # system that pairs them.
        sups = {}
        for variant, extras_k_hi in (("standard", 50), ("finite_expansive", 12)):
            for n in (2, 3, 5):
                system = AugSystem(n, variant, 50)
                sample = construction_sample(system, extras_k_hi=extras_k_hi,
                                             orbits_k_hi=12, random_count=200,
                                             seed=7)
                for x in sample:
                    level = level_radius(x)
                    pool = _stable_candidates(system, x, ())
                    for y in pool:
                        pair = frozenset((y, x))
                        if pair not in sups:
                            sups[pair] = (Fraction(0) if y == x
                                          else brute_sup_forward(y, x))
                    for eps in (Fraction(0), QUARTER, Fraction(1, 8),
                                *([level] if level else [])):
                        rep = stable_class_count(system, x, eps)
                        members = tuple(y for y in pool
                                        if sups[frozenset((y, x))] <= eps)
                        assert rep.members == members, (x, eps)
                        assert (rep.count, rep.representatives, rep.classes) \
                            == brute_stable_classes(x, members), (x, eps)

    def test_cluster_count_at_level(self, sys3, sys5):
        for k in range(3, 15):
            rep = stable_class_count(sys3, BasePoint(periodic_point(k)),
                                     Fraction(1, k))
            assert rep.count == 3
            assert rep.representatives[0] == BasePoint(periodic_point(k))
        assert stable_class_count(sys5, BasePoint(periodic_point(4)),
                                  QUARTER).count == 5

    def test_count_one_cases(self, sys3):
        assert stable_class_count(sys3, BasePoint(BiSeq("0011")),
                                  QUARTER).count == 1
        assert stable_class_count(sys3, BasePoint(periodic_point(7)),
                                  Fraction(0)).count == 1
        assert stable_class_count(sys3, ExtraPoint(1, 5, 1),
                                  Fraction(1, 6)).count == 1

    def test_satellite_center_classes(self, sys3):
        rep = stable_class_count(sys3, ExtraPoint(1, 5, 1), QUARTER)
        assert rep.count == 3
        assert rep.representatives[0] == ExtraPoint(1, 5, 1)
        flat = {p for cls in rep.classes for p in cls}
        assert BasePoint(periodic_point(5).shift(1)) in flat

    def test_matches_enumeration_oracle(self, sys3):
        universe = sys3.extra_points(12)
        for k in range(1, 13):
            universe += [BasePoint(s) for s in periodic_orbit(k)]
        rng = random.Random(97)
        universe += [random_point(sys3, rng, 12) for _ in range(30)]
        centers = [BasePoint(periodic_point(k)) for k in (3, 5, 8)]
        centers += [ExtraPoint(2, 6, 1), BasePoint(BiSeq("0")),
                    BasePoint(flip_symbol(periodic_point(6), -4))]
        for center in centers:
            for eps in (QUARTER, Fraction(1, 8), Fraction(1, 5)):
                want = oracle_stable_classes(sys3, center, eps, universe)
                got = stable_class_count(sys3, center, eps, sample=universe)
                assert got.count == len(want), (center, eps)
                got_classes = {
                    frozenset(p for p in cls if p in set(universe) | {center})
                    for cls in got.classes}
                assert got_classes == want

    def test_monotone_in_radius(self, sys3):
        for x in mixed_points(sys3, 101, count=6):
            n1 = stable_class_count(sys3, x, Fraction(1, 8)).count
            n2 = stable_class_count(sys3, x, QUARTER).count
            assert n1 <= n2

    def test_monotone_along_orbit(self, sys3):
        for x in mixed_points(sys3, 103, count=6):
            for eps in (Fraction(1, 8), QUARTER):
                assert (stable_class_count(sys3, x, eps).count
                        <= stable_class_count(sys3, aug_map(x), eps).count)

    def test_bounded_by_level(self, sys3, sys5):
        for sys in (sys3, sys5):
            for x in mixed_points(sys, 107, count=10):
                for eps in (QUARTER, Fraction(1, 8)):
                    assert stable_class_count(sys, x, eps).count <= sys.n

    def test_rejects_large_eps(self, sys3):
        with pytest.raises(ValueError):
            stable_class_count(sys3, BasePoint(BiSeq("0")), Fraction(1, 2))

    def test_rejects_foreign_satellites(self, sys3):
        bad = ExtraPoint(5, 3, 0)   # the standard n=3 system has two copies
        with pytest.raises(ValueError, match="multiplicity"):
            dynamic_ball(sys3, bad, QUARTER)
        with pytest.raises(ValueError, match="multiplicity"):
            stable_class_count(sys3, bad, QUARTER)


class TestStableRadius:
    def test_quarter_of_cluster_gap(self, sys3):
        for k in range(3, 12):
            r = local_stable_radius(sys3, BasePoint(periodic_point(k)),
                                    Fraction(1, k))
            assert r == Fraction(1, 4 * k)

    def test_no_competitor_returns_eps(self, sys3):
        assert local_stable_radius(sys3, BasePoint(BiSeq("0011")),
                                   QUARTER) == QUARTER

    def test_satellite_center(self, sys3):
        assert local_stable_radius(sys3, ExtraPoint(1, 6, 2),
                                   QUARTER) == Fraction(1, 24)

    def test_inclusion_along_orbit_window(self, sys3):
        for x in [BasePoint(periodic_point(5)), ExtraPoint(2, 4, 1),
                  BasePoint(flip_symbol(periodic_point(8), 2)),
                  BasePoint(BiSeq("011"))]:
            r = local_stable_radius(sys3, x, QUARTER)
            for m in range(-8, 9):
                rep = stable_class_count(sys3, aug_iterate(x, m), r)
                assert rep.count == 1, (x, m)


def limsup_rule_radius(sys, center, eps):
    """local_stable_radius with each competitor's separation read as the
    limsup of its forward distance to the anchor: the tag gap, plus 1
    unless the right tails of the projections agree."""
    anchor = aug_iterate(center,
                         _stable_entry_time(center, eps, sys.multiplicity))
    report = stable_class_count(sys, anchor, eps)
    if report.count == 1:
        return eps
    seps = [level_gap(*tag_levels(z, anchor))
            + (0 if right_tails_agree(project(z), project(anchor)) else 1)
            for z in report.representatives if z != anchor]
    return min(seps) / 4


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.sampled_from(VARIANTS),
       st.sampled_from([Fraction(1, 16), Fraction(1, 8), Fraction(3, 16),
                        Fraction(1, 5), QUARTER, Fraction(9, 20)]),
       st.integers(0, 2**32 - 1), st.sampled_from(["random", "flip", "extra"]))
def test_stable_radius_reads_tag_gaps(n, variant, eps, seed, kind):
    # below 1/2 every competitor shares the anchor's right tail, so its
    # separation is its tag gap; centers near tagged orbits have
    # competitors, random ones mostly not
    sys = AugSystem(n, variant, 64)
    rng = random.Random(seed)
    k = rng.randint(1, 12)
    if kind == "flip":
        center = BasePoint(flip_symbol(periodic_point(k).shift(rng.randint(
            0, k)), rng.choice([-1, 1]) * rng.randint(0, 9)))
    elif kind == "extra" and sys.multiplicity(k) >= 1:
        center = ExtraPoint(rng.randint(1, sys.multiplicity(k)), k,
                            rng.randint(0, k))
    else:
        center = random_point(sys, rng, 12)
    assert (local_stable_radius(sys, center, eps)
            == limsup_rule_radius(sys, center, eps))


def scanned_stabilization(counts):
    """The per-iterate scan stabilization_index replaced, given the counts
    on [0, m_hi]: the plateau walked back from m_hi, as (l, value), or None
    where the scan raised StabilizationNotReached."""
    m_hi = len(counts) - 1
    l = m_hi
    while l > 0 and counts[l - 1] == counts[m_hi]:
        l -= 1
    return None if l == m_hi else (l, counts[m_hi])


STABILIZATION_EPS = (Fraction(0), Fraction(1, 16), Fraction(1, 8),
                     Fraction(3, 16), Fraction(1, 5), QUARTER, Fraction(1, 3),
                     Fraction(9, 20))


@st.composite
def stabilization_cases(draw):
    """(system, center, eps): a base point with flips near a tagged
    periodic tail, a tagged tail assembled onto another sequence, or a
    random point, in either variant at n from 1 to 3."""
    system = AugSystem(draw(st.integers(1, 3)), draw(st.sampled_from(VARIANTS)))
    k = draw(st.integers(1, 12))
    tagged = periodic_point(k).shift(draw(st.integers(0, k)))
    kind = draw(st.sampled_from(["flips", "assembled", "random"]))
    if kind == "flips":
        seq = tagged
        for d in draw(st.lists(st.integers(-6, 18), max_size=3)):
            seq = flip_symbol(seq, d)
        center = BasePoint(seq)
    elif kind == "assembled":
        at = draw(st.integers(-6, 18))
        left = BiSeq(draw(words), draw(cores), draw(words), draw(offsets))
        center = BasePoint(assemble(left, at, "", at, tagged,
                                    draw(st.integers(-3, 3))))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        center = random_point(system, rng, 12)
    # eps just above the tag 1/k leaves a spare radius the flips can cross
    spare = Fraction(1, k) + Fraction(1, 2 ** draw(st.integers(2, 7)))
    eps = draw(st.sampled_from([*STABILIZATION_EPS,
                                *([spare] * 4 if spare < HALF else [])]))
    return system, center, eps


def scanned_entry_time(center, eps, multiplicity):
    """_stable_entry_time with its last mismatch found by the symbol scan
    oracles.brute_first_mismatch_bwd, after checking that the tagged
    orbit continuing the center's right tail leaves no mismatch at or
    above the last core end."""
    label = (None if isinstance(center, ExtraPoint)
             else tail_label(center.seq))
    if label is None or multiplicity(label[0]) < 1:
        return 0
    s, ext = center.seq, project(ExtraPoint(1, *label))
    spare = eps - level_gap(label[0])
    if s == ext or spare <= 0:
        return 0
    start = max(s.core_end, ext.core_end)
    assert brute_first_mismatch_fwd(s, ext, start) is None
    last = brute_first_mismatch_bwd(s, ext, start)
    return max(0, last + agree_radius(spare, False))


@settings(max_examples=300, deadline=None)
@given(stabilization_cases())
def test_entry_time_matches_backward_scan(case):
    system, center, eps = case
    assert (_stable_entry_time(center, eps, system.multiplicity)
            == scanned_entry_time(center, eps, system.multiplicity))


class TestStabilization:
    def test_periodic_center_stabilizes_immediately(self, sys3):
        for k in (3, 5, 9):
            l, value = stabilization_index(sys3, BasePoint(periodic_point(k)),
                                           Fraction(1, k), 8)
            assert (l, value) == (0, 3)

    def test_plain_point(self, sys3):
        l, value = stabilization_index(sys3, BasePoint(BiSeq("0011")),
                                       QUARTER, 8)
        assert (l, value) == (0, 1)

    def test_engineered_entry_time(self, sys3):
        # tail of the level-8 orbit with one defect at time 2: the spare
        # radius 1/4 - 1/8 = 1/8 needs the defect three steps in the past
        x = BasePoint(flip_symbol(periodic_point(8), 2))
        counts = [stable_class_count(sys3, aug_iterate(x, t), QUARTER).count
                  for t in range(11)]
        assert counts == [1] * 5 + [3] * 6
        l, value = stabilization_index(sys3, x, QUARTER, 10)
        assert (l, value) == (5, 3)

    def test_unsettled_window_raises(self, sys3):
        x = BasePoint(flip_symbol(periodic_point(8), 3))
        with pytest.raises(StabilizationNotReached):
            stabilization_index(sys3, x, QUARTER, 6)
        l, value = stabilization_index(sys3, x, QUARTER, 12)
        assert (l, value) == (6, 3)

    @settings(max_examples=400, deadline=None)
    @given(stabilization_cases())
    def test_matches_per_iterate_scan(self, case):
        # one scan of the counts on [0, 16] serves every m_hi from 1 to 16
        system, center, eps = case
        counts = [stable_class_count(system, aug_iterate(center, t),
                                     eps).count for t in range(17)]
        for m_hi in range(1, 17):
            want = scanned_stabilization(counts[:m_hi + 1])
            if want is None:
                with pytest.raises(StabilizationNotReached):
                    stabilization_index(system, center, eps, m_hi)
            else:
                assert stabilization_index(system, center, eps,
                                           m_hi) == want, m_hi
