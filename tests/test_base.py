import math
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nexpansive
from nexpansive.base import (
    BiSeq,
    agree_from,
    agree_radius,
    assemble,
    base_dist,
    base_shadow,
    dyadic,
    first_mismatch_bwd,
    first_mismatch_fwd,
    flip_symbol,
    glue_specification,
    mismatch_radius,
    nearest_mismatch,
    periodic_orbit,
    periodic_point,
    right_tails_agree,
)
from nexpansive.expansivity import in_stable_set
from nexpansive.space import BasePoint, mirror_point
from oracles import (
    brute_base_dist,
    brute_canonical_fields,
    brute_first_mismatch_bwd,
    brute_first_mismatch_fwd,
    brute_least_period,
    brute_left_tails_agree,
    brute_min_mismatch,
    brute_nearest_mismatch,
    brute_right_tails_agree,
    brute_shadow_search,
    loop_chain_depth,
    loop_modulus_exp,
    loop_spacing_radius,
    point_runs,
)

ZEROS = BiSeq("0")
ONES = BiSeq("1")
SPIKE = BiSeq("0", "1", "0", 0)   # all zero except index 0

words = st.text(alphabet="01", min_size=1, max_size=4)
cores = st.text(alphabet="01", min_size=0, max_size=6)
offsets = st.integers(min_value=-5, max_value=5)


def raw_symbol(left, core, right, offset, i):
    """Reference symbol function computed straight from a raw description."""
    if i < offset:
        return left[(i - offset) % len(left)]
    if i < offset + len(core):
        return core[i - offset]
    return right[(i - offset - len(core)) % len(right)]


class TestCanonicalForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            BiSeq("")
        with pytest.raises(ValueError):
            BiSeq("0", "21", "0", 0)
        with pytest.raises(ValueError):
            BiSeq("0", right="")

    def test_absorption(self):
        assert BiSeq("0", "00100", "0", 0) == BiSeq("00", "0000100", "00", -2)
        assert BiSeq("0", "00100", "0", 0).core == "1"

    def test_fully_periodic_pinned_at_zero(self):
        a = BiSeq("0101", "", "01", 3)
        assert a.is_periodic and a.offset == 0 and a.least_period() == 2
        assert a == BiSeq("10")

    def test_seam_slides_right(self):
        a = BiSeq("0", "", "01", 0)       # zeros then (01) repeating
        b = BiSeq("0", "", "01", 2)       # same sequence, seam shifted
        assert a == BiSeq("0", "", "10", 1) == b.shift(2)

    @settings(max_examples=150, deadline=None)
    @given(words, cores, words, offsets)
    def test_symbols_survive_canonicalization(self, left, core, right, offset):
        seq = BiSeq(left, core, right, offset)
        for i in range(-14, 15):
            assert seq[i] == raw_symbol(left, core, right, offset, i)

    @settings(max_examples=150, deadline=None)
    @given(words, cores, words, offsets, st.integers(1, 3), st.integers(0, 3))
    def test_equivalent_descriptions_collapse(self, left, core, right, offset,
                                              pump, pad):
        seq = BiSeq(left, core, right, offset)
        # pump the periods and slide symbols from the tails into the core
        left2, right2, core2, offset2 = left * pump, right * pump, core, offset
        for _ in range(pad):
            core2 = left2[-1] + core2
            left2 = left2[-1] + left2[:-1]
            offset2 -= 1
        for _ in range(pad):
            core2 = core2 + right2[0]
            right2 = right2[1:] + right2[0]
        assert BiSeq(left2, core2, right2, offset2) == seq

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="01", min_size=1, max_size=12), cores,
           st.text(alphabet="01", min_size=1, max_size=12), offsets,
           st.integers(0, 40), st.integers(0, 40))
    def test_long_runs_match_symbol_loop(self, left, core, right, offset,
                                         before, after):
        # runs that continue the tails, long against the periods
        core = ((left * 40)[:before] + core
                + (right * 40)[len(right) * 40 - after:])
        seq = BiSeq(left, core, right, offset - before)
        assert (seq.left, seq.core, seq.right, seq.offset) == \
            brute_canonical_fields(left, core, right, offset - before)

    def test_window_matches_indexing(self):
        seq = BiSeq("011", "00110", "10", -3)
        assert seq.window(-9, 9) == "".join(seq[i] for i in range(-9, 9))
        assert seq.window(4, 4) == ""


class TestShift:
    def test_identity(self):
        x = BiSeq("01", "001", "1", -1)
        assert x.shift(0) == x

    def test_single_one_moves(self):
        y = SPIKE.shift(1)
        assert y[-1] == "1" and y[0] == "0"
        for j in range(-8, 9):
            assert y[j] == SPIKE[j + 1]

    def test_period_two_example(self):
        p = periodic_point(1)
        assert p[0] == "0"
        assert p.shift(1)[0] == "1"

    @settings(max_examples=80, deadline=None)
    @given(words, cores, words, offsets, st.integers(-6, 6), st.integers(-6, 6))
    def test_composition(self, left, core, right, offset, a, b):
        x = BiSeq(left, core, right, offset)
        assert x.shift(a).shift(b) == x.shift(a + b)

    def test_reverse(self):
        x = BiSeq("011", "00110", "10", -3)
        r = x.reverse()
        for i in range(-10, 11):
            assert r[i] == x[-i]
        assert r.reverse() == x


class TestMetric:
    def test_identity_and_spike(self):
        assert base_dist(ZEROS, ZEROS) == 0
        assert base_dist(ZEROS, SPIKE) == 1

    def test_period_mismatch_example(self):
        # (01)... and (001)... first disagree one step from the origin
        d = base_dist(periodic_point(1), BiSeq("001"))
        assert d == brute_base_dist(periodic_point(1), BiSeq("001"))
        assert d == Fraction(1, 2)

    @settings(max_examples=150, deadline=None)
    @given(words, cores, words, offsets, words, cores, words, offsets)
    def test_agrees_with_scan(self, l1, c1, r1, o1, l2, c2, r2, o2):
        x, y = BiSeq(l1, c1, r1, o1), BiSeq(l2, c2, r2, o2)
        assert base_dist(x, y) == brute_base_dist(x, y)
        assert (base_dist(x, y) == 0) == (x == y)

    def test_symmetry_and_triangle(self):
        rng = random.Random(5)
        pts = [BiSeq("".join(rng.choice("01") for _ in range(rng.randint(1, 4))),
                     "".join(rng.choice("01") for _ in range(rng.randint(0, 6))),
                     "".join(rng.choice("01") for _ in range(rng.randint(1, 4))),
                     rng.randint(-4, 4)) for _ in range(60)]
        for _ in range(3000):
            x, y, z = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert base_dist(x, y) == base_dist(y, x)
            assert base_dist(x, z) <= base_dist(x, y) + base_dist(y, z)

    def test_shift_lipschitz_two(self):
        rng = random.Random(9)
        for _ in range(500):
            x = BiSeq("".join(rng.choice("01") for _ in range(rng.randint(1, 4))),
                      "".join(rng.choice("01") for _ in range(rng.randint(0, 6))),
                      "".join(rng.choice("01") for _ in range(rng.randint(1, 4))),
                      rng.randint(-4, 4))
            y = flip_symbol(x, rng.randint(-6, 6))
            assert base_dist(x.shift(1), y.shift(1)) <= 2 * base_dist(x, y)

    def test_separation_constant_on_periodic_points(self):
        # any two distinct periodic sequences of period <= 6 fully separate
        import itertools
        pts = {BiSeq(w) for n in range(1, 7)
               for w in ("".join(bits) for bits in
                         itertools.product("01", repeat=n))}
        pts = sorted(pts, key=repr)
        for a in pts:
            for b in pts:
                if a == b:
                    continue
                span = math.lcm(a.least_period(), b.least_period())
                sep = max(base_dist(a.shift(t), b.shift(t)) for t in range(span))
                assert sep == 1 > Fraction(1, 2)


class TestPeriodicPoints:
    def test_small_examples(self):
        assert periodic_point(1) == BiSeq("01")
        assert periodic_point(3) == BiSeq("0001")
        assert periodic_point(1).least_period() == 2
        assert periodic_point(3).least_period() == 4

    def test_least_periods_and_orbits(self):
        for k in range(1, 13):
            p = periodic_point(k)
            assert p.least_period() == k + 1 == brute_least_period(p)
            assert len(set(periodic_orbit(k))) == k + 1

    def test_orbits_pairwise_distinct(self):
        for k in range(1, 13):
            for m in range(k + 1, 13):
                span = math.lcm(k + 1, m + 1)
                assert all(periodic_point(k).shift(t) != periodic_point(m)
                           for t in range(span))

    def test_fields_match_symbol_canonicalization(self):
        for k in range(1, 40):
            p = periodic_point(k)
            word = "0" * k + "1"
            assert (p.left, p.core, p.right, p.offset) == \
                brute_canonical_fields(word, "", word, 0)

    def test_least_period_rejects_aperiodic(self):
        with pytest.raises(ValueError):
            SPIKE.least_period()
        assert BiSeq("0011").least_period() == 4
        assert BiSeq("0101").least_period() == 2


def mirrored_tails_agree(x, y):
    """Left tails asked forward through the mirror: x and y agree far in
    the past exactly when their reversals lie in one stable set."""
    return in_stable_set(mirror_point(BasePoint(x)),
                         mirror_point(BasePoint(y)))


class TestTailAgreement:
    def test_examples(self):
        assert right_tails_agree(ZEROS, ZEROS)
        assert right_tails_agree(ZEROS, SPIKE)      # agree from index 1 on
        assert not right_tails_agree(periodic_point(1), ZEROS)
        assert mirrored_tails_agree(ZEROS, SPIKE)

    def test_matches_oracle(self):
        rng = random.Random(13)
        pts = [BiSeq("".join(rng.choice("01") for _ in range(rng.randint(1, 3))),
                     "".join(rng.choice("01") for _ in range(rng.randint(0, 5))),
                     rng.choice(["0", "1", "01", "001"]),
                     rng.randint(-3, 3)) for _ in range(40)]
        for x in pts:
            for y in pts:
                assert right_tails_agree(x, y) == brute_right_tails_agree(x, y)
                assert (mirrored_tails_agree(x, y)
                        == brute_left_tails_agree(x, y))

    def test_equivalence_relation(self):
        rng = random.Random(17)
        pts = [BiSeq("01", "".join(rng.choice("01") for _ in range(4)),
                     rng.choice(["0", "01"]), rng.randint(-2, 2))
               for _ in range(30)]
        for x in pts:
            assert right_tails_agree(x, x)
        for _ in range(2000):
            x, y, z = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert right_tails_agree(x, y) == right_tails_agree(y, x)
            if right_tails_agree(x, y) and right_tails_agree(y, z):
                assert right_tails_agree(x, z)


def random_base_pseudo_orbit(rng, length, exp):
    """Base-level wanderer with jumps strictly below 2**-exp."""
    pts = [BiSeq(rng.choice(["0", "01", "001", "1"]))]
    while len(pts) < length:
        nxt = pts[-1].shift(1)
        roll = rng.random()
        if roll < 0.3:
            depth = exp + 1 + rng.randint(0, 3)
            nxt = flip_symbol(nxt, depth if rng.random() < 0.5 else -depth)
        pts.append(nxt)
    return pts


class TestBaseShadow:
    def test_true_orbit_returns_same_point(self):
        x = BiSeq("01", "100", "0", -1)
        assert base_shadow([(0, 5, x)], 4) == x

    def test_two_pattern_glue(self):
        # move from all zeros toward all ones through a splice, jumps < 1/4
        mid = BiSeq("0", "", "1", 3)      # zeros up to index 2, ones after
        po = [ZEROS, mid.shift(-1), mid]
        # jump sizes: d(zeros, shift(mid,-1)) has first mismatch at index 4
        traced = base_shadow(point_runs(po), 2)
        for i, x in enumerate(po):
            assert base_dist(traced.shift(i), x) <= dyadic(2)
        assert traced[0] == "0"

    def test_random_pseudo_orbits_within_bound(self):
        rng = random.Random(23)
        for _ in range(20):
            po = random_base_pseudo_orbit(rng, 100, 6)
            traced = base_shadow(point_runs(po), 6)
            assert all(base_dist(traced.shift(i), po[i]) <= dyadic(6)
                       for i in range(len(po)))

    def test_gap_violation_reports_index(self):
        po = [ZEROS, ZEROS, ONES]
        with pytest.raises(ValueError, match="index 1"):
            base_shadow(point_runs(po), 3)

    @pytest.mark.parametrize("e", [1, 2, 5])
    def test_gap_exactly_at_the_bound(self, e):
        # a flip at depth e makes the jump exactly 2**-e, which is refused;
        # one at depth e + 1 makes it 2**-(e + 1), which passes
        x = BiSeq("01", "100", "0", -1)
        for sign in (1, -1):
            at = [x, flip_symbol(x.shift(1), sign * e)]
            with pytest.raises(ValueError, match=f"gap 1/{2 ** e} at index 0"):
                base_shadow(point_runs(at), e)
            below = [x, flip_symbol(x.shift(1), sign * (e + 1))]
            assert base_shadow(point_runs(below), e)[0] == x[0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_gap_check_matches_per_jump_oracle(self, data):
        # a true orbit with flips at depths e - 1 .. e + 2, so jumps fall
        # just above, exactly at and just below 2**-e
        e = data.draw(st.integers(1, 6))
        x = BiSeq(data.draw(words), data.draw(cores), data.draw(words),
                  data.draw(offsets))
        po = []
        for t in range(data.draw(st.integers(1, 8))):
            seq = x.shift(t)
            for depth in data.draw(st.lists(st.integers(e - 1, e + 2),
                                            max_size=2)):
                seq = flip_symbol(seq, data.draw(st.sampled_from([depth,
                                                                  -depth])))
            po.append(seq)
        gaps = [brute_base_dist(po[t].shift(1), po[t + 1])
                for t in range(len(po) - 1)]
        bad = [t for t, gap in enumerate(gaps) if gap >= dyadic(e)]
        if bad:
            with pytest.raises(ValueError,
                               match=f"gap {gaps[bad[0]]} at index {bad[0]} "):
                base_shadow(point_runs(po), e)
        else:
            traced = base_shadow(point_runs(po), e)
            assert all(brute_base_dist(traced.shift(t), p) <= dyadic(e)
                       for t, p in enumerate(po))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_maximal_runs_trace_like_single_points(self, data):
        # the same pseudo-orbit over the times start.., once as one run per
        # point and once as its maximal runs: the traced points agree, and
        # a gap is reported at the same index
        e = data.draw(st.integers(1, 5))
        start = data.draw(st.integers(-6, 6))
        seq = BiSeq(data.draw(words), data.draw(cores), data.draw(words),
                    data.draw(offsets))
        po = [seq]
        for _ in range(data.draw(st.integers(0, 12))):
            nxt = po[-1].shift(1)
            if data.draw(st.booleans()):
                nxt = flip_symbol(nxt, data.draw(st.sampled_from(
                    [-e - 2, -e - 1, -e, e, e + 1, e + 2])))
            po.append(nxt)
        runs = []
        for t, p in enumerate(po, start):
            z = p.shift(-t)
            if runs and runs[-1][2] == z:
                runs[-1][1] = t
            else:
                runs.append([t, t, z])
        try:
            want = base_shadow(point_runs(po), e).shift(-start)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                base_shadow(runs, e)
        else:
            assert base_shadow(runs, e) == want

    def test_matches_exhaustive_search(self):
        rng = random.Random(29)
        for _ in range(6):
            po = random_base_pseudo_orbit(rng, rng.randint(2, 6), 5)
            best = brute_shadow_search(po, 5, window=4)
            assert best <= dyadic(5)
            traced = base_shadow(point_runs(po), 5)
            worst = max(base_dist(traced.shift(i), po[i])
                        for i in range(len(po)))
            assert worst <= dyadic(5)


class TestSpecificationGlue:
    def test_single_segment(self):
        # spacing one means no widening: the glue copies the window verbatim
        x = BiSeq("011", "0", "10", 0)
        glued = glue_specification([((-2, 2), x)], 1)
        assert glued.window(-2, 3) == x.window(0, 5)
        for t in range(-2, 3):
            assert base_dist(glued.shift(t), x.shift(t - (-2))) <= 1

    def test_two_segments_spacing_five(self):
        glued = glue_specification([((-3, -1), ZEROS), ((4, 6), ONES)], 5)
        assert glued.window(-5, 2) == "0000000"
        assert glued.window(2, 9) == "1111111"
        for t in range(-3, 0):
            assert base_dist(glued.shift(t), ZEROS) <= dyadic(2)
        for t in range(4, 7):
            assert base_dist(glued.shift(t), ONES.shift(t - 4)) <= dyadic(2)

    def test_three_segments_spacing_seven(self):
        segs = [((-9, -8), periodic_point(2)), ((0, 1), ZEROS),
                ((8, 10), periodic_point(1))]
        glued = glue_specification(segs, 7)
        for (a, b), seq in segs:
            for t in range(a, b + 1):
                assert base_dist(glued.shift(t), seq.shift(t - a)) <= dyadic(3)

    def test_rejects_crowded_intervals(self):
        with pytest.raises(ValueError, match="closer than"):
            glue_specification([((0, 1), ZEROS), ((3, 4), ONES)], 5)


periods = st.text(alphabet="01", min_size=1, max_size=12)


@st.composite
def tail_pairs(draw):
    """Two points whose tails have periods up to 12 and often agree long.

    The second point's periods are prefixes of the first point's periodic
    patterns, so the two tails share a run of at least that length before
    they can differ, which reaches towards the p + q - gcd(p, q) bound.
    """
    u, v = draw(periods), draw(periods)
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    x = BiSeq(u, draw(cores), v, draw(offsets))
    y = BiSeq((u * 12)[-m:], draw(cores), (v * 12)[:n], draw(offsets))
    return x, y


class TestFineWilfMismatch:
    @settings(max_examples=300, deadline=None)
    @given(tail_pairs(), st.integers(-20, 20))
    def test_matches_lcm_scan(self, pair, start):
        x, y = pair
        fwd = brute_first_mismatch_fwd(x, y, start)
        assert first_mismatch_fwd(x, y, start) == fwd
        assert agree_from(x, y, start) == (fwd is None)
        assert first_mismatch_bwd(x, y, start) == \
            brute_first_mismatch_bwd(x, y, start)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 11), st.integers(1, 11), st.integers(0, 11),
           st.integers(-30, 30))
    def test_tagged_periodic_pairs(self, k, m, j, start):
        # periods k + 1 and m + 1, coprime whenever they are consecutive
        x, y = periodic_point(k), periodic_point(m).shift(j)
        assert first_mismatch_fwd(x, y, start) == \
            brute_first_mismatch_fwd(x, y, start)
        assert first_mismatch_bwd(x, y, start) == \
            brute_first_mismatch_bwd(x, y, start)

    def test_mismatch_at_the_last_index_of_the_bound(self):
        # 010010 has periods 5 and 3; the tails first differ at index 6,
        # the last of the p + q - gcd(p, q) = 7 symbols the scan reads.
        x, y = BiSeq("1", "", "01001", 0), BiSeq("1", "", "010", 0)
        assert first_mismatch_fwd(x, y, 0) == 6
        assert first_mismatch_bwd(x.reverse(), y.reverse(), 0) == -6
        assert not right_tails_agree(x, y)

    def test_long_coprime_periods(self):
        # lcm is about 4.3e9 here; the scan reads at most p + q - 1 symbols.
        x = periodic_point(65537)
        y = periodic_point(65538).shift(32768)
        assert first_mismatch_fwd(x, y, 0) == 32770
        assert first_mismatch_bwd(x, y, -1) == -1
        assert base_dist(x, y) == Fraction(1, 2)
        assert not right_tails_agree(x, y) and not mirrored_tails_agree(x, y)


def fine_wilf_word(p, q, bits):
    """A word of length p + q that has periods p and q on its first
    p + q - gcd(p, q) - 1 symbols: positions i and i + p, and i and i + q,
    below that length are joined and each class takes the bit its least
    position draws. For p != q that is the Fine-Wilf extremal length, so
    the two periods may part right after it."""
    n = p + q - math.gcd(p, q) - 1
    root = list(range(p + q))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i in range(n):
        for j in (i + p, i + q):
            if j < n:
                a, b = sorted((find(i), find(j)))
                root[b] = a
    return "".join(bits[find(i)] for i in range(p + q))


@st.composite
def agree_cases(draw):
    """(x, y, start) for agree_from: random pairs, flipped and shifted
    copies, equal-length but different right periods, and Fine-Wilf
    extremal pairs, with starts below, inside and beyond both cores."""
    x = BiSeq(draw(words), draw(cores), draw(words), draw(offsets))
    kind = draw(st.sampled_from(["random", "flip", "shift", "same_length",
                                 "extremal"]))
    if kind == "random":
        y = BiSeq(draw(words), draw(cores), draw(words), draw(offsets))
    elif kind == "flip":
        y = x
        for at in draw(st.lists(st.integers(-12, 12), min_size=1,
                                max_size=2)):
            y = flip_symbol(y, at)
    elif kind == "shift":
        y = x.shift(draw(st.integers(-6, 6)))
    elif kind == "same_length":
        # one symbol of the right period flipped: the same length, and the
        # two rays part once per period
        i = draw(st.integers(0, len(x.right) - 1))
        right = x.right[:i] + "10"[int(x.right[i])] + x.right[i + 1:]
        y = BiSeq(draw(words), x.core, right, x.offset)
    else:
        p, q = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        u = fine_wilf_word(p, q, draw(st.lists(st.sampled_from("01"),
                                               min_size=p + q,
                                               max_size=p + q)))
        core, offset = draw(cores), draw(offsets)
        x = BiSeq(draw(words), core, u[:p], offset)
        y = BiSeq(draw(words), core, u[:q], offset)
    ends = (x.offset, y.offset, x.core_end, y.core_end)
    start = draw(st.one_of(
        st.integers(-20, 20),
        st.tuples(st.sampled_from(ends), st.integers(-8, 8)).map(sum)))
    return x, y, start


class TestAgreeFrom:
    @settings(max_examples=500, deadline=None)
    @given(agree_cases())
    def test_matches_lcm_scan(self, case):
        x, y, start = case
        want = brute_first_mismatch_fwd(x, y, start) is None
        assert agree_from(x, y, start) == want
        assert agree_from(y, x, start) == want

    def test_examples(self):
        # periods 5 and 3 share 010010, the p + q - gcd - 1 = 6 symbols
        # Fine and Wilf allow, and part at index 6
        x, y = BiSeq("1", "", "01001", 0), BiSeq("1", "", "010", 0)
        assert not agree_from(x, y, 0) and not agree_from(x, y, 6)
        # one period length; the rays part at the last symbol of a period
        x, y = BiSeq("1", "1", "0001", 0), BiSeq("1", "1", "0010", 0)
        assert not agree_from(x, y, 1) and not agree_from(x, y, -5)
        # a mismatch deep in the longer core, past the shorter core's end
        # plus one period
        x = BiSeq("0", "1", "0", 0)
        y = flip_symbol(x, 9)
        assert not agree_from(x, y, 0) and agree_from(x, y, 10)
        assert agree_from(y, y, -30)


long_words = st.integers(1, 300).flatmap(
    lambda n: st.integers(0, 2**n - 1).map(lambda b: format(b, f"0{n}b")))
# the probe radius and the edges of the first two doublings
PROBE_EDGES = (0, 15, -15, 16, -16, 17, -17, 31, -31, 32, -32, 33, -33)
# past every Fine-Wilf cap of radius_pairs: |offsets| and |at| <= 400,
# cores <= 6 symbols, two periods <= 300 symbols per side
RADIUS_SCAN = 1100


@st.composite
def radius_pairs(draw):
    """Pairs for mismatch_radius, with periods up to 300 symbols.

    The second point is the first itself, the first with symbols flipped
    (at index 0, at the edges of the probe windows or anywhere), or the
    first with one tail replaced from index ``at`` on by a period that
    repeats the first's own word there, so the two agree for a stretch
    and differ only on that side, often late, near the Fine-Wilf cap.
    Offsets far from 0 put one side's cap far beyond the other's.
    """
    x = BiSeq(draw(long_words), draw(cores), draw(long_words),
              draw(st.integers(-400, 400)))
    kind = draw(st.sampled_from(["equal", "flips", "right", "left"]))
    if kind == "equal":
        return x, BiSeq(x.left, x.core, x.right, x.offset)
    if kind == "flips":
        spots = st.one_of(st.sampled_from(PROBE_EDGES),
                          st.integers(-400, 400))
        y = x
        for at in draw(st.lists(spots, min_size=1, max_size=3)):
            y = flip_symbol(y, at)
        return x, y
    at, n = draw(st.integers(-400, 400)), draw(st.integers(1, 300))
    if kind == "right":
        return x, assemble(x, at, "", at, BiSeq(x.window(at, at + n)), at)
    tail = BiSeq(x.window(at - n, at)).shift(n - at)
    return x, assemble(tail, at, "", at, x, 0)


class TestMismatchRadius:
    @settings(max_examples=400, deadline=None)
    @given(radius_pairs())
    def test_matches_symbol_scan(self, pair):
        x, y = pair
        m = brute_min_mismatch(x, y, RADIUS_SCAN)
        assert mismatch_radius(x, y) == m
        assert mismatch_radius(y, x) == m
        assert base_dist(x, y) == (0 if m is None else Fraction(1, 2) ** m)

    @settings(max_examples=300, deadline=None)
    @given(tail_pairs())
    def test_matches_brute_base_dist(self, pair):
        x, y = pair
        assert base_dist(x, y) == brute_base_dist(x, y)

    @settings(max_examples=400, deadline=None)
    @given(radius_pairs(), st.integers(-500, 500), st.integers(0, 60))
    def test_nearest_to_a_stretch_matches_symbol_scan(self, pair, lo, length):
        x, y = pair
        hi = lo + length
        bound = RADIUS_SCAN + abs(lo) + abs(hi)
        assert nearest_mismatch(x, y, lo, hi) == brute_nearest_mismatch(
            x, y, lo, hi, bound)

    def test_nearest_to_a_stretch_prefers_below_on_a_tie(self):
        x = BiSeq("0")
        for lo, hi, below, above, want in (
                (3, 9, 1, 11, 1), (3, 9, 0, 11, 11), (-40, -20, -90, 30, -90),
                (-40, -20, -91, 30, 30), (5, 5, 5 - 33, 5 + 33, 5 - 33)):
            y = flip_symbol(flip_symbol(x, below), above)
            assert nearest_mismatch(x, y, lo, hi) == want
            assert nearest_mismatch(x, flip_symbol(y, hi), lo, hi) == hi

    @pytest.mark.parametrize("at", PROBE_EDGES)
    def test_single_flip_at_the_probe_edges(self, at):
        x = periodic_point(40).shift(7)
        assert mismatch_radius(x, flip_symbol(x, at)) == abs(at)

    def test_nearer_side_wins(self):
        x = BiSeq("0")
        for near, far in ((5, -6), (-5, 6), (16, -40), (-16, 40), (33, -33)):
            y = flip_symbol(flip_symbol(x, near), far)
            assert mismatch_radius(x, y) == abs(near)

    @pytest.mark.parametrize("n", [3, 7, 9])
    def test_mismatch_at_each_cap(self, n):
        # Fibonacci words s(i + 1) = s(i) + s(i - 1), from "0" and "01":
        # right tails with periods p = |s(n)| and q = |s(n - 1)|, coprime,
        # agree on p + q - 2 symbols, so they first differ at the last index
        # below the right cap max(0, core ends) + p + q - 1 (p, q = 5, 3;
        # 34, 21; 89, 55). Mirrored one step further out, the left tails
        # first differ at the left cap min(0, offsets) - (p + q - 1).
        fib = ["0", "01"]
        while len(fib) <= n:
            fib.append(fib[-1] + fib[-2])
        p, q = len(fib[n]), len(fib[n - 1])
        x, y = BiSeq("1", "", fib[n], 0), BiSeq("1", "", fib[n - 1], 0)
        assert mismatch_radius(x, y) == p + q - 2
        u, v = x.reverse().shift(1), y.reverse().shift(1)
        assert min(u.offset, v.offset) == 0
        assert mismatch_radius(u, v) == p + q - 1
        assert brute_min_mismatch(u, v) == p + q - 1

    def test_far_mismatch_of_consecutive_levels(self):
        for k in (1, 2, 15, 16, 17, 100, 1000):
            x, y = periodic_point(k), periodic_point(k + 1)
            assert mismatch_radius(x, y) == brute_min_mismatch(x, y) == k


class TestShiftIsCanonical:
    @settings(max_examples=200, deadline=None)
    @given(words, cores, words, offsets, st.integers(-30, 30))
    def test_fields_match_construction(self, left, core, right, offset, t):
        x = BiSeq(left, core, right, offset)
        y, ref = x.shift(t), BiSeq(x.left, x.core, x.right, x.offset - t)
        assert (y.left, y.core, y.right, y.offset) == \
            (ref.left, ref.core, ref.right, ref.offset)

    @settings(max_examples=100, deadline=None)
    @given(periods, st.integers(-40, 40))
    def test_globally_periodic(self, word, t):
        x = BiSeq(word)
        y, ref = x.shift(t), BiSeq(x.left, x.core, x.right, x.offset - t)
        assert y.is_periodic and y.offset == 0
        assert (y.left, y.core, y.right, y.offset) == \
            (ref.left, ref.core, ref.right, ref.offset)


class TestReverseIsCanonical:
    """reverse() skips the checked constructor: its fields must be those
    of the checked BiSeq(...) of the same reversed words, and reversing
    twice must give the sequence back."""

    @staticmethod
    def _check(x):
        y = x.reverse()
        ref = BiSeq(x.right[::-1], x.core[::-1], x.left[::-1],
                    1 - x.core_end)
        assert fields(y) == fields(ref)
        assert y.reverse() == x
        assert all(y[i] == x[-i] for i in range(-12, 13))

    @settings(max_examples=200, deadline=None)
    @given(words, cores, words, offsets)
    def test_matches_checked_construction(self, left, core, right, offset):
        self._check(BiSeq(left, core, right, offset))

    @settings(max_examples=100, deadline=None)
    @given(periods, st.integers(-40, 40))
    def test_globally_periodic(self, word, t):
        x = BiSeq(word).shift(t)
        assert x.reverse().is_periodic
        self._check(x)

    @settings(max_examples=150, deadline=None)
    @given(periods, periods, offsets)
    def test_empty_core_seams(self, left, right, offset):
        # the seam slides when the tails agree at it; with equal tails the
        # sequence is globally periodic
        x = BiSeq(left, "", right, offset)
        assert not x.core
        self._check(x)


def assembly_by_loop(left_src, lo, word, hi, right_src, right_anchor):
    """assemble's raw (left, core, right, offset), symbol by symbol."""
    start = min(lo, left_src.offset)
    end = max(hi, right_src.core_end + right_anchor)
    core = ("".join(left_src[i] for i in range(start, lo)) + word
            + "".join(right_src[i - right_anchor] for i in range(hi, end)))
    p, q = len(left_src.left), len(right_src.right)
    left = "".join(left_src[i] for i in range(start - p, start))
    right = "".join(right_src[i - right_anchor] for i in range(end, end + q))
    return left, core, right, start


def fields(seq):
    return seq.left, seq.core, seq.right, seq.offset


class TestAssemble:
    @settings(max_examples=300, deadline=None)
    @given(words, cores, words, offsets, words, cores, words, offsets,
           st.integers(-10, 10), cores, st.integers(-10, 10))
    def test_matches_symbol_loop(self, l1, c1, r1, o1, l2, c2, r2, o2,
                                 lo, word, anchor):
        a, b = BiSeq(l1, c1, r1, o1), BiSeq(l2, c2, r2, o2)
        hi = lo + len(word)
        raw = assembly_by_loop(a, lo, word, hi, b, anchor)
        got = assemble(a, lo, word, hi, b, anchor)
        assert got == BiSeq(*raw)
        assert fields(got) == brute_canonical_fields(*raw)

    @settings(max_examples=300, deadline=None)
    @given(words, cores, words, offsets, st.integers(-10, 10))
    def test_flip_matches_symbol_canonicalization(self, left, core, right,
                                                  offset, pos):
        x = BiSeq(left, core, right, offset)
        flipped = "1" if x[pos] == "0" else "0"
        assert fields(flip_symbol(x, pos)) == brute_canonical_fields(
            *assembly_by_loop(x, pos, flipped, pos + 1, x, 0))

    def test_rejects_non_binary_word(self):
        with pytest.raises(ValueError, match="word over 0/1"):
            assemble(ZEROS, 0, "2", 1, ZEROS, 0)


positive_rationals = st.one_of(
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(lambda e: Fraction(2) ** e, st.integers(-40, 20)),
    st.builds(lambda e, s: Fraction(2) ** e * s, st.integers(-30, 10),
              st.sampled_from([Fraction(999, 1000), Fraction(1001, 1000)])))


class TestAgreeRadius:
    @settings(max_examples=1000, deadline=None)
    @given(positive_rationals)
    def test_matches_search_loops(self, r):
        assert agree_radius(r, True) - 1 == loop_chain_depth(r)
        assert max(1, agree_radius(r / 2, False)) == loop_modulus_exp(r)
        assert agree_radius(r, False) == loop_spacing_radius(r)


_CAPPED_CHILD = """
import sys, time
from click.testing import CliRunner
from nexpansive.base import base_dist, periodic_point
from nexpansive.cli import main

result = CliRunner().invoke(main, ["shadow", "--delta-exp", "16",
                                   "--orbits", "1", "--length", "5",
                                   "--out", sys.argv[1]])
print("exit", result.exit_code, repr(result.exception))
x, y = periodic_point(65537), periodic_point(65538).shift(32768)
t0 = time.perf_counter()
d = base_dist(x, y)
print("base_dist", d, time.perf_counter() - t0)
"""


def test_deep_levels_fit_under_a_memory_cap(tmp_path):
    """delta_exp 16 draws levels above 65536, whose tails have lcm ~4e9."""
    cap = 2 * 1024 ** 3

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(nexpansive.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env=env, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "exit 0 None", proc.stdout
    _, dist, seconds = lines[1].split()
    assert dist == "1/2"
    assert float(seconds) < 1.0
