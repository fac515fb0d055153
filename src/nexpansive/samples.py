"""Deterministic sample and pseudo-orbit generators.

Everything here is driven by an explicit random.Random instance or is a
pure function of its arguments, so a fixed seed reproduces every sample
byte for byte. Random base points have bounded descriptions (period and
core lengths are capped), keeping all downstream arithmetic small.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from nexpansive.base import (
    BiSeq,
    assemble,
    dyadic,
    flip_symbol,
    periodic_orbit,
    periodic_point,
)
from nexpansive.space import (
    BasePoint,
    ExtraPoint,
    aug_iterate,
    aug_map,
    canonical_key,
    dist_below,
    orbit_label,
    project,
)
from nexpansive.shadowing import PseudoOrbit


def random_word(rng, lo, hi):
    length = rng.randint(lo, hi)
    return format(rng.getrandbits(length), f"0{length}b") if length else ""


def random_biseq(rng):
    """A random eventually periodic sequence with a bounded description:
    periods of 1 to 6 symbols, a core of at most 8, offset in [-4, 4]."""
    return BiSeq(random_word(rng, 1, 6), random_word(rng, 0, 8),
                 random_word(rng, 1, 6), rng.randint(-4, 4))


@functools.lru_cache(maxsize=64)
def _satellite_levels(sys, k_hi):
    """The levels up to k_hi that carry at least one satellite copy."""
    return tuple(k for k in range(1, k_hi + 1) if sys.multiplicity(k) >= 1)


def random_point(sys, rng, k_hi=None, extra_share=0.4):
    """A random point, satellite with probability extra_share and then of
    level at most sys.level_bound(k_hi)."""
    k_hi = sys.level_bound(k_hi)
    if rng.random() < extra_share:
        choices = _satellite_levels(sys, k_hi)
        if choices:
            k = rng.choice(choices)
            return ExtraPoint(rng.randint(1, sys.multiplicity(k)), k,
                              rng.randint(0, k))
    return BasePoint(random_biseq(rng))


def random_triple(sys, rng, k_hi=None):
    """Three independent random points, for metric axiom trials."""
    return (random_point(sys, rng, k_hi), random_point(sys, rng, k_hi),
            random_point(sys, rng, k_hi))


def window_probe(seq, depth):
    """A point agreeing with seq on [-depth, depth] and zero outside."""
    return BiSeq("0", seq.window(-depth, depth + 1), "0", -depth)


def construction_sample(sys, extras_k_hi=50, orbits_k_hi=12, random_count=200,
                        seed=7):
    """The standard verification sample.

    Satellites up to extras_k_hi, the full tagged periodic orbits up to
    orbits_k_hi, seeded random base points, and structured probes around
    the periodic points of levels 3, 5 and 8: window copies and
    single-symbol flips at depths 2, 4 and 8, points that stay close to an
    orbit for a while without following it.
    """
    pts = list(sys.extra_points(extras_k_hi))
    for k in range(1, orbits_k_hi + 1):
        pts.extend(BasePoint(s) for s in periodic_orbit(k))
    rng = random.Random(seed)
    pts.extend(BasePoint(random_biseq(rng)) for _ in range(random_count))
    for k in (3, 5, 8):
        base = periodic_point(k)
        for d in (2, 4, 8):
            pts.append(BasePoint(window_probe(base, d)))
            pts.append(BasePoint(flip_symbol(base, d + 1)))
            pts.append(BasePoint(flip_symbol(base, -(d + 1))))
    unique = {canonical_key(p): p for p in pts}
    return [unique[key] for key in sorted(unique)]


def hop_pseudo_orbit(sys, rng, length=100, delta_exp=6):
    """A pseudo-orbit with jumps below 2**-delta_exp that really wanders.

    Mostly follows true orbits, but with seeded probability it perturbs a
    symbol beyond the jump depth, drifts its future off toward another
    deep periodic pattern (levels 2**delta_exp + 1 to 2**delta_exp + 25),
    boards the satellite copy of a deep orbit it currently rides, or steps
    back down to the base. Satellites shallower than the jump bound never
    appear, so the isolation dichotomy of the tracing engine is respected
    by construction.
    """
    bound = dyadic(delta_exp)
    level_lo = 2 ** delta_exp + 1

    def fresh_level():
        k = rng.randint(level_lo, level_lo + 24)
        return k, rng.randint(0, k)

    # a step that follows the map extends the current run; a modified step
    # starts one, with the new point pulled back to time 0
    k, j = fresh_level()
    point = BasePoint(periodic_point(k).shift(j))
    runs = [[0, 0, point]]
    for t in range(1, length):
        nxt = followed = aug_map(point)
        roll = rng.random()
        if isinstance(nxt, ExtraPoint):
            if roll < 0.25:
                nxt = BasePoint(project(nxt))   # step off, jump 1/k
        else:
            label = orbit_label(nxt.seq)
            can_board = (label is not None and label[0] >= level_lo
                         and sys.multiplicity(label[0]) >= 1)
            if roll < 0.15 and can_board:
                k2, j2 = label
                nxt = ExtraPoint(rng.randint(1, sys.multiplicity(k2)), k2, j2)
            elif roll < 0.35:
                depth = delta_exp + 1 + rng.randint(0, 4)
                pos = depth if rng.random() < 0.5 else -depth
                nxt = BasePoint(flip_symbol(nxt.seq, pos))
            elif roll < 0.5:
                k2, j2 = fresh_level()
                target = periodic_point(k2).shift(j2)
                cut = delta_exp + 1
                nxt = BasePoint(assemble(nxt.seq, cut, "", cut, target, 0))
            elif roll < 0.6 and label is None:
                # a canonical right period is primitive: no reduction
                r = nxt.seq.right
                tail = BasePoint(BiSeq._trusted(r, "", r, nxt.seq.core_end))
                if dist_below(tail, nxt, bound):
                    nxt = tail
        if nxt is followed:
            runs[-1][1] = t
        else:
            runs.append([t, t, aug_iterate(nxt, -t)])
        point = nxt
    return PseudoOrbit.from_runs(bound, runs[:length])


def piecewise_periodic(boundaries, seqs):
    """A sequence following seqs[i] between consecutive boundaries.

    boundaries t_1 < ... < t_r cut the time axis into r + 1 regions; the
    result agrees with seqs[0] below t_1, with seqs[i] on [t_i, t_i+1),
    and with seqs[r] from t_r on. All seqs must be periodic.
    """
    if len(seqs) != len(boundaries) + 1:
        raise ValueError("need one sequence per region")
    if any(a >= b for a, b in zip(boundaries, boundaries[1:])):
        raise ValueError("boundaries must increase")
    chunks = [seq.window(a, b)
              for a, b, seq in zip(boundaries, boundaries[1:], seqs[1:])]
    return assemble(seqs[0], boundaries[0], "".join(chunks), boundaries[-1],
                    seqs[-1], 0)


def switching_limit_orbit(word_a="001", word_b="01", stages=10):
    """A limit pseudo-orbit alternating between two periodic patterns.

    Region s covers times [2**s, 2**(s+1)) and rides the orbit of pattern
    a or b alternately; the point carried at time t already spells out the
    next two regions, so the jumps caused by switching alone are tiny. To
    keep the data honest at the scheduled scale, points inside region s
    additionally carry a periodic sprinkling of symbol defects at depth
    s + 3, making the true jumps there of order 2**-(s + 2), strictly
    inside the scheduled bound 2**-s at index 2**s. The prefix has length
    2**stages. It is built run by run: per region its carrier, and from
    region 2 on at most four one-point defect runs.
    """
    a, b = BiSeq(word_a), BiSeq(word_b)
    if a == b:
        raise ValueError("patterns must differ")
    cuts = [2 ** s for s in range(1, stages + 2)]
    pats = [a if i % 2 == 0 else b for i in range(stages + 2)]
    runs = []
    for s in range(stages):
        # region s rides the carrier spelling the regions up to s + 2
        carrier = piecewise_periodic(cuts[:s + 2], pats[:s + 3])
        lo, hi = (2 ** s if s else 0), 2 ** (s + 1)
        if s < 2:
            runs.append((lo, hi - 1, BasePoint(carrier)))
            continue
        step = max(4, 2 ** (s - 2))
        for t in range(lo, hi, step):
            defect = flip_symbol(carrier.shift(t), s + 3).shift(-t)
            runs.append((t, t, BasePoint(defect)))
            runs.append((t + 1, t + step - 1, BasePoint(carrier)))
    schedule = tuple((2 ** s, dyadic(s)) for s in range(1, stages))
    return PseudoOrbit.from_runs(schedule, runs)


def drifting_two_sided_orbit(past_word="001", future_word="0001", half=512,
                             defect_step=4):
    """A two-sided limit pseudo-orbit leaving one orbit and entering another.

    The backbone is the true orbit of the splice that follows the past
    pattern up to time zero and the future pattern afterwards, so its own
    jumps vanish. On top of that, every defect_step-th time |t| >= 8 gets
    a symbol flip at depth |t|//2 + 2 away from the orbit position, making
    the jumps genuinely nonzero, of size about 2**-(|t|//2). It is built
    run by run: backbone runs between one-point defect runs.
    """
    if defect_step < 1:
        raise ValueError("defect_step must be positive")
    backbone = piecewise_periodic([0], [BiSeq(past_word), BiSeq(future_word)])
    runs, first = [], -half
    # the multiples of defect_step in the window, from the lowest up
    for t in range(-(half // defect_step) * defect_step, half + 1,
                   defect_step):
        if abs(t) < 8:
            continue
        depth = abs(t) // 2 + 2
        defect = flip_symbol(backbone.shift(t),
                             depth if t > 0 else -depth).shift(-t)
        if first < t:
            runs.append((first, t - 1, BasePoint(backbone)))
        runs.append((t, t, BasePoint(defect)))
        first = t + 1
    if first <= half:
        runs.append((first, half, BasePoint(backbone)))
    schedule = [(0, Fraction(1, 2))]
    k, bound = 8, Fraction(1, 8)
    while bound > dyadic(half // 2 + 2) and k <= half - 2:
        schedule.append((k, bound))
        k += 8
        bound /= 4
    return PseudoOrbit.from_runs(schedule, runs)
