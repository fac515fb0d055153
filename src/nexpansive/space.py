"""The augmented phase space: shift points plus isolated satellite orbits.

The space is the disjoint union of the full shift and a countable family of
tagged points. For every level k there are copies of the level-k periodic
orbit, tagged by an index i; a copy sits at distance 1/k from the orbit it
shadows and from every other copy. The homeomorphism acts as the shift on
base points and rotates each satellite orbit.

The metric in full, writing q(i,k,j) for the j-th point of copy i at level
k and p(k,j) for the j-th shift image of the level-k periodic point:

    d(x, y)                 = d0(x, y)                       both base
    d(q(i,k,j), y)          = 1/k + d0(y, p(k,j))            y base
    d(q(i,k,j), q(l,k,j))   = 1/k                            i != l
    d(q(i,k,j), q(l,m,r))   = 1/k + 1/m + d0(p(k,j), p(m,r)) otherwise

which is the tag separation plus the base distance of the projections.
Point operations live at module level and are independent of any system
parameters; :class:`AugSystem` fixes how many copies exist per level and
validates or enumerates points against that choice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from nexpansive.base import (
    BiSeq,
    agree_radius,
    assemble,
    dyadic,
    _diff_bits,
    mismatch_radius,
    nearest_mismatch,
    periodic_point,
)

VARIANTS = ("standard", "finite_expansive")


@dataclass(frozen=True)
class BasePoint:
    seq: BiSeq


@dataclass(frozen=True)
class ExtraPoint:
    i: int
    k: int
    j: int


AugPoint = BasePoint | ExtraPoint


@dataclass(frozen=True)
class AugSystem:
    """Parameters of the construction.

    ``n`` is the number of orbits allowed to move together; the standard
    variant attaches n - 1 satellite copies to every level, the finite
    expansive variant attaches k - 1 copies to level k. ``k_max`` only
    bounds enumeration, never the semantics of points.
    """

    n: int = 2
    variant: str = "standard"
    k_max: int = 50

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k_max < 3:
            raise ValueError("k_max must be >= 3")

    def multiplicity(self, k):
        """Number of satellite copies of the level-k orbit."""
        return self.n - 1 if self.variant == "standard" else k - 1

    def validate_point(self, x):
        if isinstance(x, BasePoint):
            return x
        if x.k < 1 or not 0 <= x.j <= x.k:
            raise ValueError(f"{x} has an invalid level or phase")
        if not 1 <= x.i <= self.multiplicity(x.k):
            raise ValueError(f"{x} exceeds multiplicity {self.multiplicity(x.k)}")
        return x

    def level_bound(self, k_hi=None):
        """k_hi, or k_max for None; a k_hi above k_max is rejected."""
        if k_hi is None:
            return self.k_max
        if k_hi > self.k_max:
            raise ValueError(f"k_hi={k_hi} exceeds enumeration bound {self.k_max}")
        return k_hi

    def extra_points(self, k_hi):
        """Every satellite point of level at most k_hi, each exactly once."""
        out = []
        for k in range(1, self.level_bound(k_hi) + 1):
            for i in range(1, self.multiplicity(k) + 1):
                out.extend(ExtraPoint(i, k, j) for j in range(k + 1))
        return out

    def extra_count(self, k_hi):
        """Closed form for len(extra_points(k_hi))."""
        return sum(self.multiplicity(k) * (k + 1) for k in range(1, k_hi + 1))


_ZERO = Fraction(0)

# Memoized: without it metric-triples wall_s rose from 1.17 to 1.57 s.
_PROJECTIONS = {}


def project(x):
    """Collapse a point to the base: satellites map to the orbit they shadow."""
    if isinstance(x, BasePoint):
        return x.seq
    key = (x.k, x.j)
    if key not in _PROJECTIONS:
        _PROJECTIONS[key] = periodic_point(x.k).shift(x.j)
    return _PROJECTIONS[key]


@functools.lru_cache(maxsize=None)
def level_gap(k, l=0):
    """1/k + 1/l, the tag gap of tag levels k and l; level 0 is no tag.

    level_gap(k) is the distance of a level-k satellite from the orbit it
    shadows. The table is keyed by ints and filled on first use.
    """
    return sum((Fraction(1, v) for v in (k, l) if v), _ZERO)


def tag_levels(x, y):
    """The tag levels (k, l) of any pair, 0 standing for a base point.

    Two copies over one orbit position count their level once, and a point
    has levels (0, 0) to itself, so level_gap(*tag_levels(x, y)) is the tag
    gap of the module docstring and 0 for x == y. The levels of f^t x and
    f^t y are the same at every time t.
    """
    if isinstance(x, ExtraPoint):
        if isinstance(y, ExtraPoint):
            if x.k == y.k and x.j == y.j:
                return (0, 0) if x.i == y.i else (x.k, 0)
            return x.k, y.k
        return x.k, 0
    return 0, (y.k if isinstance(y, ExtraPoint) else 0)


@functools.lru_cache(maxsize=None)
def _dist(m, k, l):
    """dyadic(m) + level_gap(k, l), with m None for equal projections."""
    return level_gap(k, l) if m is None else dyadic(m) + level_gap(k, l)


def aug_dist(x, y):
    """The metric of the module docstring: the tag gap of the pair plus
    2**-m, m the mismatch radius of the projections.

    The sum is an exact table read keyed by ints (m and the tag levels),
    so no Fraction is built, added or hashed per call.
    """
    return _dist(mismatch_radius(project(x), project(y)), *tag_levels(x, y))


def window_sup_dist(x, y, horizon):
    """max of aug_dist(f^t x, f^t y) over |t| <= horizon, a lower bound for
    the sup over all times.

    The tag levels of the pair are the same at every time, and with m the
    mismatch radius of the projections, their nearest mismatch to any
    |t| <= horizon lies max(0, m - horizon) away; so the value is one
    mismatch scan and one table read, whatever the horizon.
    """
    m = mismatch_radius(project(x), project(y))
    return _dist(None if m is None else max(0, m - horizon), *tag_levels(x, y))


@functools.lru_cache(maxsize=None)
def _residual(num, den, k, l, strict):
    r = Fraction(num, den) - level_gap(k, l)
    if r < 0 or strict and r == 0:
        return None
    return agree_radius(r, strict) if r else -1


def residual_radius(bound, k, l, strict):
    """How far the projections of a pair with tag levels k and l
    must agree for aug_dist < bound (strict) or aug_dist <= bound.

    The base part, 2**-n with n the mismatch radius or 0 for equal
    projections, must stay below (at most) r = bound - level_gap(k, l).
    Returns None when no base part does, -1 when only 0 does (r == 0, not
    strict), and otherwise m = agree_radius(r, strict): the base part
    passes exactly when the projections agree on |j| < m, so 0 means that
    every pair passes. The table is keyed by ints, the bound by its
    numerator and denominator.
    """
    return _residual(bound.numerator, bound.denominator, k, l, strict)


def dist_below(x, y, bound, t=0):
    """aug_dist(f^t x, f^t y) < bound, checked on the window the bound
    fixes: the projections must agree on |j - t| < m for m =
    residual_radius(...); no distance is computed and no image is built.
    """
    m = residual_radius(bound, *tag_levels(x, y), True)
    if m is None:
        return False
    px, py = project(x), project(y)
    return px == py or px.window(t + 1 - m, t + m) == py.window(t + 1 - m, t + m)


def aug_map(x):
    if isinstance(x, BasePoint):
        return BasePoint(x.seq.shift(1))
    return ExtraPoint(x.i, x.k, (x.j + 1) % (x.k + 1))


def aug_iterate(x, t):
    """The t-th image of x under the map (t may be negative)."""
    if isinstance(x, BasePoint):
        return BasePoint(x.seq.shift(t))
    return ExtraPoint(x.i, x.k, (x.j + t) % (x.k + 1))


def _carriers(y, po):
    """(first, last, z, levels) for each run (first, last, x) of po: z =
    project(x), whose shift by t is the run's projection at time t, and
    the tag levels of (y, x), which are those of (aug_iterate(y, t),
    po.at(t)) at every t. At t the distance is then level_gap(*levels) +
    2**-r, r the least |j - t| over the mismatches j of project(y) against
    z (no base part when there are none).
    """
    for first, last, x in po.runs:
        yield first, last, project(x), tag_levels(y, x)


def _sweep(y, po, bounds, strict):
    """(runs, table, read) for a sweep of y along po: its runs
    (_carriers); a table {levels: (radii, reach)} filled once per
    tag-level pair, radii[i] = residual_radius(bounds[i], *levels, strict)
    and reach the largest radius above 0 (0 for none); and read(a, b),
    which slices the symbols on [a, b) of project(y) out of one window
    over [po.start, po.end] widened by the largest reach.
    """
    runs = list(_carriers(y, po))
    table = {}
    for *_, levels in runs:
        if levels not in table:
            radii = [residual_radius(b, *levels, strict) for b in bounds]
            table[levels] = radii, max([0, *filter(None, radii)])
    widest = max(reach for _, reach in table.values())
    base = po.start - widest + 1
    word = project(y).window(base, po.end + widest)
    return runs, table, lambda a, b: word[a - base:b - base]


def orbit_within(y, po, eps):
    """True when aug_dist(aug_iterate(y, t), po.at(t)) <= eps at every
    time t of the pseudo-orbit po: stages_within with one stage."""
    return stages_within(y, po, [(po.start, eps, project(y))])


def stages_within(y, po, stages):
    """True when, for each stage (start, eps, c), listed by start, y with
    its projection spelling c below start (y itself for c = project(y))
    is within eps of po.at(t) at every time t >= start: several points
    verified in one sweep.

    Along a run (_carriers) a stage passes exactly when its projection
    and z agree on |j - t| < m, m = residual_radius(eps, k, l, False)
    from the table of _sweep: None fails, 0 passes, -1 asks for equal
    projections. For m > 0 it reads the run's times from start on widened
    by m - 1, from c below start (unless c equals z) and from project(y)
    above. Those windows above start all hold the run's last time, so
    their union is one window, read once from project(y) (_sweep) and
    once from z; past every start by the widest m, that m's window alone.
    """
    runs, table, read = _sweep(y, po, [eps for _, eps, _ in stages], False)
    top = stages[-1][0]
    whole = {levels for levels, (radii, _) in table.items()
             if None not in radii and min(radii) > 0}
    for first, last, z, levels in runs:
        radii, reach = table[levels]
        lo, hi = first - reach + 1, last + reach
        if levels not in whole or first < top + reach - 1:
            lo = hi = last + 1
            for (s, _, c), m in zip(stages, radii):
                if s > last:
                    break
                if m is None or m < 0 and z != assemble(c, s, "", s,
                                                        project(y), 0):
                    return False
                a = max(first, s) - m + 1
                if a < s and c != z and c.window(a, s) != z.window(a, s):
                    return False
                if m > 0:
                    lo, hi = min(lo, max(a, s)), max(hi, last + m)
        if read(lo, hi) != z.window(lo, hi):
            return False
    return True


def orbit_worst(y, po):
    """(t, d): the largest d = aug_dist(aug_iterate(y, t), po.at(t)) over
    the times t of the pseudo-orbit po, at the first time attaining it.

    Along a run (_carriers) the base part is largest where a mismatch of
    project(y) against z is nearest: at the first mismatch inside the run
    (r = 0), or else at the end nearer to the nearest mismatch beyond it,
    r away, the first time on a tie. base.nearest_mismatch finds that
    mismatch in one outward scan per run. Each tag-level pair keeps its
    least r as an int, at its first time, and one exact distance per pair
    picks the worst.
    """
    seq = project(y)
    best = {}  # levels -> (r, t), r None for no mismatch
    for first, last, z, levels in _carriers(y, po):
        j = nearest_mismatch(seq, z, first, last)
        if j is None:
            t, r = first, None
        elif j < first:
            t, r = first, first - j
        elif j > last:
            t, r = last, j - last
        else:
            t, r = j, 0
        old = best.get(levels)
        if old is None or r is not None and (old[0] is None or r < old[0]):
            best[levels] = r, t
    return max(((t, _dist(r, *levels)) for levels, (r, t) in best.items()),
               key=lambda worst: (worst[1], -worst[0]))


def failure_times(y, po, thresholds):
    """For each threshold th, the last time t of the pseudo-orbit po with
    aug_dist(aug_iterate(y, t), po.at(t)) >= th, or None where no time
    fails. A question about the past is asked of the mirrored orbits
    (mirror_point), whose times run the other way at the same distances.

    Along a run (_carriers) a time t fails exactly when some mismatch j
    of project(y) against z has |j - t| < m, m = residual_radius(th, k,
    l, True) (always for None, never for 0), read from the table of _sweep
    by threshold position. The runs are read from the last one back, and a
    threshold is settled by the first run in which it fails. Each run XORs
    its times widened by its pair's largest m (the reach), read once from
    project(y) (_sweep) and once from z; the last failing time is
    min(last, j + m - 1) for the largest mismatch j below last + m, if
    that j lies within m of the run.
    """
    seq = project(y)
    runs, table, read = _sweep(y, po, thresholds, True)
    found = [None] * len(thresholds)
    pending = range(len(thresholds))
    for first, last, z, levels in reversed(runs):
        radii, reach = table[levels]
        mask = 0
        if reach and seq != z:
            # bit b of the mask stands for index hi_w - 1 - b
            lo_w, hi_w = first - reach + 1, last + reach
            mask = _diff_bits(read(lo_w, hi_w), z.window(lo_w, hi_w))
        for i in pending:
            m = radii[i]
            if m is None:
                found[i] = last
            elif m and mask:
                near = mask >> (reach - m)
                j = last + m - (near & -near).bit_length()
                if near and j > first - m:
                    found[i] = min(last, j + m - 1)
        pending = [i for i in pending if found[i] is None]
        if not pending:
            break
    return tuple(found)


def tail_label(seq):
    """orbit_label of the periodic sequence continuing seq's right tail.

    That sequence repeats the right period from the core end, so it is
    p(k, j) exactly when the period word carries a single 1.
    """
    word = seq.right
    if len(word) < 2 or word.count("1") != 1:
        return None
    k = len(word) - 1
    return k, (k - seq.core_end - word.index("1")) % (k + 1)


def orbit_label(seq):
    """Recognize seq as p(k, j), returning (k, j), or None.

    The tagged periodic points are exactly the periodic sequences carrying
    a single 1 per least period, so the label is read off the canonical
    period word.
    """
    return tail_label(seq) if seq.is_periodic else None


def mirror_point(x):
    """Conjugacy between the map and its inverse.

    Reversing every base sequence swaps the shift with its inverse and
    preserves all distances; a satellite point follows the reversal of the
    orbit it shadows. p(k, j) carries its 1s at the indices congruent to
    k - j mod k + 1, so its reversal is p(k, k - 1 - j). Applying
    mirror_point, then the map, then mirror_point again gives the inverse
    map.
    """
    if isinstance(x, BasePoint):
        return BasePoint(x.seq.reverse())
    return ExtraPoint(x.i, x.k, (x.k - 1 - x.j) % (x.k + 1))


def canonical_key(x):
    """Total order on points used for deterministic reports."""
    if isinstance(x, BasePoint):
        s = x.seq
        return f"base:{s.left}|{s.core}|{s.right}@{s.offset:+05d}"
    return f"extra:{x.i:04d},{x.k:04d},{x.j:04d}"
