"""Independent brute-force oracles used to pin expected values.

Nothing here reuses the library's mismatch search, supremum shortcuts or
component algorithms; everything is computed from first principles (symbol
scans, windowed maxima, boolean closure), at small scale. The exceptions
are the library's own earlier paths, kept as references of the paths that
replaced them: per_run_trace, per_key_trace, and the three per-point
generators per_point_hop, per_point_switching and per_point_drifting.
"""

import math
from fractions import Fraction

from nexpansive.base import (BiSeq, assemble, base_dist, base_shadow, dyadic,
                             flip_symbol, periodic_point)
from nexpansive.chains import ChainGraph
from nexpansive.samples import piecewise_periodic
from nexpansive.space import (
    BasePoint,
    ExtraPoint,
    aug_dist,
    aug_iterate,
    aug_map,
    canonical_key,
    dist_below,
    orbit_label,
    project,
)
from nexpansive.shadowing import PseudoOrbit, shadow_modulus


def description_span(*seqs):
    """A window radius past every core and one full joint period."""
    span = 2
    period = 1
    for s in seqs:
        span = max(span, abs(s.offset), abs(s.core_end))
        period = math.lcm(period, len(s.left), len(s.right))
    return span + 2 * period + 2


def brute_min_mismatch(x, y, bound=None):
    """Smallest |i| with x[i] != y[i] by direct scan, None if none found."""
    bound = description_span(x, y) if bound is None else bound
    for m in range(bound + 1):
        if x[m] != y[m] or x[-m] != y[-m]:
            return m
    return None


def brute_nearest_mismatch(x, y, lo, hi, bound):
    """The first i in [lo, hi] with x[i] != y[i]; else the nearest such i
    within bound of the stretch, the one below lo on a tie; else None."""
    for i in range(lo, hi + 1):
        if x[i] != y[i]:
            return i
    for d in range(1, bound + 1):
        for i in (lo - d, hi + d):
            if x[i] != y[i]:
                return i
    return None


def brute_base_dist(x, y):
    m = brute_min_mismatch(x, y)
    return Fraction(0) if m is None else Fraction(1, 2) ** m


def brute_tagged_point(k, j):
    """p(k, j): the word 0^k 1 read from index j on, repeated both ways."""
    word = "0" * k + "1"
    return BiSeq(word[j:] + word[:j])


def brute_aug_dist(x, y):
    """The metric from the four-case table in space's docstring, with the
    base part d0 = 2**-m from brute_min_mismatch, case by case."""
    def d0(u, v):
        m = brute_min_mismatch(u, v)
        return Fraction(0) if m is None else Fraction(1, 2) ** m

    if x == y:
        return Fraction(0)
    if isinstance(y, ExtraPoint) and not isinstance(x, ExtraPoint):
        x, y = y, x
    if not isinstance(x, ExtraPoint):
        return d0(x.seq, y.seq)
    px = brute_tagged_point(x.k, x.j)
    if not isinstance(y, ExtraPoint):
        return Fraction(1, x.k) + d0(y.seq, px)
    if (x.k, x.j) == (y.k, y.j):
        return Fraction(1, x.k)
    return (Fraction(1, x.k) + Fraction(1, y.k)
            + d0(px, brute_tagged_point(y.k, y.j)))


def brute_canonical_fields(left, core, right, offset):
    """BiSeq's canonical (left, core, right, offset), one symbol at a time.

    Periods shrink to their shortest repeating block; core symbols that
    continue a tail are moved into it one by one, rotating the period each
    time; an empty core with equal periods is pinned at index 0, and
    otherwise the seam slides right while both tails agree.
    """
    def primitive(w):
        return next(w[:d] for d in range(1, len(w) + 1)
                    if len(w) % d == 0 and w[:d] * (len(w) // d) == w)

    def rot(w, t):
        t %= len(w)
        return w[t:] + w[:t]

    left, right = primitive(left), primitive(right)
    while core and core[0] == left[0]:
        core, left, offset = core[1:], rot(left, 1), offset + 1
    while core and core[-1] == right[-1]:
        core, right = core[:-1], rot(right, -1)
    if not core:
        if left == right:
            return rot(left, -offset), "", rot(left, -offset), 0
        while left[0] == right[0]:
            left, right, offset = rot(left, 1), rot(right, 1), offset + 1
    return left, core, right, offset


def brute_right_tails_agree(x, y):
    s0 = max(x.core_end, y.core_end)
    span = math.lcm(len(x.right), len(y.right))
    return all(x[i] == y[i] for i in range(s0, s0 + span + 1))


def brute_left_tails_agree(x, y):
    s0 = min(x.offset, y.offset)
    span = math.lcm(len(x.left), len(y.left))
    return all(x[i] == y[i] for i in range(s0 - span - 1, s0))


def brute_in_stable_set(y, x):
    """Does d(f^t y, f^t x) tend to 0? Equal points, or two base points
    whose right tails agree symbol by symbol over one lcm of their periods."""
    if x == y:
        return True
    return (isinstance(x, BasePoint) and isinstance(y, BasePoint)
            and brute_right_tails_agree(x.seq, y.seq))


def brute_stable_classes(center, members):
    """(count, representatives, classes) by pairwise stable-set tests.

    Class 0 holds the members in the center's stable set; each other
    member joins the first later class whose first member shares its
    stable set, or starts a new one. Members keep their given order.
    """
    classes = [[]]
    for y in members:
        if brute_in_stable_set(y, center):
            classes[0].append(y)
            continue
        for cls in classes[1:]:
            if brute_in_stable_set(y, cls[0]):
                cls.append(y)
                break
        else:
            classes.append([y])
    return (len(classes), (center, *(cls[0] for cls in classes[1:])),
            tuple(tuple(cls) for cls in classes))


def brute_first_mismatch_fwd(x, y, start=0):
    """Smallest i >= start with x[i] != y[i], scanning symbol by symbol
    through one full lcm of the right periods past both cores."""
    s0 = max(start, x.core_end, y.core_end)
    span = math.lcm(len(x.right), len(y.right))
    for i in range(start, s0 + span):
        if x[i] != y[i]:
            return i
    return None


def brute_first_mismatch_bwd(x, y, start=-1):
    """Largest i <= start with x[i] != y[i], scanning symbol by symbol
    through one full lcm of the left periods below both offsets."""
    s0 = min(start, x.offset - 1, y.offset - 1)
    span = math.lcm(len(x.left), len(y.left))
    for i in range(start, s0 - span, -1):
        if x[i] != y[i]:
            return i
    return None


def brute_least_period(seq):
    """Least period by scanning divisor candidates against many symbols."""
    for t in range(1, 4 * len(seq.left) + 1):
        span = description_span(seq)
        if all(seq[i + t] == seq[i] for i in range(-span, span)):
            return t
    raise AssertionError("no period found")


def pair_horizon(x, y):
    return description_span(*(project(p) for p in (x, y)))


def brute_sup_window(x, y, lo, hi):
    return max(aug_dist(aug_iterate(x, t), aug_iterate(y, t))
               for t in range(lo, hi + 1))


def brute_sup_forward(x, y):
    """Exact forward supremum: it is attained inside the horizon window."""
    return brute_sup_window(x, y, 0, pair_horizon(x, y))


def brute_sup_orbit(x, y):
    h = pair_horizon(x, y)
    return brute_sup_window(x, y, -h, h)


def brute_ball_members(center, radius, universe):
    """Orbit-sup membership by windowed maxima over a candidate universe."""
    return sorted(
        (y for y in set(universe) | {center}
         if brute_sup_orbit(center, y) <= radius),
        key=repr)


def brute_orbit_dists(y, points, start=0):
    """d(f^(start + i) y, points[i]) for every i, one aug_dist per index."""
    return [aug_dist(aug_iterate(y, start + i), x)
            for i, x in enumerate(points)]


def point_runs(seqs):
    """A list of sequences, entry t at time t, as base_shadow's runs: one
    run (t, t, z) per entry, z the entry moved back to time 0."""
    return [(t, t, seq.shift(-t)) for t, seq in enumerate(seqs)]


def brute_decay_index(dists, threshold):
    """First index from which every listed distance stays strictly below
    threshold, or None when that tail holds fewer than two entries; a
    backward scan with one comparison per entry."""
    cut = len(dists)
    for t in range(len(dists) - 1, -1, -1):
        if dists[t] >= threshold:
            break
        cut = t
    return cut if cut <= len(dists) - 2 else None


def brute_chain_graph(sample, eps):
    """The chain graph by testing aug_dist(f(u), v) < eps on every pair,
    as a ChainGraph without hubs: out[u] is the adjacency of u."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    nodes = tuple(sorted(set(sample), key=canonical_key))
    images = [aug_map(u) for u in nodes]
    adjacency = tuple(
        tuple(vi for vi, v in enumerate(nodes) if aug_dist(images[ui], v) < eps)
        for ui in range(len(nodes)))
    return ChainGraph(epsilon=eps, nodes=nodes, out=adjacency, hubs=())


def closure_classes(adjacency):
    """Chain classes via transitive closure with bitmask rows.

    reach[u] marks nodes reachable in one or more steps. u is recurrent
    when it reaches itself; recurrent u, v share a class when each reaches
    the other.
    """
    n = len(adjacency)
    reach = [0] * n
    for u, succs in enumerate(adjacency):
        for v in succs:
            reach[u] |= 1 << v
    for k in range(n):
        row = reach[k]
        bit = 1 << k
        for u in range(n):
            if reach[u] & bit:
                reach[u] |= row
    recurrent = [u for u in range(n) if reach[u] >> u & 1]
    classes = []
    seen = set()
    for u in recurrent:
        if u in seen:
            continue
        cls = [v for v in recurrent
               if reach[u] >> v & 1 and reach[v] >> u & 1]
        seen.update(cls)
        classes.append(tuple(sorted(cls)))
    transient = tuple(u for u in range(n) if u not in set(recurrent))
    return sorted(classes), transient


def brute_shadow_search(po, bound_exp, window=4):
    """Exhaustive search for a tracing point over a symbol window.

    Candidates spell an arbitrary word on [-window, window] and continue
    with the first entry's left tail and the last entry's right tail. The
    best achievable worst-case tracking error over the pseudo-orbit is
    returned; it certifies that the dyadic bound is attainable at all.
    """
    width = 2 * window + 1
    best = None
    for bits in range(2 ** width):
        word = format(bits, f"0{width}b")
        cand = assemble(po[0], -window, word, window + 1, po[-1], len(po) - 1)
        quality = max(base_dist(cand.shift(t), po[t]) for t in range(len(po)))
        if best is None or quality < best:
            best = quality
    return best


def brute_schedule_ok(points, start, schedule):
    """Does a pseudo-orbit over the times start.. keep its jump schedule?

    Straight from the definition: at least one point, a window containing
    time zero, a nonempty schedule with indices nonnegative and strictly
    increasing and bounds positive and strictly decreasing, and for every
    entry (k, bound) and every time t with t >= k or t <= -k - 1 a jump
    d(f(x_t), x_{t+1}) strictly below bound.
    """
    end = start + len(points) - 1
    if not points or not start <= 0 <= end or not schedule:
        return False
    ks = [k for k, _ in schedule]
    bounds = [b for _, b in schedule]
    if ks[0] < 0 or any(a >= b for a, b in zip(ks, ks[1:])):
        return False
    if any(b <= 0 for b in bounds) or any(
            a <= b for a, b in zip(bounds, bounds[1:])):
        return False
    for i in range(len(points) - 1):
        t = start + i
        jump = aug_dist(aug_map(points[i]), points[i + 1])
        for k, bound in schedule:
            if (t >= k or t <= -k - 1) and jump >= bound:
                return False
    return True



def brute_runs(points, start):
    """The maximal stretches (first, last) of times riding one true orbit.

    The map is a bijection, so f(x_t) == x_{t+1} exactly when x_t and
    x_{t+1} pull back to the same point at time zero; runs are the
    maximal groups of consecutive times with one pullback.
    """
    runs = []
    for i, x in enumerate(points):
        t = start + i
        origin = aug_iterate(x, -t)
        if runs and runs[-1][0] == origin:
            runs[-1][2] = t
        else:
            runs.append([origin, t, t])
    return [(first, last) for _, first, last in runs]


def loop_chain_depth(eps):
    """The least integer depth >= -1 with 2**-(depth + 1) < eps, by search
    (the cylinder depth of the chain graph)."""
    depth = -1
    while Fraction(1, 2) ** (depth + 1) >= eps:
        depth += 1
    return depth


def loop_modulus_exp(eps):
    """The least n >= 1 with 2**-n <= eps / 2, by search (the base
    exponent of the shadow modulus)."""
    n = 1
    while Fraction(1, 2) ** n > eps / 2:
        n += 1
    return n


def loop_spacing_radius(eps):
    """The least h >= 0 with 2**-h <= eps, by search (the half-width of
    the specification spacing 2h + 1)."""
    h = 0
    while Fraction(1, 2) ** h > eps:
        h += 1
    return h


def per_run_trace(po, eps):
    """shadow_pseudo_orbit's point before it became the one-key stage
    pass: when any run is a satellite of level below the modulus' m, the
    point at time 0; otherwise the base point spelled from every projected
    run at the modulus' base exponent. Unverified."""
    mod = shadow_modulus(eps)
    if any(isinstance(x, ExtraPoint) and x.k < mod.m for _, _, x in po.runs):
        return po.at(0)
    return BasePoint(base_shadow([(a, b, project(x)) for a, b, x in po.runs],
                                 mod.base_exp))


def rebased_tail(lpo, s, schedule):
    """The runs of lpo from time s on, moved to start at time 0, through
    the checked PseudoOrbit.from_runs under the schedule."""
    return PseudoOrbit.from_runs(schedule, [
        (max(a, s) - s, b - s, aug_iterate(x, s))
        for a, b, x in lpo.runs if b >= s])


def per_key_trace(lpo, finest):
    """{key: point at its start} for limit_shadow's stage keys (start, m,
    base_exp), one trace per key: the key's tail, re-based to time 0 and
    re-checked under the bound 1/m, traced by per_run_trace at the key's
    finest resolution finest[key]. This is the per-key path that one
    shared stage pass replaced, kept as its reference."""
    return {key: per_run_trace(rebased_tail(lpo, key[0], Fraction(1, key[1])),
                               res)
            for key, res in finest.items()}


# The per-point generators: each returns (points, schedule, start), the
# arguments it handed to PseudoOrbit before the samples generators emitted
# runs, drawing the same random numbers in the same order.

def per_point_hop(sys, rng, length=100, delta_exp=6):
    """samples.hop_pseudo_orbit built one point per step."""
    bound = dyadic(delta_exp)
    level_lo = 2 ** delta_exp + 1

    def fresh_level():
        k = rng.randint(level_lo, level_lo + 24)
        return k, rng.randint(0, k)

    k, j = fresh_level()
    pts = [BasePoint(periodic_point(k).shift(j))]
    while len(pts) < length:
        nxt = aug_map(pts[-1])
        roll = rng.random()
        if isinstance(nxt, ExtraPoint):
            if roll < 0.25:
                nxt = BasePoint(project(nxt))
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
                tail = BiSeq(nxt.seq.right, "", nxt.seq.right, nxt.seq.core_end)
                if dist_below(BasePoint(tail), nxt, bound):
                    nxt = BasePoint(tail)
        pts.append(nxt)
    return pts[:length], bound, 0


def per_point_switching(word_a="001", word_b="01", stages=10):
    """samples.switching_limit_orbit built one point per time."""
    a, b = BiSeq(word_a), BiSeq(word_b)
    if a == b:
        raise ValueError("patterns must differ")
    horizon = stages + 2
    cuts = [2 ** s for s in range(1, horizon + 1)]
    pats = [a if i % 2 == 0 else b for i in range(horizon + 1)]
    carriers = {}

    def carrier(region):
        if region not in carriers:
            upto = min(region + 2, horizon)
            carriers[region] = piecewise_periodic(cuts[:upto], pats[:upto + 1])
        return carriers[region]

    pts = []
    for t in range(2 ** stages):
        s = max(t.bit_length() - 1, 0)  # region s: 2**s <= t < 2**(s+1)
        point = carrier(s).shift(t)
        if s >= 2 and (t - 2 ** s) % max(4, 2 ** (s - 2)) == 0:
            point = flip_symbol(point, s + 3)
        pts.append(BasePoint(point))
    return pts, tuple((2 ** s, dyadic(s)) for s in range(1, stages)), 0


def per_point_drifting(past_word="001", future_word="0001", half=512,
                       defect_step=4):
    """samples.drifting_two_sided_orbit built one point per time."""
    backbone = piecewise_periodic([0], [BiSeq(past_word), BiSeq(future_word)])
    pts = []
    for t in range(-half, half + 1):
        point = backbone.shift(t)
        if abs(t) >= 8 and t % defect_step == 0:
            depth = abs(t) // 2 + 2
            point = flip_symbol(point, depth if t > 0 else -depth)
        pts.append(BasePoint(point))
    schedule = [(0, Fraction(1, 2))]
    k, bound = 8, Fraction(1, 8)
    while bound > dyadic(half // 2 + 2) and k <= half - 2:
        schedule.append((k, bound))
        k += 8
        bound /= 4
    return pts, schedule, -half
