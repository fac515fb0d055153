"""Dynamic balls, expansivity certificates and stable-set bookkeeping.

The metric splits into a constant tag separation plus the base distance of
the two projections, and the projections are eventually periodic, so the
supremum of t -> d(f^t x, f^t y) over a range of times reduces to where
the two projections disagree:

* over all integer times, two distinct projections become fully separated
  (base distance 1) at any mismatch position, which bounds the exact
  dynamic balls;
* over forward times, a mismatch at a nonnegative index again forces full
  separation, otherwise the supremum is attained at time zero and equals
  the depth of the last mismatch in the past; in_local_stable checks a
  bound on it on the window the bound fixes, without locating any
  mismatch;
* along forward limits, the base part dies out exactly when the right
  tails eventually agree, and otherwise keeps returning to 1.

Those three facts make the reported sets exact whenever the radius stays
below 1/2, the separation scale of the base shift. Below 1/2 the stable
classes of a local stable set are read off its members: every member's
projection agrees with the center's from index 0 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from nexpansive.base import (
    HALF,
    agree_from,
    agree_radius,
    nearest_mismatch,
    right_tails_agree,
)
from nexpansive.space import (
    AugPoint,
    BasePoint,
    ExtraPoint,
    aug_iterate,
    canonical_key,
    level_gap,
    orbit_label,
    project,
    residual_radius,
    tag_levels,
    tail_label,
    window_sup_dist,
)

ZERO = Fraction(0)


def in_local_stable(y, x, eps):
    """Membership of y in the local stable set of x at size eps.

    d(f^t y, f^t x) <= eps for every t >= 0, checked on the window the
    bound fixes. The tag gap of the pair is constant along the orbits, and
    over forward times the base part is 1 when the projections differ at
    an index >= 0, and otherwise 2**-n with n the depth of their last
    mismatch below 0. It must stay within r = eps minus the tag gap, and
    residual_radius reads the rule for r off its table: r < 0 never,
    r >= 1 always, r == 0 only equal projections, and otherwise agreement
    on [1 - m, oo) with m = agree_radius(r, strict=False), which the
    periods decide (base.agree_from).
    """
    m = residual_radius(eps, *tag_levels(x, y), False)
    if m is None or m == 0:
        return m == 0
    px, py = project(x), project(y)
    if px == py or m < 0:
        return px == py
    return agree_from(px, py, 1 - m)


def in_stable_set(y, x):
    """Does d(f^t y, f^t x) tend to zero as t grows?

    A satellite point keeps its tag separation forever, so only pairs of
    base points with eventually equal right tails converge.
    """
    if x == y:
        return True
    if isinstance(x, BasePoint) and isinstance(y, BasePoint):
        return right_tails_agree(x.seq, y.seq)
    return False


@dataclass(frozen=True)
class DynamicBallReport:
    center: AugPoint
    radius: Fraction
    members: tuple
    distances: tuple
    mode: str                # "exact" or "horizon"
    horizon: int | None
    universe: str

    def __len__(self):
        return len(self.members)


def _exact_ball_members(sys, center, radius):
    """Everything within orbit-sup radius < 1/2 of the center.

    Distinct base points separate to 1, distinct satellite orbits to more
    than 1, so below 1/2 a ball contains at most the center's satellite
    cluster: the copies sharing the center's exact position over the base
    periodic orbit, plus that base point itself, all at distance 1/k.
    """
    members = {center: ZERO}
    label = ((center.k, center.j) if isinstance(center, ExtraPoint)
             else orbit_label(center.seq))
    if label is not None and level_gap(label[0]) <= radius:
        for y in _cluster(sys, *label):
            members.setdefault(y, level_gap(label[0]))
    return members


def _cluster(sys, k, j):
    """The satellite copies over p(k, j), then the base point p(k, j)."""
    return [*(ExtraPoint(i, k, j) for i in range(1, sys.multiplicity(k) + 1)),
            BasePoint(project(ExtraPoint(1, k, j)))]


def dynamic_ball(sys, center, radius, k_hi=None, mode="exact", horizon=32):
    """The set of points tracking the center's orbit within ``radius``.

    Exact mode requires radius < 1/2 and derives the full member set from
    the metric's case structure; no enumeration bound can affect it, so it
    ignores k_hi. The horizon mode restricts attention to the center and
    the enumerated satellites up to k_hi (default sys.k_max), and tests
    each over the time window |t| <= horizon, which is the honest thing to
    report once the radius reaches the base separation scale.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    sys.validate_point(center)
    if mode == "exact":
        if radius >= HALF:
            raise ValueError("exact dynamic balls require radius < 1/2")
        members = _exact_ball_members(sys, center, radius)
        universe = "closed form over all satellites and base points"
        hor = None
    elif mode == "horizon":
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        k_hi = sys.level_bound(k_hi)
        pool = {center}
        pool.update(sys.extra_points(k_hi))
        members = {}
        for y in sorted(pool, key=canonical_key):
            d = window_sup_dist(center, y, horizon)
            if d <= radius:
                members[y] = d
        universe = f"satellites up to k_hi={k_hi}, window |t|<={horizon}"
        hor = horizon
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ordered = sorted(members, key=canonical_key)
    return DynamicBallReport(
        center=center, radius=radius,
        members=tuple(ordered),
        distances=tuple(members[y] for y in ordered),
        mode=mode, horizon=hor, universe=universe)


@dataclass(frozen=True)
class ExpansivityCertificate:
    bound: int
    radius: Fraction
    sample_size: int
    largest_ball: int
    witness: AugPoint


@dataclass(frozen=True)
class ExpansivityFalsifier:
    bound: int
    radius: Fraction
    center: AugPoint
    members: tuple
    distances: tuple


def check_expansivity(sys, radius, sample, bound=None):
    """Certify that no dynamic ball over the sample exceeds ``bound`` points.

    Returns a certificate, or a falsifier listing a ball with bound + 1
    members and their exact orbit suprema.
    """
    bound = sys.n if bound is None else bound
    largest, witness = 0, None
    seen = 0
    for x in sample:
        ball = dynamic_ball(sys, x, radius)
        seen += 1
        if len(ball) > largest:
            largest, witness = len(ball), x
        if len(ball) > bound:
            return ExpansivityFalsifier(
                bound=bound, radius=radius, center=x,
                members=ball.members, distances=ball.distances)
    return ExpansivityCertificate(
        bound=bound, radius=radius, sample_size=seen,
        largest_ball=largest, witness=witness)


def lower_expansivity_falsifier(sys, radius):
    """A ball of radius below ``radius`` carrying n points.

    Works at every positive radius: pick a level k with 1/k < radius and
    the cluster around the level-k periodic point fills the ball, so no
    expansivity bound below n can hold.
    """
    if sys.variant != "standard" or sys.n < 2:
        raise ValueError("needs the standard variant with n >= 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    k = max(3, int(1 / radius) + 1)
    ball = dynamic_ball(sys, BasePoint(project(ExtraPoint(1, k, 0))),
                        level_gap(k))
    return ExpansivityFalsifier(
        bound=sys.n - 1, radius=radius, center=ball.center,
        members=ball.members, distances=ball.distances)


@dataclass(frozen=True)
class StableClassReport:
    center: AugPoint
    epsilon: Fraction
    count: int
    representatives: tuple
    classes: tuple
    members: tuple
    universe: str


def _stable_candidates(sys, center, sample):
    """Candidate pool whose scan provably captures every stable class.

    Below 1/2 a member of the local stable set either shares the center's
    right-tail data (one class, the center's own) or is a satellite whose
    projection agrees with the center from time zero on. The projection is
    then forced: it is the periodic continuation of the center's right
    tail, so the only satellite classes live over that single orbit
    position. The pool lists those forced points, the center's satellite
    cluster when the center is itself a satellite, and the caller's sample.
    """
    pool = {center}
    label = ((center.k, center.j) if isinstance(center, ExtraPoint)
             else tail_label(center.seq))
    if label is not None:
        pool.update(_cluster(sys, *label))
    pool.update(sample)
    return sorted(pool, key=canonical_key)


def stable_class_count(sys, center, eps, sample=()):
    """Count the distinct stable sets meeting the local stable set of center.

    Members of the local stable set at size eps are grouped by mutual
    stable-set membership; the report carries one representative per
    class. The center always represents its own class, other classes take
    their least member under the canonical order. Exact for eps < 1/2 by
    the candidate analysis in _stable_candidates.

    Membership is checked on the window the bound fixes, and the classes
    are read off the members: below 1/2 every member's projection agrees
    with the center's from index 0 on, so the base members share one
    stable set (the center's class, or one class at the place of their
    first when the center is a satellite) and each satellite's stable set
    holds only itself.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps >= HALF:
        raise ValueError("exact class counting requires eps < 1/2")
    sys.validate_point(center)
    pool = _stable_candidates(sys, center, sample)
    members = [y for y in pool if in_local_stable(y, center, eps)]
    shared = [y for y in members if isinstance(y, BasePoint)]
    placed = isinstance(center, BasePoint)
    classes = [shared if placed else [center]]
    for y in members:
        if isinstance(y, ExtraPoint):
            if y != center:
                classes.append([y])
        elif not placed:
            classes.append(shared)
            placed = True
    # the pool is in canonical order, so each class lists its members in
    # order and the other classes come sorted by their least member
    return StableClassReport(
        center=center, epsilon=eps, count=len(classes),
        representatives=(center, *(cls[0] for cls in classes[1:])),
        classes=tuple(tuple(cls) for cls in classes),
        members=tuple(members),
        universe=f"forced satellite orbit plus {len(sample)} caller points")


def _stable_entry_time(center, eps, multiplicity):
    """First iterate at which the forced satellite cluster joins the
    local stable set, or 0 when it never does.

    For a base center whose right tail continues into a tagged periodic
    orbit, membership of that cluster at iterate m requires every mismatch
    with the periodic continuation to lie in the past and the last one to
    sit deeper than the spare radius. Both conditions move one step per
    iterate, so the entry time is read off the last mismatch: the one
    nearest the last core end, as ext continues s's right tail.
    """
    if isinstance(center, ExtraPoint):
        return 0
    s = center.seq
    label = tail_label(s)
    if label is None:
        return 0
    k, j = label
    if multiplicity(k) < 1:
        return 0
    ext = project(ExtraPoint(1, k, j))
    if s == ext:
        return 0
    spare = eps - level_gap(k)
    if spare <= 0:
        return 0
    start = max(s.core_end, ext.core_end)
    last = nearest_mismatch(s, ext, start, start)
    return max(0, last + agree_radius(spare, False))


def local_stable_radius(sys, center, eps):
    """A radius below which local stable sets collapse into true stable sets
    along the whole orbit of the center.

    The count of stable classes stabilizes along the orbit; at the
    stabilized iterate, each competing class keeps a recurrent separation
    from the center, and a quarter of the smallest such separation is a
    safe radius for every iterate. Below 1/2 every competitor shares the
    center's right tail, so its base part dies out and the separation is
    its tag gap. With no competitor anywhere on the orbit the requested
    eps is already safe.
    """
    if not 0 < eps < HALF:
        raise ValueError("eps must lie in (0, 1/2)")
    sys.validate_point(center)
    entry = _stable_entry_time(center, eps, sys.multiplicity)
    anchor = aug_iterate(center, entry)
    report = stable_class_count(sys, anchor, eps)
    if report.count == 1:
        return eps
    seps = [level_gap(*tag_levels(z, anchor))
            for z in report.representatives if z != anchor]
    return min(seps) / 4


class StabilizationNotReached(RuntimeError):
    """The class count was still changing at the end of the scan window."""


def stabilization_index(sys, center, eps, m_hi):
    """Least iterate from which the stable-class count stays constant.

    Returns (l, value) where n(f^t x, eps) equals ``value`` for t in
    [l, m_hi]. Along the orbit the count steps at most once, at the entry
    time E of _stable_entry_time, so l is E when E < m_hi and 0 otherwise.
    Raises StabilizationNotReached when E == m_hi, since then the window
    shows no plateau at all.
    """
    if m_hi < 1:
        raise ValueError("m_hi must be >= 1")
    value = stable_class_count(sys, aug_iterate(center, m_hi), eps).count
    entry = _stable_entry_time(center, eps, sys.multiplicity)
    if entry == m_hi:
        raise StabilizationNotReached(
            f"count still changing at iterate {m_hi}")
    return (entry if entry < m_hi else 0), value


def orbit_stable_inclusion_failures(sys, center, eps, window=8):
    """Iterates m in [-window, window] where the local stable set at the
    radius from local_stable_radius escapes the true stable set.

    Returns (radius, failures); an empty failure list verifies the
    uniform inclusion along the orbit window.
    """
    radius = local_stable_radius(sys, center, eps)
    failures = []
    for m in range(-window, window + 1):
        rep = stable_class_count(sys, aug_iterate(center, m), radius)
        if rep.count != 1:
            failures.append(m)
    return radius, failures
