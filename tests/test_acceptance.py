"""Acceptance suite: one test per headline property, exact arithmetic only.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failure). Tolerances are zero throughout: every
comparison is between exact rationals. The stated time budgets are asserted
where the criterion carries one.
"""

import random
import time
from fractions import Fraction

from nexpansive.base import (
    BiSeq,
    base_dist,
    base_shadow,
    dyadic,
    periodic_orbit,
    periodic_point,
)
from nexpansive.space import (
    AugSystem,
    BasePoint,
    ExtraPoint,
    aug_dist,
    aug_iterate,
    aug_map,
    orbit_label,
)
from nexpansive.expansivity import (
    ExpansivityCertificate,
    check_expansivity,
    dynamic_ball,
    local_stable_radius,
    lower_expansivity_falsifier,
    stable_class_count,
)
from nexpansive.chains import build_chain_graph, chain_classes
from nexpansive.shadowing import (
    limit_shadow,
    shadow_pseudo_orbit,
    two_sided_limit_shadow,
    verify_shadow,
)
from nexpansive.samples import (
    construction_sample,
    drifting_two_sided_orbit,
    hop_pseudo_orbit,
    random_point,
    random_triple,
    switching_limit_orbit,
)
from oracles import brute_shadow_search, closure_classes, point_runs

QUARTER = Fraction(1, 4)
LEVELS = (2, 3, 5)


def report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"criterion {number:02d} {name}: {status} ({elapsed:.2f}s){suffix}")


def full_sample(system):
    return construction_sample(system, extras_k_hi=50, orbits_k_hi=12,
                               random_count=200, seed=7)


def test_criterion_01_construction_fidelity():
    start = time.perf_counter()
    ok = True
    for n in LEVELS:
        system = AugSystem(n, "standard", 50)
        for k in range(3, 51):
            ball = dynamic_ball(system, BasePoint(periodic_point(k)),
                                Fraction(1, k))
            expected = {BasePoint(periodic_point(k))}
            expected.update(ExtraPoint(i, k, 0) for i in range(1, n))
            ok = ok and ball.mode == "exact" and set(ball.members) == expected
            ok = ok and len(ball) == n
    elapsed = time.perf_counter() - start
    report(1, "construction fidelity", ok, elapsed, "n in {2,3,5}, k in [3,50]")
    assert ok
    assert elapsed < 10.0


def test_criterion_02_expansivity_certificates():
    start = time.perf_counter()
    ok = True
    details = []
    for n in LEVELS:
        system = AugSystem(n, "standard", 50)
        sample = full_sample(system)
        ok = ok and len(sample) >= 500
        cert = check_expansivity(system, QUARTER, sample)
        ok = ok and isinstance(cert, ExpansivityCertificate)
        if isinstance(cert, ExpansivityCertificate):
            ok = ok and cert.largest_ball <= n
        for c in (QUARTER, Fraction(1, 8), Fraction(1, 16)):
            falsifier = lower_expansivity_falsifier(system, c)
            ok = ok and len(falsifier.members) == n
            ok = ok and all(d < c for d in falsifier.distances)
        details.append(f"n={n}:{len(sample)}pts")
    elapsed = time.perf_counter() - start
    report(2, "expansivity certificates", ok, elapsed, " ".join(details))
    assert ok


def test_criterion_03_shadowing():
    system = AugSystem(3, "standard", 50)
    rng = random.Random(7)
    start = time.perf_counter()
    ok = True
    worst = Fraction(0)
    for _ in range(200):
        po = hop_pseudo_orbit(system, rng, length=100, delta_exp=6)
        traced = shadow_pseudo_orbit(po, QUARTER)
        check = verify_shadow(po, traced, QUARTER)
        ok = ok and check.ok
        worst = max(worst, check.worst_dist)
    elapsed = time.perf_counter() - start
    report(3, "shadowing", ok, elapsed,
           f"200 orbits, worst error {worst} < 1/4")
    assert ok and worst < QUARTER
    assert elapsed < 5.0


def test_criterion_04_chain_classes():
    start = time.perf_counter()
    system = AugSystem(3, "standard", 50)
    k_hi = 12
    sample = list(system.extra_points(k_hi))
    for k in range(1, k_hi + 1):
        sample.extend(BasePoint(s) for s in periodic_orbit(k))
    counts = []
    ok = True
    for big_k in (6, 12, 24):
        part = chain_classes(build_chain_graph(sample, Fraction(1, 2 * big_k)))
        counts.append(part.class_count())
        if big_k == 12:
            class_sets = {frozenset(c) for c in part.classes}
            orbit_classes = 0
            for k in range(1, k_hi + 1):
                for i in (1, 2):
                    orbit = frozenset(ExtraPoint(i, k, j) for j in range(k + 1))
                    if orbit in class_sets:
                        orbit_classes += 1
            ok = ok and orbit_classes >= 24
    ok = ok and counts[0] < counts[1] < counts[2]
    elapsed = time.perf_counter() - start
    report(4, "chain classes", ok, elapsed,
           f"counts at 1/12,1/24,1/48: {counts}")
    assert ok
    assert counts == [27, 28, 29]


def _level_radius(point):
    if isinstance(point, ExtraPoint):
        return Fraction(1, point.k) if point.k >= 3 else None
    label = orbit_label(point.seq)
    if label is not None and label[0] >= 3:
        return Fraction(1, label[0])
    return None


def test_criterion_05_stable_set_counts():
    start = time.perf_counter()
    ok = True
    for n in LEVELS:
        system = AugSystem(n, "standard", 50)
        for k in range(3, 31):
            rep = stable_class_count(system, BasePoint(periodic_point(k)),
                                     Fraction(1, k))
            ok = ok and rep.count == n
        sample = full_sample(system)
        for x in sample:
            radii = [QUARTER, Fraction(1, 8)]
            level = _level_radius(x)
            if level is not None:
                radii.append(level)
            for eps in radii:
                here = stable_class_count(system, x, eps).count
                there = stable_class_count(system, aug_map(x), eps).count
                ok = ok and here <= n and there <= n and here <= there
    elapsed = time.perf_counter() - start
    report(5, "stable set counts", ok, elapsed,
           "counts bounded and monotone along the orbit")
    assert ok


def test_criterion_06_uniform_stable_radius():
    start = time.perf_counter()
    system = AugSystem(3, "standard", 50)
    ok = True
    for k in range(3, 31):
        r = local_stable_radius(system, BasePoint(periodic_point(k)),
                                Fraction(1, k))
        ok = ok and r == Fraction(1, 4 * k)
    sample = construction_sample(system, extras_k_hi=12, orbits_k_hi=12,
                                 random_count=60, seed=11)
    checked = 0
    for x in sample:
        level = _level_radius(x)
        eps = level if level is not None else QUARTER
        r = local_stable_radius(system, x, eps)
        for m in range(-8, 9):
            rep = stable_class_count(system, aug_iterate(x, m), r)
            ok = ok and rep.count == 1
        checked += 1
    elapsed = time.perf_counter() - start
    report(6, "uniform stable radius", ok, elapsed,
           f"{checked} sampled points, window [-8, 8]")
    assert ok


def test_criterion_07_limit_shadowing():
    start = time.perf_counter()
    system = AugSystem(3, "standard", 50)
    lpo = switching_limit_orbit(stages=10)
    pts = lpo.points
    assert len(pts) >= 2 ** 10
    thresholds = tuple(dyadic(t) for t in range(1, 6))
    rep = limit_shadow(system, lpo, thresholds=thresholds)
    ok = all(idx is not None for _, idx in rep.decay)
    ok = ok and [th for th, _ in rep.decay] == list(thresholds)
    # replay the decay report exactly
    dists = [aug_dist(aug_iterate(rep.point, t), p) for t, p in enumerate(pts)]
    for th, idx in rep.decay:
        ok = ok and all(d < th for d in dists[idx:])
    elapsed = time.perf_counter() - start
    report(7, "limit shadowing", ok, elapsed,
           f"decay indices {[idx for _, idx in rep.decay]}")
    assert ok


def test_criterion_08_two_sided_limit_shadowing():
    start = time.perf_counter()
    system = AugSystem(3, "standard", 50)
    tslpo = drifting_two_sided_orbit(half=512)
    thresholds = tuple(dyadic(t) for t in range(1, 5))
    rep = two_sided_limit_shadow(system, tslpo, thresholds=thresholds)
    ok = rep.junction is not None and 2 * rep.junction >= rep.spacing
    for decay, sign in ((rep.past_decay, -1), (rep.future_decay, 1)):
        ok = ok and [th for th, _ in decay] == list(thresholds)
        for th, idx in decay:
            ok = ok and idx is not None
            for t in range(idx, 513):
                d = aug_dist(aug_iterate(rep.point, sign * t),
                             tslpo.at(sign * t))
                ok = ok and d < th
    elapsed = time.perf_counter() - start
    report(8, "two-sided limit shadowing", ok, elapsed,
           f"junction {rep.junction}, spacing {rep.spacing}")
    assert ok


def test_criterion_09_metric_axioms():
    system = AugSystem(3, "standard", 50)
    rng = random.Random(7)
    start = time.perf_counter()
    failures = 0
    for _ in range(100_000):
        a, b, c = random_triple(system, rng, k_hi=25)
        ab = aug_dist(a, b)
        if ab != aug_dist(b, a) or aug_dist(a, c) > ab + aug_dist(b, c):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    report(9, "metric axioms", ok, elapsed, "100000 triples, 0 violations")
    assert ok
    assert elapsed < 10.0


def test_criterion_10_oracle_equivalence():
    start = time.perf_counter()
    system = AugSystem(3, "standard", 50)
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        sample = [BasePoint(s) for k in rng.sample(range(1, 13), 4)
                  for s in periodic_orbit(k)]
        sample += system.extra_points(rng.randint(2, 6))
        sample += [random_point(system, rng, 10)
                   for _ in range(rng.randint(5, 80))]
        sample = sample[:200]
        graph = build_chain_graph(sample, Fraction(1, rng.randint(2, 48)))
        part = chain_classes(graph)
        got = sorted(tuple(sorted(graph.nodes.index(p) for p in cls))
                     for cls in part.classes)
        want_classes, want_transient = closure_classes(graph.adjacency)
        ok = ok and got == want_classes
        ok = ok and tuple(graph.nodes.index(p)
                          for p in part.transient) == want_transient
    searched = 0
    for _ in range(12):
        length = rng.randint(2, 6)
        pts = [BasePoint(BiSeq(rng.choice(["0", "01", "001"])))]
        while len(pts) < length:
            nxt = aug_map(pts[-1])
            if rng.random() < 0.4:
                from nexpansive.base import flip_symbol
                depth = 6 + rng.randint(0, 2)
                nxt = BasePoint(flip_symbol(
                    nxt.seq, depth if rng.random() < 0.5 else -depth))
            pts.append(nxt)
        seqs = [p.seq for p in pts]
        best = brute_shadow_search(seqs, 5, window=4)
        traced = base_shadow(point_runs(seqs), 5)
        worst = max(base_dist(traced.shift(i), seqs[i])
                    for i in range(len(seqs)))
        ok = ok and best <= dyadic(5) and worst <= dyadic(5)
        searched += 1
    elapsed = time.perf_counter() - start
    report(10, "oracle equivalence", ok, elapsed,
           f"50 graphs, {searched} exhaustive tracing searches")
    assert ok
