import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexpansive.base import BiSeq, periodic_orbit, periodic_point
import nexpansive.base
import nexpansive.chains
import nexpansive.space
from nexpansive.space import (AugSystem, BasePoint, ExtraPoint, aug_dist,
                              aug_map)
from nexpansive.chains import (
    ChainGraph,
    build_chain_graph,
    chain_classes,
    edges_csv,
)
from nexpansive.samples import construction_sample, random_point
from oracles import brute_chain_graph, closure_classes


def construction_points(sys, k_hi):
    pts = list(sys.extra_points(k_hi))
    for k in range(1, k_hi + 1):
        pts.extend(BasePoint(s) for s in periodic_orbit(k))
    return pts


class TestGraph:
    def test_huge_eps_gives_complete_digraph(self, sys3):
        sample = [BasePoint(periodic_point(k)) for k in (1, 2, 3)]
        sample.append(ExtraPoint(1, 3, 0))
        g = build_chain_graph(sample, Fraction(10))
        assert all(len(a) == len(sample) for a in g.adjacency)
        part = chain_classes(g)
        assert part.class_count() == 1 and not part.transient

    def test_edges_match_distance_matrix(self, sys3):
        rng = random.Random(109)
        sample = ([BasePoint(s) for s in periodic_orbit(2)]
                  + [BasePoint(s) for s in periodic_orbit(4)]
                  + [random_point(sys3, rng, 8) for _ in range(12)])
        eps = Fraction(1, 4)
        g = build_chain_graph(sample, eps)
        for ui, u in enumerate(g.nodes):
            for vi, v in enumerate(g.nodes):
                assert (vi in g.adjacency[ui]) == (aug_dist(aug_map(u), v) < eps)

    def test_strictness_of_edge_predicate(self, sys3):
        q = ExtraPoint(1, 4, 0)
        base = BasePoint(periodic_point(4).shift(1))
        # distance of the image to the base point is exactly 1/4
        assert aug_dist(aug_map(q), base) == Fraction(1, 4)
        g = build_chain_graph([q, base], Fraction(1, 4))
        qi = g.nodes.index(q)
        assert g.nodes.index(base) not in g.adjacency[qi]

    def test_dedupes_sample(self, sys3):
        g = build_chain_graph([BasePoint(BiSeq("0"))] * 5, Fraction(1, 2))
        assert len(g.nodes) == 1

    def test_csv_export(self, sys3):
        g = build_chain_graph([BasePoint(s) for s in periodic_orbit(2)],
                              Fraction(1, 2))
        lines = edges_csv(g).strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) == 1 + g.edge_count()


def assert_matches_brute(sample, eps):
    """The hub graph expands to the brute adjacency, and Tarjan on the hub
    graph gives the classes of Tarjan on the brute one."""
    got = build_chain_graph(sample, eps)
    want = brute_chain_graph(sample, eps)
    assert got.nodes == want.nodes
    assert got.adjacency == want.adjacency
    assert got.edge_count() == want.edge_count()
    assert chain_classes(got) == chain_classes(want)
    return got


def assert_matches_brute_at(sample, epss):
    """Compare at several eps with one all-pairs pass, at the coarsest.

    An edge at a finer eps is an edge at every coarser one, so the brute
    graph at a finer eps is the coarse one restricted by the exact test.
    """
    epss = sorted(epss, reverse=True)
    coarse = assert_matches_brute(sample, epss[0])
    images = [aug_map(u) for u in coarse.nodes]
    for eps in epss[1:]:
        want = ChainGraph(epsilon=eps, nodes=coarse.nodes, out=tuple(
            tuple(vi for vi in succ
                  if aug_dist(images[ui], coarse.nodes[vi]) < eps)
            for ui, succ in enumerate(coarse.adjacency)), hubs=())
        got = build_chain_graph(sample, eps)
        assert got.adjacency == want.adjacency
        assert got.edge_count() == want.edge_count()
        assert chain_classes(got) == chain_classes(want)


class TestAgainstBruteForce:
    def test_criterion_10_style_samples(self, sys3):
        rng = random.Random(131)
        for _ in range(12):
            sample = [BasePoint(s) for k in rng.sample(range(1, 13), 4)
                      for s in periodic_orbit(k)]
            sample += sys3.extra_points(rng.randint(2, 6))
            sample += [random_point(sys3, rng, 10)
                       for _ in range(rng.randint(5, 80))]
            assert_matches_brute(sample[:200], Fraction(1, rng.randint(2, 48)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 25),
           st.fractions(min_value=Fraction(1, 200), max_value=3,
                        max_denominator=200))
    def test_small_random_samples(self, sys3, seed, size, eps):
        rng = random.Random(seed)
        sample = [random_point(sys3, rng, 12, extra_share=0.5)
                  for _ in range(size)]
        assert_matches_brute(sample, eps)

    @pytest.mark.parametrize("k_hi", [12, 20])
    def test_construction_samples(self, sys3, k_hi):
        sample = construction_sample(sys3, extras_k_hi=k_hi, orbits_k_hi=k_hi,
                                     random_count=0)
        assert_matches_brute_at(
            sample, {Fraction(1, K)
                     for K in (7, 10, 12, 21, 24, 48, 96, 2 * k_hi)})

    def test_finite_expansive_variant(self, fe):
        sample = construction_sample(fe, extras_k_hi=8, orbits_k_hi=6,
                                     random_count=10)
        assert_matches_brute_at(
            sample, [Fraction(1, 4), Fraction(1, 6), Fraction(1, 16)])

    def test_duplicate_nodes(self, sys3):
        sample = [BasePoint(periodic_point(3).shift(j)) for j in range(9)]
        sample += [ExtraPoint(1, 3, j % 4) for j in range(8)] * 2
        sample += [BasePoint(BiSeq("01", "1", "0", 2))] * 3
        g = assert_matches_brute(sample, Fraction(1, 3))
        assert len(g.nodes) == 4 + 4 + 1

    @pytest.mark.parametrize("eps", [Fraction(10), Fraction(1)])
    def test_coarse_eps(self, sys3, eps):
        rng = random.Random(137)
        sample = [random_point(sys3, rng, 6) for _ in range(30)]
        sample += [BasePoint(s) for s in periodic_orbit(3)]
        g = assert_matches_brute(sample, eps)
        if eps > 1:
            assert all(len(a) == len(g.nodes) for a in g.adjacency)

    def test_eps_equal_to_a_present_level(self, sys3):
        k = 4
        sample = [ExtraPoint(i, k, j) for i in (1, 2) for j in range(k + 1)]
        sample += [BasePoint(s) for s in periodic_orbit(k)]
        sample += [ExtraPoint(1, k + 1, j) for j in range(k + 2)]
        sample += [BasePoint(s) for s in periodic_orbit(k + 1)]
        eps = Fraction(1, k)
        g = assert_matches_brute(sample, eps)
        q = ExtraPoint(1, k, 0)
        near = BasePoint(periodic_point(k).shift(1))
        assert aug_dist(aug_map(q), near) == eps
        assert g.adjacency[g.nodes.index(q)] == (
            g.nodes.index(ExtraPoint(1, k, 1)),)
        preimage = BasePoint(periodic_point(k).shift(-1))
        assert aug_dist(aug_map(preimage), q) == eps
        assert g.nodes.index(q) not in g.adjacency[g.nodes.index(preimage)]
        # A level-(k+1) satellite is not isolated at 1/k: it also steps to
        # the base orbit it shadows.
        r = ExtraPoint(1, k + 1, 0)
        assert g.nodes.index(BasePoint(periodic_point(k + 1).shift(1))) in \
            g.adjacency[g.nodes.index(r)]
        # Between 1/k and 2/k the copies over the image's orbit position
        # are within eps of it (gap 1/k) and level-k copies at any other
        # position are not (gap 2/k).
        g = assert_matches_brute(sample, Fraction(3, 2 * k))
        succ = {g.nodes[v] for v in g.adjacency[g.nodes.index(q)]}
        assert {p for p in succ if isinstance(p, ExtraPoint) and p.k == k} \
            == {ExtraPoint(1, k, 1), ExtraPoint(2, k, 1)}

    def test_builds_without_distance_calls(self, sys3, monkeypatch):
        def forbidden(*args):
            raise AssertionError("build_chain_graph computed a distance")

        for module in (nexpansive.base, nexpansive.space, nexpansive.chains):
            for name in ("aug_dist", "dist_below", "base_dist",
                         "mismatch_radius"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        sample = construction_sample(sys3, extras_k_hi=12, orbits_k_hi=12,
                                     random_count=20)
        for eps in (Fraction(3), Fraction(1, 7), Fraction(1, 24)):
            assert build_chain_graph(sample, eps).edge_count() > 0

    def test_satellite_whose_image_is_missing(self, sys3):
        q = ExtraPoint(1, 6, 6)
        sample = [q, ExtraPoint(1, 6, 3), ExtraPoint(2, 6, 0)]
        sample += [BasePoint(s) for s in periodic_orbit(6)]
        g = assert_matches_brute(sample, Fraction(1, 12))
        assert aug_map(q) not in g.nodes
        assert g.adjacency[g.nodes.index(q)] == ()


class TestClasses:
    def test_disjoint_cycles(self, sys3):
        sample = [ExtraPoint(1, 4, j) for j in range(5)]
        sample += [ExtraPoint(2, 4, j) for j in range(5)]
        part = chain_classes(build_chain_graph(sample, Fraction(1, 5)))
        assert part.class_count() == 2
        assert sorted(len(c) for c in part.classes) == [5, 5]

    def test_satellite_orbits_are_isolated_classes(self, sys3):
        k_hi = 12
        sample = construction_points(sys3, k_hi)
        part = chain_classes(build_chain_graph(sample, Fraction(1, 2 * k_hi)))
        class_sets = {frozenset(c) for c in part.classes}
        for k in range(1, k_hi + 1):
            for i in (1, 2):
                orbit = frozenset(ExtraPoint(i, k, j) for j in range(k + 1))
                assert orbit in class_sets
        assert part.class_count() >= 2 * k_hi

    def test_class_counts_grow_as_eps_shrinks(self, sys3):
        sample = construction_points(sys3, 12)
        counts = [chain_classes(build_chain_graph(sample, Fraction(1, 2 * K))
                                ).class_count() for K in (6, 12, 24)]
        assert counts[0] < counts[1] < counts[2]
        assert counts == [27, 28, 29]

    def test_k_hi_50_class_counts_grow_within_budget(self):
        # The paper's infinitely many classes at a scale where the growth
        # shows; the hub graph is never expanded to its adjacency.
        sample = construction_sample(AugSystem(3), 50, 50, random_count=0)
        start = time.perf_counter()
        counts, edges = [], []
        for big_k in (24, 50, 100, 200):
            g = build_chain_graph(sample, Fraction(1, big_k))
            counts.append(chain_classes(g).class_count())
            edges.append(g.edge_count())
            assert "adjacency" not in vars(g)
        elapsed = time.perf_counter() - start
        assert counts == [52, 105, 106, 107]
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert edges == [3023691, 696256, 574948, 470924]
        assert elapsed < 5.0

    def test_refinement(self, sys3):
        rng = random.Random(113)
        sample = construction_points(sys3, 6)
        sample += [random_point(sys3, rng, 6) for _ in range(15)]
        coarse = chain_classes(build_chain_graph(sample, Fraction(1, 6)))
        fine = chain_classes(build_chain_graph(sample, Fraction(1, 24)))
        assert fine.class_count() >= coarse.class_count()
        coarse_sets = [set(c) for c in coarse.classes]
        for cls in fine.classes:
            assert any(set(cls) <= big for big in coarse_sets)

    def test_matches_transitive_closure_oracle(self, sys3):
        rng = random.Random(127)
        for _ in range(25):
            sample = [random_point(sys3, rng, 10) for _ in range(rng.randint(5, 60))]
            for k in rng.sample(range(1, 10), 3):
                sample += [BasePoint(s) for s in periodic_orbit(k)]
            eps = Fraction(1, rng.randint(2, 40))
            g = build_chain_graph(sample, eps)
            want_classes, want_transient = closure_classes(g.adjacency)
            part = chain_classes(g)
            got_classes = sorted(tuple(sorted(g.nodes.index(p) for p in cls))
                                 for cls in part.classes)
            assert got_classes == want_classes
            assert tuple(g.nodes.index(p) for p in part.transient) == want_transient
