"""The library surface that the end-to-end benchmark in perfbench/ uses.

perfbench/ lives outside the package and binds nexpansive's names from the
outside, so a simplification of the library can break the benchmark while
every other test stays green. These tests load its workload and tracing
modules by path, build every workload at the default seed, run and check a
few items of each, and pin the names and call shapes it relies on.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from nexpansive.base import BiSeq
from nexpansive.expansivity import local_stable_radius, stable_class_count
from nexpansive.shadowing import PseudoOrbit
from nexpansive.space import AugSystem, BasePoint, aug_iterate, aug_map

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _items(workload):
    """The first item, plus the limit and two-sided traces where present."""
    extra = [item for item in workload.inputs[1:]
             if isinstance(item, tuple) and item[0] in ("limit", "two-sided")]
    return [workload.inputs[0]] + extra


@pytest.mark.parametrize("name", ["metric-triples", "chain-sweep",
                                  "stable-sweep", "deep-tracing"])
def test_workload_items_run_and_check(workloads, name):
    workload = workloads.WORKLOADS[name](7)
    for item in _items(workload):
        out = workload.run(item)
        assert workload.check(item, out) is None
        assert workload.record(item, out)


def test_traced_functions_resolve():
    tracing = _load("tracing")
    for _, _, module, path in tracing.FUNCTIONS:
        _, _, fn = tracing._lookup(module, path)
        assert callable(fn), (module, path)


def test_call_shapes():
    zero = BasePoint(BiSeq("0"))
    points = (zero, aug_map(zero), aug_map(aug_map(zero)))
    delta = Fraction(1, 8)
    po = PseudoOrbit(points, delta)
    assert po.delta == delta
    assert (po.start, po.end) == (0, 2)
    assert po.at(1) == points[1]
    assert aug_map(zero) == aug_iterate(zero, 1)
    system = AugSystem(3, "standard", 50)
    assert stable_class_count(system, zero, Fraction(1, 4)).count == 1
    assert local_stable_radius(system, zero, Fraction(1, 4)) == Fraction(1, 4)
