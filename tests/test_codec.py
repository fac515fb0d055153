import json
from fractions import Fraction

import pytest

from nexpansive.base import BiSeq, periodic_point
from nexpansive.space import AugSystem, BasePoint, ExtraPoint
from nexpansive.expansivity import dynamic_ball, stable_class_count
from nexpansive.shadowing import PseudoOrbit
from nexpansive.codec import (
    biseq_from_json,
    biseq_to_json,
    encode,
    format_fraction,
    parse_fraction,
    point_from_json,
    point_to_json,
    pseudo_orbit_from_json,
    pseudo_orbit_to_json,
    system_from_json,
    system_to_json,
)
from nexpansive.samples import drifting_two_sided_orbit


def test_fraction_strings():
    assert format_fraction(Fraction(3, 12)) == "1/4"
    assert format_fraction(3) == "3/1"
    assert parse_fraction("7/2") == Fraction(7, 2)
    assert parse_fraction("5") == Fraction(5)
    assert parse_fraction(2) == Fraction(2)


def test_biseq_round_trip_canonicalizes():
    raw = {"left": "00", "core": "0000100", "right": "00", "offset": -2}
    seq = biseq_from_json(raw)
    assert seq == BiSeq("0", "00100", "0", 0)
    assert biseq_to_json(seq) == {"left": "0", "core": "1", "right": "0",
                                  "offset": 2}
    assert biseq_from_json(biseq_to_json(seq)) == seq


def test_point_round_trip():
    pts = [BasePoint(periodic_point(4).shift(2)), ExtraPoint(2, 7, 3)]
    for p in pts:
        assert point_from_json(point_to_json(p)) == p
    with pytest.raises(ValueError):
        point_from_json({"type": "weird"})


def test_system_round_trip():
    sys = AugSystem(5, "finite_expansive", 40)
    assert system_from_json(system_to_json(sys)) == sys
    assert system_from_json({}) == AugSystem(2, "standard", 50)


def _orbit(word, length):
    x = BasePoint(BiSeq(word))
    return tuple(BasePoint(x.seq.shift(t)) for t in range(length))


@pytest.mark.parametrize("po, schedule", [
    (PseudoOrbit(_orbit("01", 5), Fraction(1, 32)),
     [{"k": 0, "bound": "1/32"}]),
    (PseudoOrbit(_orbit("011", 6), ((0, Fraction(1, 8)), (2, Fraction(1, 64)))),
     [{"k": 0, "bound": "1/8"}, {"k": 2, "bound": "1/64"}]),
    (drifting_two_sided_orbit(half=16, defect_step=8),
     [{"k": 0, "bound": "1/2"}, {"k": 8, "bound": "1/8"}]),
], ids=["constant-delta", "forward-schedule", "two-sided"])
def test_pseudo_orbit_round_trip(po, schedule):
    data = pseudo_orbit_to_json(po)
    assert data["schedule"] == schedule
    assert data["start"] == po.start
    back = pseudo_orbit_from_json(json.loads(json.dumps(data)))
    assert back.points == po.points
    assert back.start == po.start
    assert back.schedule == po.schedule


def test_encode_reports_deterministically(sys3):
    ball = dynamic_ball(sys3, BasePoint(periodic_point(5)), Fraction(1, 5))
    payload = encode(ball)
    text1 = json.dumps(payload, sort_keys=True)
    text2 = json.dumps(encode(ball), sort_keys=True)
    assert text1 == text2
    assert '"1/5"' in text1 and "0.2" not in text1

    rep = stable_class_count(sys3, BasePoint(periodic_point(5)), Fraction(1, 5))
    blob = json.dumps(encode(rep), sort_keys=True)
    assert '"count": 3' in blob


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode(object())
