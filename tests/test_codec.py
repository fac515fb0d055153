import dataclasses
import json
from fractions import Fraction

import pytest

from nexpansive.base import BiSeq, periodic_point
from nexpansive.space import AugSystem, BasePoint, ExtraPoint
from nexpansive.expansivity import dynamic_ball, stable_class_count
from nexpansive.codec import encode, format_fraction
from nexpansive.shadowing import ShadowCheck


def test_fraction_strings():
    assert format_fraction(Fraction(3, 12)) == "1/4"
    assert format_fraction(Fraction(-6, 2)) == "-3/1"
    assert encode(Fraction(5)) == "5/1"


def test_encode_writes_canonical_fields():
    seq = BiSeq("00", "0000100", "00", -2)
    assert encode(seq) == {"left": "0", "core": "1", "right": "0",
                           "offset": 2}
    assert encode([BasePoint(periodic_point(4).shift(2)),
                   ExtraPoint(2, 7, 3)]) == [
        {"type": "base", "seq": {"left": "00100", "core": "", "right": "00100",
                                 "offset": 0}},
        {"type": "extra", "i": 2, "k": 7, "j": 3}]
    assert encode(AugSystem(5, "finite_expansive", 40)) == {
        "n": 5, "variant": "finite_expansive", "k_max": 40}


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
    with pytest.raises(TypeError, match="^cannot encode object$"):
        encode(object())
    # a dataclass type is not a report value
    with pytest.raises(TypeError, match="^cannot encode type$"):
        encode(ShadowCheck)
    with pytest.raises(TypeError, match="^cannot encode object$"):
        encode([1, object()])


def test_encode_reads_dataclass_fields_once(monkeypatch):
    check = ShadowCheck(ok=True, eps=Fraction(1, 4), worst_index=3,
                        worst_dist=Fraction(1, 8))
    want = {"ok": True, "eps": "1/4", "worst_index": 3, "worst_dist": "1/8"}
    assert encode(check) == want
    assert list(encode(check)) == [f.name for f in dataclasses.fields(check)]

    def no_fields(_):
        raise AssertionError("dataclass fields read again")

    monkeypatch.setattr(dataclasses, "fields", no_fields)
    monkeypatch.setattr(dataclasses, "is_dataclass", no_fields)
    assert encode([check, check]) == [want, want]
