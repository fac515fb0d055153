"""JSON forms for points, systems, pseudo-orbits and reports.

Rationals travel as "p/q" strings, never as floats; sequences as their
four description fields, canonicalized again on the way in. ``encode``
turns any report dataclass into JSON-ready data with deterministic
ordering, so identical inputs yield byte-identical report files.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from nexpansive.base import BiSeq
from nexpansive.space import AugSystem, BasePoint, ExtraPoint
from nexpansive.shadowing import PseudoOrbit


def format_fraction(value):
    f = value if type(value) is Fraction else Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(text):
    if isinstance(text, int):
        return Fraction(text)
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den) if den else 1)


def biseq_to_json(seq):
    return {"left": seq.left, "core": seq.core, "right": seq.right,
            "offset": seq.offset}


def biseq_from_json(data):
    return BiSeq(data["left"], data.get("core", ""), data["right"],
                 data.get("offset", 0))


def point_to_json(point):
    if isinstance(point, BasePoint):
        return {"type": "base", "seq": biseq_to_json(point.seq)}
    return {"type": "extra", "i": point.i, "k": point.k, "j": point.j}


def point_from_json(data):
    if data["type"] == "base":
        return BasePoint(biseq_from_json(data["seq"]))
    if data["type"] == "extra":
        return ExtraPoint(data["i"], data["k"], data["j"])
    raise ValueError(f"unknown point type {data['type']!r}")


def system_to_json(sys):
    return {"n": sys.n, "variant": sys.variant, "k_max": sys.k_max}


def system_from_json(data):
    return AugSystem(n=data.get("n", 2), variant=data.get("variant", "standard"),
                     k_max=data.get("k_max", 50))


def pseudo_orbit_to_json(po):
    return {"points": [point_to_json(p) for p in po.points],
            "start": po.start,
            "schedule": [{"k": k, "bound": format_fraction(b)}
                         for k, b in po.schedule]}


def pseudo_orbit_from_json(data):
    return PseudoOrbit(
        [point_from_json(p) for p in data["points"]],
        [(e["k"], parse_fraction(e["bound"])) for e in data["schedule"]],
        data["start"])


def _encode_list(value):
    return [encode(v) for v in value]


def _encode_dict(value):
    return {str(k): encode(v) for k, v in value.items()}


# Keyed by exact type; encode falls back to dataclass fields.
_ENCODERS = {Fraction: format_fraction, BiSeq: biseq_to_json,
             BasePoint: point_to_json, ExtraPoint: point_to_json,
             AugSystem: system_to_json, list: _encode_list,
             tuple: _encode_list, dict: _encode_dict}
_ENCODERS.update(dict.fromkeys((str, int, bool, type(None)), lambda v: v))


def encode(value):
    """Recursively convert a value into JSON-serializable data."""
    encoder = _ENCODERS.get(type(value))
    if encoder is not None:
        return encoder(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    raise TypeError(f"cannot encode {type(value).__name__}")
