"""JSON forms for reports.

Rationals are written as "p/q" strings, never as floats; sequences as
their four canonical description fields. ``encode`` turns any report
dataclass into JSON-ready data with deterministic ordering, so identical
inputs yield byte-identical report files.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from nexpansive.base import BiSeq
from nexpansive.space import AugSystem, BasePoint, ExtraPoint


def format_fraction(value):
    return f"{value.numerator}/{value.denominator}"


def biseq_to_json(seq):
    return {"left": seq.left, "core": seq.core, "right": seq.right,
            "offset": seq.offset}


def point_to_json(point):
    if isinstance(point, BasePoint):
        return {"type": "base", "seq": biseq_to_json(point.seq)}
    return {"type": "extra", "i": point.i, "k": point.k, "j": point.j}


def system_to_json(sys):
    return {"n": sys.n, "variant": sys.variant, "k_max": sys.k_max}


def _encode_list(value):
    return [encode(v) for v in value]


def _encode_dict(value):
    return {str(k): encode(v) for k, v in value.items()}


# Keyed by exact type; encode adds a field encoder for each dataclass type
# on first sight.
_ENCODERS = {Fraction: format_fraction, BiSeq: biseq_to_json,
             BasePoint: point_to_json, ExtraPoint: point_to_json,
             AugSystem: system_to_json, list: _encode_list,
             tuple: _encode_list, dict: _encode_dict}
_ENCODERS.update(dict.fromkeys((str, int, bool, type(None)), lambda v: v))


def _field_encoder(cls):
    """The encoder of a dataclass type: its fields, in order, by name."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"cannot encode {cls.__name__}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    return lambda value: {name: encode(getattr(value, name)) for name in names}


def encode(value):
    """Recursively convert a value into JSON-serializable data."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _ENCODERS[type(value)] = _field_encoder(type(value))
    return encoder(value)
