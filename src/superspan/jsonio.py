"""JSON encoding of the package's data types.

Rationals serialize as canonical strings "p/q" (reduced, positive
denominator, bare "p" for integers); field elements as arrays of such
strings with the constant term first.  Encoders produce plain dict/list
structures ready for json.dumps with sorted keys, so identical inputs
give byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .detect import ExceptionalReport
from .errors import SuperspanError
from .field import (
    CYCLOTOMIC,
    RATIONAL,
    FieldDesc,
    FieldValue,
    cyclotomic_field,
    number_field,
    rational_field,
)
from .orbit import ProjPoint
from .relations import RelLattice
from .subsum import TermPartition, TermVector


def encode_rational(q: Fraction) -> str:
    return str(Fraction(q))


def decode_rational(s) -> Fraction:
    if isinstance(s, bool):  # a bool is an int to Python, but not a number in JSON
        raise SuperspanError(f"expected a rational number, got {str(s).lower()}")
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise SuperspanError(f"rational {s!r} has a zero denominator") from None


def encode_value(v: FieldValue) -> list:
    return [encode_rational(c) for c in v.coeffs]


def encode_field(desc: FieldDesc) -> dict:
    if desc.kind == RATIONAL:
        return {"kind": "rational"}
    if desc.kind == CYCLOTOMIC:
        return {"kind": "cyclotomic", "ell": desc.cyclotomic_order}
    return {"kind": "number_field",
            "min_poly": [encode_rational(c) for c in desc.min_poly]}


def _get(obj, key: str):
    """obj[key] of a JSON object, or a SuperspanError naming the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise SuperspanError(f"expected a JSON object with the key {key!r}")
    return obj[key]


def _array(value, what: str) -> list:
    """value if it is a JSON array, else a SuperspanError naming what."""
    if not isinstance(value, list):
        raise SuperspanError(f"{what} must be a JSON array")
    return value


def decode_field(obj: dict) -> FieldDesc:
    kind = _get(obj, "kind")
    if kind == "rational":
        return rational_field()
    if kind == "cyclotomic":
        ell = _get(obj, "ell")
        if type(ell) is not int:  # as encode_field writes it: not a float, not a bool
            raise SuperspanError(f"cyclotomic order must be a JSON integer, got {ell!r}")
        return cyclotomic_field(ell)
    if kind == "number_field":
        return number_field([decode_rational(c)
                             for c in _array(_get(obj, "min_poly"), "min_poly")])
    raise SuperspanError(f"unknown field kind {kind!r}")


def parse_field_spec(spec: str) -> FieldDesc:
    """CLI shorthand: rational | cyclotomic:ELL | numberfield:c0,c1,..."""
    if spec == "rational":
        return rational_field()
    if spec.startswith("cyclotomic:"):
        return cyclotomic_field(int(spec.split(":", 1)[1]))
    if spec.startswith("numberfield:"):
        return number_field([decode_rational(c) for c in spec.split(":", 1)[1].split(",")])
    raise ValueError(f"unknown field spec {spec!r}")


def encode_point(P: ProjPoint) -> dict:
    return {"field": encode_field(P.ambient),
            "coords": [encode_value(c) for c in P.coords]}


def decode_point(obj, ambient: Optional[FieldDesc] = None) -> ProjPoint:
    """Accepts the full point document or a bare coordinate array whose
    entries are rational strings/ints or coefficient arrays."""
    if isinstance(obj, dict):
        ambient = decode_field(_get(obj, "field"))
        coords = _get(obj, "coords")
    else:
        coords = obj
    if ambient is None:
        ambient = rational_field()
    values = []
    for c in _array(coords, "the coordinates"):
        if isinstance(c, list):
            values.append(ambient.element([decode_rational(x) for x in c]))
        else:
            values.append(ambient.element(decode_rational(c)))
    return ProjPoint(ambient, values)


def encode_lattice(L: RelLattice) -> dict:
    return {"rank": L.rank, "basis": [list(v) for v in L.basis]}


def encode_partition(part: TermPartition) -> dict:
    return {"r": part.r,
            "blocks": [[list(sigma) for sigma in block] for block in part.blocks]}


def encode_term_vector(tv: TermVector) -> list:
    return [{"sigma": list(perm), "sign": sign, "value": encode_value(value)}
            for perm, sign, value in tv.entries]


def encode_report(report: ExceptionalReport) -> dict:
    return {
        "input": {
            "point": encode_point(report.point),
            "d": report.d,
            "r": report.r,
            "max_iter": report.max_iter,
        },
        "tuples": [list(m) for m in report.tuples],
        "subspaces": [
            {
                "basis": [[encode_value(v) for v in row] for row in rec.subspace.basis],
                "preimage": [list(m) for m in rec.preimage],
                "intersection_count": rec.intersection_count,
            }
            for rec in report.subspaces
        ],
        "diagnostics": report.diagnostics,
    }
