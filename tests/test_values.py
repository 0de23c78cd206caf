"""The value types are named tuples: they survive a pickle round trip,
compare and hash by value, refuse assignment to a field, and keep the checks
of their constructors."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from quinticpoints import elliptic, quadform, surfaces
from quinticpoints.exact import CertificateError
from quinticpoints.quintic import DegenerateQuintic, Point4, QuinticCoeffs


def _certificate(residual=0):
    point = Point4(Fraction(1), Fraction(2), Fraction(2), Fraction(1))
    return surfaces.Certificate("swap", {"a": 1}, point, residual, False)


# kind -> (make a value, a field of it, a bad construction and what it raises)
VALUES = {
    "QuinticCoeffs": (lambda: QuinticCoeffs(1, 0, -2), "a",
                      lambda: QuinticCoeffs(0, 0, 0), DegenerateQuintic),
    "Point4": (lambda: Point4(Fraction(1, 2), 1, 2, 3), "p", None, None),
    "CurvePoint": (lambda: elliptic.CurvePoint(1, 2), "x",
                   lambda: elliptic.CurvePoint(1), ValueError),
    "table row": (lambda: elliptic.load_table()[41], None, None, None),
    "WeierstrassCurve": (lambda: elliptic.specialization_curve(2, 0, Fraction(1, 3)), "a2",
                         None, None),
    "DiagonalForm": (lambda: quadform.normalize(4, 2, 3, -5)[0], "a1",
                     lambda: quadform.DiagonalForm(1, 0, 3, 5), quadform.ZeroCoefficient),
    "SymmetricQuinticCoeffs": (lambda: surfaces.SymmetricQuinticCoeffs(a1=1, c1=29), "c1",
                               None, None),
    "Certificate": (_certificate, "residual", lambda: _certificate(1), CertificateError),
    "IdentityCheck": (lambda: surfaces.IdentityCheck("thm2-conic", True, ""), "ok", None, None),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_value_type(kind):
    make, field, bad, error = VALUES[kind]
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and repr(copy) == repr(value)
    assert make() == value
    if kind == "Certificate":  # its inputs are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(make()) == hash(value)
    if field is not None:
        with pytest.raises(AttributeError):
            setattr(value, field, 7)
    if bad is not None:
        with pytest.raises(error):
            bad()


# kind -> (make a value, fields its constructor refuses, what that raises)
REPLACED = {
    "QuinticCoeffs": (lambda: QuinticCoeffs(1, 0, 0), {"a": 0}, DegenerateQuintic),
    "CurvePoint": (lambda: elliptic.CurvePoint(1, 2), {"y": None}, ValueError),
    "DiagonalForm": (lambda: quadform.normalize(4, 2, 3, -5)[0], {"a2": 0},
                     quadform.ZeroCoefficient),
    "Certificate": (_certificate, {"residual": 1}, CertificateError),
}


@pytest.mark.parametrize("kind", sorted(REPLACED))
def test_make_and_replace_keep_the_checks(kind):
    make, bad, error = REPLACED[kind]
    value = make()
    assert value._replace() == value
    with pytest.raises(error):
        value._replace(**bad)
    with pytest.raises(error):
        type(value)._make({**value._asdict(), **bad}.values())
