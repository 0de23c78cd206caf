"""Checks of every op's output with the benchmark's own arithmetic.

Nothing here imports the program: points are re-read from the JSON on stdout
and their residuals recomputed exactly over Q or Q(i).  ``check`` returns an
empty string when the output is right, else the reason it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class QI:
    """Minimal exact Q(i) number for recomputing residuals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(x):
        return x if isinstance(x, QI) else QI(x)

    def __add__(self, other):
        other = QI.lift(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QI.lift(other))

    def __rsub__(self, other):
        return QI.lift(other) - self

    def __mul__(self, other):
        other = QI.lift(other)
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = QI(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = QI.lift(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def _scalar(value) -> QI:
    if isinstance(value, dict):
        return QI(Fraction(value["re"]), Fraction(value["im"]))
    return QI(Fraction(value))


def _point(obj) -> tuple:
    return tuple(_scalar(obj[k]) for k in "pqrs")


def _quintic(a, b, c):
    def f(x):
        return x**5 + a * x**3 + b * x**2 + c * x

    return f


def _flags(argv) -> dict:
    """The --name=value words of an argv."""
    return dict(w[2:].split("=", 1) for w in argv if w.startswith("--") and "=" in w)


def _nontrivial(p, q, r, s, f) -> bool:
    left, right = {p, q}, {r, s}
    return not (left & right) and not ({f(p), f(q)} & {f(r), f(s)})


def _check_point(payload, f, construction) -> str:
    if payload.get("construction") != construction:
        return f"construction {payload.get('construction')!r}"
    p, q, r, s = _point(payload["point"])
    if not (f(p) + f(q) - f(r) - f(s)).is_zero():
        return "emitted point is not on the hypersurface"
    if payload["residual"] != "0":
        return "reported residual is not 0"
    if not payload["nontrivial"] or not _nontrivial(p, q, r, s, f):
        return "point is trivial"
    return ""


# symmetric presets f(x, y) = sum a_i (x^i + y^i) + xy sum b_i (x^i + y^i)
# + x^2 y^2 (c0 (x + y) + c1), as printed in the paper
_SYMMETRIC = {
    "consani-scholten": dict(a=(-5, 5, 0, 0, 1), b=(5, -5, 0), c0=0, c1=0),
    "c29": dict(a=(1, 1, 1, 1, 1), b=(1, 1, 1), c0=1, c1=29),
}


def _symmetric_f(preset):
    k = _SYMMETRIC[preset]

    def f(x, y):
        total = QI(0)
        for i, ai in enumerate(k["a"], 1):
            total = total + ai * (x**i + y**i)
        for i, bi in enumerate(k["b"], 1):
            total = total + bi * x * y * (x**i + y**i)
        return total + x * x * y * y * (k["c0"] * (x + y) + k["c1"])

    return f


def _check_construct(argv, payload) -> str:
    family = argv[1]
    flags = _flags(argv)
    a, b, c = (int(flags.get(k, 0)) for k in "abc")
    if family in ("thm1", "gaussian"):
        return _check_point(payload, _quintic(a, b, c), family)
    if family == "thm2":
        return _check_point(payload, _quintic(a, 0, c), family)
    if family == "fifth-power":
        return _check_point(payload, _quintic(0, 0, 0), family)
    if family == "mixed":
        ff = int(flags["f"])
        p, q, r, s = _point(payload["point"])
        F, G = _quintic(0, 0, c), _quintic(0, 0, ff)
        if not (F(p) + G(q) - F(r) - G(s)).is_zero():
            return "mixed point is not on F(p)+G(q)=F(r)+G(s)"
        if payload["residual"] != "0" or not payload["nontrivial"]:
            return "mixed certificate"
        return ""
    if family == "symmetric":
        f = _symmetric_f(flags["preset"])
        p, q, r, s = _point(payload["point"])
        if not (f(p, q) - f(r, s)).is_zero():
            return "symmetric point is not on f(p,q)=f(r,s)"
        if payload["residual"] != "0" or not payload["nontrivial"]:
            return "symmetric certificate"
        if {p, q} == {r, s}:
            return "symmetric point is trivial"
        return ""
    return f"unknown family {family}"


def _check_solve_form(argv, payload) -> str:
    coeffs = [int(x) for x in argv[1:5]]
    bound = int(_flags(argv)["bound"])
    if payload["form"] != coeffs:
        return "form echo"
    witness = payload["witness"]
    if witness is None:
        return "" if payload["witness_original_form"] is None else "stray pullback"
    if not any(witness) or max(abs(x) for x in witness) > bound:
        return "witness is zero or outside the box"
    if sum(a * x * x for a, x in zip(payload["normalized"], witness)) != 0:
        return "witness is not a zero of the normalized form"
    pulled = [Fraction(x) for x in payload["witness_original_form"]]
    if not any(pulled) or sum(a * x * x for a, x in zip(coeffs, pulled)) != 0:
        return "pulled-back witness is not a zero of the form"
    if not payload["solvable"]:
        return "a zero was found but the form was declared unsolvable"
    return ""


def _check_question3(argv, payload) -> str:
    flags = _flags(argv)
    n, c = int(flags["N"]), int(flags["c"])
    a_n = -((5 * math.prod(k * k + 2 for k in range(1, n + 1))) ** 2)
    if payload["a_N"] != a_n or payload["c"] != c or len(payload["points"]) != n:
        return "question3 family parameters"
    f = _quintic(a_n, 0, c)
    for entry in payload["points"]:
        p, q, r, s = _point(entry["point"])
        if any(x.im or x.re.denominator != 1 for x in (p, q, r, s)):
            return "question3 point is not integral"
        if not (f(p) + f(q) - f(r) - f(s)).is_zero() or entry["residual"] != "0":
            return "question3 point is not on V_f"
    return ""


def _check_scale(argv, payload) -> str:
    flags = _flags(argv)
    a, b, c = (int(flags[k]) for k in "abc")
    given = json.loads(flags["points"])
    d = 1
    for pt in given:
        for k in "pqrs":
            d = math.lcm(d, Fraction(pt[k]).denominator)
    if payload["F"] != {"a": a * d**2, "b": b * d**3, "c": c * d**4}:
        return "scaled coefficients"
    big = _quintic(a * d**2, b * d**3, c * d**4)
    if len(payload["points"]) != len(given):
        return "scaled point count"
    for obj, pt in zip(payload["points"], given):
        p, q, r, s = _point(obj)
        if [p, q, r, s] != [QI(Fraction(pt[k]) * d) for k in "pqrs"]:
            return "scaled point is not d times the input"
        if not (big(p) + big(q) - big(r) - big(s)).is_zero():
            return "scaled point is not on V_F"
    if any(x != "0" for x in payload["residuals"]):
        return "reported residual is not 0"
    return ""


def _check_table(argv, payload, exit_code) -> str:
    flags = _flags(argv)
    d = int(flags["dmax"])
    rows = payload["rows"]
    if flags["mode"] == "verify":
        if [r["D"] for r in rows] != list(range(1, min(d, 100) + 1)):
            return "verify rows"
        if not payload["all_ok"] or any(r["status"] != "ok" for r in rows):
            return "a shipped table row failed verification"
        return ""
    if [r["D"] for r in rows] != list(range(1, d + 1)):
        return "search rows"
    exhausted = 0
    for r in rows:
        if r["status"] == "exhausted":
            exhausted += 1
            continue
        t, x, y = (Fraction(r[k]) for k in ("t", "X", "Y"))
        t4 = t**4
        if y * y != x**3 - 25 * t4 * x * x - 2500 * r["D"] ** 2 * t4:
            return f"search hit for D={r['D']} is not on E_t"
    if payload["all_ok"] != (exhausted == 0):
        return "all_ok disagrees with the rows"
    if exit_code != (3 if exhausted else 0):
        return "exit code disagrees with the rows"
    return ""


def _check_identity(argv, payload) -> str:
    name = _flags(argv)["only"]
    checks = payload["checks"]
    if payload["count"] != 1 or len(checks) != 1 or checks[0]["name"] != name:
        return "identity selection"
    if not (checks[0]["ok"] and payload["all_pass"]):
        return f"identity {name} failed"
    return ""


def check(op, exit_code: int, stdout: str) -> str:
    """'' when exit code and stdout are what ``op`` should produce."""
    allowed = op.exit_code if isinstance(op.exit_code, tuple) else (op.exit_code,)
    if exit_code not in allowed:
        return f"exit code {exit_code}, expected {op.exit_code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if op.error is not None:
        return "" if payload.get("error") == op.error else f"error {payload.get('error')!r}"
    command = op.argv[0]
    if command == "construct":
        return _check_construct(op.argv, payload)
    if command == "solve-form":
        return _check_solve_form(op.argv, payload)
    if command == "question3":
        return _check_question3(op.argv, payload)
    if command == "scale-integers":
        return _check_scale(op.argv, payload)
    if command == "table":
        return _check_table(op.argv, payload, exit_code)
    if command == "verify-identities":
        return _check_identity(op.argv, payload)
    return f"no check for {command}"
