"""Sparse multivariate polynomials and rational functions over Q.

Every displayed identity in this package is proved by exact expansion here:
polynomials are dicts keyed by exponent vectors over the sorted tuple of the
variables that occur, rational functions are unreduced numerator/denominator
pairs compared by cross-multiplication.
Polynomial GCD is deliberately out of scope; zero-testing and evaluation are
all the certificates need.

Coefficients are ``int`` or ``Fraction`` (a scalar coerced in becomes an
``int`` when it is integral); no coefficient and no value is ever a
``float``.  Identities over Q(i) are proved over Q[I], with I a variable
that ``surfaces`` reduces by I^2 = -1 at the end.  A rational function keeps
its integral representative: integer coefficients with joint content 1.
Since the displayed formulas have small rational coefficients, the
expansions behind the identity checks multiply machine-sized Python ints,
not Fractions (content and primitive part, as in Cohen, *A Course in
Computational Algebraic Number Theory*, 3.2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter


class NotQuadratic(ValueError):
    """discriminant_quadratic needs degree exactly 2 in the chosen variable."""


class DivisionByZeroPoly(ZeroDivisionError):
    """A denominator polynomial is identically zero."""


class PoleAtPoint(ZeroDivisionError):
    """Evaluation hit a vanishing denominator."""


def _coerce(value):
    """A scalar as a coefficient: an int when integral, a Fraction otherwise."""
    if value.__class__ is int:
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _grlex(exps):
    """Sort key of the graded lexicographic term order."""
    return sum(exps), exps


def _on_support(vars: tuple, terms: dict) -> tuple[tuple, dict]:
    """(vars, terms) without the columns of the variables that do not occur."""
    keep = [i for i, column in enumerate(zip(*terms)) if any(column)]
    if len(keep) == len(vars):
        return vars, terms
    return tuple(vars[i] for i in keep), {tuple([e[i] for i in keep]): c for e, c in terms.items()}


def _embedded(poly: "MultiPoly", vars: tuple) -> dict:
    """The terms of ``poly`` on ``vars``, a sorted superset of its variables."""
    if poly.vars == vars:
        return poly.terms
    if not poly.vars:
        return {(0,) * len(vars): c for c in poly.terms.values()}
    # a variable poly lacks reads the 0 appended to each exponent vector
    get = itemgetter(*(poly.vars.index(v) if v in poly.vars else -1 for v in vars))
    return {get(e + (0,)): c for e, c in poly.terms.items()}


class MultiPoly:
    """Sparse polynomial: a map from exponent vectors to nonzero coefficients.

    Variables are identified by (case-sensitive) name.  ``vars`` is always
    the sorted tuple of the variables that occur: the constructor sorts the
    variables it is given and drops unused ones, and every operation keeps
    that form, so equal polynomials have equal slots.  Terms print in
    graded lexicographic order, so equal polynomials print identically.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms, _skip_clean=False):
        """``_skip_clean`` is for callers whose ``vars`` and ``terms``
        already are on the sorted support, with coerced nonzero
        coefficients."""
        if _skip_clean:
            self.vars, self.terms = vars, terms
            return
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable in {vars}")
        order = sorted(range(len(vars)), key=vars.__getitem__)
        clean = {}
        for exps, coeff in terms.items():
            coeff = _coerce(coeff)
            if coeff:
                if len(exps) != len(vars):
                    raise ValueError("exponent arity != variable arity")
                clean[tuple(exps[i] for i in order)] = coeff
        self.vars, self.terms = _on_support(tuple(vars[i] for i in order), clean)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    @staticmethod
    def constant(value) -> "MultiPoly":
        return MultiPoly((), {(): value})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): 1})

    @staticmethod
    def variables(names: str):
        """Convenience: ``x, y = MultiPoly.variables("x y")``."""
        return tuple(MultiPoly.variable(n) for n in names.split())

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _unified(self, other: "MultiPoly"):
        """The terms of both operands on the sorted union of their
        variables, and that union."""
        if self.vars == other.vars:
            return self.terms, other.terms, self.vars
        vars = tuple(sorted(set(self.vars).union(other.vars)))
        return _embedded(self, vars), _embedded(other, vars), vars

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other)
        a, b, vars = self._unified(other)
        terms = dict(a)
        cancelled = False
        for exps, coeff in b.items():
            s = terms.get(exps, 0) + coeff
            if s:
                terms[exps] = s
            else:
                del terms[exps]
                cancelled = True
        if cancelled:
            vars, terms = _on_support(vars, terms)
        return MultiPoly(vars, terms, _skip_clean=True)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()}, _skip_clean=True)

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        if not isinstance(other, MultiPoly):
            k = _coerce(other)
            if not k:
                return MultiPoly.zero()
            terms = {e: c * k for e, c in self.terms.items()}
            return MultiPoly(self.vars, terms, _skip_clean=True)
        a, b, vars = self._unified(other)
        if not a or not b:
            return MultiPoly.zero()
        terms: dict = {}
        get = terms.get
        b_terms = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in b_terms:
                key = tuple(map(add, e1, e2))
                terms[key] = get(key, 0) + c1 * c2
        # over Q the product of nonzero polynomials is nonzero and has each
        # variable of either factor, so ``vars`` stays the support
        terms = {e: c for e, c in terms.items() if c}
        return MultiPoly(vars, terms, _skip_clean=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return as_rational_function(self) / other

    def __rtruediv__(self, other):
        return other * RationalFunction(MultiPoly.constant(1), self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- queries ------------------------------------------------------------

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable; zero polynomial -> -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient_of(self, var: str, power: int) -> "MultiPoly":
        """The coefficient of var**power, a polynomial in the other variables."""
        if var not in self.vars:
            return self if power == 0 else MultiPoly.zero()
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                terms[exps[:i] + exps[i + 1:]] = coeff
        return MultiPoly(*_on_support(rest, terms), _skip_clean=True)

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Compose with rational-function bindings, exactly.

        Unbound variables stay symbolic.  Values may be scalars, MultiPoly or
        RationalFunction.  The result's denominator is the product of binding
        denominators raised to the needed powers (not reduced: only scaled to
        the integral representative)."""
        nums: dict[str, MultiPoly] = {}
        dens: dict[str, MultiPoly] = {}
        for name, value in bindings.items():
            rf = as_rational_function(value)
            if rf.den.is_zero:
                raise DivisionByZeroPoly(f"binding for {name} has zero denominator")
            nums[name] = rf.num
            dens[name] = rf.den
        # variables sharing a denominator polynomial share one power of it in
        # the common denominator (keeps f(p)+f(q)-f(r)-f(s)-style sums small)
        groups: list[tuple[MultiPoly, list[str]]] = []
        for name, den_poly in dens.items():
            for existing, members in groups:
                if existing == den_poly:
                    members.append(name)
                    break
            else:
                groups.append((den_poly, [name]))
        group_of = {
            name: gi for gi, (_, members) in enumerate(groups) for name in members
        }
        group_max = [0] * len(groups)
        for exps in self.terms:
            totals = [0] * len(groups)
            for v, e in zip(self.vars, exps):
                if v in group_of and e:
                    totals[group_of[v]] += e
            for gi, tot in enumerate(totals):
                if tot > group_max[gi]:
                    group_max[gi] = tot
        acc = MultiPoly.zero()
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(coeff)
            totals = [0] * len(groups)
            for v, e in zip(self.vars, exps):
                if v in nums:
                    if e:
                        term = term * nums[v] ** e
                        totals[group_of[v]] += e
                elif e:
                    term = term * MultiPoly.variable(v) ** e
            for gi, (den_poly, _) in enumerate(groups):
                deficit = group_max[gi] - totals[gi]
                if deficit:
                    term = term * den_poly**deficit
            acc = acc + term
        den = MultiPoly.constant(1)
        for gi, (den_poly, _) in enumerate(groups):
            if group_max[gi]:
                den = den * den_poly ** group_max[gi]
        return RationalFunction(acc, den)

    def eval(self, point: dict):
        """Exact value at a fully scalar point."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        vals = {v: _coerce(point[v]) for v in self.vars}
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * vals[v] ** e
            total = total + term
        return total

    # -- printing -----------------------------------------------------------

    def _ordered_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self._ordered_terms():
            factors = [str(coeff)]
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


def _int_content(*polys: MultiPoly) -> tuple[int, int]:
    """(g, d): the gcd of the numerators and the lcm of the denominators of
    all coefficients of ``polys``, whose joint content is g / d."""
    g = 0
    d = 1
    for poly in polys:
        for q in poly.terms.values():
            if q.__class__ is int:
                g = math.gcd(g, q)
            else:
                g = math.gcd(g, q.numerator)
                d = math.lcm(d, q.denominator)
    return g, d


def _scaled(poly: MultiPoly, sign: int, g: int, d: int) -> MultiPoly:
    """poly * sign * d / g, for (g, d) the content of a set of polynomials
    that includes poly: every coefficient comes out an int."""
    terms = {
        e: sign * (d // q.denominator) * q.numerator // g for e, q in poly.terms.items()
    }
    return MultiPoly(poly.vars, terms, _skip_clean=True)


class RationalFunction:
    """Quotient of two MultiPoly values; equality by cross-multiplication.

    Not reduced to lowest terms (no multivariate GCD).  num and den are
    stored as the integral representative of the quotient: both are scaled
    by one rational so that every coefficient is an integer, their joint
    content is 1, and the denominator's leading term is positive.  Products
    and sums of these then run on Python ints.  ``den`` is a MultiPoly or a
    scalar, 1 by default.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den=None):
        if not isinstance(den, MultiPoly):
            den = MultiPoly.constant(1 if den is None else den)
        if den.is_zero:
            raise DivisionByZeroPoly("denominator is identically zero")
        if num.is_zero:
            den = MultiPoly.constant(1)
        else:
            sign = 1 if den.terms[max(den.terms, key=_grlex)] > 0 else -1
            g, d = _int_content(num, den)
            if g != 1 or d != 1 or sign != 1:
                num = _scaled(num, sign, g, d)
                den = _scaled(den, sign, g, d)
        self.num = num
        self.den = den

    @property
    def is_identically_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        other = as_rational_function(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-as_rational_function(other))

    def __rsub__(self, other):
        return as_rational_function(other) + (-self)

    def __mul__(self, other):
        other = as_rational_function(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_rational_function(other)
        if other.num.is_zero:
            raise DivisionByZeroPoly("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return as_rational_function(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            other = as_rational_function(other)
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    def substitute(self, bindings: dict) -> "RationalFunction":
        return self.num.substitute(bindings) / self.den.substitute(bindings)

    def eval(self, point: dict) -> Fraction:
        """Exact value at a fully scalar point."""
        d = self.den.eval(point)
        if not d:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        return Fraction(self.num.eval(point), d)

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def as_rational_function(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, MultiPoly):
        return RationalFunction(value)
    return RationalFunction(MultiPoly.constant(value))


def discriminant_quadratic(p: MultiPoly, var: str) -> MultiPoly:
    """b^2 - 4ac for p = a*var^2 + b*var + c (degree in var exactly 2)."""
    if p.degree(var) != 2:
        raise NotQuadratic(f"degree in {var} is {p.degree(var)}, need 2")
    a = p.coefficient_of(var, 2)
    b = p.coefficient_of(var, 1)
    c = p.coefficient_of(var, 0)
    return b * b - 4 * a * c
