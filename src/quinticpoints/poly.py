"""Sparse multivariate polynomials and rational functions over Q.

Every displayed identity in this package is proved by exact expansion here,
on packed monomials: each variable name owns a W-bit field of a Python int,
and a monomial is the int whose fields hold its exponents, so multiplying
monomials is adding keys (packed exponent vectors, as in Monagan and
Pearce, CASC 2007).  Rational functions are unreduced numerator/denominator
pairs compared by cross-multiplication; polynomial GCD is out of scope.

Coefficients are ``int`` or ``Fraction`` (a scalar coerced in becomes an
``int`` when it is integral); no coefficient and no value is ever a
``float``.  Identities over Q(i) are proved over Q[I], with I a variable
that ``surfaces`` reduces by I^2 = -1 at the end.  A rational function keeps
its integral representative: integer coefficients with joint content 1, so
the expansions behind the identity checks multiply machine-sized Python
ints, not Fractions (content and primitive part, as in Cohen, *A Course in
Computational Algebraic Number Theory*, 3.2).

Composition has one kernel, :func:`substitute_all`, behind both
``substitute`` methods.  For a list of expressions it builds each binding
power, and each product of powers for a distinct pattern of bound
exponents, once.  A power of a binding denominator is shared within one
expression only: a rational function's numerator and denominator are
composed over the same one, which cancels.  ``MultiPoly.substitute``
returns that power as its denominator; ``RationalFunction.substitute``
returns the quotient of its two composed parts.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction

W = 16  # bits of one exponent field
FIELD = (1 << W) - 1
_LIMIT = 1 << (W - 1)  # every total degree stays below this
_SHIFT: dict = {}  # name -> bit offset of its field, in order of first sight
_SORTED: list = []  # (name, offset), in name order


class NotQuadratic(ValueError):
    """discriminant_quadratic needs degree exactly 2 in the chosen variable."""


class DivisionByZeroPoly(ZeroDivisionError):
    """A denominator polynomial is identically zero."""


class PoleAtPoint(ZeroDivisionError):
    """Evaluation hit a vanishing denominator."""


def _coerce(value):
    """A scalar as a coefficient: an int when integral, a Fraction otherwise.
    A float is refused: its binary fraction is never the number meant."""
    if value.__class__ is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"a coefficient or value is never a float, got {value!r}")
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def shift_of(name) -> int:
    """The bit offset of the field of ``name``, registered on first sight."""
    if name not in _SHIFT:
        _SHIFT[name] = W * len(_SHIFT)
        insort(_SORTED, (name, _SHIFT[name]))
    return _SHIFT[name]


def _occurring(packed) -> list:
    """(name, offset) of the variables that occur in ``packed``, in name order."""
    mask = 0
    for key in packed:
        mask |= key
    return [(name, s) for name, s in _SORTED if mask >> s & FIELD]


def _checked(bound: int) -> int:
    if bound >= _LIMIT:
        raise ValueError(f"total degree {bound} reaches the packed limit {_LIMIT}")
    return bound


class MultiPoly:
    """Sparse polynomial: ``packed`` maps packed monomials to nonzero
    coefficients, and ``bound`` is at least its total degree.

    A process-wide registry gives each name its field the first time the
    name is seen (``shift_of``) and keeps it for the life of the process, so
    equal polynomials have equal dicts.  A constructor term or product whose
    degree would reach 2^(W-1) raises ``ValueError``, so no field carries
    into its neighbour, and a key's total degree is the key mod 2^W - 1.
    The constructor takes exponent tuples over the names it is given, in any
    order; ring operations build no tuple.  The read-only views ``vars``
    (the sorted names that occur) and ``terms`` (exponent tuples over
    ``vars``) serve printing, ``hash`` and queries.  They and the sign rule
    of :class:`RationalFunction` read the exponents over the sorted names,
    so nothing depends on the order of registration.  Terms print in graded
    lexicographic order.
    """

    __slots__ = ("packed", "bound")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable in {vars}")
        shifts = [shift_of(v) for v in vars]
        self.packed, self.bound = {}, 0
        for exps, coeff in terms.items():
            if len(exps) != len(vars):
                raise ValueError("exponent arity != variable arity")
            if any(e.__class__ is not int or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative ints, not {exps}")
            coeff = _coerce(coeff)
            if coeff:
                self.packed[sum(e << s for e, s in zip(exps, shifts))] = coeff
                self.bound = max(self.bound, _checked(sum(exps)))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_packed(packed: dict, bound: int) -> "MultiPoly":
        """Unchecked: ``packed`` has coerced nonzero coefficients, degree <= ``bound``."""
        poly = object.__new__(MultiPoly)
        poly.packed, poly.bound = packed, bound
        return poly

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
        return not self.packed

    @property
    def vars(self) -> tuple:
        """The sorted names of the variables that occur."""
        return tuple(name for name, _ in _occurring(self.packed))

    @property
    def terms(self) -> dict:
        """The coefficients keyed by exponent tuples over ``vars``."""
        shifts = [s for _, s in _occurring(self.packed)]
        return {tuple([k >> s & FIELD for s in shifts]): c for k, c in self.packed.items()}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        if isinstance(other, MultiPoly):
            small, big = sorted((self.packed, other.packed), key=len)
            terms, bound, items = dict(big), max(self.bound, other.bound), small.items()
        else:
            c = _coerce(other)
            terms, bound, items = dict(self.packed), self.bound, ((0, c),) if c else ()
        for key, coeff in items:
            s = terms.get(key, 0) + coeff
            if s:
                terms[key] = s
            else:
                del terms[key]
        return _poly(terms, bound)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -c for k, c in self.packed.items()}, self.bound)

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        if not isinstance(other, MultiPoly):
            k = _coerce(other)
            terms = {e: c * k for e, c in self.packed.items()} if k else {}
            return _poly(terms, self.bound)
        if not self.packed or not other.packed:
            return _poly({}, 0)
        bound = _checked(self.bound + other.bound)
        big, small = (self, other) if len(other.packed) == 1 else (other, self)
        if len(small.packed) == 1:  # a monomial shifts keys: none collide or cancel
            [(k2, c2)] = small.packed.items()
            return _poly({k + k2: c * c2 for k, c in big.packed.items()}, bound)
        terms: dict = {}
        get = terms.get
        b_terms = list(other.packed.items())
        for k1, c1 in self.packed.items():
            for k2, c2 in b_terms:
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        return _poly({k: c for k, c in terms.items() if c}, bound)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return as_rational_function(self) / other

    def __rtruediv__(self, other):
        return other * RationalFunction(_poly({0: 1}, 0), self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None if n else _poly({0: 1}, 0)
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return self.packed == ({0: c} if c else {})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.packed == other.packed

    def __hash__(self):
        if not any(self.packed):  # a constant hashes as its scalar
            return hash(self.packed.get(0, 0))
        return hash((self.vars, frozenset(self.terms.items())))

    # -- queries ------------------------------------------------------------

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable; zero polynomial -> -1."""
        if not self.packed:
            return -1
        if var is None:
            return max(k % FIELD for k in self.packed)
        s = _SHIFT.get(var, -1)
        return 0 if s < 0 else max(k >> s & FIELD for k in self.packed)

    def coefficient_of(self, var: str, power: int) -> "MultiPoly":
        """The coefficient of var**power, a polynomial in the other variables."""
        if var not in _SHIFT:
            return self if power == 0 else _poly({}, 0)
        s = _SHIFT[var]
        terms = {k - (power << s): c for k, c in self.packed.items() if (k >> s & FIELD) == power}
        return _poly(terms, self.bound)

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Compose with rational-function bindings (scalars, MultiPoly or
        RationalFunction), exactly; unbound names stay symbolic.  Through
        :func:`substitute_all`, which builds each binding power and each
        product of powers once, every term is composed over one shared
        denominator: the product of the distinct binding denominators, each
        to the highest degree of a term in the names over it.  That product
        is the result's denominator, scaled to the integral representative
        and not reduced."""
        return substitute_all((self,), bindings)[0]

    def eval(self, point: dict):
        """Exact value at a fully scalar point."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"unbound variables: {missing}")
        vals = [_coerce(point[v]) for v in self.vars]
        return sum(
            math.prod([c, *(x**e for x, e in zip(vals, exps) if e)])
            for exps, c in self.terms.items()
        )

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self.packed:
            return "0"
        vars, parts = self.vars, []
        # graded lexicographic order, highest term first
        for exps, coeff in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            factors = [str(coeff)]
            for v, e in zip(vars, exps):
                if e:
                    factors.append(v if e == 1 else f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


_poly = MultiPoly.from_packed


def _int_content(*polys: MultiPoly) -> tuple[int, int]:
    """(g, d): the gcd of the numerators and the lcm of the denominators of
    all coefficients of ``polys``, whose joint content is g / d."""
    g = 0
    d = 1
    for poly in polys:
        for q in poly.packed.values():
            if q.__class__ is int:
                g = math.gcd(g, q)
            else:
                g = math.gcd(g, q.numerator)
                d = math.lcm(d, q.denominator)
    return g, d


def _scaled(poly: MultiPoly, sign: int, g: int, d: int) -> MultiPoly:
    """poly * sign * d / g, for (g, d) the content of a set of polynomials
    that includes poly: every coefficient comes out an int."""
    terms = {k: sign * (d // q.denominator) * q.numerator // g for k, q in poly.packed.items()}
    return _poly(terms, poly.bound)


def _leading_sign(poly: MultiPoly) -> int:
    """The sign of the grlex-leading coefficient over the sorted names."""
    shifts = [s for _, s in _occurring(poly.packed)] if len(poly.packed) > 1 else ()
    lead = max(poly.packed, key=lambda k: (k % FIELD, [k >> s & FIELD for s in shifts]))
    return 1 if poly.packed[lead] > 0 else -1


def _representative(num: MultiPoly, den: MultiPoly, sign: int = 1) -> tuple:
    """(num, den) times sign and one rational, so that every coefficient is
    an int and their joint content is 1; a zero num goes over 1."""
    if num.is_zero:
        return num, _poly({0: 1}, 0)
    g, d = _int_content(num, den)
    if g != 1 or d != 1 or sign != 1:
        return _scaled(num, sign, g, d), _scaled(den, sign, g, d)
    return num, den


def _over_positive(num: MultiPoly, den: MultiPoly) -> "RationalFunction":
    """num / den for a den that already leads with a positive coefficient:
    a representative's denominator, or a product of them, whose leading
    coefficient is the product of theirs because grlex is a monomial order.
    Only the content is scanned, not the sign."""
    rf = object.__new__(RationalFunction)
    rf.num, rf.den = _representative(num, den)
    return rf


class RationalFunction:
    """Quotient of two MultiPoly values; equality by cross-multiplication.

    Not reduced to lowest terms (no multivariate GCD).  num and den are
    stored as the integral representative of the quotient: both are scaled
    by one rational so that every coefficient is an integer, their joint
    content is 1, and the denominator's leading term is positive.  Products
    and sums of these then run on Python ints, and keep a positive leading
    denominator without scanning for it.  ``den`` is a MultiPoly or a
    scalar, 1 by default.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den=None):
        if not isinstance(den, MultiPoly):
            den = _poly({0: 1}, 0) if den is None else MultiPoly.constant(den)
        if den.is_zero:
            raise DivisionByZeroPoly("denominator is identically zero")
        sign = _leading_sign(den) if num.packed else 1
        self.num, self.den = _representative(num, den, sign)

    @property
    def is_identically_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        other = as_rational_function(other)
        if self.den == other.den:
            return _over_positive(self.num + other.num, self.den)
        return _over_positive(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        neg = object.__new__(RationalFunction)
        neg.num, neg.den = -self.num, self.den  # the content is unchanged
        return neg

    def __sub__(self, other):
        other = as_rational_function(other)
        if self.den == other.den:
            return _over_positive(self.num - other.num, self.den)
        return self + (-other)

    def __rsub__(self, other):
        return as_rational_function(other) - self

    def __mul__(self, other):
        other = as_rational_function(other)
        return _over_positive(self.num * other.num, self.den * other.den)

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
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self):
        raise TypeError("RationalFunction is not hashable")

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Compose with rational-function bindings, exactly, through
        :func:`substitute_all`, which builds each binding power and each
        product of powers once.  Numerator and denominator are composed over
        one shared power of each binding denominator, which cancels: the
        result is the quotient of the two composed parts, equal by value to
        the quotient of the parts' ``MultiPoly.substitute`` but without the
        factor both of those carry."""
        return substitute_all((self,), bindings)[0]

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


def substitute_all(exprs, bindings: dict) -> list:
    """Compose each of ``exprs`` (MultiPoly, RationalFunction or scalar)
    with the same bindings, exactly: one RationalFunction each, in order.

    The bindings are prepared once for all of them: each binding power, and
    each product of powers for a distinct pattern of bound exponents, is
    built once, and a term's free monomial joins its product by adding keys.
    Bindings over the same denominator d share one power of it, d^top, with
    top the highest degree of a term of the expression in the names over d.
    Each expression has its own tops, so none carries another's factor; a
    RationalFunction's numerator and denominator share theirs, which cancel.
    A MultiPoly comes back over the product of its d^top."""
    one = _poly({0: 1}, 0)
    nums: list = []  # (offset, numerator) of each bound name that has a field
    groups: list = []  # the distinct binding denominators other than 1
    masks: list = []  # the fields of the names over each one
    for name, value in bindings.items():
        rf = as_rational_function(value)
        if rf.den.is_zero:
            raise DivisionByZeroPoly(f"binding for {name} has zero denominator")
        if name not in _SHIFT:
            continue  # a name never registered occurs in no expression
        nums.append((_SHIFT[name], rf.num))
        if rf.den != 1:
            if rf.den not in groups:
                groups.append(rf.den)
                masks.append(0)
            masks[groups.index(rf.den)] |= FIELD << _SHIFT[name]
    bound_fields = sum(FIELD << s for s, _ in nums)
    powers: dict = {}
    products: dict = {}

    def power(poly, e):
        if (id(poly), e) not in powers:
            powers[id(poly), e] = poly**e
        return powers[id(poly), e]

    def product(pattern, tops):
        """The bound powers of one pattern times each d^(top - its degree
        in the names over d); a masked key's total degree is the key mod
        FIELD."""
        if (pattern, tops) not in products:
            factors = [power(num, pattern >> s & FIELD) for s, num in nums if pattern >> s & FIELD]
            for d, m, top in zip(groups, masks, tops):
                if top > (pattern & m) % FIELD:
                    factors.append(power(d, top - (pattern & m) % FIELD))
            result = factors[0] if factors else one
            for factor in factors[1:]:
                result = result * factor
            products[pattern, tops] = result
        return products[pattern, tops]

    def compose(part, tops):
        acc: dict = {}
        bound = 0
        for key, coeff in part.packed.items():
            pattern = key & bound_fields
            factor, free = product(pattern, tops), key - pattern
            for k, c in factor.packed.items():
                k += free
                acc[k] = acc.get(k, 0) + coeff * c
            bound = max(bound, free % FIELD + factor.bound)
        return _poly({k: c for k, c in acc.items() if c}, _checked(bound))

    results = []
    for expr in exprs:
        if isinstance(expr, MultiPoly):
            parts = (expr,)
        else:
            expr = as_rational_function(expr)
            parts = (expr.num, expr.den)
        tops = tuple(
            max([(key & m) % FIELD for part in parts for key in part.packed], default=0)
            for m in masks
        )
        composed = [compose(part, tops) for part in parts]
        if len(composed) == 1:
            composed.append(product(0, tops))
        results.append(RationalFunction(*composed))
    return results


def discriminant_quadratic(p: MultiPoly, var: str) -> MultiPoly:
    """b^2 - 4ac for p = a*var^2 + b*var + c (degree in var exactly 2)."""
    if p.degree(var) != 2:
        raise NotQuadratic(f"degree in {var} is {p.degree(var)}, need 2")
    a = p.coefficient_of(var, 2)
    b = p.coefficient_of(var, 1)
    c = p.coefficient_of(var, 0)
    return b * b - 4 * a * c
