"""Exact arithmetic on generalized polynomials.

A generalized polynomial here is a finite sum of terms

    c * v1^e1 * ... * vn^en

with rational coefficients c.  The distinguished variable ``t`` may carry
arbitrary rational exponents, including negative ones (Laurent-type); every
other variable carries nonnegative integer exponents.  Coefficients and
exponents are `fractions.Fraction` throughout, so degree comparisons and
equality tests are exact -- the asymptotic bookkeeping downstream depends
on deciding signs of degrees with no rounding.

Values are immutable after construction and hashable; two polynomials are
equal iff their canonical term maps are equal.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

import mpmath
import numpy as np

from .errors import DivergentLimitError, DomainError, ExponentError, ParseError

T_VAR = "t"

# A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
# with no zero exponents.  The empty tuple is the constant monomial.
Monomial = tuple


# degree of the zero polynomial, ordered strictly below every rational
NEG_INF = -math.inf

_VAR_RE = re.compile(r"([A-Za-z_]+)(\d*)$")


@lru_cache(maxsize=None)
def _var_key(name: str):
    """Sort key giving a1 < a2 < ... < a10 < s < t < x < xi < y; computed
    once per name."""
    m = _VAR_RE.match(name)
    if m is None:
        raise ParseError(f"illegal variable name {name!r}")
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


def _check_exponent(var: str, exp: Fraction) -> None:
    if var == T_VAR:
        return
    if exp.denominator != 1 or exp < 0:
        raise ExponentError(
            f"variable {var!r} would carry exponent {exp}; only {T_VAR!r} "
            "may have fractional or negative exponents"
        )


def _make_monomial(pairs: Iterable) -> Monomial:
    acc: dict = {}
    for var, exp in pairs:
        e = Fraction(exp)
        if e == 0:
            continue
        acc[var] = acc.get(var, Fraction(0)) + e
    out = []
    for var in sorted(acc, key=_var_key):
        e = acc[var]
        if e == 0:
            continue
        _check_exponent(var, e)
        out.append((var, e))
    return tuple(out)


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """Merge two canonical monomials: exponents of a shared variable are
    summed and a zero sum dropped.  A product in which two different names
    tie in ``_var_key`` (``a1`` and ``a01``) is left to ``_make_monomial``
    on the left factor's pairs followed by the right's, whose stable sort
    puts the left factor's name first."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            e = e1 + e2
            if e:
                out.append((v1, e))
            i += 1
            j += 1
            continue
        k1, k2 = _var_key(v1), _var_key(v2)
        if k1 < k2:
            out.append(m1[i])
            i += 1
        elif k2 < k1:
            out.append(m2[j])
            j += 1
        else:
            return _make_monomial(m1 + m2)
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


# Python's float pow, element by element (see ``_float_pow``)
_POW = np.frompyfunc(pow, 2, 1)


def _float_pow(value, exp: Fraction):
    """``float(value) ** exp`` as Python computes it (libm's ``pow``, an
    integer exponent kept an integer), elementwise when ``value`` is an
    array.  numpy's own ``power`` is not used: its vectorised loops (SVML
    on AVX-512 hosts) differ from libm's ``pow`` in the last bit for a few
    percent of inputs, and every element must equal the scalar value."""
    e = int(exp) if exp.denominator == 1 else float(exp)
    if np.ndim(value) == 0:
        return float(value) ** e
    base = np.asarray(value, dtype=float)
    return base if e == 1 else _POW(base, e).astype(float)


def _monomial_power(binding: "GenPoly", exp: Fraction, var: str) -> "GenPoly":
    """Raise a single-term binding to a fractional or negative power.

    Fractional powers additionally require a unit coefficient; otherwise the
    result would leave the rational-coefficient ring.
    """
    if len(binding._terms) != 1:
        raise ExponentError(
            f"binding for {var!r} must be a monomial to take power {exp}"
        )
    (mono, coeff), = binding._terms.items()
    if exp.denominator != 1:
        if coeff != 1:
            raise ExponentError(
                f"binding for {var!r} needs coefficient 1 for fractional "
                f"power {exp}, got {coeff}"
            )
        new_coeff = Fraction(1)
    else:
        new_coeff = coeff ** int(exp)
    return GenPoly({_make_monomial((w, f * exp) for w, f in mono): new_coeff})


class GenPoly:
    """Immutable generalized polynomial with exact rational data."""

    __slots__ = ("_terms", "_hash", "_order")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        canon: dict = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                canon[mono] = c
        self._terms = canon
        self._hash = None
        self._order = None

    @classmethod
    def _canonical(cls, terms: dict) -> "GenPoly":
        """A polynomial that takes over the dict ``terms``, whose monomials
        are canonical and whose coefficients are Fractions already.  Zero
        coefficients are deleted from it, the order of the others kept;
        no other key is hashed again."""
        for mono in [m for m, c in terms.items() if not c]:
            del terms[mono]
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        p._order = None
        return p

    def __reduce__(self):
        # rebuild from the terms alone: the cached hash depends on the
        # process's string-hash seed, which a spawned worker does not share
        return (GenPoly, (self._terms,))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "GenPoly":
        return cls({})

    @classmethod
    def const(cls, value) -> "GenPoly":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "GenPoly":
        return cls.monomial(1, {name: 1})

    @classmethod
    def monomial(cls, coeff, powers: Mapping[str, object]) -> "GenPoly":
        mono = _make_monomial((v, Fraction(e)) for v, e in powers.items())
        return cls({mono: Fraction(coeff)})

    # -- basic protocol -----------------------------------------------

    def terms(self):
        """Read-only iterator over (monomial, coefficient) pairs."""
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> tuple:
        seen = set()
        for mono in self._terms:
            for var, _ in mono:
                seen.add(var)
        return tuple(sorted(seen, key=_var_key))

    def __eq__(self, other) -> bool:
        if isinstance(other, GenPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == GenPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value) -> "GenPoly":
        if isinstance(value, GenPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return GenPoly.const(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GenPoly")

    def __add__(self, other) -> "GenPoly":
        other = self._coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            prev = out.get(mono)
            out[mono] = coeff if prev is None else prev + coeff
        return GenPoly._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "GenPoly":
        return GenPoly._canonical({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "GenPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "GenPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "GenPoly":
        other = self._coerce(other)
        out: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mul_monomials(m1, m2)
                c = c1 * c2
                prev = out.get(mono)
                out[mono] = c if prev is None else prev + c
        return GenPoly._canonical(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GenPoly":
        if not isinstance(n, int) or n < 0:
            raise ExponentError("polynomial powers must be nonnegative integers")
        result = GenPoly.const(1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and degrees -----------------------------------------

    def differentiate(self, var: str) -> "GenPoly":
        """Term-by-term derivative c*x^e -> c*e*x^(e-1), exact."""
        out: dict = {}
        for mono, coeff in self._terms.items():
            powers = dict(mono)
            e = powers.get(var)
            if e is None:
                continue
            new_c = coeff * e
            powers[var] = e - 1
            new_mono = _make_monomial(powers.items())
            out[new_mono] = out.get(new_mono, Fraction(0)) + new_c
        return GenPoly._canonical(out)

    def degree_in(self, var: str):
        """Max exponent of ``var`` over stored terms; NEG_INF for zero."""
        if not self._terms:
            return NEG_INF
        best = None
        for mono in self._terms:
            e = dict(mono).get(var, Fraction(0))
            if best is None or e > best:
                best = e
        return best

    def coefficient_of(self, var: str, exp) -> "GenPoly":
        """Collect terms with the given exponent of ``var``, with ``var``
        removed from them."""
        e0 = Fraction(exp)
        out: dict = {}
        for mono, coeff in self._terms.items():
            powers = dict(mono)
            if powers.pop(var, Fraction(0)) != e0:
                continue
            new_mono = _make_monomial(powers.items())
            out[new_mono] = out.get(new_mono, Fraction(0)) + coeff
        return GenPoly._canonical(out)

    # -- substitution ---------------------------------------------------

    def substitute(self, bindings: Mapping[str, object]) -> "GenPoly":
        """Exact composition.  Unbound variables map to themselves.

        A binding raised to a fractional power must be a monomial with
        coefficient 1; a binding raised to a negative integer power must
        be a monomial (its coefficient is then inverted exactly).
        """
        coerced = {v: self._coerce(b) for v, b in bindings.items()}
        result = GenPoly.zero()
        for mono, coeff in self._terms.items():
            term = GenPoly.const(coeff)
            for var, exp in mono:
                binding = coerced.get(var)
                if binding is None:
                    factor = GenPoly.monomial(1, {var: exp})
                elif exp.denominator == 1 and exp >= 0:
                    factor = binding ** int(exp)
                else:
                    factor = _monomial_power(binding, exp, var)
                term = term * factor
            result = result + term
        return result

    # -- evaluation -----------------------------------------------------

    def _sorted_terms(self) -> tuple:
        """Terms in the canonical deterministic order: variables sorted by
        the fixed alphabet order, exponent vectors compared as rationals,
        largest first.  Sorted on first use and cached."""
        if self._order is None:
            var_order = self.variables()

            def key(item):
                powers = dict(item[0])
                return tuple(powers.get(v, Fraction(0)) for v in var_order)

            self._order = tuple(sorted(self._terms.items(), key=key, reverse=True))
        return self._order

    def _check_point(self, point: Mapping[str, object]) -> None:
        """Domain checks; an array coordinate must pass at every element."""
        for mono in self._terms:
            for var, exp in mono:
                if var not in point:
                    raise DomainError(f"variable {var!r} is unbound")
                if var == T_VAR and (exp.denominator != 1 or exp < 0):
                    if not np.all(point[T_VAR] > 0):
                        raise DomainError(
                            "t must be positive when a fractional or "
                            "negative t-exponent is present"
                        )
                if exp < 0 and np.any(point[var] == 0):
                    raise DomainError(f"{var} = 0 hits a pole ({var}^{exp})")

    def evaluate(self, point: Mapping[str, object]):
        """Floating evaluation; terms are summed in the canonical order.

        A coordinate may be an array: the operations are then applied
        elementwise (the arrays broadcast), and every element equals the
        scalar evaluation at that element's point, bit for bit.  A constant
        polynomial returns a float whatever the point.
        """
        self._check_point(point)
        total = 0.0
        for mono, coeff in self._sorted_terms():
            val = float(coeff)
            for var, exp in mono:
                val = val * _float_pow(point[var], exp)
            total = total + val
        return total

    def evaluate_exact(self, point: Mapping[str, object]) -> Fraction:
        """Exact rational evaluation; requires integer exponents only."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            val = coeff
            for var, exp in mono:
                if exp.denominator != 1:
                    raise DomainError(
                        f"exact evaluation undefined for fractional exponent "
                        f"{var}^{exp}"
                    )
                if var not in point:
                    raise DomainError(f"variable {var!r} is unbound")
                base = Fraction(point[var])
                if base == 0 and exp < 0:
                    raise DomainError(f"{var} = 0 hits a pole")
                val *= base ** int(exp)
            total += val
        return total

    def evaluate_mp(self, point: Mapping[str, object]):
        """High-precision evaluation with mpmath at the caller's precision.

        Used by the residual checks, where float64 cancellation noise
        would swamp the quantity being measured.
        """
        self._check_point(point)
        total = mpmath.mpf(0)
        for mono, coeff in self._sorted_terms():
            val = mpmath.mpf(coeff.numerator) / mpmath.mpf(coeff.denominator)
            for var, exp in mono:
                base = mpmath.mpf(point[var])
                if exp.denominator == 1:
                    val *= base ** int(exp)
                else:
                    val *= mpmath.power(
                        base, mpmath.mpf(exp.numerator) / mpmath.mpf(exp.denominator)
                    )
            total += val
        return total

    # -- asymptotics ------------------------------------------------------

    def limit_t_to_infinity(self):
        """Limit as t -> infinity, as the pair (limit, discarded remainder).

        The limit is the t-degree-0 part; strictly negative t-degree terms
        form the remainder.  A positive t-degree diverges and signals a
        miscomputed exponent upstream.
        """
        deg = self.degree_in(T_VAR)
        if deg > 0:
            raise DivergentLimitError(
                f"limit t->inf diverges: t-degree {deg} > 0 in {self}"
            )
        limit: dict = {}
        remainder: dict = {}
        for mono, coeff in self._terms.items():
            powers = dict(mono)
            e = powers.pop(T_VAR, Fraction(0))
            if e == 0:
                limit[mono] = coeff
            else:
                remainder[mono] = coeff
        return GenPoly._canonical(limit), GenPoly._canonical(remainder)

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"GenPoly({self.to_text()!r})"

    def to_text(self) -> str:
        """Canonical text form ``c * v1^e1 * ... + ...``; round-trips exactly
        through :func:`parse_poly`."""
        if not self._terms:
            return "0"
        pieces = []
        for mono, coeff in self._sorted_terms():
            factors = []
            if abs(coeff) != 1 or not mono:
                factors.append(str(abs(coeff)))
            for var, exp in mono:
                factors.append(var if exp == 1 else f"{var}^{exp}")
            body = " * ".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad character at {text[pos:]!r}")
        if m.lastgroup == "number":
            tokens.append(("num", Fraction(m.group("number"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_poly(text: str) -> GenPoly:
    """Parse the canonical text form of a generalized polynomial."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    result = GenPoly.zero()
    i = 0
    n = len(tokens)

    def parse_signed_rational(j):
        sign = 1
        if j < n and tokens[j] == ("op", "-"):
            sign = -1
            j += 1
        if j >= n or tokens[j][0] != "num":
            raise ParseError("expected a rational exponent after '^'")
        return sign * tokens[j][1], j + 1

    while i < n:
        sign = Fraction(1)
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        coeff = sign
        powers: list = []
        expect_factor = True
        while i < n:
            kind, value = tokens[i]
            if expect_factor:
                if kind == "num":
                    coeff *= value
                    i += 1
                elif kind == "name":
                    var = value
                    i += 1
                    exp = Fraction(1)
                    if i < n and tokens[i] == ("op", "^"):
                        exp, i = parse_signed_rational(i + 1)
                    powers.append((var, exp))
                else:
                    raise ParseError(f"unexpected token {value!r}")
                expect_factor = False
            else:
                if kind == "op" and value == "*":
                    expect_factor = True
                    i += 1
                elif kind == "op" and value in "+-":
                    break
                else:
                    raise ParseError(f"unexpected token {value!r}")
        if expect_factor:
            raise ParseError("dangling operator in polynomial text")
        result = result + GenPoly({_make_monomial(powers): coeff})
    return result
