"""Exact coefficient arithmetic for the diagram algebras.

Three rings are used throughout:

* ``Z[delta]`` -- integer polynomials in the loop parameter, class
  :class:`DeltaPoly`.
* ``Z[q, q^-1]`` -- integer Laurent polynomials in the quantum parameter,
  class :class:`LaurentPoly`.
* ``Q`` -- exact rationals, via :class:`fractions.Fraction`.

Polynomial values are immutable and hashable.  Zero coefficients are never
stored, so equality is structural; a constant polynomial compares (and
hashes) equal to the plain integer or Fraction it represents.  Arithmetic
between different polynomial rings raises ``TypeError``; ints and Fractions
act on the coefficients of either ring as constants.  Coefficients are
normally ints, but exact Fractions are accepted (needed for the
tensor-space action at non-integer values of the form parameter alpha).
Integral coefficients are stored as ints, whether given as ``Fraction(n, 1)``
or produced by arithmetic, so integral work runs in int arithmetic.

The public constructor checks every exponent and coefficient by exact type,
so a bool is neither; the arithmetic builds its results through a trusted
constructor instead, since results of valid operands are valid by closure.
"""

from __future__ import annotations

import re
from fractions import Fraction

# the numbers: a boundary check reads ``type(c) in _NUM``, so a bool is
# never one; arithmetic dispatch reads ``isinstance``
_NUM = (int, Fraction)


def _tidy(coeffs):
    """The stored form of a coefficient dict: zero coefficients dropped,
    integral Fractions as ints."""
    return {e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in coeffs.items() if c}


class IntPoly:
    """Sparse univariate polynomial with exact coefficients.

    The variable is x, or a subclass's, with negative exponents if it allows
    them.  Instances are immutable; do not mutate the coefficient dict.
    """

    VAR = "x"
    ALLOW_NEG = False
    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for e, c in coeffs.items():
            if type(e) is not int:
                raise TypeError("exponents must be ints, got %r" % (e,))
            if e < 0 and not self.ALLOW_NEG:
                raise ValueError(
                    "negative exponent %d not allowed in %s" % (e, type(self).__name__))
            if type(c) not in _NUM:
                raise TypeError("coefficients must be int or Fraction, got %r" % (c,))
        object.__setattr__(self, "coeffs", _tidy(coeffs))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, coeffs):
        """The trusted constructor of arithmetic results: ``coeffs`` must
        already have valid exponents and be tidy."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def gen(cls):
        """The variable itself."""
        return cls({1: 1})

    @classmethod
    def monomial(cls, exponent):
        """The variable to the power ``exponent``."""
        return cls({exponent: 1})

    # -- ring structure ----------------------------------------------------

    def _coeffs_of(self, other):
        """The coefficients of ``other``: a polynomial of this ring, or a
        number read as a constant.  None for anything else."""
        if type(other) is type(self):
            return other.coeffs
        if isinstance(other, _NUM):
            return {0: other} if other else {}
        return None

    def __add__(self, other):
        oc = self._coeffs_of(other)
        if oc is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in oc.items():
            out[e] = out.get(e, 0) + c
        return self._of(_tidy(out))

    __radd__ = __add__

    def __sub__(self, other):
        if self._coeffs_of(other) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if self._coeffs_of(other) is None:
            return NotImplemented
        return -self + other

    def __neg__(self):
        return self._of({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        oc = self._coeffs_of(other)
        if oc is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in oc.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return self._of(_tidy(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = self._of({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return not self.coeffs or set(self.coeffs) == {0}

    def __eq__(self, other):
        if isinstance(other, _NUM):
            return self.is_constant() and self.coeffs.get(0, 0) == other
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.is_constant():
                h = hash(self.coeffs.get(0, 0))
            else:
                h = hash((self.VAR, tuple(sorted(self.coeffs.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation and display --------------------------------------------

    def evaluate(self, x0):
        """sum c * x0^e: the exact value at a rational point ``x0``, or, for
        ``x0`` in another polynomial ring, the substitution of ``x0`` for the
        variable (a ring homomorphism into that ring).

        A rational point gives a Fraction.  A negative power raises
        ``ValueError`` at the rational point 0 and, through ``__pow__``, at
        every polynomial point.
        """
        if not isinstance(x0, IntPoly):
            x0 = Fraction(x0)
            if x0 == 0 and any(e < 0 for e in self.coeffs):
                raise ValueError("cannot evaluate a negative power at 0")
        # x0 * 0 is the zero of the target ring
        return sum((c * x0 ** e for e, c in self.coeffs.items()), x0 * 0)

    def min_exponent(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_exponent(self):
        return max(self.coeffs) if self.coeffs else 0

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            neg = c < 0
            mag = -c if neg else c
            if e == 0:
                body = str(mag)
            else:
                var = self.VAR if e == 1 else "%s^%d" % (self.VAR, e)
                body = var if mag == 1 else "%s*%s" % (mag, var)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, str(self))

    @classmethod
    def parse(cls, text):
        """Inverse of ``str``; accepts any signed monomial list."""
        coeffs = {}
        for sign, coef, var, exp in _tokenize(text, cls.VAR):
            c = coef if coef is not None else 1
            if sign == "-":
                c = -c
            e = 0
            if var:
                e = exp if exp is not None else 1
            coeffs[e] = coeffs.get(e, 0) + c
        return cls(coeffs)


class DeltaPoly(IntPoly):
    """Integer polynomial in the loop parameter delta."""

    VAR = "delta"
    ALLOW_NEG = False
    __slots__ = ()


class LaurentPoly(IntPoly):
    """Integer Laurent polynomial in the quantum parameter q."""

    VAR = "q"
    ALLOW_NEG = True
    __slots__ = ()


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*\*?\s*)?"
    r"(?:(?P<var>[A-Za-z]+)(?:\s*\^\s*(?P<exp>-?\d+))?)?\s*")


def _tokenize(text, var):
    """(sign, coefficient, variable, exponent) per term; later terms need a
    sign.  ``var=None`` admits constant terms only."""
    pos, n = 0, len(text)
    out = []
    while pos < n:
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError("cannot parse %r at position %d" % (text, pos))
        sign, num, den, v, exp = (m.group("sign"), m.group("num"),
                                  m.group("den"), m.group("var"), m.group("exp"))
        if (num is None and v is None) or (out and sign is None):
            raise ValueError("cannot parse %r at position %d" % (text, pos))
        if v is not None and v != var:
            raise ValueError("unexpected variable %r%s"
                             % (v, " (expected %r)" % (var,) if var else ""))
        coef = None
        if num is not None:
            if den is not None and not int(den):
                raise ValueError("zero denominator in %r" % (text,))
            coef = Fraction(int(num), int(den)) if den else int(num)
            if isinstance(coef, Fraction) and coef.denominator == 1:
                coef = int(coef)
        out.append((sign or "+", coef, v, int(exp) if exp is not None else None))
        pos = m.end()
    return out


def parse_scalar(text):
    """Parse the textual form back; the ring is inferred from the variable.
    With none, the terms are rationals, read as a polynomial's constants."""
    if not isinstance(text, str):
        raise ValueError("a scalar is a string, not %r" % (text,))
    t = text.strip()
    if "delta" in t:
        return DeltaPoly.parse(t)
    if "q" in t:
        return LaurentPoly.parse(t)
    if "x" in t:
        return IntPoly.parse(t)
    terms = _tokenize(t, None)
    if not terms:
        raise ValueError("empty scalar %r" % (text,))
    value = sum(-c if sign == "-" else c for sign, c, _, _ in terms)
    return int(value) if value.denominator == 1 else value
