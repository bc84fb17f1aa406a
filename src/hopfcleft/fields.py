"""Exact field arithmetic: rationals, prime fields and cyclotomic extensions.

A cyclotomic element is a residue polynomial modulo the n-th cyclotomic
polynomial, stored as a tuple of rational coefficients of length phi(n).
Every operation reduces eagerly to this canonical form, so scalar equality
is equality of representations.

A raw rational, in Q or as a coefficient of Q(zeta_n), is an ``int`` when it
is integral and a ``Fraction`` with denominator > 1 otherwise. Structure
constants are mostly integers, and int arithmetic skips the gcd and object
construction of every ``Fraction`` operation. An int and an equal
``Fraction`` compare, hash and print alike, so the choice never shows in a
report.

Each field has one implementation of its arithmetic, ``FieldSpec.ops``: add,
mul, neg, inverse and is-zero on raw canonical values (an ``int`` mod p, a
rational, or a coefficient tuple of rationals), built once per field object.
The sparse kernels of ``linalg`` and ``hopf`` fetch it once per call and run on
raw values, and a ``LinearMap`` stores raw values only.

``FieldSpec.value`` is the one normalizer: every value that enters a map
passes through it, and ``parse`` and ``format`` read and print raw values.
``Scalar`` is a view at the boundary: a raw value with its field, for a map's
``entries`` and ``m[i, j]`` views and the public API, delegating its
arithmetic to the same functions.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .errors import DivisionByZero, FieldMismatch

RATIONALS = "rationals"
PRIME = "prime"
CYCLOTOMIC = "cyclotomic"


# Miller-Rabin with the first seven prime bases is deterministic below this
# bound (Jaeschke 1993); larger characteristics are rejected, not guessed
_MR_BASES = (2, 3, 5, 7, 11, 13, 17)
MAX_PRIME = 341_550_071_728_321
# a product in Q(zeta_n) takes about euler_phi(n)^2 rational operations, so
# the index is capped
MAX_CYCLOTOMIC_INDEX = 1000


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; only valid for p < MAX_PRIME."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def euler_phi(n: int) -> int:
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        coef = Fraction(num[i + len(den) - 1], den[-1])
        q[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    return _poly_trim(q), _poly_trim(num)


def _mobius(m: int) -> int:
    """The Moebius function: 0 unless m is squarefree, else (-1)^(number of primes)."""
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Integer product formula Phi_n = prod_{d | n} (x^d - 1)^mu(n/d): first
    multiply by every factor with mu = 1, then divide exactly by the rest.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(n // d) == 1:  # poly * (x^d - 1)
            shifted = [0] * d + poly
            for i, c in enumerate(poly):
                shifted[i] -= c
            poly = shifted
    for d in divisors:
        if _mobius(n // d) == -1:  # poly / (x^d - 1), exact: q_i = q_{i-d} - p_i
            q = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            poly = q
    return tuple(Fraction(c) for c in poly)


# only the documented forms: Fraction would also take exponents such as
# "1e999999999", whose expansion does not finish
_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def _rational(text: str) -> int | Fraction:
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"bad rational literal {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator in {text!r}")
    return _canonical(Fraction(int(num), int(den))) if den else int(num)


def _canonical(x: int | Fraction) -> int | Fraction:
    """The raw form of a rational: an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _canonical_tuple(coeffs) -> tuple:
    """The raw form of a cyclotomic coefficient sequence; an all-int one
    (the common case) passes through unchanged."""
    for c in coeffs:
        if type(c) is not int:
            return tuple(c.numerator if c.denominator == 1 else c for c in coeffs)
    return tuple(coeffs)


def _rational_add(a, b):
    c = a + b
    return c.numerator if c.denominator == 1 else c


def _rational_mul(a, b):
    c = a * b
    return c.numerator if c.denominator == 1 else c


def _rational_inverse(a):
    # through Fraction, so 1/a of an int is never a float
    if not a:
        raise DivisionByZero("inverse of zero")
    return _canonical(Fraction(a.denominator, a.numerator))


def _immutable(self, name, *_):
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class FieldOps(NamedTuple):
    """A field's arithmetic on raw canonical values."""

    add: Callable
    mul: Callable
    neg: Callable
    inverse: Callable  # raises DivisionByZero on zero
    is_zero: Callable


class FieldSpec:
    """One of Q, F_p (p prime) or Q(zeta_n). Immutable; equal and hashed by
    (kind, p, n)."""

    def __init__(self, kind: str, p: int = 0, n: int = 0):
        if kind == PRIME:
            if p >= MAX_PRIME:
                raise ValueError(f"characteristic {p} exceeds the supported {MAX_PRIME - 1}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        if kind == CYCLOTOMIC and not 1 <= n <= MAX_CYCLOTOMIC_INDEX:
            raise ValueError(
                f"cyclotomic index must lie in 1..{MAX_CYCLOTOMIC_INDEX}, got {n}")
        vars(self).update(kind=kind, p=p, n=n)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self is other or (self.kind, self.p, self.n) == (other.kind, other.p, other.n)

    def __hash__(self):
        return hash((self.kind, self.p, self.n))

    def __repr__(self) -> str:
        return f"FieldSpec(kind={self.kind!r}, p={self.p!r}, n={self.n!r})"

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(RATIONALS)

    @staticmethod
    def prime_field(p: int) -> "FieldSpec":
        return FieldSpec(PRIME, p=p)

    @staticmethod
    def cyclotomic(n: int) -> "FieldSpec":
        return FieldSpec(CYCLOTOMIC, n=n)

    @cached_property
    def degree(self) -> int:
        """Degree over Q for cyclotomic fields, 1 otherwise (computed once per
        field object; equality and hash read only kind, p and n)."""
        return euler_phi(self.n) if self.kind == CYCLOTOMIC else 1

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def scalar(self, x) -> "Scalar":
        """``x`` wrapped as a Scalar of this field, for the public boundary."""
        return Scalar(self, self.value(x))

    def value(self, x):
        """The raw canonical value of an int, a Fraction, a Scalar of this
        field or (Q(zeta_n) only) a list or tuple of coefficients of powers
        of zeta: the one normalizer of values entering a map. ValueError
        names anything else; DivisionByZero when p divides a denominator."""
        if x.__class__ is Scalar:
            if x.field is not self and x.field != self:
                raise FieldMismatch(f"{x.field} vs {self}")
            return x.value
        if self.kind == CYCLOTOMIC and isinstance(x, (list, tuple)):
            coeffs = [self._rational_value(c, x) for c in x]
            # coefficients of 1, zeta, ..., zeta^(phi(n) - 1) are canonical
            return tuple(coeffs) if len(coeffs) == self.degree else self._reduce(coeffs)
        r = x if x.__class__ is int else self._rational_value(x, x)
        if self.kind == RATIONALS:
            return r
        if self.kind == PRIME:
            if r.__class__ is Fraction:
                if r.denominator % self.p == 0:
                    raise DivisionByZero(f"denominator divisible by {self.p}")
                r = r.numerator * pow(r.denominator, -1, self.p)
            return r % self.p
        return (r,) + (0,) * (self.degree - 1)

    def _rational_value(self, c, x) -> int | Fraction:
        """The raw rational of an int or a Fraction ``c``, part of ``x``."""
        if isinstance(c, (int, Fraction)):
            return int(c) if isinstance(c, int) else _canonical(c)
        raise ValueError(f"{x!r} is not a value of {self}")

    @cached_property
    def ops(self) -> FieldOps:
        """The raw arithmetic, built once per field object and, like
        ``degree``, ignored by equality and hash. Raw values are an ``int``
        in 0..p-1 for F_p; for Q a rational, an ``int`` when integral and a
        ``Fraction`` with denominator > 1 otherwise; for Q(zeta_n) a tuple of
        phi(n) such rationals. Every function returns this form and never a
        float."""
        if self.kind == PRIME:
            p = self.p

            def inverse(a):
                if not a:
                    raise DivisionByZero("inverse of zero")
                return pow(a, -1, p)

            return FieldOps(
                lambda a, b: (a + b) % p, lambda a, b: a * b % p, lambda a: -a % p,
                inverse, operator.not_)
        if self.kind == RATIONALS:
            return FieldOps(
                _rational_add, _rational_mul, operator.neg, _rational_inverse, operator.not_)
        return self._cyclotomic_ops()

    def _cyclotomic_ops(self) -> FieldOps:
        d = self.degree
        modulus = self._modulus
        reduce = self._reduce
        # x^k mod Phi_n for d <= k < 2d - 1 as sparse (index, int) terms, so
        # reducing a product is one pass over its high coefficients
        high = [
            [(t, r) for t, r in enumerate(reduce([0] * k + [1])) if r]
            for k in range(d, 2 * d - 1)]

        def add(a, b):
            return _canonical_tuple(tuple(map(operator.add, a, b)))

        def mul(a, b):
            prod = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            prod[i + j] += x * y
            out = prod[:d]
            for c, terms in zip(prod[d:], high):
                if c:
                    for t, r in terms:
                        out[t] += c * r
            return _canonical_tuple(out)

        def inverse(a):
            # extended Euclid in Q[x] against the cyclotomic modulus
            if not any(a):
                raise DivisionByZero("inverse of zero")
            r0, r1 = list(modulus), _poly_trim(list(a))
            s0, s1 = [], [Fraction(1)]
            while len(r1) > 1:
                q, r = _poly_divmod(r0, r1)
                s = list(s0)
                s += [0] * (len(q) + len(s1) - 1 - len(s))
                for i, qc in enumerate(q):
                    if qc:
                        for j, sc in enumerate(s1):
                            s[i + j] -= qc * sc
                r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
            lead = r1[0]
            return reduce([Fraction(c, lead) for c in s1])

        return FieldOps(add, mul, lambda a: tuple(-x for x in a), inverse, lambda a: not any(a))

    def _reduce(self, coeffs: list) -> tuple:
        """The canonical coefficient tuple of a polynomial of any degree with
        int or Fraction coefficients."""
        mod = self._modulus
        d = self.degree
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(len(mod)):
                    coeffs[i - len(mod) + 1 + j] -= c * mod[j]
            coeffs.pop()
        coeffs += [0] * (d - len(coeffs))
        return _canonical_tuple(coeffs)

    @cached_property
    def _modulus(self) -> tuple[int, ...]:
        # Phi_n is monic with integer coefficients: reducing an integral
        # polynomial by it stays integral
        return tuple(c.numerator for c in cyclotomic_polynomial(self.n))

    def parse(self, text: str):
        """The raw value of the file-format notation: 'a/b', an integer, or
        '[c0, c1, ...]' with a rational literal in every slot; ValueError
        when it is malformed or names no value of this field."""
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"bad scalar literal {text!r}")
            inner = text[1:-1]
            return self.value([_rational(c) for c in inner.split(",")] if inner.strip() else [])
        return self.value(_rational(text))

    def format(self, value) -> str:
        """The file-format notation of a raw value."""
        if self.kind == CYCLOTOMIC:
            return "[" + ", ".join(str(c) for c in value) + "]"
        return str(value)

    def __str__(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME:
            return f"F_{self.p}"
        return f"Q(zeta_{self.n})"


class Scalar:
    """An exact field element in canonical form. Immutable; equal and hashed
    by (field, value)."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return (self.field, self.value) == (other.field, other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return f"Scalar(field={self.field!r}, value={self.value!r})"

    def _check(self, other: "Scalar"):
        # identity first: FieldSpec.__eq__ is slower, and is implies ==
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def is_zero(self) -> bool:
        return self.field.ops.is_zero(self.value)

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        f = self.field
        return Scalar(f, f.ops.add(self.value, other.value))

    def __neg__(self) -> "Scalar":
        f = self.field
        return Scalar(f, f.ops.neg(self.value))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        f = self.field
        return Scalar(f, f.ops.mul(self.value, other.value))

    def inverse(self) -> "Scalar":
        f = self.field
        return Scalar(f, f.ops.inverse(self.value))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self) -> str:
        return self.field.format(self.value)
