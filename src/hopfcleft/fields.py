"""Exact field arithmetic: rationals, prime fields and cyclotomic extensions.

A cyclotomic element is a residue polynomial modulo the n-th cyclotomic
polynomial, stored as a tuple of rational coefficients of length phi(n).
Every operation reduces eagerly to this canonical form, so scalar equality
is equality of representations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DivisionByZero, FieldMismatch, NoSuchRoot

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


def _rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"bad rational literal {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class FieldSpec:
    """One of Q, F_p (p prime) or Q(zeta_n)."""

    kind: str
    p: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind == PRIME:
            if self.p >= MAX_PRIME:
                raise ValueError(f"characteristic {self.p} exceeds the supported {MAX_PRIME - 1}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        if self.kind == CYCLOTOMIC and not 1 <= self.n <= MAX_CYCLOTOMIC_INDEX:
            raise ValueError(
                f"cyclotomic index must lie in 1..{MAX_CYCLOTOMIC_INDEX}, got {self.n}")

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
        field object; not a dataclass field, so equality and hash ignore it)."""
        return euler_phi(self.n) if self.kind == CYCLOTOMIC else 1

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def scalar(self, value) -> "Scalar":
        """Build a canonical scalar from an int, Fraction or coefficient list."""
        if self.kind == RATIONALS:
            return Scalar(self, Fraction(value))
        if self.kind == PRIME:
            if isinstance(value, Fraction):
                if value.denominator % self.p == 0:
                    raise DivisionByZero(f"denominator divisible by {self.p}")
                value = value.numerator * pow(value.denominator, -1, self.p)
            return Scalar(self, value % self.p)
        d = self.degree
        if isinstance(value, (int, Fraction)):
            coeffs = [Fraction(value)] + [Fraction(0)] * (d - 1)
        else:
            coeffs = self._reduce([Fraction(c) for c in value])
        return Scalar(self, tuple(coeffs))

    def _reduce(self, coeffs: list) -> list:
        mod = list(cyclotomic_polynomial(self.n))
        d = self.degree
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(len(mod)):
                    coeffs[i - len(mod) + 1 + j] -= c * mod[j]
            coeffs.pop()
        coeffs += [Fraction(0)] * (d - len(coeffs))
        return coeffs

    def zeta(self) -> "Scalar":
        """The residue class of x in Q(zeta_n)."""
        if self.kind != CYCLOTOMIC:
            raise NoSuchRoot("zeta only exists in cyclotomic fields")
        if self.degree == 1:  # Q(zeta_1) = Q(zeta_2) = Q
            return self.scalar(1 if self.n == 1 else -1)
        return self.scalar([0, 1])

    def parse(self, text: str) -> "Scalar":
        """Parse the file-format notation: 'a/b', integer, or '[c0,c1,...]'."""
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"bad scalar literal {text!r}")
            inner = text[1:-1].strip()
            parts = [p for p in inner.split(",") if p.strip()] if inner else []
            return self.scalar([_rational(p) for p in parts])
        return self.scalar(_rational(text))

    def format(self, s: "Scalar") -> str:
        if self.kind == RATIONALS:
            return str(s.value)
        if self.kind == PRIME:
            return str(s.value)
        return "[" + ", ".join(str(c) for c in s.value) + "]"

    def __str__(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == PRIME:
            return f"F_{self.p}"
        return f"Q(zeta_{self.n})"


@dataclass(frozen=True)
class Scalar:
    """An exact field element in canonical form. Immutable and hashable."""

    field: FieldSpec
    value: object

    def _check(self, other: "Scalar"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def is_zero(self) -> bool:
        if self.field.kind == CYCLOTOMIC:
            return all(c == 0 for c in self.value)
        return self.value == 0

    def is_one(self) -> bool:
        return self == self.field.one()

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        f = self.field
        if f.kind == CYCLOTOMIC:
            return Scalar(f, tuple(a + b for a, b in zip(self.value, other.value)))
        if f.kind == PRIME:
            return Scalar(f, (self.value + other.value) % f.p)
        return Scalar(f, self.value + other.value)

    def __neg__(self) -> "Scalar":
        f = self.field
        if f.kind == CYCLOTOMIC:
            return Scalar(f, tuple(-c for c in self.value))
        if f.kind == PRIME:
            return Scalar(f, (-self.value) % f.p)
        return Scalar(f, -self.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        f = self.field
        if f.kind == CYCLOTOMIC:
            d = f.degree
            prod = [Fraction(0)] * (2 * d - 1)
            for i, a in enumerate(self.value):
                if a:
                    for j, b in enumerate(other.value):
                        if b:
                            prod[i + j] += a * b
            return Scalar(f, tuple(f._reduce(prod)))
        if f.kind == PRIME:
            return Scalar(f, (self.value * other.value) % f.p)
        return Scalar(f, self.value * other.value)

    def inverse(self) -> "Scalar":
        f = self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if f.kind == RATIONALS:
            return Scalar(f, 1 / self.value)
        if f.kind == PRIME:
            return Scalar(f, pow(self.value, -1, f.p))
        # extended Euclid in Q[x] against the cyclotomic modulus
        r0, r1 = list(cyclotomic_polynomial(f.n)), _poly_trim(list(self.value))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        lead = r1[0]
        return f.scalar([c / lead for c in s1])

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
        return self.field.format(self)


def root_of_unity(field: FieldSpec, n: int) -> Scalar:
    """A primitive n-th root of unity, when the field has one."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return field.one()
    if field.kind == RATIONALS:
        if n == 2:
            return field.scalar(-1)
        raise NoSuchRoot(f"Q has no primitive {n}-th root of unity")
    if field.kind == PRIME:
        if (field.p - 1) % n != 0:
            raise NoSuchRoot(f"F_{field.p} has no primitive {n}-th root of unity")
        e = (field.p - 1) // n
        for a in range(2, field.p):
            z = pow(a, e, field.p)
            if all(pow(z, k, field.p) != 1 for k in range(1, n)):
                return field.scalar(z)
        raise NoSuchRoot(f"F_{field.p} has no primitive {n}-th root of unity")
    # the roots of unity of Q(zeta_m) form a cyclic group of order lcm(2, m),
    # generated by zeta_m (m even) or -zeta_m (m odd)
    m = field.n
    order, generator = (m, field.zeta()) if m % 2 == 0 else (2 * m, -field.zeta())
    if order % n != 0:
        raise NoSuchRoot(f"{field} has no primitive {n}-th root of unity")
    return generator ** (order // n)
