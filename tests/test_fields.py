from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from hopfcleft.errors import DivisionByZero, NoSuchRoot
from hopfcleft.fields import FieldSpec, Scalar, cyclotomic_polynomial, root_of_unity

Q = FieldSpec.rationals()
F5 = FieldSpec.prime_field(5)
Z4 = FieldSpec.cyclotomic(4)

rational_scalars = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=50),
).map(Q.scalar)
prime_scalars = st.integers(min_value=0, max_value=4).map(F5.scalar)
cyclo_scalars = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=2, max_size=2).map(Z4.scalar)
any_scalar = st.one_of(rational_scalars, prime_scalars, cyclo_scalars)


def same_field_pairs(strategy):
    return st.tuples(strategy, strategy)


@given(st.one_of(*[same_field_pairs(s) for s in (rational_scalars, prime_scalars, cyclo_scalars)]))
def test_commutativity(pair):
    a, b = pair
    assert a + b == b + a
    assert a * b == b * a


@given(st.one_of(*[
    st.tuples(s, s, s) for s in (rational_scalars, prime_scalars, cyclo_scalars)]))
def test_associativity_and_distributivity(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(any_scalar)
def test_additive_inverse_and_units(a):
    f = a.field
    assert a + (-a) == f.zero()
    assert a + f.zero() == a
    assert a * f.one() == a
    assert a - a == f.zero()


@given(any_scalar)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert a * a.inverse() == a.field.one()
        assert a.inverse() * a == a.field.one()


@given(any_scalar, st.integers(min_value=-4, max_value=6))
def test_powers(a, k):
    if a.is_zero() and k < 0:
        return
    expected = a.field.one()
    for _ in range(abs(k)):
        expected = expected * a
    if k < 0 and not a.is_zero():
        expected = expected.inverse()
    assert a ** k == expected


@given(any_scalar)
def test_parse_format_round_trip(a):
    assert a.field.parse(a.field.format(a)) == a


def test_scalar_canonical_form():
    assert F5.scalar(7) == F5.scalar(2)
    assert F5.scalar(Fraction(1, 2)) == F5.scalar(3)
    assert Q.scalar(2) + Q.scalar(Fraction(1, 2)) == Q.scalar(Fraction(5, 2))
    # zeta_4^2 = -1 reduces modulo x^2 + 1
    z = Z4.zeta()
    assert z * z == Z4.scalar(-1)
    assert z ** 4 == Z4.one()


def test_cyclotomic_polynomials():
    as_ints = lambda n: [int(c) for c in cyclotomic_polynomial(n)]
    assert as_ints(1) == [-1, 1]
    assert as_ints(2) == [1, 1]
    assert as_ints(4) == [1, 0, 1]
    assert as_ints(3) == [1, 1, 1]
    assert as_ints(6) == [1, -1, 1]


@lru_cache(maxsize=None)
def _cyclotomic_by_division(n):
    """Reference: x^n - 1 divided by every Phi_d, d a proper divisor of n,
    by long division on lists of Fractions."""
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic_by_division(d)
            q = [Fraction(0)] * (len(num) - len(den) + 1)
            for i in range(len(q) - 1, -1, -1):
                q[i] = num[i + len(den) - 1] / den[-1]
                if q[i]:
                    for j, c in enumerate(den):
                        num[i + j] -= q[i] * c
            assert not any(num)
            num = q
    return tuple(num)


def test_cyclotomic_polynomials_match_long_division():
    for n in range(1, 201):
        phi = cyclotomic_polynomial(n)
        assert phi == _cyclotomic_by_division(n), n
        assert all(type(c) is Fraction for c in phi)
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic_polynomial(105)) == -2


@pytest.mark.parametrize("field,n", [
    (Q, 2), (F5, 4), (F5, 2), (Z4, 4), (FieldSpec.prime_field(3), 2),
    # Q(zeta_m) for odd m also holds -zeta_m, of order 2m
    (FieldSpec.cyclotomic(1), 2), (FieldSpec.cyclotomic(3), 2),
    (FieldSpec.cyclotomic(3), 6), (FieldSpec.cyclotomic(5), 10),
    (FieldSpec.cyclotomic(3), 3), (FieldSpec.cyclotomic(8), 8), (FieldSpec.cyclotomic(2), 2),
])
def test_root_of_unity_has_exact_order(field, n):
    z = root_of_unity(field, n)
    assert (z ** n).is_one()
    for k in range(1, n):
        assert not (z ** k).is_one()


def test_root_of_unity_absent():
    for field, n in (
        (Q, 4), (FieldSpec.prime_field(3), 4),
        (FieldSpec.cyclotomic(3), 4), (FieldSpec.cyclotomic(1), 3), (Z4, 8),
    ):
        with pytest.raises(NoSuchRoot):
            root_of_unity(field, n)


def test_degree_is_computed_once_per_field(monkeypatch):
    import hopfcleft.fields as fields

    calls = []
    phi = fields.euler_phi
    monkeypatch.setattr(fields, "euler_phi", lambda n: calls.append(n) or phi(n))
    z8 = FieldSpec.cyclotomic(8)
    assert [z8.degree for _ in range(3)] == [4, 4, 4]
    z8.zeta() * z8.zeta()
    assert calls == [8]
    # the cached degree is not part of the field's identity
    assert z8 == FieldSpec.cyclotomic(8) and hash(z8) == hash(FieldSpec.cyclotomic(8))
    assert repr(z8) == "FieldSpec(kind='cyclotomic', p=0, n=8)"


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(6)


def test_field_mismatch_rejected():
    from hopfcleft.errors import FieldMismatch

    with pytest.raises(FieldMismatch):
        Q.one() + F5.one()


def test_scalar_is_hashable():
    assert len({F5.scalar(2), F5.scalar(7), F5.scalar(3)}) == 2
    assert isinstance(Q.one(), Scalar)
