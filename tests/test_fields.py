import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hopfcleft.errors import DivisionByZero, FieldMismatch
from hopfcleft.fields import CYCLOTOMIC, PRIME, RATIONALS, FieldSpec, Scalar, cyclotomic_polynomial

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
    assert a.field.parse(a.field.format(a.value)) == a.value


def test_scalar_canonical_form():
    assert F5.scalar(7) == F5.scalar(2)
    assert F5.scalar(Fraction(1, 2)) == F5.scalar(3)
    assert Q.scalar(2) + Q.scalar(Fraction(1, 2)) == Q.scalar(Fraction(5, 2))
    # zeta_4^2 = -1 reduces modulo x^2 + 1
    z = Z4.scalar([0, 1])
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


def root_of_unity(field: FieldSpec, n: int) -> Scalar:
    """A primitive n-th root of unity; ValueError when the field has none."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return field.one()
    if field.kind == RATIONALS:
        if n == 2:
            return field.scalar(-1)
        raise ValueError(f"Q has no primitive {n}-th root of unity")
    if field.kind == PRIME:
        if (field.p - 1) % n != 0:
            raise ValueError(f"F_{field.p} has no primitive {n}-th root of unity")
        e = (field.p - 1) // n
        for a in range(2, field.p):
            z = pow(a, e, field.p)
            if all(pow(z, k, field.p) != 1 for k in range(1, n)):
                return field.scalar(z)
        raise ValueError(f"F_{field.p} has no primitive {n}-th root of unity")
    assert field.kind == CYCLOTOMIC
    # the roots of unity of Q(zeta_m) form a cyclic group of order lcm(2, m),
    # generated by zeta_m (m even) or -zeta_m (m odd); zeta_m is the residue
    # class of x, which is 1 in Q(zeta_1) and -1 in Q(zeta_2)
    m = field.n
    zeta = field.scalar([0, 1])
    order, generator = (m, zeta) if m % 2 == 0 else (2 * m, -zeta)
    if order % n != 0:
        raise ValueError(f"{field} has no primitive {n}-th root of unity")
    return generator ** (order // n)


@pytest.mark.parametrize("field,n", [
    (Q, 2), (F5, 4), (F5, 2), (Z4, 4), (FieldSpec.prime_field(3), 2),
    # Q(zeta_m) for odd m also holds -zeta_m, of order 2m
    (FieldSpec.cyclotomic(1), 2), (FieldSpec.cyclotomic(3), 2),
    (FieldSpec.cyclotomic(3), 6), (FieldSpec.cyclotomic(5), 10),
    (FieldSpec.cyclotomic(3), 3), (FieldSpec.cyclotomic(8), 8), (FieldSpec.cyclotomic(2), 2),
])
def test_root_of_unity_has_exact_order(field, n):
    z = root_of_unity(field, n)
    assert z ** n == field.one()
    for k in range(1, n):
        assert z ** k != field.one()


def test_root_of_unity_absent():
    for field, n in (
        (Q, 4), (FieldSpec.prime_field(3), 4),
        (FieldSpec.cyclotomic(3), 4), (FieldSpec.cyclotomic(1), 3), (Z4, 8),
    ):
        with pytest.raises(ValueError, match="no primitive"):
            root_of_unity(field, n)


def test_degree_is_computed_once_per_field(monkeypatch):
    import hopfcleft.fields as fields

    calls = []
    phi = fields.euler_phi
    monkeypatch.setattr(fields, "euler_phi", lambda n: calls.append(n) or phi(n))
    z8 = FieldSpec.cyclotomic(8)
    assert [z8.degree for _ in range(3)] == [4, 4, 4]
    z8.scalar([0, 1]) * z8.scalar([0, 1])
    assert calls == [8]
    # the cached degree is not part of the field's identity
    assert z8 == FieldSpec.cyclotomic(8) and hash(z8) == hash(FieldSpec.cyclotomic(8))
    assert repr(z8) == "FieldSpec(kind='cyclotomic', p=0, n=8)"


def test_field_spec_is_an_immutable_value():
    for make in (FieldSpec.rationals, lambda: FieldSpec.prime_field(5),
                 lambda: FieldSpec.cyclotomic(8)):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
    assert FieldSpec.prime_field(5) != FieldSpec.prime_field(7)
    assert FieldSpec.cyclotomic(5) != FieldSpec.prime_field(5)
    assert F5 != ("prime", 5, 0)
    f = FieldSpec.prime_field(5)
    for mutate in (lambda: setattr(f, "p", 7), lambda: setattr(f, "extra", 1),
                   lambda: delattr(f, "p")):
        with pytest.raises(AttributeError):
            mutate()
    assert f.p == 5 and f == F5


def test_field_ops_are_built_once_and_ignored_by_equality(monkeypatch):
    calls = []
    build = FieldSpec._cyclotomic_ops
    monkeypatch.setattr(FieldSpec, "_cyclotomic_ops", lambda f: calls.append(f) or build(f))
    a, b = FieldSpec.cyclotomic(8), FieldSpec.cyclotomic(8)
    assert a.ops is a.ops
    a.scalar([0, 1]) * a.scalar([0, 1]) + a.one()
    assert calls == [a]
    # b has built nothing, a has its arithmetic: still equal, same hash
    assert a == b and hash(a) == hash(b)
    assert b.ops is not a.ops and calls == [a, b]


def test_scalar_is_an_immutable_value_of_its_field():
    a, b = F5.scalar(3), FieldSpec.prime_field(5).scalar(8)
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.value = 4
    with pytest.raises(AttributeError):
        a.field = Q
    assert a.value == 3 and a.field == F5
    # the raw values agree; equality still tells the fields apart
    assert Q.scalar(3).value == F5.scalar(3).value == FieldSpec.prime_field(7).scalar(3).value
    assert Q.scalar(3) != F5.scalar(3)
    assert FieldSpec.prime_field(7).scalar(3) != F5.scalar(3)
    assert F5.scalar(3) != 3


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(6)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        Q.one() + F5.one()


def test_scalar_is_hashable():
    assert len({F5.scalar(2), F5.scalar(7), F5.scalar(3)}) == 2
    assert isinstance(Q.one(), Scalar)


RAW_FIELDS = [Q] + [FieldSpec.cyclotomic(n) for n in (1, 2, 3, 4, 8, 12)]


def assert_raw_form(field, value):
    """A raw rational is an int when integral and a Fraction with
    denominator > 1 otherwise; a cyclotomic value is a tuple of them."""
    if field.kind == "cyclotomic":
        assert type(value) is tuple and len(value) == field.degree, value
        coeffs = value
    else:
        coeffs = (value,)
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (value, type(c))


# numerator and denominator, written unreduced: "4/2" and "-3/3" are integral
rational_pairs = st.tuples(st.integers(-6, 6), st.integers(1, 4))


def _rational_text(pair):
    n, d = pair
    return f"{n}/{d}" if d > 1 else str(n)


@settings(max_examples=300)
@given(st.data())
def test_raw_values_are_ints_when_integral(data):
    field = data.draw(st.sampled_from(RAW_FIELDS))
    # a cyclotomic literal may be longer than phi(n), so parsing reduces it
    sizes = ((0, 2 * field.degree + 1) if field.kind == "cyclotomic" else (1, 1))
    values = []
    for _ in range(3):
        pairs = data.draw(st.lists(rational_pairs, min_size=sizes[0], max_size=sizes[1]))
        texts = [_rational_text(p) for p in pairs]
        fractions = [Fraction(n, d) for n, d in pairs]  # Fraction(4, 2) is Fraction(2, 1)
        if field.kind == "cyclotomic":
            parsed = field.parse("[" + ", ".join(texts) + "]")
            built = field.scalar(fractions)
        else:
            parsed = field.parse(texts[0])
            built = field.scalar(fractions[0])
        assert parsed == built.value
        assert_raw_form(field, parsed)
        assert_raw_form(field, built.value)
        values.append(parsed)
    ops = field.ops
    a, b, c = values
    for result in (ops.add(a, b), ops.mul(a, b), ops.neg(a), ops.add(ops.mul(a, b), c)):
        assert_raw_form(field, result)
    for x in values:
        if not ops.is_zero(x):
            inv = ops.inverse(x)
            assert_raw_form(field, inv)
            assert_raw_form(field, ops.mul(inv, x))
            assert ops.mul(inv, x) == field.one().value


def test_rational_inverse_is_a_fraction_never_a_float():
    ops = Q.ops
    assert ops.inverse(2) == Fraction(1, 2) and type(ops.inverse(2)) is Fraction
    assert ops.inverse(-1) == -1 and type(ops.inverse(-1)) is int
    assert type(ops.inverse(Fraction(1, 3))) is int
    # integral results of Fraction arithmetic come back as ints
    assert type(ops.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(ops.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(Q.scalar(Fraction(4, 2)).value) is int
    assert type(Q.parse("-6/3")) is int
    inverse = FieldSpec.cyclotomic(4).ops.inverse((2, 0))
    assert inverse == (Fraction(1, 2), 0) and [type(c) for c in inverse] == [Fraction, int]


def test_value_is_the_one_normalizer():
    """value gives the raw canonical form that a map stores, from an int, a
    Fraction, a coefficient sequence (Q(zeta_n) only) or a Scalar of the
    same field; parse returns the same raw values and format prints them."""
    assert F5.value(7) == 2 and F5.value(-1) == 4 and F5.value(Fraction(1, 2)) == 3
    assert Q.value(Fraction(4, 2)) == 2 and type(Q.value(Fraction(4, 2))) is int
    assert Q.value(True) == 1 and type(Q.value(True)) is int
    # zeta_4^2 = -1: a longer coefficient list is reduced, a shorter one padded
    assert Z4.value([0, 0, 1]) == (-1, 0) and Z4.value([3]) == (3, 0) and Z4.value([]) == (0, 0)
    assert Z4.value(Fraction(1, 2)) == (Fraction(1, 2), 0) and Z4.value((1, 2)) == (1, 2)
    assert Z4.value([Fraction(2, 1), 0]) == (2, 0) and type(Z4.value([Fraction(2, 1), 0])[0]) is int
    for field, x in ((F5, F5.scalar(3)), (Q, Q.scalar(Fraction(1, 3))), (Z4, Z4.scalar([0, 1]))):
        assert field.value(x) == x.value and field.scalar(x) == x
        assert field.parse(field.format(x.value)) == x.value
    assert Z4.parse("[1, 0, 1]") == (0, 0) and Z4.parse("[ ]") == (0, 0)
    assert Z4.format((Fraction(-1, 2), 1)) == "[-1/2, 1]" and F5.format(3) == "3"
    with pytest.raises(FieldMismatch):
        F5.value(FieldSpec.prime_field(7).scalar(3))
    with pytest.raises(FieldMismatch):
        Q.value(F5.one())
    with pytest.raises(DivisionByZero):
        F5.value(Fraction(1, 5))


@pytest.mark.parametrize("field,x,named", [
    (Q, 1.5, "1.5"), (F5, 2.0, "2.0"), (Z4, 0.5, "0.5"), (Z4, [1, 0.5], "[1, 0.5]"),
    (Q, [1, 0], "[1, 0]"), (F5, (1,), "(1,)"), (Q, "1/2", "'1/2'"), (F5, None, "None"),
    (Z4, [[1], 0], "[[1], 0]"),
])
def test_value_rejects_what_is_no_value_of_its_field(field, x, named):
    with pytest.raises(ValueError, match=re.escape(f"{named} is not a value of {field}")):
        field.value(x)


@pytest.mark.parametrize("field,text", [
    (Q, "1/0"), (F5, "0/0"), (Z4, "[1/0, 1]"), (F5, "[1]"), (Q, "[1, 0]"), (Q, "1.5"),
    (Z4, "[1,, 0]"), (Z4, "[,1]"), (Z4, "[1,]"), (Z4, "[,]"), (Z4, "[1, 0"), (Q, ""),
    # digits of other scripts, which int() reads: the format's are ASCII
    (Q, "\u0661/\u0662"), (F5, "\u0663"), (Z4, "[\u0661, 0]"), (Q, "1/\uff12"),
])
def test_parse_raises_value_error_for_every_malformed_literal(field, text):
    with pytest.raises(ValueError):
        field.parse(text)
