"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its runtime budget and
prints a single PASS/FAIL line (run with -s to see them inline).
"""

import json
import time
from contextlib import contextmanager

from hopfcleft.braided import (
    braiding,
    check_braiding_axioms,
    check_yd,
    trivial_measuring,
    trivial_module,
    trivial_yd,
)
from hopfcleft.cleft import (
    check_cleft,
    crossed_to_cleft,
    iso_to_crossed,
    round_trip_check,
)
from hopfcleft.cocycle import (
    check_cocycle,
    check_derived_relations,
    check_mu_sigma_associativity,
    pair_coalgebra,
    sigma_recovery,
)
from hopfcleft.fixtures import cyclic_group_hopf
from hopfcleft.hopf import check_hopf, convolution_inverse
from hopfcleft.lifting import (
    check_cprime_section,
    check_zprime,
    cleft_prime_census,
    deform,
    gr_check,
    phi,
    phi_inverse,
    psi,
    sigma_gamma_restricts,
)
from hopfcleft.linalg import LinearMap, compose, unit_space
from hopfcleft.oracle import (
    SearchSpace,
    _candidate_maps,
    enumerate_cocycles,
    enumerate_zprime,
    oracle_convolution_inverse,
)
from hopfcleft.linalg import tensor_space

from conftest import (
    braiding_naturality_item,
    column,
    convolution_inverse_or_none,
    degree_zero_projection,
    scalar_is_zero,
)


@contextmanager
def criterion(number, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number}: FAIL (over budget: {elapsed:.2f}s >= {budget_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)")
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s)")


def test_criterion_1_hopf_axioms_and_antipode_oracle(kc2_q, kc2_f3, kc4_f5, kc4_zeta4,
                                                     boson4, boson8, f5):
    with criterion(1, 1.0):
        for h in (kc2_q, kc2_f3, kc4_f5, kc4_zeta4, boson4.hopf, boson8.hopf):
            report = check_hopf(h)
            assert report.ok, str(report)
        for h in (kc2_f3, cyclic_group_hopf(f5, 2)):
            found = oracle_convolution_inverse(
                LinearMap.identity(h.space), h.coalg, h.alg)
            assert found == h.antipode


def test_criterion_2_braiding_axioms(qline_f3, qline_f5, kc4_f5):
    with criterion(2, 1.0):
        for g in (qline_f3, qline_f5):
            yd = g.hopf.yd
            assert check_yd(yd).ok
            proj = degree_zero_projection(g)
            # the ambient as a trivial module: every linear map is a module
            # morphism, here h -> eps(h) 1
            base = yd.base
            for v, h in ((yd.module, proj),
                         (trivial_module(base, base.space), compose(base.unit, base.counit))):
                report = check_braiding_axioms(yd, v)
                assert report.ok, str(report)
                item = braiding_naturality_item(yd, v, proj, h)
                assert item.ok, item.line()
        yd = qline_f5.hopf.yd
        one = unit_space(kc4_f5.space.field)
        assert braiding(yd, trivial_module(kc4_f5, one)) == LinearMap.identity(yd.space)
        assert braiding(trivial_yd(kc4_f5, one), yd.module) == LinearMap.identity(
            yd.module.space)


def test_criterion_3_cocycle_iff_associative(qline_f3):
    with criterion(3, 10.0):
        m = trivial_measuring(qline_f3.hopf)
        source = tensor_space(m.hopf.space, m.hopf.space)
        slots = tuple((0, j) for j in range(source.dim))
        space = SearchSpace(slots, m.space.field)
        assert space.count() == 81
        disagreements = 0
        for sigma in _candidate_maps(source, m.space, space):
            invertible = convolution_inverse_or_none(
                sigma, pair_coalgebra(m.hopf), m.algebra) is not None
            passes = check_cocycle(m, sigma)[0] is not None
            direct = invertible and check_mu_sigma_associativity(m, sigma).ok
            if passes != direct:
                disagreements += 1
        assert disagreements == 0


def test_criterion_4_sigma_recovery(qline_f3, qline_f5, f3):
    with criterion(4, 5.0):
        measurings = [
            trivial_measuring(qline_f3.hopf),
            trivial_measuring(qline_f5.hopf),
            trivial_measuring(cyclic_group_hopf(f3, 2)),
        ]
        total = 0
        for m in measurings:
            for c in enumerate_cocycles(m):
                assert sigma_recovery(m, c.sigma) == c.sigma
                total += 1
        assert total == 3 + 5 + 2


def test_criterion_5_round_trip_and_iso(qline_f3, f3):
    with criterion(5, 10.0):
        measurings = [
            trivial_measuring(qline_f3.hopf),
            trivial_measuring(cyclic_group_hopf(f3, 2)),
        ]
        for m in measurings:
            for c in enumerate_cocycles(m):
                assert round_trip_check(c).ok
                ce = crossed_to_cleft(c)
                assert check_cleft(ce).ok
                assert iso_to_crossed(ce).ok


def test_criterion_6_phi_psi_commuting_square(boson4, boson8):
    with criterion(6, 60.0):
        for b in (boson4, boson8):
            g = b.source
            braided = enumerate_cocycles(trivial_measuring(g.hopf))
            restricted = enumerate_zprime(b)
            # bijection: equal cardinalities and both composites the identity
            assert len(braided) == len(restricted)
            for pi, s in zip(braided, restricted):
                assert phi(b, pi).sigma == s.sigma
                assert phi_inverse(b, s).sigma == pi.sigma
                # crossed product of the braided cocycle, pushed through psi,
                # carries the extended cocycle back
                ce = psi(b, crossed_to_cleft(pi))
                back, _ = sigma_gamma_restricts(b, ce)
                assert back.sigma == s.sigma


def test_criterion_7_deformations_are_filtered(boson8):
    with criterion(7, 10.0):
        sigmas = enumerate_zprime(boson8)
        space = boson8.space
        degs = boson8.degrees
        field = space.field
        assert len(sigmas) == field.p
        corrections = {}
        for k, s in enumerate(sigmas):
            deformed = deform(boson8, s)
            assert gr_check(boson8, deformed).ok
            # lower-degree corrections of the deformed products, computed
            # from the result itself
            low = {}
            for col in range(space.dim * space.dim):
                top = degs[col // space.dim] + degs[col % space.dim]
                for i, v in column(deformed.mul, col).items():
                    if degs[i] < top and not scalar_is_zero(v):
                        pair = f"{space.labels[col // space.dim]}*{space.labels[col % space.dim]}"
                        low.setdefault(pair, []).append(
                            f"{field.format(v.value)} {space.labels[i]}")
            corrections[k] = low
            if k == 0:
                assert low == {}
            else:
                assert low, "nonzero cocycle must deform some product"
        print(f"  lower-degree corrections: {json.dumps(corrections, sort_keys=True)}")


def test_criterion_8_derived_relation_suites(qline_f3, qline_f5, f3, boson4):
    with criterion(8, 10.0):
        # derived cocycle relations on every enumerated cocycle
        for g in (qline_f3, qline_f5):
            m = trivial_measuring(g.hopf)
            for c in enumerate_cocycles(m):
                assert check_derived_relations(c).ok
        m = trivial_measuring(cyclic_group_hopf(f3, 2))
        for c in enumerate_cocycles(m):
            assert check_derived_relations(c).ok
            # inverse-section coaction formula (convolution inverse of a
            # comodule morphism) is part of the full cleft check
            assert check_cleft(crossed_to_cleft(c)).ok
        # restriction relations and section relations on the bosonization
        for s in enumerate_zprime(boson4):
            assert check_zprime(boson4, s.sigma)[1].ok
            ce = psi(boson4, crossed_to_cleft(phi_inverse(boson4, s)))
            assert check_cprime_section(boson4, ce).ok


def test_criterion_9_census_reproducibility(boson4, boson8):
    with criterion(9, 60.0):
        for b, classes in ((boson4, [[0], [1], [2]]), (boson8, [[0], [1, 4], [2, 3]])):
            runs = []
            for _ in range(2):
                result = cleft_prime_census(b)
                assert result.report.ok, str(result.report)
                assert result.classes == classes
                payload = {
                    "items": [
                        {"name": i.name, "ok": i.ok, "witness": i.witness}
                        for i in result.report.items],
                    "classes": result.classes,
                    "sigmas": [sorted(
                        (k, str(v.value)) for k, v in s.sigma.entries.items())
                        for s in result.sigmas],
                }
                runs.append(json.dumps(payload, sort_keys=True).encode())
            assert runs[0] == runs[1]


def test_criterion_10_oracle_agreement(kc2_f3, kc4_f5, qline_f3, qline_f5,
                                       boson4, boson8, f3, f5):
    with criterion(10, 120.0):
        # antipodes against the exhaustive convolution-inverse search
        for h in (kc2_f3, cyclic_group_hopf(f5, 2)):
            assert oracle_convolution_inverse(
                LinearMap.identity(h.space), h.coalg, h.alg) == h.antipode
            solved = convolution_inverse(h.antipode, h.coalg, h.alg)
            assert oracle_convolution_inverse(
                h.antipode, h.coalg, h.alg) == solved
        # enumerated cocycle lists match the closed-form extensions
        for g, b, expected in ((qline_f3, boson4, 3), (qline_f5, boson8, 5)):
            braided = enumerate_cocycles(trivial_measuring(g.hopf))
            assert len(braided) == expected
            direct = enumerate_zprime(b)
            assert [phi(b, pi).sigma for pi in braided] == [s.sigma for s in direct]
            for s in direct:
                assert check_zprime(b, s.sigma)[1].ok
        # classical sweep agrees with the closed-form count
        assert len(enumerate_cocycles(trivial_measuring(cyclic_group_hopf(f3, 2)))) == 2
