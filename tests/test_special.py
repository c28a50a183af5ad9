"""Hypergeometric and incomplete-gamma routines against mpmath."""

import math

import mpmath
import numpy as np
import oracles
import pytest
from gquad import hyp2f1, hyp2f1_near1_scaled
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from blockhyperg.errors import DomainError, NoConvergence
from blockhyperg.special import (hyp2f1_log, log_inc_gamma_ratio,
                                 log_inc_gamma_ratio_pair, log_series_2f1)

mpmath.mp.dps = 40


def _mp_2f1_log(a, b, c, z):
    return float(mpmath.log(mpmath.hyp2f1(a, b, c, z)))


def test_hyp2f1_values_match_mpmath():
    rng = np.random.default_rng(11)
    for _ in range(120):
        b = rng.uniform(0.5, 3.0)
        c = b + rng.uniform(0.3, 4.0)
        a = rng.uniform(0.5, 40.0)
        z = rng.uniform(0.0, 0.95)
        got = hyp2f1_log(a, b, c, z)
        want = _mp_2f1_log(a, b, c, z)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_hyp2f1_log_large_parameters():
    # values far beyond double range stay usable in log form
    cases = [(499.5, 1.0, 3.5, 0.99), (2000.0, 2.0, 5.0, 0.999),
             (49999.5, 1.0, 2.5, 1.0 - 1e-9)]
    for a, b, c, z in cases:
        got = hyp2f1_log(a, b, c, z)
        want = _mp_2f1_log(a, b, c, z)
        assert got == pytest.approx(want, rel=1e-9)


def test_hyp2f1_one_minus_z_precision():
    # 1-z supplied exactly; rounded z alone would lose the answer
    a, b, c = 600.5, 1.0, 3.0
    delta = 1e-13
    got = hyp2f1_log(a, b, c, 1.0 - delta, one_minus_z=delta)
    want = float(mpmath.log(mpmath.hyp2f1(a, b, c,
                                          mpmath.mpf(1) - mpmath.mpf(delta))))
    assert got == pytest.approx(want, rel=1e-8)


def test_hyp2f1_at_unit_argument_gauss_value():
    a, b, c = 2.0, 1.0, 6.0  # c - a - b = 3 > 0
    want = float(mpmath.log(
        mpmath.gamma(c) * mpmath.gamma(c - a - b)
        / (mpmath.gamma(c - a) * mpmath.gamma(c - b))))
    assert hyp2f1_log(a, b, c, 1.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        hyp2f1_log(6.0, 1.0, 3.0, 1.0)


@pytest.mark.parametrize("args, omz", [((12.0, 1.0, 13.0573), 1e-300),
                                       ((2.5, 2.0, 4.5), 1e-34),
                                       ((3.0, 1.0, 3.5), 0.05)])
def test_pfaff_oracle_matches_direct_2f1(args, omz):
    # tests/oracles.py forms z/(z-1) from 1-z; mpmath's 2F1 at z itself
    # needs z to carry 1-z, at 60 + 1.1 log10(1/(1-z)) digits
    with mpmath.workdps(int(60 + 1.1 * math.log10(1.0 / omz))):
        want = mpmath.log(mpmath.hyp2f1(*args, 1 - mpmath.mpf(omz)))
    assert oracles.log_hyp2f1(*args, omz) == pytest.approx(float(want),
                                                           rel=1e-15)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.sampled_from([2.0 + 1e-6, 2.5, 3.0, 3.1147, 4.0]),
       p=st.integers(1, 30), dn=st.integers(-4, 5),
       log10_omz=st.floats(-300.0, math.log10(0.05)))
@example(a=2.0 + 1e-6, p=1, dn=1, log10_omz=-300.0)
@example(a=3.1147, p=23, dn=2, log10_omz=-34.0)
@example(a=4.0, p=30, dn=5, log10_omz=-300.0)
def test_hyp2f1_log_near_unit_hyper_g_pairs(a, p, dn, log10_omz):
    # the hyper-g pairs (m, 1, c) and (m, 2, c+1), m = (n-1)/2 and
    # c = (a+p)/2, in the band n <= p+a+1, which puts c-a-b = (a+p-n-1)/2
    # on both sides of 0; the Euler route serves 1-z below about 1e-3
    n = max(2, min(p + dn, int(p + a + 1.0)))
    omz = 10.0 ** log10_omz
    m, c = 0.5 * (n - 1), 0.5 * (a + p)
    for args in ((m, 1.0, c), (m, 2.0, c + 1.0)):
        got = hyp2f1_log(*args, 1.0 - omz, one_minus_z=omz)
        assert got == pytest.approx(oracles.log_hyp2f1(*args, omz),
                                    rel=1e-12, abs=1e-12)


def test_hyp2f1_trivials():
    assert hyp2f1(3.0, 1.0, 2.0, 0.0) == 1.0
    assert hyp2f1_log(7.5, 2.0, 4.0, 0.0) == 0.0


def test_hyp2f1_refuses_near_one_divergent():
    with pytest.raises(NoConvergence):
        hyp2f1(10.0, 1.0, 2.0, 1.0 - 1e-13)


def test_hyp2f1_domain_checks():
    with pytest.raises(DomainError):
        hyp2f1(-1.0, 1.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 2.0, 1.5, 0.5)  # c <= b
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, 1.5)


def test_series_route_alone():
    got = log_series_2f1(5.0, 1.5, 4.0, 0.7)
    assert got == pytest.approx(_mp_2f1_log(5.0, 1.5, 4.0, 0.7), rel=1e-12)


def test_series_against_mpmath_elementwise():
    # pins the values of the series that stops after its first span,
    # including ratios that rise toward z (a+b-c-1 > 0 > ab-c); the array
    # form is new and must give each entry's scalar value
    rng = np.random.default_rng(11)
    a = rng.uniform(0.5, 60.0, 150)
    b = np.where(rng.random(150) < 0.5, rng.choice([1.0, 2.0], 150),
                 rng.uniform(0.2, 3.0, 150))
    c = b + rng.uniform(0.05, 10.0, 150)
    z = rng.uniform(0.0, 0.5, 150) ** rng.choice([1.0, 3.0], 150)
    got = log_series_2f1(a, b, c, z)
    assert got.shape == (150,)
    for i in range(150):
        want = _mp_2f1_log(a[i], b[i], c[i], z[i])
        scalar = log_series_2f1(a[i], b[i], c[i], z[i])
        assert isinstance(scalar, float)
        for value in (scalar, got[i]):
            assert abs(value - want) <= 1e-14 * max(1.0, abs(want))


def test_near1_scaled_gamma_identity():
    # (1-z)^(a+b-c) 2F1 -> Gamma(c)Gamma(a+b-c)/(Gamma(a)Gamma(b)) as z -> 1
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = rng.uniform(0.8, 2.0)
        c = b + rng.uniform(0.5, 2.0)
        a = c - b + rng.uniform(1.0, 8.0)  # a + b - c > 0
        z = 1.0 - 1e-6
        got = hyp2f1_near1_scaled(a, b, c, z)
        want = float(mpmath.gamma(c) * mpmath.gamma(a + b - c)
                     / (mpmath.gamma(a) * mpmath.gamma(b)))
        assert got == pytest.approx(want, rel=1e-4)


def test_near1_scaled_rejects_convergent_regime():
    with pytest.raises(DomainError):
        hyp2f1_near1_scaled(1.0, 1.0, 4.0, 0.9)


def _mp_log_ratio(s, x):
    """log[gamma(s, x) / x^s] from mpmath's lower incomplete gamma."""
    return float(mpmath.log(mpmath.gammainc(s, 0, x)) - s * mpmath.log(x))


def test_lower_inc_gamma_against_mpmath():
    rng = np.random.default_rng(3)
    for _ in range(60):
        s = rng.uniform(0.2, 30.0)
        x = rng.uniform(0.0, 80.0)
        if x == 0.0:
            continue
        got = float(log_inc_gamma_ratio(s, x))
        assert got == pytest.approx(_mp_log_ratio(s, x), rel=1e-11,
                                    abs=1e-11)


def test_lower_inc_gamma_extreme_arguments():
    # saturation: gamma(s, x) -> Gamma(s) for huge x
    s, x = 2.5, 4.8e16
    assert float(log_inc_gamma_ratio(s, x)) == pytest.approx(
        math.lgamma(s) - s * math.log(x), rel=1e-14)
    # tiny x: gamma(s, x) ~ x^s / s
    s, x = 1.75, 1e-12
    assert float(log_inc_gamma_ratio(s, x)) == pytest.approx(
        -math.log(s), rel=1e-10)


def test_inc_gamma_ratio_large_shapes_against_mpmath():
    # log[gamma(beta, x) / x^beta] for the shapes of blocks with hundreds of
    # predictors, where gammainc(beta, x) itself underflows to 0
    for beta, x in [(200.0, 1.0), (600.0, 1e-3), (600.0, 10.0)]:
        want = float(mpmath.log(mpmath.gammainc(beta, 0, x))
                     - beta * mpmath.log(x))
        got = float(log_inc_gamma_ratio(beta, x))
        assert got == pytest.approx(want, rel=1e-13)


def test_inc_gamma_ratio_matches_scalar_routine():
    # every route of the ratio across the grid, against 30-digit mpmath
    beta = np.geomspace(0.05, 1000.0, 23)[:, None]
    x = np.geomspace(1e-12, 1e4, 31)[None, :]
    got = log_inc_gamma_ratio(beta, x)
    with mpmath.workdps(30):
        want = np.vectorize(_mp_log_ratio)(beta, x)
    scale = np.maximum(1.0, np.abs(beta * np.log(x)))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    # x = 0 is the s-integral of s^(beta-1): 1/beta
    np.testing.assert_allclose(log_inc_gamma_ratio(beta[:, 0], 0.0),
                               -np.log(beta[:, 0]), rtol=1e-15)


@pytest.mark.parametrize("beta", [0.3, 2.0, 29.5, 30.5, 120.0])
def test_inc_gamma_ratio_route_switches_against_mpmath(beta):
    # the route changes at beta = 30 (gammainc or series), at x = beta+1
    # (lower or upper function) and where gammainc(beta, x) ~ x^beta /
    # Gamma(beta+1) falls below 1e-30 (series); x = 0 gives 1/beta
    xs = [0.0, 1e-300, 1e-3, 0.5 * (beta + 1.0), beta + 1.0 - 1e-3,
          beta + 1.0 + 1e-3, 3.0 * beta + 10.0]
    x_floor = (1e-30 * math.gamma(beta + 1.0)) ** (1.0 / beta)
    if x_floor > 0.0:
        xs += [0.5 * x_floor, 2.0 * x_floor]
    got = log_inc_gamma_ratio(beta, np.array(xs))
    for x, g in zip(xs, got):
        want = (-math.log(beta) if x == 0.0 else float(
            mpmath.log(mpmath.gammainc(beta, 0, x)) - beta * mpmath.log(x)))
        # scalar and 0-d inputs take the same routes as arrays
        one = log_inc_gamma_ratio(np.array(beta), np.array(x))
        assert one.shape == ()
        for v in (g, float(log_inc_gamma_ratio(beta, x)), float(one)):
            assert abs(v - want) <= 5e-14 * max(1.0, abs(want)), (beta, x)


def _ratio_pair(beta, x):
    """log_inc_gamma_ratio_pair over broadcast arrays, log x from x."""
    beta, x = np.broadcast_arrays(np.asarray(beta, dtype=float),
                                  np.asarray(x, dtype=float))
    b, y = beta.ravel(), x.ravel()
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    r0, r1 = log_inc_gamma_ratio_pair(b, y, log_y, gammaln(b),
                                      gammaln(b + 1.0))
    return r0.reshape(beta.shape), r1.reshape(beta.shape)


def test_inc_gamma_ratio_pair_matches_mpmath_at_both_shapes():
    # the grid of test_inc_gamma_ratio_matches_scalar_routine, widened by
    # shapes around the gammainc limit of 30 and by y in [beta+1, beta+2),
    # where the bumped shape now takes the upper side with its base
    beta = np.concatenate([np.geomspace(0.05, 1000.0, 23),
                           [29.0, 29.5, 30.0, 30.5, 31.0]])[:, None]
    x = np.concatenate([np.broadcast_to(np.geomspace(1e-12, 1e4, 31),
                                        (len(beta), 31)),
                        beta + [1.0, 1.25, 1.5, 1.75, 2.0 - 1e-9]], axis=1)
    r0, r1 = _ratio_pair(beta, x)
    for shape, got in ((beta, r0), (beta + 1.0, r1)):
        with mpmath.workdps(30):
            want = np.vectorize(_mp_log_ratio)(shape, x)
        scale = np.maximum(1.0, np.abs(shape * np.log(x)))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_inc_gamma_ratio_is_the_pairs_first_value():
    # one routing table for the ratio: the single form is the pair's first
    # value bit for bit, over the grid of
    # test_inc_gamma_ratio_pair_matches_mpmath_at_both_shapes, whether it
    # gets arrays, floats or 0-d arrays
    beta = np.concatenate([np.geomspace(0.05, 1000.0, 23),
                           [29.0, 29.5, 30.0, 30.5, 31.0]])[:, None]
    x = np.concatenate([np.broadcast_to(np.geomspace(1e-12, 1e4, 31),
                                        (len(beta), 31)),
                        beta + [1.0, 1.25, 1.5, 1.75, 2.0 - 1e-9]], axis=1)
    want, _ = _ratio_pair(beta, x)
    got = log_inc_gamma_ratio(beta, x)
    assert got.shape == want.shape == (28, 36)
    np.testing.assert_array_equal(got, want)
    for b, y, w in zip(np.broadcast_to(beta, x.shape).ravel(), x.ravel(),
                       want.ravel()):
        for one in (log_inc_gamma_ratio(float(b), float(y)),
                    log_inc_gamma_ratio(np.array(b), np.array(y))):
            assert one.shape == () and float(one) == w, (b, y)


@pytest.mark.parametrize("beta", [0.3, 2.0, 29.0, 29.5, 30.0, 30.5, 31.0,
                                  120.0])
def test_inc_gamma_ratio_pair_route_switches_against_mpmath(beta):
    # each side and route of either shape: y = beta+1 splits the sides,
    # beta+2 is where the bumped shape used to change side, the bumped
    # shape takes gammainc up to 30 and each shape's gammainc falls below
    # 1e-30 near its own floor
    xs = [1e-300, 1e-3, 0.5 * (beta + 1.0), beta + 1.0 - 1e-3, beta + 1.0,
          beta + 1.0 + 1e-3, beta + 1.5, beta + 2.0 - 1e-3,
          beta + 2.0 + 1e-3, 3.0 * beta + 10.0]
    for shape in (beta, beta + 1.0):
        x_floor = (1e-30 * math.gamma(shape + 1.0)) ** (1.0 / shape)
        if x_floor > 0.0:
            xs += [0.5 * x_floor, 2.0 * x_floor]
    r0, r1 = _ratio_pair(beta, np.array(xs))
    for x, g0, g1 in zip(xs, r0, r1):
        for shape, got in ((beta, g0), (beta + 1.0, g1)):
            want = _mp_log_ratio(shape, x)
            assert abs(got - want) <= 5e-14 * max(1.0, abs(want)), (
                shape, x)


def test_inc_gamma_ratio_pair_at_the_ends():
    beta = np.array([0.05, 0.5, 2.0, 29.5, 30.0, 250.0, 1000.0])
    # y = 0: the s-integral of s^(shape-1) is 1/shape
    r0, r1 = _ratio_pair(beta, 0.0)
    np.testing.assert_allclose(r0, -np.log(beta), rtol=1e-15)
    np.testing.assert_allclose(r1, -np.log(beta + 1.0), rtol=1e-15)
    # y = inf, as where lam overflows, with log y from the node: the
    # limit gammaln(shape) - shape log y
    for log_y in (710.0, 1e4):
        r0, r1 = log_inc_gamma_ratio_pair(
            beta, np.full(beta.shape, np.inf), np.full(beta.shape, log_y),
            gammaln(beta), gammaln(beta + 1.0))
        np.testing.assert_allclose(r0, gammaln(beta) - beta * log_y,
                                   rtol=1e-15)
        np.testing.assert_allclose(
            r1, gammaln(beta + 1.0) - (beta + 1.0) * log_y, rtol=1e-15)


def _mp_2f1_log_hp(a, b, c, one_minus_z):
    # 1-z down to 1e-34 needs the working precision to carry z itself
    with mpmath.workdps(80):
        return float(mpmath.log(mpmath.hyp2f1(
            a, b, c, 1 - mpmath.mpf(one_minus_z))))


@pytest.mark.parametrize("one_minus_z", [1e-8, 1e-34])
def test_hyp2f1_log_barely_convergent_at_unit_argument(one_minus_z):
    # c-a-b = 0.057: the hyper-g bounded regime at a = 3.1147, n = 25,
    # p = 23. Between 1-t = 1-z and 1/2 the Euler integrand decays only at
    # rate c-a-b, so the right half must reach far below t = 1/2
    a_hg, n, p = 3.1147, 25, 23
    for a, b, c in [(12.0, 1.0, 13.057),
                    (0.5 * (n - 1), 1.0, 0.5 * (a_hg + p)),
                    (0.5 * (n - 1), 2.0, 0.5 * (a_hg + p) + 1.0)]:
        got = hyp2f1_log(a, b, c, 1.0 - one_minus_z, one_minus_z=one_minus_z)
        want = _mp_2f1_log_hp(a, b, c, one_minus_z)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
