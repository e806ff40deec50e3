from dataclasses import replace

import numpy as np
import pytest

from synchrony.generate import (
    CouplingSpec,
    ScalarCovSpec,
    empirical_cross_cov,
    gen_dataset,
    latent_driver_group,
    preset_pairs,
    preset_spec,
    scalar_pair_gen,
    spectral_pair_gen,
    squared_exp_cov,
)


def flat_spec(phi11=1.0, phi22=1.0, phi12=0.0, length=128, delay=0):
    return replace(ScalarCovSpec(phi11, phi22, phi12, length).as_coupling_spec(),
                   delay=delay)


# spec construction and validation


def test_scalar_spec_rejects_invalid_matrix():
    with pytest.raises(ValueError):
        ScalarCovSpec(1.0, 1.0, 1.5, 100)
    with pytest.raises(ValueError):
        ScalarCovSpec(-1.0, 1.0, 0.0, 100)


def test_coupling_spec_rejects_bad_delay():
    with pytest.raises(ValueError):
        flat_spec(delay=128)
    with pytest.raises(ValueError):
        flat_spec(delay=-1)


def test_coherence_bound_violation_rejected():
    n = 64
    cxx = np.zeros(n)
    cxx[0] = 1.0
    cxy = np.zeros(n)
    cxy[0] = 1.2  # exceeds sqrt(Sxx*Syy) = 1 in every bin
    spec = CouplingSpec(n, cxx, cxx.copy(), cxy)
    with pytest.raises(ValueError, match="invalid cross-spectrum"):
        spectral_pair_gen(spec, 0)


# spectral generator


def test_zero_cross_cov_ensemble():
    spec = preset_spec("stationary", length=64)
    zero = CouplingSpec(64, spec.cxx, spec.cyy, np.zeros(64))
    m = 5000
    xs, ys = [], []
    for i in range(m):
        p = spectral_pair_gen(zero, np.random.SeedSequence([11, i]))
        xs.append(p.x)
        ys.append(p.y)
    # per-pair lag-0 estimates give the Monte-Carlo standard error
    per_pair = np.array(
        [np.mean(x.values * y.values) for x, y in zip(xs, ys)]
    )
    se = per_pair.std() / np.sqrt(m)
    assert abs(empirical_cross_cov(xs, ys)) < 3 * se


def test_no_delay_full_length():
    p = spectral_pair_gen(flat_spec(phi12=0.5), 3)
    assert len(p.x) == len(p.y) == 128


def test_perfect_coherence_shares_driver():
    base = squared_exp_cov(100)
    spec = CouplingSpec(100, base, base.copy(), base.copy())
    p = spectral_pair_gen(spec, 5)
    np.testing.assert_allclose(p.x.values, p.y.values, atol=1e-10)


def test_delay_is_pure_trim():
    spec0 = flat_spec(phi12=0.4)
    spec2 = flat_spec(phi12=0.4, delay=2)
    p0 = spectral_pair_gen(spec0, 17)
    p2 = spectral_pair_gen(spec2, 17)
    np.testing.assert_array_equal(p2.x.values, p0.x.values[2:])
    np.testing.assert_array_equal(p2.y.values, p0.y.values[:-2])


def test_determinism_bit_identical():
    spec = preset_spec("stationary", 64)
    a = spectral_pair_gen(spec, 123)
    b = spectral_pair_gen(spec, 123)
    np.testing.assert_array_equal(a.x.values, b.x.values)
    np.testing.assert_array_equal(a.y.values, b.y.values)


# scalar generator


def test_identity_covariance():
    p = scalar_pair_gen(ScalarCovSpec(1, 1, 0.0, 10**5), 0)
    tol = 3.0 / np.sqrt(10**5)
    assert abs(np.mean(p.x.values * p.y.values)) < tol
    assert abs(np.var(p.x.values) - 1) < tol
    assert abs(np.var(p.y.values) - 1) < tol


def test_perfect_correlation_equal_series():
    p = scalar_pair_gen(ScalarCovSpec(1, 1, 1.0, 1000), 4)
    np.testing.assert_allclose(p.x.values, p.y.values, atol=1e-12)


def test_prescribed_covariance_recovered():
    p = scalar_pair_gen(ScalarCovSpec(1, 1, 0.6, 10**5), 42)
    cov = np.mean(p.x.values * p.y.values)
    assert 0.59 <= cov <= 0.61


def test_cholesky_route_agrees_statistically():
    n = 2 * 10**5
    a = scalar_pair_gen(ScalarCovSpec(1, 1, 0.5, n), 7, method="spectral")
    b = scalar_pair_gen(ScalarCovSpec(1, 1, 0.5, n), 8, method="cholesky")
    tol = 4.0 / np.sqrt(n)
    for p in (a, b):
        assert abs(np.mean(p.x.values * p.y.values) - 0.5) < tol
        assert abs(np.var(p.x.values) - 1) < tol
        assert abs(np.var(p.y.values) - 1) < tol


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        scalar_pair_gen(ScalarCovSpec(1, 1, 0.5, 100), 0, method="magic")


# dataset generation


def test_gen_dataset_counts_and_labels():
    pairs = gen_dataset(100, 1000, (0.1, 0.9), seed=5)
    assert len(pairs) == 100
    for p in pairs:
        assert 0.1 <= p.coupling <= 0.9
        assert len(p.x) == 1000


def test_gen_dataset_singleton():
    assert len(gen_dataset(1, 100, (0.1, 0.9), seed=0)) == 1


def test_gen_dataset_deterministic():
    a = gen_dataset(5, 200, (0.1, 0.9), seed=21)
    b = gen_dataset(5, 200, (0.1, 0.9), seed=21)
    for pa, pb in zip(a, b):
        assert pa.coupling == pb.coupling
        np.testing.assert_array_equal(pa.x.values, pb.x.values)
        np.testing.assert_array_equal(pa.y.values, pb.y.values)


def test_gen_dataset_rejects_empty_range():
    with pytest.raises(ValueError):
        gen_dataset(10, 100, (0.9, 0.1), seed=0)


# empirical cross-covariance oracle


def test_cross_cov_self_is_variance():
    rng = np.random.default_rng(0)
    from synchrony.core import TimeSeries

    xs = [TimeSeries(rng.standard_normal(500)) for _ in range(10)]
    got = empirical_cross_cov(xs, xs)
    pooled = np.concatenate([x.values for x in xs])
    np.testing.assert_allclose(got, np.var(pooled), rtol=1e-12)


def test_cross_cov_alternating_example():
    from synchrony.core import TimeSeries

    x = [TimeSeries([1.0, -1.0, 1.0, -1.0])]
    y = [TimeSeries([-1.0, 1.0, -1.0, 1.0])]
    assert empirical_cross_cov(x, y) == pytest.approx(-1.0)


def test_cross_cov_independent_noise_bound():
    from synchrony.core import TimeSeries

    rng = np.random.default_rng(3)
    xs = [TimeSeries(rng.standard_normal(10**5))]
    ys = [TimeSeries(rng.standard_normal(10**5))]
    assert abs(empirical_cross_cov(xs, ys)) < 3.0 / np.sqrt(10**5)


def test_cross_cov_rejects_mismatched_lengths():
    from synchrony.core import TimeSeries

    with pytest.raises(ValueError):
        empirical_cross_cov([TimeSeries([1, 2])], [TimeSeries([1, 2, 3])])


# presets


def test_preset_shifted_length():
    p = preset_pairs("shifted", 0, length=100)
    assert len(p.x) == len(p.y) == 99


def test_preset_stationary_length():
    p = preset_pairs("stationary", 0, length=100)
    assert len(p.x) == len(p.y) == 100


def test_preset_unknown_kind():
    with pytest.raises(ValueError):
        preset_pairs("wobbly", 0)


def test_preset_trended_detrends_to_stationary():
    from synchrony.core import TimeSeries
    from synchrony.generate import PRESET_TREND_OMEGA, PRESET_TREND_SLOPE

    m = 600
    xs_t, ys_t, xs_s, ys_s = [], [], [], []
    for i in range(m):
        pt = preset_pairs("trended", np.random.SeedSequence([5, i]))
        ps = preset_pairs("stationary", np.random.SeedSequence([5, i]))
        t = np.arange(1, len(pt.x) + 1)
        xs_t.append(TimeSeries(pt.x.values - np.sin(PRESET_TREND_OMEGA * t)))
        ys_t.append(TimeSeries(pt.y.values - PRESET_TREND_SLOPE * t))
        xs_s.append(ps.x)
        ys_s.append(ps.y)
    # same seeds: de-trending must recover the stationary pair exactly
    np.testing.assert_allclose(xs_t[0].values, xs_s[0].values, atol=1e-9)
    cov_t = empirical_cross_cov(xs_t, ys_t)
    cov_s = empirical_cross_cov(xs_s, ys_s)
    assert abs(cov_t - cov_s) < 0.02


# latent-driver groups


def test_latent_driver_group_statistics():
    members = latent_driver_group(3, 10**5, 0.6, 12)
    for a in range(3):
        for b in range(a + 1, 3):
            cov = np.mean(members[a].values * members[b].values)
            assert abs(cov - 0.6) < 4.0 / np.sqrt(10**5)
