import gc
import hashlib
import pickle
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synchrony.core import TimeSeries
from synchrony.generate import (
    _LEAF,
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
    return replace(ScalarCovSpec(phi11, phi22, phi12, length).coupling_spec,
                   delay=delay)


# spec construction and validation


def test_scalar_spec_rejects_invalid_matrix():
    with pytest.raises(ValueError):
        ScalarCovSpec(1.0, 1.0, 1.5, 100)
    with pytest.raises(ValueError):
        ScalarCovSpec(-1.0, 1.0, 0.0, 100)


@pytest.mark.parametrize("field, value", [
    ("phi12", np.nan),
    ("phi11", np.inf),
    ("phi11", np.nan),
    ("phi22", -np.inf),
    ("length", 100.5),
    ("length", 100.0),
])
def test_scalar_spec_rejects_bad_fields_up_front(field, value):
    """Bad fields are rejected when the spec is made, naming the field,
    not at its first draw."""
    fields = {"phi11": 1.0, "phi22": 1.0, "phi12": 0.5, "length": 100}
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ScalarCovSpec(**fields)


def test_coupling_spec_rejects_a_non_integer_length():
    cov = squared_exp_cov(100)
    with pytest.raises(ValueError, match="^length must be an integer"):
        CouplingSpec(100.0, cov, cov, 0.5 * cov)


def test_coupling_spec_rejects_bad_delay():
    with pytest.raises(ValueError):
        flat_spec(delay=128)
    with pytest.raises(ValueError):
        flat_spec(delay=-1)


@pytest.mark.parametrize("delay", [1.5, 2.0, "1"])
def test_coupling_spec_rejects_a_non_integer_delay(delay):
    # 1.5 used to pass and fail on the first draw, as a TypeError from a slice
    with pytest.raises(ValueError) as info:
        flat_spec(delay=delay)
    assert str(info.value) == f"delay must be an integer, not {delay!r}"


def test_coherence_bound_violation_rejected():
    n = 64
    cxx = np.zeros(n)
    cxx[0] = 1.0
    cxy = np.zeros(n)
    cxy[0] = 1.2  # exceeds sqrt(Sxx*Syy) = 1 in every bin
    spec = CouplingSpec(n, cxx, cxx.copy(), cxy)
    with pytest.raises(ValueError, match="invalid cross-spectrum"):
        spectral_pair_gen(spec, 0)


def test_spec_arrays_are_read_only_copies():
    src = squared_exp_cov(64)
    cov = src.copy()
    spec = CouplingSpec(64, src, src, 0.5 * src)
    for arr in (spec.cxx, spec.cyy, spec.cxy, *spec.mixing):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0
    src *= 2.0  # before the first draw, then after it
    want = CouplingSpec(64, cov, cov, 0.5 * cov)
    for seed in (3, 4):
        got, ref = spectral_pair_gen(spec, seed), spectral_pair_gen(want, seed)
        np.testing.assert_array_equal(got.x.values, ref.x.values)
        np.testing.assert_array_equal(got.y.values, ref.y.values)
        src[:] = 0.0


def test_pickled_spec_is_rebuilt_read_only():
    """A spec comes back from pickle through its constructor: read-only
    arrays, its own mixing cache and the same pairs, also when the cache
    was filled before the round trip (as in a ScalarCovSpec's spec)."""
    cov = squared_exp_cov(64)
    spec = CouplingSpec(64, cov, cov, 0.5 * cov, delay=3)
    scalar = ScalarCovSpec(1.0, 1.0, 0.35, 64)
    want = [spectral_pair_gen(spec, 5), scalar_pair_gen(scalar, 5)]
    spec_copy, scalar_copy = pickle.loads(pickle.dumps((spec, scalar)))
    for s in (spec_copy, scalar_copy.coupling_spec):
        for arr in (s.cxx, s.cyy, s.cxy, *s.mixing):
            assert not arr.flags.writeable
    got = [spectral_pair_gen(spec_copy, 5), scalar_pair_gen(scalar_copy, 5)]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.x.values, w.x.values)
        np.testing.assert_array_equal(g.y.values, w.y.values)


@pytest.mark.parametrize("lag", [1, 3, 63])
def test_a_cross_covariance_at_one_lag_only_is_rejected(lag):
    """E[x_t y_{t+lag}] = 0.6 and nothing else is not even in the lag; the
    mixing used to realise its even part, 0.3 at +lag and 0.3 at -lag."""
    n = 256
    cxx = np.zeros(n)
    cxx[0] = 1.0
    cxy = np.zeros(n)
    cxy[lag] = 0.6
    spec = CouplingSpec(n, cxx, cxx, cxy)
    with pytest.raises(ValueError, match="invalid cross-spectrum.*delay"):
        spectral_pair_gen(spec, 0)
    # the even part is accepted
    cxy[-lag] = 0.6
    spectral_pair_gen(CouplingSpec(n, cxx, cxx, 0.5 * cxy), 0)


@pytest.mark.parametrize("name", ["cxx", "cyy"])
def test_an_auto_covariance_that_is_not_even_is_rejected(name):
    """cxx[3] = 0.4 with cxx[-3] = 0 used to be realised as its even part,
    E[x_t x_{t+3}] = 0.2, without a word."""
    n = 256
    cov = {key: np.zeros(n) for key in ("cxx", "cyy", "cxy")}
    cov["cxx"][0] = cov["cyy"][0] = 1.0
    cov[name][3] = 0.4
    spec = CouplingSpec(n, **cov)
    with pytest.raises(ValueError, match=f"^invalid spectrum: {name} is not even in the lag"):
        spectral_pair_gen(spec, 0)
    cov[name][-3] = 0.4
    spectral_pair_gen(CouplingSpec(n, **cov), 0)


def test_even_cross_covariances_are_accepted_at_every_length():
    for length in (2, 3, 97, 100, 1000, 9000):
        cov = squared_exp_cov(length)
        for delay in (0, 1):
            spec = CouplingSpec(length, cov, cov, 0.9 * cov, delay=delay)
            assert len(spec.mixing) == 4


def test_invalid_spec_raises_on_every_draw():
    n = 64
    cxx = np.zeros(n)
    cxx[0] = 1.0
    bad_cross = CouplingSpec(n, cxx, cxx, 1.2 * cxx)
    bad_auto = CouplingSpec(n, -cxx, cxx, 0.0 * cxx)
    for spec, match in ((bad_cross, "invalid cross-spectrum"),
                        (bad_auto, "negative spectral density")):
        for seed in range(3):
            with pytest.raises(ValueError, match=match):
                spectral_pair_gen(spec, seed)


# spectral generator


def reference_pair(spec, seed):
    """The per-call form of spectral_pair_gen: the spectra, their checks and
    the phase recomputed on every draw, and one FFT and one inverse FFT per
    driver; without trends."""
    sxx = np.clip(np.fft.fft(spec.cxx).real, 0.0, None)
    syy = np.clip(np.fft.fft(spec.cyy).real, 0.0, None)
    sxy = np.fft.fft(spec.cxy).real
    denom = np.sqrt(sxx * syy)
    ratio = np.divide(sxy, denom, out=np.zeros(spec.length), where=denom > 0)
    alpha = np.arccos(np.clip(ratio, -1.0, 1.0))
    rng = np.random.default_rng(seed)
    fu = np.fft.fft(rng.standard_normal(spec.length))
    fv = np.fft.fft(rng.standard_normal(spec.length))
    xr = np.fft.ifft(np.sqrt(sxx) * (np.cos(alpha) * fu + np.sin(alpha) * fv)).real
    yr = np.fft.ifft(np.sqrt(syy) * fu).real
    return xr[spec.delay:], yr[: spec.length - spec.delay]


@pytest.mark.parametrize("length", [2, 3, 7, 97, 100, 1009, 4096])
def test_cached_stacked_draw_matches_per_call_form(length):
    base = squared_exp_cov(length)
    for spec in (preset_spec("shifted", length),
                 CouplingSpec(length, base, base, -0.4 * base),
                 flat_spec(phi12=0.7, length=length)):
        for seed in range(3):
            got = spectral_pair_gen(spec, seed)
            x, y = reference_pair(spec, seed)
            np.testing.assert_array_equal(got.x.values, x)
            np.testing.assert_array_equal(got.y.values, y)


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


def _cholesky_pair(spec, seed):
    """A white pair with ``spec``'s covariance, mixing the two drivers
    directly: the textbook route, against which the spectral one is held."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(spec.length)
    v = rng.standard_normal(spec.length)
    x = np.sqrt(spec.phi11) * u
    resid = spec.phi22 - spec.phi12**2 / spec.phi11
    y = (spec.phi12 / np.sqrt(spec.phi11)) * u + np.sqrt(max(resid, 0.0)) * v
    return x, y


def test_cholesky_route_agrees_statistically():
    n = 2 * 10**5
    p = scalar_pair_gen(ScalarCovSpec(1, 1, 0.5, n), 7)
    a = (p.x.values, p.y.values)
    b = _cholesky_pair(ScalarCovSpec(1, 1, 0.5, n), 8)
    tol = 4.0 / np.sqrt(n)
    for x, y in (a, b):
        assert abs(np.mean(x * y) - 0.5) < tol
        assert abs(np.var(x) - 1) < tol
        assert abs(np.var(y) - 1) < tol


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
    xs = [TimeSeries(rng.standard_normal(500)) for _ in range(10)]
    got = empirical_cross_cov(xs, xs)
    pooled = np.concatenate([x.values for x in xs])
    np.testing.assert_allclose(got, np.var(pooled), rtol=1e-12)


def test_cross_cov_alternating_example():
    x = [TimeSeries([1.0, -1.0, 1.0, -1.0])]
    y = [TimeSeries([-1.0, 1.0, -1.0, 1.0])]
    assert empirical_cross_cov(x, y) == pytest.approx(-1.0)


def test_cross_cov_independent_noise_bound():
    rng = np.random.default_rng(3)
    xs = [TimeSeries(rng.standard_normal(10**5))]
    ys = [TimeSeries(rng.standard_normal(10**5))]
    assert abs(empirical_cross_cov(xs, ys)) < 3.0 / np.sqrt(10**5)


def _five_array_cross_cov(xs, ys):
    """The estimator as first written, holding five (N, T) arrays; its
    float is the one ``empirical_cross_cov`` must return."""
    xmat = np.stack([s.values for s in xs])
    ymat = np.stack([s.values for s in ys])
    xmat = xmat - xmat.mean()
    ymat = ymat - ymat.mean()
    return float((xmat * ymat).mean())


def _offset_ensemble(n, length, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, length)) + 0.3
    y = 0.6 * x + rng.standard_normal((n, length)) - 1.7
    return [TimeSeries(r) for r in x], [TimeSeries(r) for r in y]


@pytest.mark.parametrize("length", [2, 7, 1000])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 500])
def test_cross_cov_keeps_the_five_array_bits(n, length):
    xs, ys = _offset_ensemble(n, length, seed=n * 1000 + length)
    assert empirical_cross_cov(xs, ys) == _five_array_cross_cov(xs, ys)


# (N, T) with N * T below 8, at _LEAF and _LEAF ± 8, and over several
# levels of the tree above _LEAF
_TREE_EDGE_SHAPES = [
    (1, 1), (1, 7), (7, 1), (2, 3),
    (8, _LEAF // 8), (8, _LEAF // 8 - 1), (8, _LEAF // 8 + 1),
    (_LEAF, 1), (1, _LEAF - 8), (1, _LEAF + 8), (3, _LEAF + 5), (5, 4 * _LEAF // 5 + 3),
]


def _tree_ensemble(n, length, kind, seed):
    """x and y series of one kind: offset noise; noise whose magnitudes span
    2^-30..2^30, so that most other summation orders round differently; x
    constant ±0 against a y ramp, so the centred products are ±0 with the
    sign of y - my; or two constants, whose centred rows are exact zeros."""
    rng = np.random.default_rng(seed)
    if kind == "noise":
        x = rng.standard_normal((n, length)) + 0.3
        y = 0.6 * x + rng.standard_normal((n, length)) - 1.7
    elif kind == "spread":
        x, y = (rng.standard_normal((n, length)) * 2.0 ** rng.integers(-30, 31, (n, length))
                for _ in range(2))
    elif kind in ("zero x", "negative zero x"):
        x = np.full((n, length), 0.0 if kind == "zero x" else -0.0)
        y = np.arange(n * length, dtype=float).reshape(n, length) - rng.integers(n * length)
    else:
        x, y = np.full((n, length), 2.0), np.full((n, length), -3.0)
    return [TimeSeries(r) for r in x], [TimeSeries(r) for r in y]


@pytest.mark.parametrize("kind", ["noise", "spread", "zero x", "negative zero x", "constants"])
@given(
    shape=st.one_of(
        st.sampled_from(_TREE_EDGE_SHAPES),
        st.tuples(st.integers(1, 64), st.integers(1, 2048)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_cov_has_the_bits_of_the_stacked_mean(kind, shape, seed):
    n, length = shape
    xs, ys = _tree_ensemble(n, length, kind, seed)
    got, want = empirical_cross_cov(xs, ys), _five_array_cross_cov(xs, ys)
    assert got.hex() == want.hex(), (
        f"N={n}, T={length} ({kind}): {got.hex()} against {want.hex()} from mean "
        "over the stacked arrays. empirical_cross_cov assumes NumPy's pairwise "
        "reduce tree (a node of more than 128 elements splits at half its size "
        "rounded down to a multiple of 8); this NumPy sums another way"
    )


@pytest.mark.parametrize("n", [500, 4000])
def test_cross_cov_memory_does_not_grow_with_the_ensemble(n):
    """At T = 1000 the traced peak is two _LEAF float64 scratch buffers and
    a small slack, whatever N; one stacked (N, T) array is 4 MB at N = 500."""
    length = 1000
    rng = np.random.default_rng(n)
    xs = [TimeSeries(rng.standard_normal(length) + 0.3) for _ in range(n)]
    ys = [TimeSeries(rng.standard_normal(length) - 1.7) for _ in range(n)]
    scratch, slack = 2 * _LEAF * 8, 64 * 1024
    tracemalloc.start()
    try:
        empirical_cross_cov(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= scratch + slack


def test_cross_cov_leaves_no_reference_to_the_ensemble():
    """With the cyclic collector off, the series are freed as soon as the
    caller drops them: a reference cycle would keep the whole ensemble alive
    until the next collection."""
    xs, ys = _offset_ensemble(3, 4000, seed=9)
    probe = weakref.ref(xs[0])
    gc.disable()
    try:
        empirical_cross_cov(xs, ys)
        del xs, ys
        assert probe() is None
    finally:
        gc.enable()


def test_cross_cov_rejects_mismatched_lengths():
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
            cov = np.mean(members[:, a] * members[:, b])
            assert abs(cov - 0.6) < 4.0 / np.sqrt(10**5)


# pinned bytes: SHA-256 of the generator's output, as the per-call,
# per-driver form gave it; any change to the arithmetic shows here


def pairs_digest(pairs) -> str:
    h = hashlib.sha256()
    for p in pairs:
        h.update(np.float64(p.coupling).tobytes())
        h.update(p.x.values.tobytes())
        h.update(p.y.values.tobytes())
    return h.hexdigest()


PRESET_DIGESTS = {
    ("stationary", 100): "a1b7c3edf0b11f0d47fb5750d053912c062e93445bf40520fd3f4701b90ac293",
    ("stationary", 97): "466278d74eafa782552ea5307420a6bd0d2e961f98ade48360006185d58c1e25",
    ("shifted", 100): "57f5926c31dee04d755e2125a91a3a69cf127a2da2405edf4cdc2872c1061d39",
    ("shifted", 97): "7bebb16c964290a22fbd704b03722f70052b36cbdd105d16185ff624eebe536d",
    ("trended", 100): "52f81a6652f37817cb510353289c61ee5bc5e5bfc76a0444da69d533b29266c0",
    ("trended", 97): "0131c13746323a063301cebeb87513ad6eebb0be82af4c501cac6d9b1645ef11",
}


@pytest.mark.parametrize("kind, length", sorted(PRESET_DIGESTS))
def test_preset_pairs_keep_their_bytes(kind, length):
    pairs = [preset_pairs(kind, np.random.SeedSequence([7, i]), length)
             for i in range(3)]
    assert pairs_digest(pairs) == PRESET_DIGESTS[kind, length]


def test_reused_scalar_spec_keeps_its_bytes():
    seeds = [np.random.SeedSequence([9, i]) for i in range(24)]
    spec = ScalarCovSpec(1.0, 1.0, 0.35, 97)
    reused = pairs_digest([scalar_pair_gen(spec, s) for s in seeds])
    fresh = pairs_digest([scalar_pair_gen(ScalarCovSpec(1.0, 1.0, 0.35, 97), s)
                          for s in seeds])
    assert reused == fresh == (
        "b06546c4d78e10904a86a6dc15dfce0c66476eabe0d65f5bfe9591cd9c5b7b43")


def test_many_draws_leave_the_mixing_untouched():
    """Each pair mixes in its own buffers: after 100 draws the spec's
    mixing arrays hold their first bytes and are still read-only."""
    cov = squared_exp_cov(97)
    spec = CouplingSpec(97, cov, cov, 0.5 * cov)
    scalar = ScalarCovSpec(1.0, 1.0, 0.35, 97)
    for draw, mixing in ((lambda s: spectral_pair_gen(spec, s), spec.mixing),
                         (lambda s: scalar_pair_gen(scalar, s),
                          scalar.coupling_spec.mixing)):
        first = [arr.copy() for arr in mixing]
        for i in range(100):
            draw(np.random.SeedSequence([13, i]))
        for arr, want in zip(mixing, first):
            assert arr.tobytes() == want.tobytes()
            assert not arr.flags.writeable


def test_gen_dataset_keeps_its_bytes():
    assert pairs_digest(gen_dataset(6, 64, seed=3)) == (
        "3a3daa856c4af457fbaf52f4276d2267e1a63ed608866d16b7e2056e515d0501")
