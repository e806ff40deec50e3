"""Coupled stochastic pair generation with prescribed cross-covariance.

A pair (x, y) is synthesized in the frequency domain: the DFTs of the
auto/cross-covariance sequences give spectral densities, two white Gaussian
drivers are mixed per frequency bin through a phase angle chosen so the
cross-spectrum of the mixture equals the prescribed one, and the inverse
DFT returns the time-domain pair. The mixing realises real cross-spectra,
so the prescribed cross-covariance must be even in the lag; a spec whose
cross-spectrum is complex is rejected, and ``delay`` lags a pair.
Optional trend functions and an integer delay are applied afterwards.

DFT convention: unnormalized forward, 1/len inverse (numpy's default).
The sqrt-spectrum scaling below depends on this convention; with it, a
white driver u satisfies E[|fft(u)_q|^2] = len and the generated pair
realizes the prescribed covariance sequences circularly.

The output is the REAL PART of the inverse DFT, which preserves
Gaussianity and the prescribed second-order statistics.

Everything that depends only on the spec is computed once per spec object:
``CouplingSpec.mixing`` validates the spectra and keeps the mixing
coefficients (sqrt(S_xx), cos alpha, sin alpha, sqrt(S_yy)) as read-only
arrays on the spec, and ``ScalarCovSpec.coupling_spec`` keeps the
equivalent CouplingSpec, so drawing many pairs from one spec factors its
spectrum once (as in circulant embedding, Dietrich & Newsam 1997). The
spec's covariance arrays are read-only copies, so the cache cannot go
stale. Per pair, the two drivers are drawn as one (2, len) array and go
through one forward and one inverse FFT along the last axis, and the
mixing is done in place in the (2, len) buffer that goes to the inverse
FFT, overwriting the pair's own FFT of its second driver, so a pair
allocates no temporary it does not keep. The bytes are those of the
per-call, per-driver form: the generator fills the (2, len) draw in the
order of two consecutive len-draws, each FFT row is computed as a
separate transform, and every product and sum keeps its operand order.

The Monte-Carlo oracle ``empirical_cross_cov`` holds no (N, T) array of
the ensemble. It sums over the row-major flat index of the stacked series
in the order NumPy's pairwise reduce adds one contiguous array (Higham
1993), copying each node of at most ``_LEAF`` elements into a scratch
buffer for one reduce, so its float is that of ``mean`` over the stacked
arrays.

Synthetic couplings, of pairs and of latent-driver groups, are drawn from
the one prior U[COUPLING_RANGE]; ``gen_dataset`` alone takes another range.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import TimeSeries, _as_readonly_f64

TrendFn = Callable[[int, float], float]

SPECTRUM_CLAMP_TOL = 1e-9
COHERENCE_TOL = 1e-9
# largest |Im fft(c)| accepted for c in cxx, cyy, cxy, relative to sum(|c|),
# which bounds |fft(c)|
CROSS_SPECTRUM_IMAG_TOL = 1e-9
COUPLING_RANGE = (0.1, 0.9)  # (lo, hi) of the uniform coupling prior
_LEAF = 2**13  # elements in the largest sum node of empirical_cross_cov

# Fig.-2-style preset constants
PRESET_LENGTH_SCALE = 5.0
PRESET_COHERENCE = 0.9
PRESET_TREND_OMEGA = 2.0 * np.pi / 25.0
PRESET_TREND_SLOPE = 0.05


@dataclass(frozen=True)
class CouplingSpec:
    """Prescription for one coupled pair.

    ``cxx``, ``cyy``, ``cxy`` are covariance sequences of length ``length``
    (circular convention), kept as read-only float64 copies. ``f1``/``f2``
    are pointwise trend maps ``(t, value) -> value`` applied last (None
    means identity). ``delay`` shifts y behind x by trimming.
    """

    length: int
    cxx: np.ndarray
    cyy: np.ndarray
    cxy: np.ndarray
    f1: TrendFn | None = None
    f2: TrendFn | None = None
    delay: int = 0

    def __post_init__(self):
        if not isinstance(self.length, numbers.Integral):
            raise ValueError("length must be an integer")
        if self.length < 2:
            raise ValueError("length must be >= 2")
        for name in ("cxx", "cyy", "cxy"):
            arr = _as_readonly_f64(getattr(self, name))
            if arr.shape != (self.length,):
                raise ValueError(f"{name} must have length {self.length}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        if not isinstance(self.delay, numbers.Integral):
            raise ValueError(f"delay must be an integer, not {self.delay!r}")
        if not (0 <= self.delay < self.length):
            raise ValueError("delay must satisfy 0 <= delay < length")

    def __reduce__(self):
        # pickle keeps neither the write flags nor a cache tied to them, so
        # a copy is rebuilt through __post_init__ and computes its own mixing
        return (CouplingSpec, (self.length, self.cxx, self.cyy, self.cxy,
                               self.f1, self.f2, self.delay))

    @cached_property
    def mixing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only per-bin mixing (sqrt(S_xx), cos alpha, sin alpha,
        sqrt(S_yy)) of the validated spectral densities; computed on first
        use and kept on the spec.

        Small negative auto-spectrum values (floating noise on valid
        covariance sequences) are clamped to zero; anything beyond the
        tolerance rejects the spec, as does a cross-spectrum exceeding
        the coherence bound |S_xy| <= sqrt(S_xx * S_yy). The mixing
        realises real spectra only, so a covariance sequence that is not
        even in the lag (c[k] != c[-k]), whose spectrum has an imaginary
        part beyond ``CROSS_SPECTRUM_IMAG_TOL``, is rejected too; ``delay``
        lags a pair. A rejected spec caches nothing, so every use raises
        again. The phase alpha is arccos(S_xy / sqrt(S_xx * S_yy)), and 0
        where that bound is 0.
        """
        sxx, syy, sxy = (self._real_spectrum(name) for name in ("cxx", "cyy", "cxy"))
        if np.min(sxx) < -SPECTRUM_CLAMP_TOL or np.min(syy) < -SPECTRUM_CLAMP_TOL:
            raise ValueError("invalid spectrum: negative spectral density")
        sxx = np.clip(sxx, 0.0, None)
        syy = np.clip(syy, 0.0, None)
        bound = np.sqrt(sxx * syy)
        if np.any(np.abs(sxy) > bound + COHERENCE_TOL):
            raise ValueError("invalid cross-spectrum: coherence bound violated")
        ratio = np.divide(sxy, bound, out=np.zeros(self.length), where=bound > 0)
        alpha = np.arccos(np.clip(ratio, -1.0, 1.0))
        mix = (np.sqrt(sxx), np.cos(alpha), np.sin(alpha), np.sqrt(syy))
        for arr in mix:
            arr.setflags(write=False)
        return mix

    def _real_spectrum(self, name: str) -> np.ndarray:
        """fft of the covariance sequence ``name``, which must be even in
        the lag, so that its spectrum is real."""
        c = getattr(self, name)
        f = np.fft.fft(c)
        if np.max(np.abs(f.imag)) > CROSS_SPECTRUM_IMAG_TOL * np.sum(np.abs(c)):
            if name == "cxy":
                raise ValueError("invalid cross-spectrum: cxy is not even in the lag, "
                                 "so its spectrum is complex; lag y behind x with delay")
            raise ValueError(f"invalid spectrum: {name} is not even in the lag, "
                             "so its spectrum is complex")
        return f.real


@dataclass(frozen=True)
class ScalarCovSpec:
    """White-in-time bivariate coupling from a 2x2 covariance matrix."""

    phi11: float
    phi22: float
    phi12: float
    length: int

    def __post_init__(self):
        for name in ("phi11", "phi22", "phi12"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.length, numbers.Integral):
            raise ValueError("length must be an integer")
        if self.phi11 <= 0 or self.phi22 <= 0:
            raise ValueError("phi11 and phi22 must be positive")
        if abs(self.phi12) > np.sqrt(self.phi11 * self.phi22) + COHERENCE_TOL:
            raise ValueError("invalid covariance matrix: |phi12| > sqrt(phi11*phi22)")
        if self.length < 2:
            raise ValueError("length must be >= 2")

    @cached_property
    def coupling_spec(self) -> CouplingSpec:
        """Equivalent CouplingSpec, kept on the spec: lag-0-only covariances
        give flat spectra."""
        imp = np.zeros(self.length)
        cxx, cyy, cxy = imp.copy(), imp.copy(), imp.copy()
        cxx[0], cyy[0], cxy[0] = self.phi11, self.phi22, self.phi12
        return CouplingSpec(self.length, cxx, cyy, cxy)


@dataclass(frozen=True)
class GeneratedPair:
    """One generated (x, y) pair plus the coupling value it was built with."""

    x: TimeSeries
    y: TimeSeries
    coupling: float | None = None

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


def _apply_trend(f: TrendFn | None, values: np.ndarray) -> np.ndarray:
    if f is None:
        return values
    return np.array([f(t, v) for t, v in enumerate(values, start=1)])


def spectral_pair_gen(
    spec: CouplingSpec,
    seed,
    coupling: float | None = None,
) -> GeneratedPair:
    """Generate one pair from a CouplingSpec. Deterministic given seed."""
    sqrt_sxx, cos_alpha, sin_alpha, sqrt_syy = spec.mixing
    n = spec.length

    rng = np.random.default_rng(seed)
    fu, fv = np.fft.fft(rng.standard_normal((2, n)))

    mixed = np.empty((2, n), dtype=np.complex128)
    np.multiply(cos_alpha, fu, out=mixed[0])
    np.multiply(sin_alpha, fv, out=fv)
    np.add(mixed[0], fv, out=mixed[0])
    np.multiply(sqrt_sxx, mixed[0], out=mixed[0])
    np.multiply(sqrt_syy, fu, out=mixed[1])
    xr, yr = np.fft.ifft(mixed).real

    d = spec.delay
    xr = xr[d:]
    yr = yr[: n - d]
    xr = _apply_trend(spec.f1, xr)
    yr = _apply_trend(spec.f2, yr)
    return GeneratedPair(TimeSeries(xr), TimeSeries(yr), coupling=coupling)


def scalar_pair_gen(spec: ScalarCovSpec, seed) -> GeneratedPair:
    """Generate a white-in-time pair with the given 2x2 covariance, through
    spectral_pair_gen with flat spectra."""
    return spectral_pair_gen(spec.coupling_spec, seed, coupling=spec.phi12)


def pair_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Independent per-pair seeds; parallel and serial runs agree."""
    return np.random.SeedSequence(seed).spawn(n)


def gen_dataset(
    n_pairs: int,
    length: int,
    phi12_range: tuple[float, float] = COUPLING_RANGE,
    seed: int = 0,
) -> list[GeneratedPair]:
    """Generate n_pairs labeled unit-variance pairs with couplings drawn
    uniformly from ``phi12_range``, which must lie within [-1, 1].

    Each pair derives its own child seed from (seed, index), so the result
    is bit-identical across runs and across serial/parallel execution.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    lo, hi = phi12_range
    if not (lo < hi):
        raise ValueError("empty phi12 range")
    if lo < -1.0 or hi > 1.0:
        raise ValueError("phi12 range outside covariance validity bound")
    children = np.random.SeedSequence(seed).spawn(n_pairs + 1)
    labels = np.random.default_rng(children[0]).uniform(lo, hi, size=n_pairs)
    seeds = children[1:]
    return [
        scalar_pair_gen(ScalarCovSpec(1.0, 1.0, lab, length), s)
        for lab, s in zip(labels, seeds)
    ]


# recursive at module level: a recursive closure is a reference cycle, which
# would keep the ensemble its leaf reads alive until the cyclic collector runs
def _tree_sum(n: int, leaf: Callable[[int, int], np.ndarray], lo: int = 0) -> np.float64:
    """The float ``np.add.reduce`` returns for a contiguous float64 array of
    n elements, of which ``leaf(i, j)`` gives elements i..j-1 as one
    contiguous array; ``lo`` offsets the range.

    NumPy sums such an array over a fixed pairwise tree: a node of more than
    128 elements splits at half its size rounded down to a multiple of 8, and
    a node is summed alike alone or inside a larger array. Each node of at
    most ``_LEAF`` elements is summed by one reduce over a copy. A reduce
    returns 0.0 plus the node's sum, which differs from the sum only where
    that is -0.0; so this tree's nodes are never -0.0 and differ from NumPy's
    only in the sign of a zero, which the 0.0 NumPy adds at the root clears.
    """
    if n <= _LEAF:
        return np.add.reduce(leaf(lo, lo + n))
    half = n // 2
    half -= half % 8
    return _tree_sum(half, leaf, lo) + _tree_sum(n - half, leaf, lo + half)


def _gather(series: Sequence[TimeSeries], lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Elements lo..hi-1 of the row-major (N, T) stack of ``series``, copied
    into the front of ``out``."""
    length = len(series[0])
    first, last = lo // length, (hi - 1) // length
    rows = [s.values for s in series[first:last + 1]]
    rows[-1] = rows[-1][: hi - last * length]
    rows[0] = rows[0][lo - first * length:]
    return np.concatenate(rows, out=out[: hi - lo])


def empirical_cross_cov(xs: Sequence[TimeSeries], ys: Sequence[TimeSeries]) -> float:
    """Ensemble-averaged lag-0 cross-covariance estimate.

    Means are removed globally over the whole ensemble (not per pair), so
    the estimator is unbiased up to O(1/(n_pairs * length)) and usable as
    a Monte-Carlo oracle for the generator.

    It holds no (N, T) array, only two scratch buffers of at most ``_LEAF``
    elements. Three passes run over the row-major flat index of the
    ensemble: the x mean, the y mean, and the mean of the centred product
    (x - mx) * (y - my). Each pass sums by ``_tree_sum``, which follows
    NumPy's pairwise tree over nodes of at most ``_LEAF`` elements, so the
    result has the bits of ``mean`` over the stacked (N, T) arrays.
    """
    if len(xs) != len(ys) or len(xs) == 0:
        raise ValueError("need equal non-zero numbers of x and y series")
    lengths = {len(s) for s in xs} | {len(s) for s in ys}
    if len(lengths) != 1:
        raise ValueError("mismatched lengths")
    n = len(xs) * lengths.pop()
    xbuf, ybuf = np.empty(min(n, _LEAF)), np.empty(min(n, _LEAF))
    mx = _tree_sum(n, lambda lo, hi: _gather(xs, lo, hi, xbuf)) / n
    my = _tree_sum(n, lambda lo, hi: _gather(ys, lo, hi, xbuf)) / n

    def centred_product(lo: int, hi: int) -> np.ndarray:
        xc = _gather(xs, lo, hi, xbuf)
        xc -= mx
        yc = _gather(ys, lo, hi, ybuf)
        yc -= my
        return np.multiply(xc, yc, out=xc)

    return float(_tree_sum(n, centred_product) / n)


def squared_exp_cov(length: int) -> np.ndarray:
    """Circular squared-exponential covariance sequence of length scale
    ``PRESET_LENGTH_SCALE`` (near unit variance).

    The wrapped kernel can have slightly negative spectral bins at short
    lengths, so it is projected onto the valid cone: negative bins are
    clamped to zero and the sequence rebuilt.
    """
    k = np.arange(length)
    dist = np.minimum(k, length - k)
    cov = np.exp(-(dist**2) / (2.0 * PRESET_LENGTH_SCALE**2))
    spectrum = np.clip(np.fft.fft(cov).real, 0.0, None)
    return np.fft.ifft(spectrum).real


# each demo preset's CouplingSpec fields beyond its squared-exponential
# spectra and PRESET_COHERENCE
PRESETS = {
    "stationary": {},
    "shifted": {"delay": 1},
    "trended": {"f1": lambda t, x: x + np.sin(PRESET_TREND_OMEGA * t),
                "f2": lambda t, x: x + PRESET_TREND_SLOPE * t},
}


def preset_spec(kind: str, length: int = 100) -> CouplingSpec:
    """CouplingSpec behind the named demo preset."""
    if kind not in PRESETS:
        raise ValueError(f"unknown preset kind: {kind!r}")
    base = squared_exp_cov(length)
    return CouplingSpec(length, base, base.copy(), PRESET_COHERENCE * base, **PRESETS[kind])


def preset_pairs(kind: str, seed, length: int = 100) -> GeneratedPair:
    """Demo pairs of the named ``PRESETS`` entry."""
    return spectral_pair_gen(preset_spec(kind, length), seed, coupling=PRESET_COHERENCE)


def latent_driver_group(
    n_members: int, length: int, coupling: float, seed
) -> np.ndarray:
    """The (length, n_members) traces of members sharing a common latent
    driver with strength ``coupling``.

    Member k is sqrt(coupling) * z + sqrt(1 - coupling) * eps_k with a
    shared driver z, so every pair of members has cross-covariance
    ``coupling`` and unit variance.
    """
    if not (0.0 <= coupling <= 1.0):
        raise ValueError("coupling must be in [0, 1]")
    if n_members < 2:
        raise ValueError("need at least 2 members")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(length)
    eps = rng.standard_normal((n_members, length))
    return (np.sqrt(coupling) * z + np.sqrt(1.0 - coupling) * eps).T
