"""Coupled stochastic pair generation with prescribed cross-covariance.

A pair (x, y) is synthesized in the frequency domain: the DFTs of the
auto/cross-covariance sequences give spectral densities, two white Gaussian
drivers are mixed per frequency bin through a phase angle chosen so the
cross-spectrum of the mixture equals the prescribed one, and the inverse
DFT returns the time-domain pair. Optional trend functions and an integer
delay are applied afterwards.

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
through one forward and one inverse FFT along the last axis. The bytes are
those of the per-call, per-driver form: the generator fills the (2, len)
draw in the order of two consecutive len-draws, each FFT row is computed
as a separate transform, and every product keeps its operand order.

Synthetic couplings, of pairs and of latent-driver groups, are drawn from
the one prior U[COUPLING_RANGE]; ``gen_dataset`` alone takes another range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import TimeSeries, _as_readonly_f64

TrendFn = Callable[[int, float], float]

SPECTRUM_CLAMP_TOL = 1e-9
COHERENCE_TOL = 1e-9
COUPLING_RANGE = (0.1, 0.9)  # (lo, hi) of the uniform coupling prior

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
        if self.length < 2:
            raise ValueError("length must be >= 2")
        for name in ("cxx", "cyy", "cxy"):
            arr = _as_readonly_f64(getattr(self, name))
            if arr.shape != (self.length,):
                raise ValueError(f"{name} must have length {self.length}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
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
        the coherence bound |S_xy| <= sqrt(S_xx * S_yy). A rejected spec
        caches nothing, so every use raises again. The phase alpha is
        arccos(S_xy / sqrt(S_xx * S_yy)), and 0 where that bound is 0.
        """
        sxx = np.fft.fft(self.cxx).real
        syy = np.fft.fft(self.cyy).real
        sxy = np.fft.fft(self.cxy).real
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


@dataclass(frozen=True)
class ScalarCovSpec:
    """White-in-time bivariate coupling from a 2x2 covariance matrix."""

    phi11: float
    phi22: float
    phi12: float
    length: int

    def __post_init__(self):
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
    mixed[0] = sqrt_sxx * (cos_alpha * fu + sin_alpha * fv)
    mixed[1] = sqrt_syy * fu
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


def empirical_cross_cov(xs: Sequence[TimeSeries], ys: Sequence[TimeSeries]) -> float:
    """Ensemble-averaged lag-0 cross-covariance estimate.

    Means are removed globally over the whole ensemble (not per pair), so
    the estimator is unbiased up to O(1/(n_pairs * length)) and usable as
    a Monte-Carlo oracle for the generator.
    """
    if len(xs) != len(ys) or len(xs) == 0:
        raise ValueError("need equal non-zero numbers of x and y series")
    lengths = {len(s) for s in xs} | {len(s) for s in ys}
    if len(lengths) != 1:
        raise ValueError("mismatched lengths")
    xmat = np.stack([s.values for s in xs])
    ymat = np.stack([s.values for s in ys])
    xmat = xmat - xmat.mean()
    ymat = ymat - ymat.mean()
    return float((xmat * ymat).mean())


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


def preset_spec(kind: str, length: int = 100) -> CouplingSpec:
    """CouplingSpec behind the named demo preset."""
    base = squared_exp_cov(length)
    cxy = PRESET_COHERENCE * base
    if kind == "stationary":
        return CouplingSpec(length, base, base.copy(), cxy)
    if kind == "shifted":
        return CouplingSpec(length, base, base.copy(), cxy, delay=1)
    if kind == "trended":
        return CouplingSpec(
            length,
            base,
            base.copy(),
            cxy,
            f1=lambda t, x: x + np.sin(PRESET_TREND_OMEGA * t),
            f2=lambda t, x: x + PRESET_TREND_SLOPE * t,
        )
    raise ValueError(f"unknown preset kind: {kind!r}")


def preset_pairs(kind: str, seed, length: int = 100) -> GeneratedPair:
    """Demo pairs: stationary, shifted (delay 1), or trended."""
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
