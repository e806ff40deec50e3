"""Core time-series containers and window arithmetic.

Everything downstream (generation, training, evaluation) works in terms of
these types: a labeled group recording held as one read-only (T, K, C)
array, a single signal (``TimeSeries``, used only for generated pairs),
and a ``WindowedDataset`` that lists fixed-length windows as start frames
into the stacked per-frame matrices of such groups. Windows are cut (and
optionally z-scored) in ``experiments.build_windowed_dataset``; only
``nn.windows_to_batch`` and ``nn.forward_batch``'s chunk gather copy
window data, and only the frames a step reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled real-valued signal, one value per frame.

    ``values`` must be non-empty and finite. Frames are 30 Hz video
    frames; no computation reads the rate.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_f64(self.values))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("TimeSeries requires a non-empty 1-D value sequence")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("TimeSeries values must be finite")

    def __reduce__(self):
        # pickle keeps no write flag, so a copy is rebuilt through __post_init__
        return (TimeSeries, (self.values,))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class InteractionSample:
    """One labeled group recording.

    ``values`` is a read-only, C-ordered float64 copy of shape (T, K, C):
    entry [t, k, c] is channel c of participant k at frame t, with T >= 1
    frames, K >= 2 participants, C >= 1 channels and every value finite.
    ``label`` is the scalar synchrony score for the whole group (annotated
    score for real data, prescribed cross-covariance for synthetic data).
    """

    values: np.ndarray
    label: float
    group_id: str

    def __post_init__(self):
        values = _as_readonly_f64(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 3 or 0 in values.shape:
            raise ValueError(f"values must be a non-empty (T, K, C) array, not {values.shape}")
        if values.shape[1] < 2:
            raise ValueError("need at least 2 participants")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        if not np.isfinite(self.label):
            raise ValueError("label must be finite")

    def __reduce__(self):
        # pickle keeps no write flag, so a copy is rebuilt through __post_init__
        return (InteractionSample, (self.values, self.label, self.group_id))

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_participants(self) -> int:
        return self.values.shape[1]

    @property
    def n_channels(self) -> int:
        return self.values.shape[2]

    @property
    def participants(self) -> tuple[tuple[TimeSeries, ...], ...]:
        """Each participant's channels as ``TimeSeries`` copies. Kept only
        because the benchmark (``perfbench/workloads.py:231``) reads it;
        a change to the benchmark retires it."""
        return tuple(tuple(TimeSeries(ch) for ch in part.T)
                     for part in self.values.transpose(1, 0, 2))

    def frames(self) -> np.ndarray:
        """The read-only (T, K*C) per-frame matrix, a view of ``values``;
        column k*C + c holds channel c of participant k."""
        return self.values.reshape(self.n_frames, -1)


@dataclass(frozen=True)
class WindowedDataset:
    """Fixed-length windows of several samples, as parallel arrays.

    ``frames`` stacks the per-frame matrices of the samples; window i is
    ``frames[starts[i] : starts[i] + window_length]`` and carries
    ``labels[i]``. No window crosses from one sample into the next.
    """

    frames: np.ndarray
    window_length: int
    starts: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.starts.size

    @property
    def shape(self) -> tuple[int, int, int]:
        """(N, W, D), the shape of the window array these stand for."""
        return len(self), self.window_length, self.frames.shape[1]


def window_count(n_frames: int, window_length: int, stride: int) -> int:
    """Number of windows of ``window_length`` at ``stride`` over ``n_frames``."""
    if window_length > n_frames:
        return 0
    return (n_frames - window_length) // stride + 1


def check_window(n_frames: int, window_length: int, stride: int) -> None:
    """Raise unless windows of ``window_length`` at ``stride`` fit in
    ``n_frames``."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    if window_length <= 0:
        raise ValueError("window_length must be positive")
    if window_length > n_frames:
        raise ValueError(
            f"window exceeds signal: window_length {window_length} > {n_frames} frames"
        )


def window_view(frames: np.ndarray, window_length: int) -> np.ndarray:
    """Read-only (T - W + 1, W, D) view of a (T, D) matrix whose entry s is
    ``frames[s : s + W]``; nothing is copied."""
    return sliding_window_view(frames, window_length, axis=0).transpose(0, 2, 1)
