"""Core time-series containers and window arithmetic.

Everything downstream (generation, training, evaluation) works in terms of
these types: a single uniformly sampled signal, a labeled group of signals,
and a ``WindowedDataset`` that lists fixed-length windows as start frames
into the stacked per-frame matrices of such groups. Windows are cut (and
optionally z-scored) in ``experiments.build_windowed_dataset``; only
``nn.windows_to_batch`` copies window data, and only the frames a step
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr = np.array(arr, copy=True)
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

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class InteractionSample:
    """A group of participants, each contributing equally long channels.

    ``participants`` is a list of channel-sets; channel-set ``k`` holds the
    C channels of participant ``k``. All K*C channels must agree in
    length. ``label`` is the scalar synchrony score for the whole
    group (annotated score for real data, prescribed cross-covariance for
    synthetic data).
    """

    participants: tuple[tuple[TimeSeries, ...], ...]
    label: float
    group_id: str

    def __post_init__(self):
        parts = tuple(tuple(cs) for cs in self.participants)
        object.__setattr__(self, "participants", parts)
        if len(parts) < 2:
            raise ValueError("need at least 2 participants")
        n_channels = {len(cs) for cs in parts}
        if n_channels == {0} or len(n_channels) != 1:
            raise ValueError("all participants must share the same non-zero channel count")
        lengths = {len(ts) for cs in parts for ts in cs}
        if len(lengths) != 1:
            raise ValueError("all channels must share one length")
        if not np.isfinite(self.label):
            raise ValueError("label must be finite")

    @property
    def n_participants(self) -> int:
        return len(self.participants)

    @property
    def n_channels(self) -> int:
        return len(self.participants[0])

    @property
    def n_frames(self) -> int:
        return len(self.participants[0][0])

    def frames(self) -> np.ndarray:
        """The (T, K*C) per-frame matrix; column k*C + c holds channel c of
        participant k."""
        return np.stack(
            [ts.values for cs in self.participants for ts in cs], axis=1
        )


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
