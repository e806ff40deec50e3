import numpy as np
import pytest
from hypothesis import given, strategies as st

from synchrony.core import (
    InteractionSample,
    TimeSeries,
    window_count,
)
from synchrony.experiments import build_windowed_dataset
from synchrony.nn import windows_to_batch
from conftest import random_sample


def windows(sample, window_length, stride):
    return windows_to_batch(build_windowed_dataset([sample], window_length, stride))[0]


def test_timeseries_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeSeries([])
    with pytest.raises(ValueError):
        TimeSeries([1.0, np.nan])


def test_sample_validates_dimensions():
    a = TimeSeries([1.0, 2.0, 3.0])
    short = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        InteractionSample(((a,),), label=1.0, group_id="g")  # K < 2
    with pytest.raises(ValueError):
        InteractionSample(((a,), (short,)), label=1.0, group_id="g")


def test_window_counts():
    assert window_count(1000, 100, 1) == 901
    assert window_count(100, 100, 1) == 1
    assert window_count(1800, 30, 1) == 1771
    assert window_count(10, 20, 1) == 0


def test_extract_windows_count_and_labels():
    s = random_sample(t=1000, label=0.7)
    assert windows(s, 100, 1).shape == (901, 100, 2)
    dataset = build_windowed_dataset([s], 100, 1)
    assert len(dataset) == 901
    assert set(dataset.labels.tolist()) == {0.7}


def test_extract_windows_whole_signal():
    s = random_sample(t=100)
    x = windows(s, 100, 1)
    assert len(x) == 1
    raw = np.stack([s.participants[k][0].values for k in range(2)], axis=1)
    np.testing.assert_array_equal(x[0], raw)


def test_extract_windows_starts_are_arithmetic():
    s = random_sample(t=200)
    for stride in (1, 3, 7):
        starts = build_windowed_dataset([s], 50, stride).starts.tolist()
        assert starts == list(range(0, starts[-1] + 1, stride))
        first_frames = windows(s, 50, stride)[:, 0, 0]
        np.testing.assert_array_equal(
            first_frames, s.participants[0][0].values[starts]
        )


def test_extract_windows_data_matches_parent():
    s = random_sample(k=3, c=2, t=120, seed=4)
    stride = 3
    x = windows(s, 40, stride)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i = int(rng.integers(len(x)))
        k = int(rng.integers(3))
        c = int(rng.integers(2))
        j = int(rng.integers(40))
        expected = s.participants[k][c].values[i * stride + j]
        assert x[i, j, k * 2 + c] == expected


def test_extract_windows_errors():
    s = random_sample(t=50)
    with pytest.raises(ValueError, match="window exceeds signal"):
        windows(s, 51, 1)
    with pytest.raises(ValueError):
        windows(s, 10, 0)


def zscored(values):
    """A channel as ``build_windowed_dataset(..., normalize=True)`` leaves it."""
    ts = TimeSeries(values)
    s = InteractionSample(((ts,), (ts,)), label=0.5, group_id="g")
    return build_windowed_dataset([s], len(ts), normalize=True).frames[:, 0]


def test_zscore_examples():
    np.testing.assert_allclose(zscored([1, 1, 1]), [0, 0, 0])
    # the mean of 100 copies of 0.1 is not 0.1 in floating point
    assert np.array_equal(zscored([0.1] * 100), np.zeros(100))
    np.testing.assert_allclose(zscored([0, 2]), [-1, 1])
    r = np.sqrt(3.0 / 2.0)
    np.testing.assert_allclose(zscored([1, 2, 3]), [-r, 0, r], atol=1e-15)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=50,
    ).filter(lambda v: np.std(v) > 1e-6)
)
def test_zscore_idempotent(values):
    once = zscored(values)
    twice = zscored(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)
