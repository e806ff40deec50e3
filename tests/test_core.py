import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synchrony import cli, experiments, ingest
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


@pytest.mark.parametrize("values, label, message", [
    pytest.param(np.ones((4, 2)), 1.0, "non-empty", id="ndim=2"),
    pytest.param(np.ones((4, 2, 1, 1)), 1.0, "non-empty", id="ndim=4"),
    pytest.param(np.ones((0, 2, 1)), 1.0, "non-empty", id="T=0"),
    pytest.param(np.ones((4, 2, 0)), 1.0, "non-empty", id="C=0"),
    pytest.param(np.ones((4, 1, 1)), 1.0, "need at least 2 participants", id="K=1"),
    pytest.param(np.where(np.arange(8).reshape(4, 2, 1) == 5, np.nan, 1.0), 1.0,
                 "values must be finite", id="nan-value"),
    pytest.param(np.ones((4, 2, 1)), np.nan, "label must be finite", id="nan-label"),
])
def test_sample_validates_dimensions(values, label, message):
    with pytest.raises(ValueError, match=message):
        InteractionSample(values, label=label, group_id="g")


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_sample_keeps_a_c_ordered_read_only_copy(layout):
    raw = np.random.default_rng(1).standard_normal((5, 3, 2))
    if layout == "fortran":
        source = np.asfortranarray(raw)
    else:
        source = np.ascontiguousarray(raw.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not source.flags.c_contiguous
    s = InteractionSample(source, label=0.5, group_id="g")
    assert s.values.flags.c_contiguous and not s.values.flags.writeable
    assert np.array_equal(s.values, raw)
    assert np.shares_memory(s.frames(), s.values)
    assert np.array_equal(s.frames(), raw.reshape(5, 6))
    source[...] = 0.0
    assert np.array_equal(s.values, raw)


def test_participants_are_timeseries_of_the_channels():
    s = random_sample(k=3, c=2, t=9)
    parts = s.participants
    assert [len(part) for part in parts] == [2, 2, 2]
    for k, part in enumerate(parts):
        for c, ts in enumerate(part):
            assert isinstance(ts, TimeSeries)
            assert np.array_equal(ts.values, s.values[:, k, c])


@pytest.mark.parametrize("module", [cli, experiments, ingest])
def test_samples_and_recordings_build_no_timeseries(module):
    assert "TimeSeries" not in vars(module)


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
    np.testing.assert_array_equal(x[0], s.values[:, :, 0])


def test_extract_windows_starts_are_arithmetic():
    s = random_sample(t=200)
    for stride in (1, 3, 7):
        starts = build_windowed_dataset([s], 50, stride).starts.tolist()
        assert starts == list(range(0, starts[-1] + 1, stride))
        first_frames = windows(s, 50, stride)[:, 0, 0]
        np.testing.assert_array_equal(first_frames, s.values[starts, 0, 0])


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
        expected = s.values[i * stride + j, k, c]
        assert x[i, j, k * 2 + c] == expected


def test_extract_windows_errors():
    s = random_sample(t=50)
    with pytest.raises(ValueError, match="window exceeds signal"):
        windows(s, 51, 1)
    with pytest.raises(ValueError):
        windows(s, 10, 0)


def zscored(values):
    """A channel as ``build_windowed_dataset(..., normalize=True)`` leaves it."""
    s = InteractionSample(np.stack([values, values], axis=1)[:, :, None], label=0.5,
                          group_id="g")
    return build_windowed_dataset([s], len(values), normalize=True).frames[:, 0]


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


@pytest.mark.parametrize("make", [lambda: TimeSeries([0.5, -1.25, 3.0]),
                                  lambda: random_sample(k=3, c=2, t=7)],
                         ids=["TimeSeries", "InteractionSample"])
def test_pickled_container_is_rebuilt_read_only(make):
    original = make()
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is type(original)
    assert not copy.values.flags.writeable
    assert copy.values.tobytes() == original.values.tobytes()
