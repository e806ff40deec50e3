import hashlib
import tracemalloc

import numpy as np
import pytest

from synchrony import experiments
from synchrony.core import InteractionSample
from synchrony.experiments import (
    ExperimentConfig,
    build_windowed_dataset,
    covariance_recovery_experiment,
    kfold_cv,
    latent_group_samples,
    make_chimera,
    pair_to_sample,
    partition_groups,
    permutation_baseline,
    predict_sample,
    recovery_pairs,
    sweep_lstm_count,
    train_experiment,
)
from synchrony.generate import gen_dataset
from synchrony.nn import TrainConfig, windows_to_batch
from conftest import random_sample


def tiny_train(epochs=2, **kw):
    return TrainConfig(
        epochs=epochs, batch_size=32, hidden_size=4, n_lstms=2, lookback=5,
        seed=kw.pop("seed", 0), **kw
    )


def tiny_config(**kw):
    train = kw.pop("train", tiny_train())
    return ExperimentConfig(
        window_length=kw.pop("window_length", 20),
        stride=kw.pop("stride", 5),
        train=train,
        **kw,
    )


def pair_samples(n=8, t=60, seed=0):
    pairs = gen_dataset(n, t, (0.1, 0.9), seed=seed)
    return [pair_to_sample(p, f"g{i:03d}") for i, p in enumerate(pairs)]


@pytest.mark.parametrize("field, value", [
    ("window_length", 20.0), ("stride", 2.5), ("n_folds", 3.0),
    ("seed", float("nan")), ("fold_test_size", 2.5),
])
def test_experiment_config_rejects_a_count_that_is_not_an_integer(field, value):
    # stride 2.5 used to pass and fail in windowing, as a NumPy index error
    with pytest.raises(ValueError, match=f"{field} must be an integer") as info:
        tiny_config(**{field: value})
    assert str(info.value).endswith(f", not {value!r}")


@pytest.mark.parametrize("value", ["false", 0, 1, None, np.bool_(True)])
def test_experiment_config_rejects_a_normalize_that_is_not_a_bool(value):
    # "false" used to pass and, being truthy, z-scored every sample
    with pytest.raises(ValueError) as info:
        tiny_config(normalize=value)
    assert str(info.value) == f"normalize must be a bool, not {value!r}"


# windowed dataset


def test_windowed_dataset_counts():
    samples = [random_sample(t=1000, group_id=f"g{i}", seed=i) for i in range(5)]
    windows = build_windowed_dataset(samples, 100, 1)
    assert len(windows) == 5 * 901


def test_single_sample_shares_label():
    windows = build_windowed_dataset([random_sample(t=100, label=0.4)], 20, 10)
    assert set(windows.labels.tolist()) == {0.4}


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_windows_match_raw_signal_slices(k, c, stride, normalize):
    w = 20
    samples = [
        random_sample(k=k, c=c, t=t, label=0.1 * (i + 1), group_id=f"g{i}", seed=i)
        for i, t in enumerate((40, 57, 20))
    ]
    dataset = build_windowed_dataset(samples, w, stride, normalize=normalize)
    x, y = windows_to_batch(dataset)

    def raw(v):
        return (v - float(np.mean(v))) / float(np.std(v)) if normalize else v

    want_x, want_y = [], []
    for s in samples:
        # participant-major columns: k * C + c
        signals = [raw(np.ascontiguousarray(s.values[:, j // c, j % c])) for j in range(k * c)]
        starts = range(0, s.n_frames - w + 1, stride)
        rows = [np.stack([v[st : st + w] for v in signals], axis=1) for st in starts]
        one, _ = windows_to_batch(build_windowed_dataset([s], w, stride, normalize=normalize))
        assert np.array_equal(one, np.array(rows))
        want_x += rows
        want_y += [s.label] * len(rows)
    assert np.array_equal(x, np.array(want_x))
    assert x.flags.c_contiguous
    assert np.array_equal(y, np.array(want_y))


def test_batch_gathers_the_last_lookback_frames_of_the_picked_windows():
    samples = [random_sample(k=3, c=2, t=t, group_id=f"g{i}", seed=i)
               for i, t in enumerate((40, 57))]
    dataset = build_windowed_dataset(samples, 20, 3)
    whole, labels = windows_to_batch(dataset)
    idx = np.array([12, 0, 5, 5, len(dataset) - 1])
    for lookback in (1, 7, 20):
        x, y = windows_to_batch(dataset, lookback, idx)
        assert np.array_equal(x, whole[idx, 20 - lookback :])
        assert x.flags.c_contiguous
        assert np.array_equal(y, labels[idx])
    x, _ = windows_to_batch(dataset, 7)
    assert np.array_equal(x, whole[:, -7:])
    with pytest.raises(ValueError, match="lookback must be positive, not 0"):
        windows_to_batch(dataset, 0)
    with pytest.raises(ValueError, match="window shorter than lookback"):
        windows_to_batch(dataset, 21)
    with pytest.raises(ValueError, match="empty batch"):
        windows_to_batch(dataset, 5, np.array([], dtype=np.intp))


def test_windowed_dataset_rejects_mixed_dims():
    with pytest.raises(ValueError):
        build_windowed_dataset(
            [random_sample(k=2, t=50), random_sample(k=3, t=50, group_id="g1")],
            20,
        )


def test_partition_is_group_disjoint():
    ids = [f"g{i}" for i in range(32)]
    for seed in range(10):
        folds = partition_groups(ids, 5, seed)
        flat = [g for fold in folds for g in fold]
        assert sorted(flat) == sorted(ids)
        assert sorted(len(f) for f in folds) == [6, 6, 6, 7, 7]


# training


def test_zero_epochs_returns_initial_model():
    from synchrony.nn import init_model

    samples = pair_samples(4)
    cfg = tiny_config(train=tiny_train(epochs=0))
    model, hist = train_experiment(samples, cfg)
    expected = init_model(2, n_lstms=2, hidden_size=4, seed=0)
    for k, v in expected.params().items():
        np.testing.assert_array_equal(v, model.params()[k])
    assert len(hist.epochs) == 1


def test_training_reduces_validation_loss():
    samples = pair_samples(10, t=120, seed=3)
    cfg = tiny_config(window_length=30, stride=2, train=tiny_train(epochs=8))
    _, hist = train_experiment(samples, cfg)
    assert hist.best_val_mse < hist.epochs[0]["val_mse"] * 1.01
    assert hist.epochs[-1]["train_mse"] < hist.epochs[0]["train_mse"]


def test_training_deterministic():
    samples = pair_samples(6, t=60, seed=4)
    cfg = tiny_config()
    _, h1 = train_experiment(samples, cfg)
    _, h2 = train_experiment(samples, cfg)
    assert h1.epochs == h2.epochs


def test_training_keeps_each_group_on_one_side(monkeypatch):
    # six groups of two samples each, the two listed apart
    pairs = pair_samples(12, t=60, seed=5)
    samples = [
        InteractionSample(p.values, label=p.label, group_id=f"grp{i % 6}")
        for i, p in enumerate(pairs)
    ]
    seen = []
    real = experiments.build_windowed_dataset

    def record(side, *args, **kwargs):
        seen.append([s.group_id for s in side])
        return real(side, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_windowed_dataset", record)
    train_experiment(samples, tiny_config(train=tiny_train(epochs=1)))
    train_side, val_side = seen
    assert set(train_side).isdisjoint(val_side)
    assert sorted(train_side + val_side) == sorted(s.group_id for s in samples)
    assert all(side.count(g) == 2 for side in seen for g in side)
    # each side keeps the samples in their given order
    for side in seen:
        assert side == [s.group_id for s in samples if s.group_id in side]
    assert len(set(train_side)) == 5  # round(0.8 * 6)


def test_training_copies_only_the_frames_a_step_reads(monkeypatch):
    """Up to the first training step, memory holds the frames and one
    lookback-wide minibatch, not every window whole: a traced peak of
    1.5 MB here, against 83 MB when the training and validation windows
    were copied whole and 5.6 MB when the validation windows were
    gathered at lookback width before training (4.1 MB of them); a
    validation pass now gathers one chunk per lane at a time."""
    samples = [random_sample(k=3, c=3, t=2000, group_id=f"g{i}", seed=i)
               for i in range(6)]
    cfg = ExperimentConfig(train=TrainConfig(lookback=30, batch_size=64))
    shapes = []

    class FirstStep(Exception):
        pass

    def first_step(model, x, y, lookback, workspace=None):
        shapes.append(x.shape)
        raise FirstStep

    monkeypatch.setattr(experiments, "loss_and_grads", first_step)
    tracemalloc.start()
    try:
        with pytest.raises(FirstStep):
            train_experiment(samples, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes and all(s[0] <= 64 and s[1:] == (30, 9) for s in shapes)
    assert peak < 3e6


def test_training_needs_two_groups():
    with pytest.raises(ValueError, match="2 groups"):
        train_experiment([random_sample(t=60)], tiny_config())


# prediction aggregation


def test_constant_model_prediction():
    from synchrony.nn import SynchronyModel, init_model

    m = init_model(2, n_lstms=2, hidden_size=4, seed=0)
    zeroed = SynchronyModel(
        m.wx * 0, m.rh * 0, m.b * 0, m.head_w * 0, 3.0
    )
    s = random_sample(t=60)
    for agg in ("mean", "median"):
        assert predict_sample(zeroed, s, 20, 5, aggregation=agg, lookback=5) == 3.0


def test_aggregation_rules(monkeypatch):
    import synchrony.experiments as ex

    calls = iter([np.array([1.0, 2.0, 100.0])])

    def fake_forward(model, x, lookback, workspace=None):
        return np.array([1.0, 2.0, 100.0])[: len(x)]

    monkeypatch.setattr(ex, "forward_batch", fake_forward)
    s = random_sample(t=30)
    m = object()
    assert ex.predict_sample(m, s, 10, 10, aggregation="mean", lookback=5) == pytest.approx(
        np.mean([1.0, 2.0, 100.0])
    )
    assert ex.predict_sample(m, s, 10, 10, aggregation="median", lookback=5) == 2.0


def test_an_unknown_aggregation_fails_before_the_bank_runs(monkeypatch):
    import synchrony.experiments as ex

    calls = []
    monkeypatch.setattr(ex, "forward_batch", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="unknown aggregation: 'max'"):
        ex.predict_sample(object(), random_sample(t=30), 10, 10, aggregation="max",
                          lookback=5)
    assert calls == []


# k-fold cross-validation


def test_kfold_partitions_groups():
    samples = pair_samples(10, t=60, seed=6)
    cfg = tiny_config(train=tiny_train(epochs=0), n_folds=5)
    results, report = kfold_cv(samples, cfg)
    all_test = [g for r in results for g in r.test_group_ids]
    assert sorted(all_test) == sorted(s.group_id for s in samples)
    assert report.n == 10


def test_kfold_fixed_test_size_mode():
    samples = pair_samples(10, t=60, seed=7)
    cfg = tiny_config(train=tiny_train(epochs=0), n_folds=3, fold_test_size=4)
    results, report = kfold_cv(samples, cfg)
    assert all(len(r.test_group_ids) == 4 for r in results)


def test_kfold_oracle_model_gives_perfect_r2(monkeypatch):
    import synchrony.experiments as ex

    samples = pair_samples(8, t=60, seed=8)
    truth = {s.group_id: s.label for s in samples}

    def oracle_predict(model, sample, *a, **kw):
        return truth[sample.group_id]

    monkeypatch.setattr(ex, "predict_sample", oracle_predict)
    cfg = tiny_config(train=tiny_train(epochs=0), n_folds=4)
    _, report = ex.kfold_cv(samples, cfg)
    assert report.r2 == pytest.approx(1.0)
    assert report.mu_e == 0.0


def test_kfold_rejects_a_short_sample_before_any_fold_trains(monkeypatch):
    samples = pair_samples(8, t=60, seed=10)
    cfg = tiny_config(train=tiny_train(epochs=1), n_folds=4)
    # fold 0's test groups, drawn as kfold_cv draws them
    part_seed = int(np.random.SeedSequence(cfg.seed).spawn(cfg.n_folds + 1)[0]
                    .generate_state(1)[0])
    first_test = partition_groups([s.group_id for s in samples], cfg.n_folds,
                                  part_seed)[0][0]
    samples = [
        random_sample(t=cfg.window_length - 1, group_id=s.group_id)
        if s.group_id == first_test else s
        for s in samples
    ]

    def no_training(*args, **kwargs):
        raise AssertionError("a fold trained before the short sample was rejected")

    monkeypatch.setattr(experiments, "loss_and_grads", no_training)
    with pytest.raises(ValueError, match="window exceeds signal"):
        kfold_cv(samples, cfg)


def test_kfold_deterministic():
    samples = pair_samples(8, t=60, seed=9)
    cfg = tiny_config(train=tiny_train(epochs=1), n_folds=4)
    _, r1 = kfold_cv(samples, cfg)
    _, r2 = kfold_cv(samples, cfg)
    assert r1.to_json() == r2.to_json()


# permutation baseline


def test_chimera_construction():
    samples = [random_sample(k=3, t=40, group_id=f"g{i}", seed=i) for i in range(5)]
    rng = np.random.default_rng(0)
    source = samples[0]
    donors = samples[1:]
    for _ in range(20):
        chim = make_chimera(source, donors, rng)
        assert chim.n_participants == 3
        assert chim.n_frames == 40
        assert chim.label == source.label
        # exactly one member retained from the source
        kept = sum(
            any(np.array_equal(chim.values[:, j], source.values[:, i]) for i in range(3))
            for j in range(3)
        )
        assert kept == 1


def test_chimera_of_groups_of_different_lengths():
    """Members drawn from groups of 90, 60, 70 and 80 frames are cut to the
    shortest member, after the same draws as from groups of one length."""
    lengths = (90, 60, 70, 80)
    full = [random_sample(k=3, t=90, group_id=f"g{i}", seed=i) for i in range(4)]
    cut = [
        InteractionSample(s.values[:t], label=s.label, group_id=s.group_id)
        for s, t in zip(full, lengths)
    ]
    rng_full, rng_cut = np.random.default_rng(0), np.random.default_rng(0)
    for _ in range(20):
        whole = make_chimera(full[0], full[1:], rng_full)
        chim = make_chimera(cut[0], cut[1:], rng_cut)
        origin = [
            next(t for s, t in zip(full, lengths)
                 if any(np.array_equal(m, cs) for cs in s.values.transpose(1, 0, 2)))
            for m in whole.values.transpose(1, 0, 2)
        ]
        assert chim.n_frames == min(origin)
        assert np.array_equal(chim.values, whole.values[:chim.n_frames])


def test_baseline_scores_against_original_labels():
    samples = pair_samples(6, t=60, seed=11)
    cfg = tiny_config(train=tiny_train(epochs=0), n_folds=3)
    results, _ = kfold_cv(samples, cfg)
    report = permutation_baseline(samples, results, cfg, seed=1)
    truth = {s.group_id: s.label for s in samples}
    for gid, y, _ in report.per_group:
        original = gid.split(":")[0]
        assert y == truth[original]


def test_baseline_requires_three_groups():
    samples = pair_samples(4, t=60, seed=12)
    cfg = tiny_config(train=tiny_train(epochs=0), n_folds=2)
    results, _ = kfold_cv(samples, cfg)
    with pytest.raises(ValueError):
        permutation_baseline(samples[:2], results, cfg)


# sweep


def test_sweep_single_count():
    samples = pair_samples(4, t=60, seed=13)
    rows = sweep_lstm_count(samples, [2], tiny_config(train=tiny_train(epochs=1)))
    assert len(rows) == 1
    assert rows[0]["count"] == 2


def test_sweep_rejects_empty_counts():
    samples = pair_samples(4, t=60, seed=14)
    with pytest.raises(ValueError):
        sweep_lstm_count(samples, [], tiny_config())


# end-to-end helpers


def test_covariance_recovery_experiment_shape():
    cfg = tiny_config(train=tiny_train(epochs=1))
    model, hist, report = covariance_recovery_experiment(6, 4, 60, cfg)
    assert report.n == 4
    assert len(hist.epochs) == 1
    train, test = recovery_pairs(6, 4, 60, cfg.seed)
    assert len(train) == 6
    assert [label for _, label, _ in report.per_group] == [p.coupling for p in test]


def test_recovery_calibration_never_sees_test_pairs():
    cfg = tiny_config(train=tiny_train(epochs=1))
    _, _, four = covariance_recovery_experiment(6, 4, 60, cfg)
    _, _, six = covariance_recovery_experiment(6, 6, 60, cfg)
    assert six.per_group[:4] == four.per_group


@pytest.mark.parametrize("fake", [lambda label: 0.5, lambda label: 1.0 - label])
def test_recovery_rejects_non_positive_calibration_slope(monkeypatch, fake):
    monkeypatch.setattr(
        experiments, "predict_sample", lambda model, sample, *a, **kw: fake(sample.label)
    )
    cfg = tiny_config(train=tiny_train(epochs=1))
    with pytest.raises(ValueError, match="calibration slope"):
        covariance_recovery_experiment(6, 4, 60, cfg)


def test_latent_group_samples():
    samples = latent_group_samples(4, 3, 50, seed=5)
    assert len(samples) == 4
    assert all(s.n_participants == 3 for s in samples)
    assert all(0.1 <= s.label <= 0.9 for s in samples)


def test_latent_group_samples_keep_their_bytes():
    """The labels and member values of one small draw, pinned by SHA-256."""
    h = hashlib.sha256()
    for s in latent_group_samples(4, 3, 50, seed=5):
        h.update(np.float64(s.label).tobytes())
        for member in s.values[:, :, 0].T:
            h.update(member.tobytes())
    assert h.hexdigest() == (
        "7fd53dabacfc81d32b02e13bbd0d2e8cbf3e5043ce497840fd18107ad7cfb13f")
