"""Experiment orchestration: windowed datasets, training runs, group-level
cross-validation, the chimeric-group control baseline, and the LSTM-count
sweep.

Samples are cut into windows here and nowhere else, by
``build_windowed_dataset`` (which z-scores each channel when asked), for
training and prediction alike. ``windows_to_batch`` then copies only the
last ``lookback`` frames of each window per training minibatch; a
validation pass and a predicted sample hand their ``WindowedDataset`` to
``forward_batch``, which gathers it chunk by chunk. Splits are made on samples
by group id before any window is cut, so all of a group lands on one side
of every split. The synthetic experiments draw every coupling from
``generate.COUPLING_RANGE``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    InteractionSample,
    WindowedDataset,
    check_choice,
    check_window,
    window_count,
)
from .generate import COUPLING_RANGE, GeneratedPair, gen_dataset, latent_driver_group
from .metrics import EvalReport, build_report
from .nn import (
    Optimizer,
    SynchronyModel,
    TrainConfig,
    Workspace,
    forward_batch,
    init_model,
    loss_and_grads,
    mse_loss,
    windows_to_batch,
)

AGGREGATIONS = {"mean": np.mean, "median": np.median}  # a sample's window predictions


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full experiment run needs."""

    window_length: int = 100
    stride: int = 1
    train_fraction: float = 0.8
    n_folds: int = 5
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    aggregation: str = "mean"
    normalize: bool = False
    # When set, each fold draws this many test groups independently instead
    # of partitioning (e.g. fixed 8-group test folds); the standard mode
    # partitions the groups into n_folds near-equal parts.
    fold_test_size: int | None = None

    def __post_init__(self):
        for name in ("window_length", "stride", "n_folds", "seed", "fold_test_size"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    or (name == "fold_test_size" and value is None)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be a bool, not {self.normalize!r}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        check_choice("aggregation", self.aggregation, AGGREGATIONS)
        if self.fold_test_size is not None and self.fold_test_size < 1:
            raise ValueError("fold_test_size must be >= 1")


@dataclass(frozen=True)
class FoldResult:
    fold: int
    model: SynchronyModel
    test_group_ids: tuple[str, ...]
    per_group: tuple[tuple[str, float, float], ...]


@dataclass(frozen=True)
class TrainHistory:
    epochs: tuple[dict, ...]
    best_epoch: int

    @property
    def best_val_mse(self) -> float:
        return self.epochs[self.best_epoch]["val_mse"]

    @property
    def best_train_mse(self) -> float:
        return min(e["train_mse"] for e in self.epochs)


def build_windowed_dataset(
    samples: list[InteractionSample],
    window_length: int,
    stride: int = 1,
    normalize: bool = False,
) -> WindowedDataset:
    """Window every sample; each window keeps its sample's label.

    Windows are listed sample by sample, each sample's from frame 0 on.
    With ``normalize`` each channel of each sample is z-scored over the
    whole sample first (population std; a constant channel becomes zeros).
    """
    _check_samples(samples, window_length, stride)
    counts = [window_count(s.n_frames, window_length, stride) for s in samples]
    offsets = np.cumsum([0] + [s.n_frames for s in samples[:-1]])
    frames = np.concatenate(
        [_zscore_columns(s.frames()) if normalize else s.frames() for s in samples])
    frames.setflags(write=False)
    return WindowedDataset(
        frames=frames,
        window_length=window_length,
        starts=np.concatenate(
            [o + stride * np.arange(n) for o, n in zip(offsets, counts)]
        ),
        labels=np.repeat(np.array([s.label for s in samples], dtype=np.float64), counts),
    )


def _zscore_columns(frames: np.ndarray) -> np.ndarray:
    """Each column of a (T, D) matrix z-scored, a constant one to zeros
    (its computed std need not be 0: the mean of 100 copies of 0.1 is not
    0.1). Rows of the contiguous transpose are reduced, so each sum is the
    1-D pairwise sum of its column alone."""
    cols = np.ascontiguousarray(frames.T)
    mu = cols.mean(axis=1, keepdims=True)
    sd = cols.std(axis=1, keepdims=True)
    varies = (np.ptp(cols, axis=1, keepdims=True) > 0) & (sd > 0)
    out = np.divide(cols - mu, sd, out=np.zeros_like(cols), where=varies)
    return np.ascontiguousarray(out.T)


def _check_samples(samples, window_length: int, stride: int) -> None:
    """Raise unless the samples share one shape and each fits a window."""
    if not samples:
        raise ValueError("no samples")
    dims = {(s.n_participants, s.n_channels) for s in samples}
    if len(dims) != 1:
        raise ValueError("all samples must share participant/channel counts")
    for s in samples:
        check_window(s.n_frames, window_length, stride)


def _eval_mse(model, dataset: WindowedDataset, lookback, workspace) -> float:
    return mse_loss(forward_batch(model, dataset, lookback=lookback, workspace=workspace),
                    dataset.labels)


def train_experiment(
    samples: list[InteractionSample],
    config: ExperimentConfig,
    *,
    workspace: Workspace | None = None,
) -> tuple[SynchronyModel, TrainHistory]:
    """Train on a group-disjoint train/validation split of the samples.

    A seeded shuffle of the group ids puts ``train_fraction`` of them on
    the training side; each side is windowed by ``config``. Each
    minibatch is gathered at lookback width from the training windows,
    the validation windows chunk by chunk in each validation pass. Records
    per-epoch train/validation MSE and returns the parameters from the
    epoch with the best validation loss. Deterministic given config.
    Every training step and validation pass runs in ``workspace`` (a fresh
    one when None); callers that train repeatedly pass one along.
    """
    ws = Workspace() if workspace is None else workspace
    groups = list(dict.fromkeys(s.group_id for s in samples))
    if len(groups) < 2:
        raise ValueError("need at least 2 groups to split")
    tc = config.train
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n_train = min(max(int(round(config.train_fraction * len(groups))), 1),
                  len(groups) - 1)
    train_ids = {groups[i] for i in rng.permutation(len(groups))[:n_train]}
    train, val = (
        build_windowed_dataset([s for s in samples if (s.group_id in train_ids) is side],
                               config.window_length, config.stride, normalize=config.normalize)
        for side in (True, False))

    input_size = train.frames.shape[1]
    model = init_model(
        input_size,
        n_lstms=tc.n_lstms,
        hidden_size=tc.hidden_size,
        seed=tc.seed,
        cell_activation=tc.cell_activation,
    )
    opt = Optimizer(tc)
    best_model = model
    best_val = np.inf
    best_epoch = 0
    epochs = []
    n = len(train)
    for epoch in range(tc.epochs):
        perm = rng.permutation(n)
        running = 0.0
        for start in range(0, n, tc.batch_size):
            idx = perm[start : start + tc.batch_size]
            x, y = windows_to_batch(train, tc.lookback, idx)
            loss, grads = loss_and_grads(model, x, y, lookback=tc.lookback, workspace=ws)
            running += loss * len(idx)
            model = opt.step(model, grads)
        train_mse = running / n
        val_mse = _eval_mse(model, val, tc.lookback, ws)
        epochs.append({"epoch": epoch, "train_mse": train_mse, "val_mse": val_mse})
        if val_mse < best_val:
            best_val = val_mse
            best_model = model
            best_epoch = epoch
    if not epochs:  # zero epochs: score the untrained model
        epochs = [{"epoch": 0, "train_mse": _eval_mse(model, train, tc.lookback, ws),
                   "val_mse": _eval_mse(model, val, tc.lookback, ws)}]
    return best_model, TrainHistory(tuple(epochs), best_epoch)


def predict_sample(
    model: SynchronyModel,
    sample: InteractionSample,
    window_length: int,
    stride: int = 1,
    aggregation: str = "mean",
    *,
    lookback: int,
    normalize: bool = False,
) -> float:
    """Window-level predictions, each from the last ``lookback`` frames of
    its window, aggregated to one score for the sample."""
    aggregate = AGGREGATIONS.get(aggregation)
    if aggregate is None:
        raise ValueError(f"unknown aggregation: {aggregation!r}")
    preds = forward_batch(
        model, build_windowed_dataset([sample], window_length, stride, normalize=normalize),
        lookback=lookback)
    return float(aggregate(preds))


def _predict(model: SynchronyModel, sample: InteractionSample,
             config: ExperimentConfig) -> float:
    """``predict_sample`` with the window, stride, aggregation, lookback and
    normalize settings of ``config``."""
    return predict_sample(model, sample, config.window_length, config.stride,
                          aggregation=config.aggregation,
                          lookback=config.train.lookback, normalize=config.normalize)


def partition_groups(
    group_ids: list[str], n_folds: int, seed: int
) -> list[list[str]]:
    """Seeded near-equal partition of groups into folds."""
    if n_folds > len(group_ids):
        raise ValueError("more folds than groups")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = [group_ids[i] for i in rng.permutation(len(group_ids))]
    return [list(part) for part in np.array_split(order, n_folds)]


def kfold_cv(
    samples: list[InteractionSample], config: ExperimentConfig
) -> tuple[list[FoldResult], EvalReport]:
    """Group-level k-fold cross-validation.

    Each fold trains a fresh model on the other folds' samples and scores
    the held-out groups via predict_sample; pooled per-group predictions
    across folds feed one report. All samples are checked before any fold
    trains.
    """
    by_id = {s.group_id: s for s in samples}
    if len(by_id) != len(samples):
        raise ValueError("duplicate group ids")
    _check_samples(samples, config.window_length, config.stride)
    group_ids = list(by_id)
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_folds + 1)
    part_seed = int(seeds[0].generate_state(1)[0])

    if config.fold_test_size is None:
        folds = partition_groups(group_ids, config.n_folds, part_seed)
    else:
        if config.fold_test_size >= len(group_ids):
            raise ValueError("fold_test_size must leave groups for training")
        rng = np.random.default_rng(np.random.SeedSequence(part_seed))
        folds = [
            [group_ids[i] for i in rng.choice(len(group_ids),
                                              config.fold_test_size,
                                              replace=False)]
            for _ in range(config.n_folds)
        ]

    results = []
    ws = Workspace()
    for fold_idx, test_ids in enumerate(folds):
        train_samples = [s for s in samples if s.group_id not in test_ids]
        fold_cfg = replace(config, seed=int(seeds[fold_idx + 1].generate_state(1)[0]))
        model, _ = train_experiment(train_samples, fold_cfg, workspace=ws)
        per_group = tuple(
            (
                gid,
                by_id[gid].label,
                _predict(model, by_id[gid], config),
            )
            for gid in test_ids
        )
        results.append(FoldResult(fold_idx, model, tuple(test_ids), per_group))
    pooled = [row for r in results for row in r.per_group]
    return results, build_report(pooled)


def make_chimera(
    sample: InteractionSample,
    donors: list[InteractionSample],
    rng: np.random.Generator,
) -> InteractionSample:
    """Keep one member of the group, replace the others with members drawn
    from distinct donor groups; the original label is retained. Every
    member is cut to the frame count of the shortest."""
    k = sample.n_participants
    if len(donors) < k - 1:
        raise ValueError("need at least K-1 donor groups")
    keep = int(rng.integers(k))
    donor_idx = iter(rng.choice(len(donors), size=k - 1, replace=False))
    members = []
    for j in range(k):
        if j == keep:
            members.append(sample.values[:, j])
        else:
            donor = donors[int(next(donor_idx))]
            members.append(donor.values[:, int(rng.integers(donor.n_participants))])
    n = min(len(m) for m in members)
    return InteractionSample(
        np.stack([m[:n] for m in members], axis=1),
        label=sample.label, group_id=f"{sample.group_id}:chimera",
    )


def permutation_baseline(
    samples: list[InteractionSample],
    fold_results: list[FoldResult],
    config: ExperimentConfig,
    seed: int | None = None,
) -> EvalReport:
    """Control baseline on chimeric groups.

    For each fold's test group, one member is kept and the rest are
    replaced with members of other randomly chosen groups; the fold's
    trained model predicts on the chimera and is scored against the
    ORIGINAL group's label.
    """
    by_id = {s.group_id: s for s in samples}
    if len(by_id) < 3:
        raise ValueError("need at least 3 groups for the baseline")
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed if seed is None else seed)
    )
    pooled = []
    for fr in fold_results:
        for gid in fr.test_group_ids:
            sample = by_id[gid]
            donors = [s for g, s in by_id.items() if g != gid]
            chimera = make_chimera(sample, donors, rng)
            pooled.append((chimera.group_id, sample.label, _predict(fr.model, chimera, config)))
    return build_report(pooled)


def pair_to_sample(pair: GeneratedPair, group_id: str) -> InteractionSample:
    """A generated pair as a 2-participant, 1-channel labeled sample."""
    if pair.coupling is None:
        raise ValueError("pair carries no coupling label")
    return InteractionSample(
        np.stack([pair.x.values, pair.y.values], axis=1)[:, :, None],
        label=float(pair.coupling), group_id=group_id,
    )


def recovery_pairs(
    n_train: int,
    n_test: int,
    length: int,
    seed: int,
) -> tuple[list[GeneratedPair], list[GeneratedPair]]:
    """The (train, test) pairs of a covariance-recovery run, with couplings
    drawn from ``COUPLING_RANGE``.

    Each set is drawn from its own child of ``seed``, so the test pairs do
    not depend on n_train, and the first k test pairs are the same for
    every n_test >= k.
    """
    train_seed, test_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(2)
    )
    return (
        gen_dataset(n_train, length, COUPLING_RANGE, train_seed),
        gen_dataset(n_test, length, COUPLING_RANGE, test_seed),
    )


def _calibration_line(labels: list[float], preds: list[float]) -> tuple[float, float]:
    """Least-squares fit of pred = a + b * label; returns (a, b).

    Raises ValueError unless b > 0, since only an increasing line can be
    inverted to map a prediction back to a coupling.
    """
    lab = np.asarray(labels, dtype=np.float64)
    pr = np.asarray(preds, dtype=np.float64)
    dl = lab - lab.mean()
    b = float(dl @ (pr - pr.mean()) / (dl @ dl))
    if not b > 0:
        raise ValueError(
            f"calibration slope {b!r} on the training pairs is not positive; "
            "the model's predictions do not increase with the coupling"
        )
    return float(pr.mean() - b * lab.mean()), b


def covariance_recovery_experiment(
    n_train_pairs: int,
    n_test_pairs: int,
    length: int,
    config: ExperimentConfig,
) -> tuple[SynchronyModel, TrainHistory, EvalReport]:
    """End-to-end synthetic covariance recovery.

    Trains on generated pairs (group-disjoint 80/20 validation split) and
    reports percent-error metrics on freshly generated test pairs, drawn by
    ``recovery_pairs(..., config.seed)``.

    Each window is fit to its pair's label from only ``lookback`` frames,
    so its output is pulled toward the mean training label, and averaging
    the windows of a pair keeps that pull. The pair-level predictions are
    therefore calibrated: ``predict_sample`` (same window, stride,
    aggregation, lookback and normalize settings) scores all
    ``n_train_pairs`` training pairs, a least-squares line
    pred = a + b * label is fit to them, and each test prediction is
    reported as (pred - a) / b. Test pairs never enter the fit. Raises
    ValueError if the slope b is not positive. Deterministic given config.
    """
    train_pairs, test_pairs = recovery_pairs(
        n_train_pairs, n_test_pairs, length, config.seed)
    train_samples = [
        pair_to_sample(p, f"train_{i:04d}") for i, p in enumerate(train_pairs)
    ]
    model, history = train_experiment(train_samples, config)

    a, b = _calibration_line(
        [s.label for s in train_samples],
        [_predict(model, s, config) for s in train_samples],
    )
    per_group = []
    for i, p in enumerate(test_pairs):
        sample = pair_to_sample(p, f"test_{i:04d}")
        per_group.append(
            (sample.group_id, sample.label, (_predict(model, sample, config) - a) / b)
        )
    return model, history, build_report(per_group)


def latent_group_samples(
    n_groups: int, n_members: int, length: int, seed: int
) -> list[InteractionSample]:
    """Labeled latent-driver groups ready for kfold_cv / the baseline; each
    member is one participant with one channel. The first child of ``seed``
    draws the couplings from ``COUPLING_RANGE``; child i + 1 draws group i."""
    children = np.random.SeedSequence(seed).spawn(n_groups + 1)
    labels = np.random.default_rng(children[0]).uniform(*COUPLING_RANGE, size=n_groups)
    return [
        InteractionSample(latent_driver_group(n_members, length, float(lab), child)[:, :, None],
                          label=float(lab), group_id=f"group_{i:03d}")
        for i, (lab, child) in enumerate(zip(labels, children[1:]))
    ]


def sweep_lstm_count(
    samples: list[InteractionSample], counts: list[int], config: ExperimentConfig
) -> list[dict]:
    """Train once per LSTM count; report each run's best train/val MSE."""
    if not counts:
        raise ValueError("counts must be non-empty")
    rows = []
    ws = Workspace()
    for count in counts:
        cfg = replace(config, train=replace(config.train, n_lstms=count))
        _, hist = train_experiment(samples, cfg, workspace=ws)
        rows.append(
            {
                "count": count,
                "train_error": hist.best_train_mse,
                "val_error": hist.best_val_mse,
            }
        )
    return rows
