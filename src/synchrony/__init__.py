"""Synthesize coupled stochastic signals and estimate the synchrony of
interacting signal sets with a parallel-LSTM regressor."""

__version__ = "0.1.0"

from .core import (
    InteractionSample,
    TimeSeries,
    WindowedDataset,
)
from .generate import (
    CouplingSpec,
    GeneratedPair,
    ScalarCovSpec,
    empirical_cross_cov,
    gen_dataset,
    preset_pairs,
    scalar_pair_gen,
    spectral_pair_gen,
)
from .metrics import (
    EvalReport,
    build_report,
    mean_abs_percent_error,
    r_squared,
    std_percent_error,
)
from .nn import (
    SynchronyModel,
    TrainConfig,
    init_model,
    load_model,
    mse_loss,
    save_model,
)
from .experiments import (
    ExperimentConfig,
    FoldResult,
    build_windowed_dataset,
    covariance_recovery_experiment,
    kfold_cv,
    latent_group_samples,
    permutation_baseline,
    predict_sample,
    recovery_pairs,
    sweep_lstm_count,
    train_experiment,
)

__all__ = [
    "TimeSeries", "InteractionSample", "WindowedDataset",
    "CouplingSpec", "ScalarCovSpec", "GeneratedPair",
    "spectral_pair_gen", "scalar_pair_gen", "gen_dataset",
    "empirical_cross_cov", "preset_pairs",
    "SynchronyModel", "TrainConfig", "mse_loss",
    "init_model", "save_model", "load_model",
    "EvalReport", "build_report",
    "mean_abs_percent_error", "std_percent_error", "r_squared",
    "ExperimentConfig", "FoldResult", "build_windowed_dataset",
    "train_experiment", "predict_sample", "kfold_cv",
    "permutation_baseline", "sweep_lstm_count",
    "covariance_recovery_experiment", "recovery_pairs", "latent_group_samples",
]
