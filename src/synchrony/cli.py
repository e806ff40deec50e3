"""Command-line entry point.

Subcommands: datagen, train, kfold, baseline, sweep, ingest, annotate.
Every run writes a manifest (resolved config, seed, input hashes, output
paths) next to its outputs; re-running with the same inputs and seed
reproduces the result files bit-for-bit. A failed command prints an
``error:`` line, exits 2 and removes its partial outputs, and the output
directory too if it created it.

Dataset directories carry a ``manifest.json`` of one of two kinds:
  - ``{"kind": "pairs", "pairs": [{"file": ..., "label": ...}, ...]}``
    with per-pair CSVs (columns frame,x,y), as written by ``datagen``.
  - ``{"kind": "groups", "groups": {gid: [au_csv, ...]}, "labels":
    {gid: score}, "top_aus": int}`` referencing AU CSVs, as written by
    ``ingest``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import InteractionSample, TimeSeries
from .experiments import (
    ExperimentConfig,
    build_windowed_dataset,
    kfold_cv,
    permutation_baseline,
    sweep_lstm_count,
    train_experiment,
)
from .generate import GeneratedPair, gen_dataset, preset_pairs
from .ingest import (
    aggregate_annotations,
    group_to_sample,
    load_annotation_csv,
    load_au_csv,
    load_group_manifest,
    select_top_aus,
)
from .nn import TrainConfig, save_model


class CliError(Exception):
    """User-facing failure; message printed, non-zero exit."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunContext:
    """Tracks inputs, outputs, and the resolved config for the manifest.

    Used as a context manager around a command's work: on a clean exit it
    writes ``run_manifest.json``; on an exception it removes every output
    registered so far, and the output directory too if the run created it
    and nothing else is in it.
    """

    def __init__(self, command: str, out_dir: Path, config: dict):
        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.inputs: dict[str, str] = {}
        self.outputs: list[Path] = []
        self._created_dir = False

    def __enter__(self) -> "RunContext":
        self._created_dir = not self.out_dir.exists()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.cleanup()
            return
        try:
            self.finalize()
        except BaseException:
            self.cleanup()
            raise

    def record_input(self, path) -> Path:
        path = Path(path)
        self.inputs[str(path)] = _sha256(path)
        return path

    def output(self, name: str) -> Path:
        """Register ``name`` in the output directory as an output, before
        anything is written to it; returns its path."""
        path = self.out_dir / name
        self.outputs.append(path)
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.output(name)
        path.write_text(text)
        return path

    def finalize(self) -> Path:
        manifest = {
            "command": self.command,
            "artifact_version": __version__,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": [str(p) for p in self.outputs],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        path = self.out_dir / "run_manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path

    def cleanup(self) -> None:
        for p in self.outputs:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        if self._created_dir:
            try:
                self.out_dir.rmdir()
            except OSError:
                pass


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid config file: {exc}")
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    return doc


def _resolve(args, keys: list[str]) -> dict:
    """File config overridden by explicitly passed flags."""
    cfg = dict(_load_config_file(getattr(args, "config", None)))
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise CliError(f"bad range {text!r}, expected LO:HI")
    if not lo < hi:
        raise CliError(f"empty range {text!r}")
    return lo, hi


def _parse_counts(text: str) -> list[int]:
    if ":" in text:
        lo, hi = (int(v) for v in text.split(":"))
        if lo > hi:
            raise CliError(f"empty count range {text!r}")
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that rejects a JSON object naming a key twice,
    which ``json.loads`` would otherwise resolve by keeping the last."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def _label(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CliError(f"{where}: label {value!r} is not a number") from None


def _load_pair(data_dir: Path, entry, where: str, ctx) -> InteractionSample:
    """One pairs-kind manifest entry and its frame,x,y CSV."""
    if not isinstance(entry, dict) or not {"file", "label"} <= entry.keys():
        raise CliError(f"{where}: needs both 'file' and 'label'")
    if not isinstance(entry["file"], str):
        raise CliError(f"{where}: 'file' must be a path string")
    path = data_dir / entry["file"]
    if ctx:
        ctx.record_input(path)
    frames = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if frames.shape[1] != 3:
        raise CliError(f"{path}: expected the 3 columns frame,x,y")
    return InteractionSample(
        ((TimeSeries(frames[:, 1]),), (TimeSeries(frames[:, 2]),)),
        label=_label(entry["label"], where),
        group_id=str(entry.get("group_id", Path(entry["file"]).stem)),
    )


def load_dataset(data_dir, ctx: RunContext | None = None) -> list[InteractionSample]:
    """Read a pairs- or groups-kind dataset directory into samples.

    A malformed manifest or pair CSV, or a group id used twice, raises
    CliError.
    """
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise CliError(f"no manifest.json in {data_dir}")
    if ctx:
        ctx.record_input(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text(), object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise CliError(f"{manifest_path}: invalid JSON: {exc}") from None
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "pairs":
        entries = doc.get("pairs")
        if not isinstance(entries, list):
            raise CliError(f"{manifest_path}: 'pairs' must be a list")
        samples = [
            _load_pair(data_dir, entry, f"{manifest_path}: pair entry {i}", ctx)
            for i, entry in enumerate(entries)
        ]
    elif kind == "groups":
        groups, labels = doc.get("groups"), doc.get("labels")
        if not isinstance(groups, dict) or not isinstance(labels, dict):
            raise CliError(f"{manifest_path}: 'groups' and 'labels' must be objects")
        k = int(doc.get("top_aus", 3))
        samples = []
        for gid, files in groups.items():
            if gid not in labels:
                raise CliError(f"{manifest_path}: no label for group {gid!r}")
            recs = []
            for f in files:
                path = data_dir / f
                if ctx:
                    ctx.record_input(path)
                recs.append(load_au_csv(path, group_id=gid))
            label = _label(labels[gid], f"{manifest_path}: group {gid!r}")
            samples.append(group_to_sample(recs, label, gid, k=k))
    else:
        raise CliError(f"unknown dataset kind {kind!r} in {manifest_path}")
    seen = set()
    for s in samples:
        if s.group_id in seen:
            raise CliError(f"{manifest_path}: duplicate group id {s.group_id!r}")
        seen.add(s.group_id)
    return samples


def _experiment_config(cfg: dict) -> ExperimentConfig:
    train = TrainConfig(
        learning_rate=float(cfg.get("learning_rate", 1e-3)),
        epochs=int(cfg.get("epochs", 50)),
        batch_size=int(cfg.get("batch_size", 64)),
        optimizer=str(cfg.get("optimizer", "adam")),
        clip_norm=float(cfg.get("clip_norm", 5.0)),
        seed=int(cfg.get("seed", 0)),
        hidden_size=int(cfg.get("hidden_size", 32)),
        n_lstms=int(cfg.get("lstms", 6)),
        lookback=int(cfg.get("lookback", 30)),
        cell_activation=str(cfg.get("cell_activation", "tanh")),
    )
    return ExperimentConfig(
        window_length=int(cfg.get("window", 100)),
        stride=int(cfg.get("stride", 1)),
        train_fraction=float(cfg.get("train_fraction", 0.8)),
        n_folds=int(cfg.get("folds", 5)),
        train=train,
        seed=int(cfg.get("seed", 0)),
        aggregation=str(cfg.get("aggregation", "mean")),
        normalize=bool(cfg.get("normalize", False)),
        fold_test_size=(
            int(cfg["fold_test_size"]) if cfg.get("fold_test_size") else None
        ),
    )


def _write_pair_csv(path: Path, pair: GeneratedPair) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "x", "y"])
        for t, (xv, yv) in enumerate(zip(pair.x.values, pair.y.values)):
            writer.writerow([t, repr(float(xv)), repr(float(yv))])


def cmd_datagen(args) -> int:
    cfg = _resolve(args, ["pairs", "len", "phi_range", "seed", "preset"])
    cfg.setdefault("pairs", 100)
    cfg.setdefault("len", 1000)
    cfg.setdefault("phi_range", "0.1:0.9")
    cfg.setdefault("seed", 0)
    with RunContext("datagen", Path(args.out), cfg) as ctx:
        entries = []
        if cfg.get("preset"):
            pair = preset_pairs(cfg["preset"], int(cfg["seed"]), int(cfg["len"]))
            name = f"{cfg['preset']}.csv"
            _write_pair_csv(ctx.output(name), pair)
            entries.append({"file": name, "label": pair.coupling,
                            "group_id": cfg["preset"]})
        else:
            lo, hi = _parse_range(str(cfg["phi_range"]))
            dataset = gen_dataset(
                int(cfg["pairs"]), int(cfg["len"]), (lo, hi), int(cfg["seed"])
            )
            for i, pair in enumerate(dataset):
                name = f"pair_{i:04d}.csv"
                _write_pair_csv(ctx.output(name), pair)
                entries.append(
                    {"file": name, "label": pair.coupling, "group_id": f"pair_{i:04d}"}
                )
        ctx.write_text(
            "manifest.json",
            json.dumps(
                {"kind": "pairs", "seed": int(cfg["seed"]), "config": cfg,
                 "pairs": entries},
                indent=2,
            )
            + "\n",
        )
    return 0


_EXPERIMENT_KEYS = [
    "window", "stride", "train_fraction", "folds", "seed", "aggregation",
    "normalize", "fold_test_size", "learning_rate", "epochs", "batch_size",
    "optimizer", "clip_norm", "hidden_size", "lstms", "lookback",
    "cell_activation",
]


def _experiment_context(
    args, command: str, extra_keys: tuple[str, ...] = ()
) -> tuple[RunContext, ExperimentConfig]:
    cfg = _resolve(args, _EXPERIMENT_KEYS + ["data", *extra_keys])
    if "data" not in cfg:
        raise CliError("--data is required")
    return RunContext(command, Path(args.out), cfg), _experiment_config(cfg)


def _windowed(samples, config: ExperimentConfig):
    return build_windowed_dataset(
        samples, config.window_length, config.stride, normalize=config.normalize
    )


def cmd_train(args) -> int:
    ctx, config = _experiment_context(args, "train")
    with ctx:
        samples = load_dataset(ctx.config["data"], ctx)
        model, history = train_experiment(_windowed(samples, config), config)
        save_model(model, ctx.output("model.json"))
        ctx.write_text(
            "history.json",
            json.dumps(
                {"epochs": list(history.epochs), "best_epoch": history.best_epoch},
                indent=2,
            )
            + "\n",
        )
    return 0


def cmd_kfold(args) -> int:
    ctx, config = _experiment_context(args, "kfold")
    with ctx:
        _run_kfold(ctx, config, with_baseline=False)
    return 0


def cmd_baseline(args) -> int:
    ctx, config = _experiment_context(args, "baseline")
    with ctx:
        _run_kfold(ctx, config, with_baseline=True)
    return 0


def _run_kfold(ctx, config, with_baseline: bool) -> None:
    samples = load_dataset(ctx.config["data"], ctx)
    fold_results, report = kfold_cv(samples, config)
    ctx.write_text("report.json", report.to_json() + "\n")
    table = report.to_table("5-Fold validation")
    if with_baseline:
        baseline = permutation_baseline(samples, fold_results, config)
        ctx.write_text("baseline_report.json", baseline.to_json() + "\n")
        table += "\n" + baseline.to_table("Random").splitlines()[1]
    ctx.write_text("table.txt", table + "\n")
    folds_doc = [
        {
            "fold": fr.fold,
            "test_groups": list(fr.test_group_ids),
            "per_group": [
                {"group_id": g, "truth": y, "prediction": p}
                for g, y, p in fr.per_group
            ],
        }
        for fr in fold_results
    ]
    ctx.write_text("folds.json", json.dumps(folds_doc, indent=2) + "\n")


def cmd_sweep(args) -> int:
    ctx, config = _experiment_context(args, "sweep", ("counts",))
    ctx.config.setdefault("counts", "1:9")
    with ctx:
        samples = load_dataset(ctx.config["data"], ctx)
        counts = _parse_counts(str(ctx.config["counts"]))
        rows = sweep_lstm_count(_windowed(samples, config), counts, config)
        lines = ["count,train_error,val_error"]
        lines += [
            f"{r['count']},{r['train_error']!r},{r['val_error']!r}" for r in rows
        ]
        ctx.write_text("sweep.csv", "\n".join(lines) + "\n")
    return 0


def cmd_ingest(args) -> int:
    cfg = _resolve(args, ["manifest", "labels", "top_aus"])
    if "manifest" not in cfg or "labels" not in cfg:
        raise CliError("--manifest and --labels are required")
    cfg.setdefault("top_aus", 3)
    with RunContext("ingest", Path(args.out), cfg) as ctx:
        manifest_path = ctx.record_input(cfg["manifest"])
        groups = load_group_manifest(manifest_path)
        labels_path = ctx.record_input(cfg["labels"])
        labels = json.loads(Path(labels_path).read_text())
        base = manifest_path.parent
        summary = {}
        out_groups = {}
        for gid, files in groups.items():
            if gid not in labels:
                raise CliError(f"no label for group {gid}")
            recs = []
            for f in files:
                path = base / f
                ctx.record_input(path)
                recs.append(load_au_csv(path, group_id=gid))
            sample = group_to_sample(
                recs, float(labels[gid]), gid, k=int(cfg["top_aus"])
            )
            summary[gid] = {
                "participants": sample.n_participants,
                "frames": sample.n_frames,
                "label": sample.label,
                "selected_aus": select_top_aus(recs, k=int(cfg["top_aus"])),
            }
            out_groups[gid] = [str((base / f).resolve()) for f in files]
        ctx.write_text(
            "manifest.json",
            json.dumps(
                {
                    "kind": "groups",
                    "groups": out_groups,
                    "labels": {g: float(labels[g]) for g in groups},
                    "top_aus": int(cfg["top_aus"]),
                },
                indent=2,
            )
            + "\n",
        )
        ctx.write_text("summary.json", json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_annotate(args) -> int:
    cfg = _resolve(args, ["scores", "threshold", "pooled"])
    if "scores" not in cfg:
        raise CliError("--scores is required")
    cfg.setdefault("threshold", 1.0)
    cfg.setdefault("pooled", False)
    with RunContext("annotate", Path(args.out), cfg) as ctx:
        scores_path = ctx.record_input(cfg["scores"])
        sets = load_annotation_csv(scores_path)
        labels, flagged, removed = aggregate_annotations(
            sets,
            variance_threshold=float(cfg["threshold"]),
            pooled=bool(cfg["pooled"]),
        )
        ctx.write_text(
            "labels.json",
            json.dumps(
                {
                    "labels": labels,
                    "flagged_groups": flagged,
                    "removed_labeler": removed,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synchrony",
        description="Synthesize coupled signal pairs and estimate synchrony "
        "with a parallel-LSTM regressor.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("datagen", help="generate coupled signal pairs")
    add_common(p)
    p.add_argument("--pairs", type=int)
    p.add_argument("--len", type=int)
    p.add_argument("--phi-range", dest="phi_range", help="LO:HI coupling range")
    p.add_argument("--preset", choices=["stationary", "shifted", "trended"])
    p.set_defaults(func=cmd_datagen)

    def add_experiment(p):
        add_common(p)
        p.add_argument("--data", help="dataset directory with manifest.json")
        p.add_argument("--window", type=int)
        p.add_argument("--stride", type=int)
        p.add_argument("--train-fraction", dest="train_fraction", type=float)
        p.add_argument("--folds", type=int)
        p.add_argument("--fold-test-size", dest="fold_test_size", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--optimizer", choices=["adam", "sgd"])
        p.add_argument("--clip-norm", dest="clip_norm", type=float)
        p.add_argument("--hidden-size", dest="hidden_size", type=int)
        p.add_argument("--lstms", type=int)
        p.add_argument("--lookback", type=int)
        p.add_argument("--cell-activation", dest="cell_activation",
                       choices=["tanh", "relu"])
        p.add_argument("--aggregation", choices=["mean", "median"])
        p.add_argument("--normalize", action="store_const", const=True)

    p = sub.add_parser("train", help="train one model on a dataset")
    add_experiment(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("kfold", help="group-level k-fold cross-validation")
    add_experiment(p)
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("baseline", help="k-fold plus chimeric-group control")
    add_experiment(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="sweep the number of LSTM networks")
    add_experiment(p)
    p.add_argument("--counts", help="e.g. 1:9 or 1,3,5")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ingest", help="validate AU CSVs and build a dataset")
    add_common(p)
    p.add_argument("--manifest", help="group manifest JSON")
    p.add_argument("--labels", help="per-group labels JSON")
    p.add_argument("--top-aus", dest="top_aus", type=int)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("annotate", help="aggregate multi-annotator scores")
    add_common(p)
    p.add_argument("--scores", help="annotation CSV")
    p.add_argument("--threshold", type=float)
    p.add_argument("--pooled", action="store_const", const=True)
    p.set_defaults(func=cmd_annotate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
