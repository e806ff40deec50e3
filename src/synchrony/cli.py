"""Command-line entry point.

Subcommands: datagen, train, kfold, baseline, sweep, ingest, annotate.
Each setting is declared once, in ``_SETTINGS``: its flag ``--key`` (dashes
for underscores), its config-file key ``key``, its type or choices and its
default. An experiment setting names the ``ExperimentConfig`` or
``TrainConfig`` field it sets, and that field's dataclass default is its
only default. A ``--config`` JSON file is checked against the same types
and choices as the flags, a key the command does not take is an error,
and flags override file values.

Every run writes a manifest (the resolved config with every default filled
in, input hashes, output paths) next to its outputs; re-running with the
same inputs and seed reproduces the result files bit-for-bit. Outputs are
written under temporary names and replace any earlier files only when the
command succeeds. A failed command prints an ``error:`` line, exits 2 and
removes its temporary files, and the output directory too if it created
it; the files of an earlier run there are left as they were.

Dataset directories carry a ``manifest.json`` of one of two kinds:
  - ``{"kind": "pairs", "pairs": [{"file": ..., "label": ...}, ...]}``
    with per-pair CSVs (columns frame,x,y), as written by ``datagen`` and
    read by ``ingest.read_frame_csv`` under the AU CSVs' frame rule.
  - ``{"kind": "groups", "groups": {gid: [au_csv, ...]}, "labels":
    {gid: score}, "top_aus": int}`` referencing AU CSVs, as written by
    ``ingest``. ``ingest`` reads the same groups and labels, as two files,
    through the same validated loader.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from . import __version__
from .core import InteractionSample
from .experiments import (
    AGGREGATIONS,
    ExperimentConfig,
    kfold_cv,
    permutation_baseline,
    sweep_lstm_count,
    train_experiment,
)
from .generate import COUPLING_RANGE, PRESETS, GeneratedPair, gen_dataset, preset_pairs
from .ingest import (
    aggregate_annotations,
    group_to_sample,
    load_annotation_csv,
    load_au_csv,
    read_frame_csv,
    select_top_aus,
)
from .nn import CELL_ACTIVATIONS, OPTIMIZERS, TrainConfig, save_model


class CliError(Exception):
    """User-facing failure; message printed, exit 2."""


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


@dataclass(frozen=True)
class Setting:
    """One setting: flag ``--key`` and config-file key ``key``.

    ``fields`` are the ``ExperimentConfig`` fields it sets (``train.x`` for
    a ``TrainConfig`` field); the first one's dataclass default is then the
    default, and the setting is always recorded. Otherwise ``default`` is
    the default, ``_REQUIRED``, or None for a setting left out unless given.
    A bool setting is a flag that sets True.
    """

    key: str
    type: type
    default: object = None
    choices: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()
    help: str | None = None

    def __post_init__(self):
        if self.fields:
            default = attrgetter(self.fields[0])(ExperimentConfig())
            object.__setattr__(self, "default", default)

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def check(self, value, where: str):
        """A config-file value, checked as the flag checks it."""
        if value is None and self.default is None:
            return None
        if self.type is float and type(value) is int:
            value = float(value)
        if type(value) is not self.type:
            raise CliError(f"{where}: {self.key!r} must be {_KINDS[self.type]}, "
                           f"not {value!r}")
        if self.choices and value not in self.choices:
            raise CliError(f"{where}: {self.key!r} must be one of "
                           f"{', '.join(self.choices)}, not {value!r}")
        return value


_SETTINGS = {s.key: s for s in (
    Setting("seed", int, fields=("seed", "train.seed")),
    Setting("pairs", int, 100),
    Setting("len", int, 1000),
    Setting("phi_range", str, "{}:{}".format(*COUPLING_RANGE), help="LO:HI coupling range"),
    Setting("preset", str, choices=tuple(PRESETS)),
    Setting("data", str, _REQUIRED, help="dataset directory with manifest.json"),
    Setting("window", int, fields=("window_length",)),
    Setting("stride", int, fields=("stride",)),
    Setting("train_fraction", float, fields=("train_fraction",)),
    Setting("folds", int, fields=("n_folds",)),
    Setting("fold_test_size", int, fields=("fold_test_size",)),
    Setting("learning_rate", float, fields=("train.learning_rate",)),
    Setting("epochs", int, fields=("train.epochs",)),
    Setting("batch_size", int, fields=("train.batch_size",)),
    Setting("optimizer", str, choices=OPTIMIZERS, fields=("train.optimizer",)),
    Setting("clip_norm", float, fields=("train.clip_norm",)),
    Setting("hidden_size", int, fields=("train.hidden_size",)),
    Setting("lstms", int, fields=("train.n_lstms",)),
    Setting("lookback", int, fields=("train.lookback",)),
    Setting("cell_activation", str, choices=CELL_ACTIVATIONS,
            fields=("train.cell_activation",)),
    Setting("aggregation", str, choices=tuple(AGGREGATIONS), fields=("aggregation",)),
    Setting("normalize", bool, fields=("normalize",)),
    Setting("counts", str, "1:9", help="e.g. 1:9 or 1,3,5"),
    Setting("manifest", str, _REQUIRED, help="group manifest JSON"),
    Setting("labels", str, _REQUIRED, help="per-group labels JSON"),
    Setting("top_aus", int, 3),
    Setting("scores", str, _REQUIRED, help="annotation CSV"),
    Setting("threshold", float, 1.0),
    Setting("pooled", bool, False),
)}

_EXPERIMENT = ("data", *(key for key, s in _SETTINGS.items() if s.fields))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunContext:
    """Tracks inputs, outputs, and the resolved config for the manifest.

    Used as a context manager around a command's work. Each output is
    written under a temporary name in the output directory; on a clean exit
    every one is moved to its final name and then ``run_manifest.json`` is
    written. On an exception the temporary files are removed, and the
    output directory too if the run created it and nothing else is in it.
    """

    def __init__(self, command: str, out_dir: Path, config: dict):
        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.inputs: dict[str, str] = {}
        self.outputs: dict[Path, Path] = {}  # final path: temporary path
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
        """Register ``name`` in the output directory as an output; returns
        the temporary path to write it to."""
        tmp = self.out_dir / f".{name}.partial"
        self.outputs[self.out_dir / name] = tmp
        return tmp

    def write_text(self, name: str, text: str) -> None:
        self.output(name).write_text(text)

    def write_json(self, name: str, doc, sort_keys: bool = False) -> None:
        self.write_text(name, json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")

    def finalize(self) -> None:
        for final, tmp in self.outputs.items():
            os.replace(tmp, final)
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

    def cleanup(self) -> None:
        # a directory this run created holds nothing of an earlier run
        doomed = [*self.outputs.values(), *(self.outputs if self._created_dir else ())]
        for p in doomed:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        if self._created_dir:
            try:
                self.out_dir.rmdir()
            except OSError:
                pass


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that rejects a JSON object naming a key twice,
    which ``json.loads`` would otherwise resolve by keeping the last."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def _read_json(path: Path):
    """A JSON file's document; invalid JSON or an object naming a key twice
    raises CliError."""
    try:
        return json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None


def _resolve(args) -> tuple[dict, ExperimentConfig | None]:
    """The command's settings, checked: config-file values overridden by
    flags, then defaults; and, for an experiment command, the
    ``ExperimentConfig`` they set."""
    settings = [_SETTINGS[key] for key in _COMMANDS[args.command][2]]
    cfg = {}
    if args.config is not None:
        path = Path(args.config)
        cfg = _read_json(path)
        if not isinstance(cfg, dict):
            raise CliError(f"{path}: config file must hold a JSON object")
        by_key = {s.key: s for s in settings}
        for key, value in cfg.items():
            if key not in by_key:
                raise CliError(f"{path}: {args.command} takes no setting {key!r}")
            cfg[key] = by_key[key].check(value, str(path))
    for s in settings:
        if getattr(args, s.key) is not None:
            cfg[s.key] = getattr(args, s.key)
    for s in settings:
        if s.key not in cfg:
            if s.default is _REQUIRED:
                raise CliError(f"{s.flag} is required")
            if s.default is not None or s.fields:
                cfg[s.key] = s.default
    if "data" not in cfg:  # datagen, ingest and annotate run no experiment
        return cfg, None
    fields: dict[str, dict] = {"": {}, "train": {}}
    for s in settings:
        for f in s.fields:
            part, _, name = f.rpartition(".")
            fields[part][name] = cfg[s.key]
    return cfg, ExperimentConfig(train=TrainConfig(**fields["train"]), **fields[""])


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise CliError(f"bad range {text!r}, expected LO:HI")
    if not lo < hi:
        raise CliError(f"empty range {text!r}")
    return lo, hi


def _parse_counts(text: str) -> list[int]:
    """The LSTM counts of ``--counts``: ``LO:HI`` (both included) or a comma
    list."""
    bad = CliError(f"bad --counts {text!r}: expected LO:HI with 1 <= LO <= HI, "
                   "or a comma list of positive integers such as 1,3,5")
    lo, colon, hi = text.partition(":")
    try:
        counts = (list(range(int(lo), int(hi) + 1)) if colon
                  else [int(v) for v in text.split(",")])
    except ValueError:
        raise bad from None
    if not counts or min(counts) < 1:
        raise bad
    return counts


def _label(value, where: str) -> float:
    if type(value) not in (int, float):  # not a bool, a string or null
        raise CliError(f"{where}: label {value!r} is not a number")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or an int too large
        raise CliError(f"{where}: label {value!r} is not a finite float64")
    return float(value)


def _load_pair(data_dir: Path, entry, where: str, ctx) -> InteractionSample:
    """One pairs-kind manifest entry and its frame,x,y CSV; an error names
    the entry or the CSV."""
    if not isinstance(entry, dict) or not {"file", "label"} <= entry.keys():
        raise CliError(f"{where}: needs both 'file' and 'label'")
    if not isinstance(entry["file"], str):
        raise CliError(f"{where}: 'file' must be a path string")
    path = data_dir / entry["file"]
    if ctx:
        ctx.record_input(path)
    names, values = read_frame_csv(path)
    if len(names) != 2:
        raise CliError(f"{path}: expected the 3 columns frame,x,y")
    return InteractionSample(
        values[:, :, None],
        label=_label(entry["label"], where),
        group_id=str(entry.get("group_id", Path(entry["file"]).stem)),
    )


def _load_groups(
    base: Path, groups, labels, top_aus, where: str, ctx
) -> list[tuple[InteractionSample, list[str]]]:
    """Each group of a groups mapping ({gid: [AU CSV relative to base, ...]})
    as a labelled sample of its ``top_aus`` most active AUs, with the names
    of those AUs. A malformed mapping, labels object or ``top_aus``, or a
    group whose recordings make no sample, raises CliError naming it."""
    if not isinstance(groups, dict) or not isinstance(labels, dict):
        raise CliError(f"{where}: 'groups' and 'labels' must be objects")
    if type(top_aus) is not int or top_aus < 1:
        raise CliError(f"{where}: 'top_aus' must be a positive integer, not {top_aus!r}")
    loaded = []
    for gid, files in groups.items():
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise CliError(f"{where}: group {gid!r} must list its AU CSV paths")
        if gid not in labels:
            raise CliError(f"{where}: no label for group {gid!r}")
        label = _label(labels[gid], f"{where}: group {gid!r}")
        recs = []
        for f in files:
            path = base / f
            if ctx:
                ctx.record_input(path)
            recs.append(load_au_csv(path))
        try:
            aus = select_top_aus(recs, k=top_aus)
            loaded.append((group_to_sample(recs, aus, label, gid), aus))
        except ValueError as exc:
            raise CliError(f"{where}: group {gid!r}: {exc}") from None
    return loaded


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
    doc = _read_json(manifest_path)
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
        top_aus = doc.get("top_aus", _SETTINGS["top_aus"].default)
        samples = [s for s, _ in _load_groups(data_dir, doc.get("groups"), doc.get("labels"),
                                              top_aus, str(manifest_path), ctx)]
    else:
        raise CliError(f"unknown dataset kind {kind!r} in {manifest_path}")
    seen = set()
    for s in samples:
        if s.group_id in seen:
            raise CliError(f"{manifest_path}: duplicate group id {s.group_id!r}")
        seen.add(s.group_id)
    return samples


def _write_pair_csv(path: Path, pair: GeneratedPair) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "x", "y"])
        for t, (xv, yv) in enumerate(zip(pair.x.values, pair.y.values)):
            writer.writerow([t, repr(float(xv)), repr(float(yv))])


def cmd_datagen(ctx: RunContext, _: None) -> None:
    cfg = ctx.config
    entries = []
    if cfg.get("preset"):
        pair = preset_pairs(cfg["preset"], cfg["seed"], cfg["len"])
        name = f"{cfg['preset']}.csv"
        _write_pair_csv(ctx.output(name), pair)
        entries.append({"file": name, "label": pair.coupling, "group_id": cfg["preset"]})
    else:
        lo, hi = _parse_range(cfg["phi_range"])
        for i, pair in enumerate(gen_dataset(cfg["pairs"], cfg["len"], (lo, hi), cfg["seed"])):
            name = f"pair_{i:04d}.csv"
            _write_pair_csv(ctx.output(name), pair)
            entries.append({"file": name, "label": pair.coupling, "group_id": f"pair_{i:04d}"})
    ctx.write_json("manifest.json", {"kind": "pairs", "seed": cfg["seed"], "config": cfg,
                                     "pairs": entries})


def cmd_train(ctx: RunContext, config: ExperimentConfig) -> None:
    samples = load_dataset(ctx.config["data"], ctx)
    model, history = train_experiment(samples, config)
    save_model(model, ctx.output("model.json"))
    ctx.write_json("history.json",
                   {"epochs": list(history.epochs), "best_epoch": history.best_epoch})


def cmd_kfold(ctx: RunContext, config: ExperimentConfig) -> None:
    """``kfold``, and ``baseline``, which adds the chimeric-group control."""
    samples = load_dataset(ctx.config["data"], ctx)
    fold_results, report = kfold_cv(samples, config)
    ctx.write_text("report.json", report.to_json() + "\n")
    table = report.to_table(f"{config.n_folds}-Fold validation")
    if ctx.command == "baseline":
        baseline = permutation_baseline(samples, fold_results, config)
        ctx.write_text("baseline_report.json", baseline.to_json() + "\n")
        table += "\n" + baseline.to_table("Random").splitlines()[1]
    ctx.write_text("table.txt", table + "\n")
    ctx.write_json("folds.json", [
        {
            "fold": fr.fold,
            "test_groups": list(fr.test_group_ids),
            "per_group": [
                {"group_id": g, "truth": y, "prediction": p} for g, y, p in fr.per_group
            ],
        }
        for fr in fold_results
    ])


def cmd_sweep(ctx: RunContext, config: ExperimentConfig) -> None:
    counts = _parse_counts(ctx.config["counts"])
    samples = load_dataset(ctx.config["data"], ctx)
    rows = sweep_lstm_count(samples, counts, config)
    lines = ["count,train_error,val_error"]
    lines += [f"{r['count']},{r['train_error']!r},{r['val_error']!r}" for r in rows]
    ctx.write_text("sweep.csv", "\n".join(lines) + "\n")


def cmd_ingest(ctx: RunContext, _: None) -> None:
    cfg = ctx.config
    manifest_path = ctx.record_input(cfg["manifest"])
    labels_path = ctx.record_input(cfg["labels"])
    groups = _read_json(manifest_path)
    base = manifest_path.parent
    loaded = _load_groups(base, groups, _read_json(labels_path), cfg["top_aus"],
                          f"{manifest_path}, {labels_path}", ctx)
    ctx.write_json("manifest.json", {
        "kind": "groups",
        "groups": {s.group_id: [str((base / f).resolve()) for f in groups[s.group_id]]
                   for s, _ in loaded},
        "labels": {s.group_id: s.label for s, _ in loaded},
        "top_aus": cfg["top_aus"],
    })
    ctx.write_json("summary.json", {
        s.group_id: {
            "participants": s.n_participants,
            "frames": s.n_frames,
            "label": s.label,
            "selected_aus": aus,
        }
        for s, aus in loaded
    })


def cmd_annotate(ctx: RunContext, _: None) -> None:
    cfg = ctx.config
    sets = load_annotation_csv(ctx.record_input(cfg["scores"]))
    labels, flagged, removed = aggregate_annotations(
        sets, variance_threshold=cfg["threshold"], pooled=cfg["pooled"]
    )
    ctx.write_json("labels.json", {"labels": labels, "flagged_groups": flagged,
                                   "removed_labeler": removed}, sort_keys=True)


# name: (function, help, the keys of its settings in _SETTINGS)
_COMMANDS = {
    "datagen": (cmd_datagen, "generate coupled signal pairs",
                ("pairs", "len", "phi_range", "seed", "preset")),
    "train": (cmd_train, "train one model on a dataset", _EXPERIMENT),
    "kfold": (cmd_kfold, "group-level k-fold cross-validation", _EXPERIMENT),
    "baseline": (cmd_kfold, "k-fold plus chimeric-group control", _EXPERIMENT),
    "sweep": (cmd_sweep, "sweep the number of LSTM networks", _EXPERIMENT + ("counts",)),
    "ingest": (cmd_ingest, "validate AU CSVs and build a dataset",
               ("manifest", "labels", "top_aus", "seed")),
    "annotate": (cmd_annotate, "aggregate multi-annotator scores",
                 ("scores", "threshold", "pooled", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synchrony",
        description="Synthesize coupled signal pairs and estimate synchrony "
        "with a parallel-LSTM regressor.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default="out", help="output directory")
        for s in (_SETTINGS[key] for key in keys):
            if s.type is bool:
                p.add_argument(s.flag, dest=s.key, action="store_const", const=True,
                               help=s.help)
            else:
                p.add_argument(s.flag, dest=s.key, type=s.type,
                               choices=s.choices or None, help=s.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, config = _resolve(args)
        with RunContext(args.command, Path(args.out), cfg) as ctx:
            _COMMANDS[args.command][0](ctx, config)
        return 0
    except (CliError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
