import argparse
import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from synchrony import cli
from synchrony.cli import build_parser, main
from synchrony.experiments import ExperimentConfig, kfold_cv
from synchrony.nn import TrainConfig


def run(argv):
    return main(argv)


def datagen_dir(tmp_path, pairs=6, length=60, seed=3):
    out = tmp_path / "data"
    code = run([
        "datagen", "--pairs", str(pairs), "--len", str(length),
        "--phi-range", "0.1:0.9", "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out


TINY = [
    "--window", "20", "--stride", "5", "--epochs", "1", "--batch-size", "32",
    "--hidden-size", "4", "--lstms", "2", "--lookback", "5", "--seed", "1",
]


def no_training(*args, **kwargs):
    raise AssertionError("a model trained before the fault was caught")


def test_datagen_writes_pairs_and_manifest(tmp_path):
    out = datagen_dir(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "pairs"
    assert len(manifest["pairs"]) == 6
    for entry in manifest["pairs"]:
        assert (out / entry["file"]).exists()
        assert 0.1 <= entry["label"] <= 0.9
    run_manifest = json.loads((out / "run_manifest.json").read_text())
    assert run_manifest["command"] == "datagen"
    assert run_manifest["config"]["seed"] == 3


def test_datagen_preset(tmp_path):
    out = tmp_path / "preset"
    assert run(["datagen", "--preset", "shifted", "--len", "100",
                "--out", str(out)]) == 0
    rows = (out / "shifted.csv").read_text().strip().splitlines()
    assert rows[0] == "frame,x,y"
    assert len(rows) - 1 == 99  # delay of one trims a sample


def test_datagen_invalid_range_exit_2(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run(["datagen", "--pairs", "2", "--len", "50",
                "--phi-range", "0.9:0.1", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


def test_train_command(tmp_path):
    data = datagen_dir(tmp_path)
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--out", str(out)] + TINY) == 0
    assert (out / "model.json").exists()
    history = json.loads((out / "history.json").read_text())
    assert len(history["epochs"]) == 1
    from synchrony.nn import load_model

    model = load_model(out / "model.json")
    assert model.n_lstms == 2


def test_kfold_command_and_determinism(tmp_path):
    data = datagen_dir(tmp_path)
    out1 = tmp_path / "k1"
    out2 = tmp_path / "k2"
    args = ["kfold", "--data", str(data), "--folds", "3"] + TINY
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    report = json.loads((out1 / "report.json").read_text())
    for key in ("mean_abs_percent_error", "std_percent_error", "r_squared"):
        assert key in report
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    table = (out1 / "table.txt").read_text().splitlines()
    assert table[1].startswith("3-Fold validation ")
    assert (out1 / "folds.json").exists()


def test_baseline_command(tmp_path):
    data = datagen_dir(tmp_path)
    out = tmp_path / "b"
    assert run(["baseline", "--data", str(data), "--folds", "3",
                "--out", str(out)] + TINY) == 0
    baseline = json.loads((out / "baseline_report.json").read_text())
    assert baseline["n_groups"] == 6
    table = (out / "table.txt").read_text()
    assert "Random" in table


def test_sweep_command(tmp_path):
    data = datagen_dir(tmp_path)
    out = tmp_path / "s"
    assert run(["sweep", "--data", str(data), "--counts", "1:3",
                "--out", str(out)] + TINY) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "count,train_error,val_error"
    assert len(rows) == 4


@pytest.mark.parametrize("counts", ["1:3:5", "a", "1,0", "0:2", "3:1", "1,,2", ""])
def test_sweep_rejects_bad_counts_before_training(tmp_path, capsys, monkeypatch, counts):
    from synchrony import experiments

    data = datagen_dir(tmp_path)
    monkeypatch.setattr(experiments, "loss_and_grads", no_training)
    capsys.readouterr()
    out = tmp_path / "s"
    assert run(["sweep", "--data", str(data), "--counts", counts,
                "--out", str(out)] + TINY) == 2
    err = capsys.readouterr().err
    assert err == (f"error: bad --counts {counts!r}: expected LO:HI with "
                   "1 <= LO <= HI, or a comma list of positive integers such as 1,3,5\n")
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    data = datagen_dir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "window": 20, "stride": 5, "epochs": 1, "batch_size": 32,
        "hidden_size": 4, "lstms": 2, "lookback": 5, "seed": 1, "folds": 3,
        "clip_norm": 5, "normalize": False, "fold_test_size": None,
    }))
    out = tmp_path / "c"
    assert run(["kfold", "--data", str(data), "--config", str(cfg),
                "--folds", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["folds"] == 2  # flag wins over file
    assert manifest["config"]["clip_norm"] == 5.0
    assert manifest["config"]["normalize"] is False


def test_defaults_have_one_source(tmp_path, monkeypatch):
    """With only --data and --out, kfold runs the dataclass defaults and
    records every experiment setting at its default."""
    data = datagen_dir(tmp_path, pairs=5, length=101)
    seen = []

    def spy(samples, config):
        seen.append(config)
        return kfold_cv(samples, config)

    monkeypatch.setattr(cli, "kfold_cv", spy)
    out = tmp_path / "d"
    assert run(["kfold", "--data", str(data), "--out", str(out)]) == 0
    d, t = ExperimentConfig(), TrainConfig()
    assert seen == [d]
    assert json.loads((out / "run_manifest.json").read_text())["config"] == {
        "data": str(data), "window": d.window_length, "stride": d.stride,
        "train_fraction": d.train_fraction, "folds": d.n_folds,
        "fold_test_size": d.fold_test_size, "seed": d.seed,
        "aggregation": d.aggregation, "normalize": d.normalize,
        "learning_rate": t.learning_rate, "epochs": t.epochs,
        "batch_size": t.batch_size, "optimizer": t.optimizer,
        "clip_norm": t.clip_norm, "hidden_size": t.hidden_size,
        "lstms": t.n_lstms, "lookback": t.lookback,
        "cell_activation": t.cell_activation,
    }


COMMON_FLAGS = {"-h", "--help", "--config", "--out", "--seed"}
EXPERIMENT_FLAGS = COMMON_FLAGS | {
    "--data", "--window", "--stride", "--train-fraction", "--folds",
    "--fold-test-size", "--learning-rate", "--epochs", "--batch-size",
    "--optimizer", "--clip-norm", "--hidden-size", "--lstms", "--lookback",
    "--cell-activation", "--aggregation", "--normalize",
}
FLAGS = {
    "datagen": COMMON_FLAGS | {"--pairs", "--len", "--phi-range", "--preset"},
    "train": EXPERIMENT_FLAGS,
    "kfold": EXPERIMENT_FLAGS,
    "baseline": EXPERIMENT_FLAGS,
    "sweep": EXPERIMENT_FLAGS | {"--counts"},
    "ingest": COMMON_FLAGS | {"--manifest", "--labels", "--top-aus"},
    "annotate": COMMON_FLAGS | {"--scores", "--threshold", "--pooled"},
}
CHOICES = {
    "--preset": ["stationary", "shifted", "trended"],
    "--optimizer": ["adam", "sgd"],
    "--cell-activation": ["tanh", "relu"],
    "--aggregation": ["mean", "median"],
}


def test_every_config_field_has_a_setting():
    """Every ExperimentConfig field but ``train``, and every TrainConfig
    field, is named by some setting in ``_SETTINGS``: a value no caller can
    set belongs in a constant, not a config field."""
    reached = {f for s in cli._SETTINGS.values() for f in s.fields}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"train"}
    fields |= {f"train.{f.name}" for f in dataclasses.fields(TrainConfig)}
    assert fields == reached


def test_parser_offers_the_same_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sub.choices.keys() == FLAGS.keys()
    for name, parser in sub.choices.items():
        actions = {o: a for a in parser._actions for o in a.option_strings}
        assert actions.keys() == FLAGS[name], name
        for flag, action in actions.items():
            assert (action.choices and list(action.choices)) == CHOICES.get(flag), flag


def _edit_manifest(data, change):
    path = data / "manifest.json"
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _csv_rows(rows):
    """A fault that leaves only ``rows`` below pair_0000.csv's header."""
    def fault(data, monkeypatch):
        (data / "pair_0000.csv").write_text("frame,x,y\n" + rows)
    return fault


def _frames(frames):
    """CSV rows numbered ``frames``; 60 of them are enough for TINY's
    window, so only the frame check can stop the run."""
    return "".join(f"{f},0.5,0.25\n" for f in frames)


def _label_twice(data, monkeypatch):
    path = data / "manifest.json"
    text = path.read_text()
    path.write_text(text.replace('"label": ', '"label": 0.5, "label": ', 1))


def _diverge(data, monkeypatch):
    from synchrony import experiments

    def overflow(*args, **kwargs):
        raise FloatingPointError("numerical overflow in forward pass")

    monkeypatch.setattr(experiments, "loss_and_grads", overflow)


def _duplicate_group(doc):
    doc["pairs"][1]["group_id"] = doc["pairs"][0]["group_id"]


def _kfold_after(fault):
    """kfold on a pairs dataset that ``fault(data, monkeypatch)`` broke."""
    def argv(tmp_path, monkeypatch):
        data = datagen_dir(tmp_path)
        fault(data, monkeypatch)
        return ["kfold", "--data", str(data)] + TINY
    return argv


def _kfold_with_flags(*flags):
    def argv(tmp_path, monkeypatch):
        return ["kfold", "--data", str(datagen_dir(tmp_path))] + TINY + list(flags)
    return argv


def _kfold_with_config(doc):
    def argv(tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return ["kfold", "--data", str(datagen_dir(tmp_path)), "--config", str(cfg)] + TINY
    return argv


def _kfold_on_groups(change):
    """kfold on an ingested groups dataset whose manifest ``change`` broke."""
    def argv(tmp_path, monkeypatch):
        data = ingested_dir(tmp_path)
        _edit_manifest(data, change)
        return ["kfold", "--data", str(data), "--folds", "3"] + TINY
    return argv


def _ingest_after(fault):
    """ingest of the group fixture after ``fault(src)`` broke it."""
    def argv(tmp_path, monkeypatch):
        src = write_group_fixture(tmp_path)
        fault(src)
        return ["ingest", "--manifest", str(src / "groups.json"),
                "--labels", str(src / "labels.json")]
    return argv


def _ingest_with_labels(text):
    return _ingest_after(lambda src: (src / "labels.json").write_text(text))


def _rewrite_au_csv(name, change):
    """A fault that replaces the lines of the fixture's AU CSV ``name`` by
    ``change(lines)``."""
    def fault(src):
        path = src / name
        path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")
    return fault


def _annotate_on(body: bytes, *flags: str):
    def argv(tmp_path, monkeypatch):
        scores = tmp_path / "ann.csv"
        scores.write_bytes(body)
        return ["annotate", "--scores", str(scores), *flags]
    return argv


FAULTS = {
    "no-manifest": _kfold_after(lambda data, mp: (data / "manifest.json").unlink()),
    "missing-label": _kfold_after(lambda data, mp: _edit_manifest(
        data, lambda doc: doc["pairs"][0].pop("label"))),
    "label-not-a-number": _kfold_after(lambda data, mp: _edit_manifest(
        data, lambda doc: doc["pairs"][1].update(label="0.5"))),
    "missing-file": _kfold_after(lambda data, mp: _edit_manifest(
        data, lambda doc: doc["pairs"][2].pop("file"))),
    "one-row-csv": _kfold_after(_csv_rows("0,0.5,0.25\n")),
    "header-only-csv": _kfold_after(_csv_rows("")),
    "non-numeric-cell": _kfold_after(_csv_rows("0,0.5,0.25\n1,abc,0.25\n")),
    "nan-cell": _kfold_after(_csv_rows("0,0.5,0.25\n1,nan,0.25\n")),
    "byte-not-utf8": _kfold_after(lambda data, mp: (data / "pair_0000.csv").write_bytes(
        b"frame,x,y\n0,0.5,0.25\n1,\xff,0.25\n")),
    "column-named-twice": _kfold_after(lambda data, mp: (data / "pair_0000.csv").write_text(
        "frame,x,x\n" + _frames(range(60)))),
    "swapped-frames": _kfold_after(_csv_rows(_frames([0, 1, 2, 4, 3, *range(5, 60)]))),
    "frame-gap": _kfold_after(_csv_rows(_frames([*range(10), *range(11, 61)]))),
    "fractional-frame": _kfold_after(_csv_rows(_frames([f + 0.5 for f in range(60)]))),
    "frame-gap-after-comment": _kfold_after(_csv_rows(
        _frames(range(5)) + "# a comment line\n\n" + _frames(range(6, 61)))),
    "nan-label": _kfold_after(lambda data, mp: _edit_manifest(
        data, lambda doc: doc["pairs"][1].update(label=float("nan")))),
    "label-too-large": _kfold_after(lambda data, mp: _edit_manifest(
        data, lambda doc: doc["pairs"][1].update(label=10**400))),
    "unknown-kind": _kfold_after(lambda data, mp: _edit_manifest(
        data, lambda doc: doc.update(kind="triples"))),
    "duplicate-group-id": _kfold_after(
        lambda data, mp: _edit_manifest(data, _duplicate_group)),
    "duplicate-json-key": _kfold_after(_label_twice),
    "divergence": _kfold_after(_diverge),
    "config-typo-key": _kfold_with_config({"epoch": 3}),
    "config-string-bool": _kfold_with_config({"normalize": "false"}),
    "config-fractional-int": _kfold_with_config({"epochs": 1.9}),
    "negative-clip-norm": _kfold_with_flags("--clip-norm", "-5"),
    "zero-clip-norm": _kfold_with_flags("--clip-norm", "0"),
    "config-nan-learning-rate": _kfold_with_config({"learning_rate": float("nan")}),
    "groups-null-top-aus": _kfold_on_groups(lambda doc: doc.update(top_aus=None)),
    "groups-number-not-files": _kfold_on_groups(lambda doc: doc["groups"].update(g0=5)),
    "groups-non-string-file": _kfold_on_groups(
        lambda doc: doc["groups"].update(g0=[1, 2, 3])),
    "ingest-null-label": _ingest_with_labels('{"g0": null, "g1": 2.0, "g2": 3.0}'),
    "ingest-label-twice": _ingest_with_labels(
        '{"g0": 1.0, "g1": 2.0, "g2": 3.0, "g0": 1.5}'),
    "ingest-member-longer": _ingest_after(_rewrite_au_csv(
        "g1_p1.csv", lambda lines: lines + [f"{i},1,2,3,4" for i in range(60, 65)])),
    "ingest-too-few-shared-aus": _ingest_after(_rewrite_au_csv(
        "g1_p2.csv", lambda lines: [line.rsplit(",", 2)[0] for line in lines])),
    "ingest-au-named-twice": _ingest_after(_rewrite_au_csv(
        "g1_p1.csv", lambda lines: ["frame,AU01,AU01,AU04,AU06", *lines[1:]])),
    "annotate-byte-not-utf8": _annotate_on(b"g1,l1,2\ng1,l2,2\ng1,l\xff3,2\n"),
    "annotate-short-row": _annotate_on(b"g1,l1,2\ng1,l2\n"),
    "annotate-nan-threshold": _annotate_on(
        b"g1,l1,1\ng1,l2,3\ng1,l3,5\ng2,l1,2\ng2,l2,2\ng2,l3,2\n", "--threshold", "nan"),
}


# what the error line of a fault must name
NAMED = {
    "header-only-csv": "pair_0000.csv: ",
    "non-numeric-cell": "pair_0000.csv: line 3: ",
    "swapped-frames": "pair_0000.csv: line 5: ",
    "frame-gap": "pair_0000.csv: line 12: ",
    "fractional-frame": "pair_0000.csv: line 2: ",
    "frame-gap-after-comment": "pair_0000.csv: line 9: ",
    "nan-cell": "pair_0000.csv: line 3: ",
    "byte-not-utf8": "pair_0000.csv: line 3: not UTF-8 text",
    "column-named-twice": "pair_0000.csv: line 1: column 'x' named twice",
    "nan-label": "manifest.json: pair entry 1: ",
    "label-too-large": "manifest.json: pair entry 1: ",
    "negative-clip-norm": "clip_norm",
    "zero-clip-norm": "clip_norm",
    "config-nan-learning-rate": "learning_rate",
    "ingest-member-longer": "group 'g1': ",
    "ingest-too-few-shared-aus": "group 'g1': ",
    "ingest-au-named-twice": "g1_p1.csv: line 1: column 'AU01' named twice",
    "annotate-byte-not-utf8": "ann.csv: line 3: not UTF-8 text",
    "annotate-short-row": "ann.csv: line 2: short row",
    "annotate-nan-threshold": "variance threshold must be >= 0, not nan",
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_failure_removes_partial_outputs(tmp_path, capsys, monkeypatch, fault):
    from synchrony import experiments

    monkeypatch.setattr(experiments, "loss_and_grads", no_training)  # "divergence" replaces it
    argv = FAULTS[fault](tmp_path, monkeypatch)
    capsys.readouterr()
    out = tmp_path / "f"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert NAMED.get(fault, "") in err
    assert "Traceback" not in err
    assert not out.exists()


def test_failed_rerun_keeps_the_earlier_outputs(tmp_path, monkeypatch):
    """A re-run into the same --out that fails (here: the disk fills while
    table.txt is written) leaves the first run's files as they were."""
    data = datagen_dir(tmp_path)
    out = tmp_path / "b"
    argv = ["baseline", "--data", str(data), "--folds", "3", "--out", str(out)] + TINY
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"report.json", "baseline_report.json", "table.txt",
                           "folds.json", "run_manifest.json"}
    real = Path.write_text

    def disk_full(self, *args, **kwargs):
        if "table.txt" in self.name:
            raise OSError(28, "No space left on device")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_full)
    assert run(argv) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def write_group_fixture(tmp_path, lengths=(60, 60, 60)):
    """Three groups of three AU CSVs, group g holding ``lengths[g]`` frames."""
    rng = np.random.default_rng(0)
    src = tmp_path / "src"
    src.mkdir()
    groups = {}
    labels = {}
    for g, length in enumerate(lengths):
        files = []
        for p in range(3):
            name = f"g{g}_p{p}.csv"
            lines = ["frame,AU01,AU02,AU04,AU06"]
            for i in range(length):
                vals = ",".join(f"{v:.4f}" for v in rng.uniform(0, 5, 4))
                lines.append(f"{i},{vals}")
            (src / name).write_text("\n".join(lines) + "\n")
            files.append(name)
        groups[f"g{g}"] = files
        labels[f"g{g}"] = 1.0 + g
    (src / "groups.json").write_text(json.dumps(groups))
    (src / "labels.json").write_text(json.dumps(labels))
    return src


def ingested_dir(tmp_path, lengths=(60, 60, 60)):
    src = write_group_fixture(tmp_path, lengths)
    out = tmp_path / "ingested"
    assert run([
        "ingest", "--manifest", str(src / "groups.json"),
        "--labels", str(src / "labels.json"), "--top-aus", "3",
        "--out", str(out),
    ]) == 0
    return out


def test_ingest_command(tmp_path):
    out = ingested_dir(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "groups"
    summary = json.loads((out / "summary.json").read_text())
    assert all(len(v["selected_aus"]) == 3 for v in summary.values())

    # the produced dataset is directly consumable by kfold
    kout = tmp_path / "gk"
    assert run(["kfold", "--data", str(out), "--folds", "3",
                "--out", str(kout), "--normalize"] + TINY) == 0


def test_baseline_on_groups_of_different_lengths(tmp_path):
    """The chimeric control mixes members of groups of 60, 70 and 80
    frames."""
    data = ingested_dir(tmp_path, lengths=(60, 70, 80))
    out = tmp_path / "b"
    assert run(["baseline", "--data", str(data), "--folds", "3",
                "--out", str(out)] + TINY) == 0
    assert (out / "baseline_report.json").exists()


def test_annotate_command(tmp_path):
    scores = tmp_path / "ann.csv"
    rows = ["group_id,labeler_id,score"]
    for g in ("g1", "g2", "g3"):
        for l, v in (("l1", 2), ("l2", 2), ("l3", 2), ("l4", 5)):
            rows.append(f"{g},{l},{v}")
    scores.write_text("\n".join(rows) + "\n")
    out = tmp_path / "ann"
    assert run(["annotate", "--scores", str(scores), "--threshold", "1.0",
                "--out", str(out)]) == 0
    doc = json.loads((out / "labels.json").read_text())
    assert doc["removed_labeler"] == "l4"
    assert doc["labels"] == {"g1": 2.0, "g2": 2.0, "g3": 2.0}
    assert doc["flagged_groups"] == []
