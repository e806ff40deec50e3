"""Golden hashes of the CLI's result files.

The recipe below generates a small pairs dataset and runs ``train``,
``kfold``, ``baseline`` and ``sweep`` on it, each command in a fresh
interpreter, once with one OpenBLAS thread and once with two. Every result
file must hash to the SHA-256 recorded here; ``run_manifest.json`` is left
out because it holds a timestamp, and the eight pair CSVs are hashed as
one concatenation, in file-name order. A change that alters result bytes
on purpose updates ``GOLDEN`` and records the old and new hashes, and why,
in CHANGES.md.

A second, in-process pin covers the groups path (K = 3 participants of
C = 3 action-unit channels, chosen from 5): ``ingest`` of AU CSVs written
from a fixed seed, then ``baseline --normalize`` on the result, whose
chimeras mix members of different lengths.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synchrony.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

EXPERIMENT = ("--window", "50", "--stride", "10", "--epochs", "2",
              "--batch-size", "32", "--hidden-size", "8", "--lstms", "3",
              "--lookback", "20", "--seed", "2")

# output directory: the command's arguments; "data" is the dataset the
# other four read
RECIPE = {
    "data": ("datagen", "--pairs", "8", "--len", "200", "--seed", "5"),
    "train": ("train", *EXPERIMENT),
    "kfold": ("kfold", "--folds", "3", "--normalize", *EXPERIMENT),
    "baseline": ("baseline", "--folds", "4", *EXPERIMENT),
    "sweep": ("sweep", "--counts", "1:3", *EXPERIMENT),
}

PAIRS = "data/pair_*.csv"

GOLDEN = {
    "data/manifest.json": "5ae7e097bb0228ce1087a65928801e13a2f0e4dc1120ef2eb49e3b7470a450ff",
    PAIRS: "29077b26b189f93fa5f3be8f5cc36ad9c537bd4ef8fa184e1415540f0fb50165",
    "train/model.json": "bd02dd86ce97d58ad9bdd8d83c58561c9937edb84b492255cc02c04bc8526aaf",
    "train/history.json": "861560aaa3b034bf0d0bd9c93b211a087f3dc004f6371efcc85df0f17213748a",
    "kfold/report.json": "e44bb9b34683d82f2eb8204ac8df2231dde2ac402bb739312e123cc0792c791c",
    "kfold/folds.json": "9539c40c3b23293e0d0bb0e9ff65d91bba38f144180bcbb17dfe9b1c638db703",
    "kfold/table.txt": "49fd061508d2e918663038998298d886b9c89e13b97911702fdd8e1a3e4c3c71",
    "baseline/report.json": "b9eecf986fdc6a19bbdcc5e0156dfb35d5f711718c81268f1e8effea16f6dff9",
    "baseline/baseline_report.json": "761a3045413567eadf21b6000255e1d415ec99206bf1151115e2bcb01afd10ef",
    "baseline/folds.json": "48b552dc6f9064a46a7659a8d552325c964bbddeaa72575376cd6770fb0090a3",
    "baseline/table.txt": "bc47e13d6910a5d5738d51cdc4582afa077e2f415d17de467f6f5960733222c6",
    "sweep/sweep.csv": "2ef5f724e09597e5a796f86ced0bcaca3f0e9a00a98d0b5f46184ce23800e6e1",
}


def _result_hashes(root: Path) -> dict[str, str]:
    pairs = hashlib.sha256()
    hashes = {}
    for path in sorted(root.rglob("*")):
        if path.is_dir() or path.name == "run_manifest.json":
            continue
        if path.match(PAIRS):
            pairs.update(path.read_bytes())
        else:
            name = path.relative_to(root).as_posix()
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    hashes[PAIRS] = pairs.hexdigest()
    return hashes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_result_files_match_golden_hashes(tmp_path, threads):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
    for out, argv in RECIPE.items():
        data = () if out == "data" else ("--data", str(tmp_path / "data"))
        subprocess.run(
            [sys.executable, "-m", "synchrony.cli", *argv, *data,
             "--out", str(tmp_path / out)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
    assert _result_hashes(tmp_path) == GOLDEN


GROUP_LENGTHS = (60, 64, 68, 72, 76, 80)
AUS = ("AU01", "AU02", "AU04", "AU06", "AU12")

GROUPS_GOLDEN = {
    "data/summary.json": "2f62249d08c56cfa6a79c294a531aa9637481ad5eb93f3114d0c1e0487e074a0",
    "baseline/report.json": "e7764c299a7289c4dda7fb85ac13bc9a7d873a245d117fc957c59a5599b34ffa",
    "baseline/baseline_report.json": "6c503e97b289afc1396914e467c8eb00b57e8fb64643979b201b8bc6f72d84d0",
    "baseline/folds.json": "139db7293fd83ad6d459659787f429c23f509b2d8b91a0e9c6c55eed47d05b3d",
    "baseline/table.txt": "a2145714b4f2c42471ed0cf70a1a23d51ff6811764af65c10a7ec38d23c59131",
}


def _write_au_groups(src: Path) -> None:
    """Six groups of three AU CSVs; member p of group g holds
    ``GROUP_LENGTHS[g]`` frames of five AUs, each AU scaled by its own
    random spread per member, so the top three differ by group."""
    rng = np.random.default_rng(21)
    groups, labels = {}, {}
    for g, length in enumerate(GROUP_LENGTHS):
        files = []
        for p in range(3):
            scale = rng.uniform(0.2, 2.0, len(AUS))
            values = rng.standard_normal((length, len(AUS))) * scale
            lines = ["frame," + ",".join(AUS)]
            lines += [f"{t}," + ",".join(repr(float(v)) for v in row)
                      for t, row in enumerate(values)]
            name = f"g{g}_p{p}.csv"
            (src / name).write_text("\n".join(lines) + "\n")
            files.append(name)
        groups[f"g{g}"] = files
        labels[f"g{g}"] = float(rng.uniform(1.0, 5.0))
    (src / "groups.json").write_text(json.dumps(groups))
    (src / "labels.json").write_text(json.dumps(labels))


def test_groups_result_files_match_golden_hashes(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    _write_au_groups(src)
    data, out = tmp_path / "data", tmp_path / "baseline"
    assert main(["ingest", "--manifest", str(src / "groups.json"),
                 "--labels", str(src / "labels.json"), "--top-aus", "3",
                 "--out", str(data)]) == 0
    assert main(["baseline", "--data", str(data), "--folds", "3", "--normalize",
                 "--window", "20", "--stride", "5", "--epochs", "2",
                 "--batch-size", "16", "--hidden-size", "4", "--lstms", "2",
                 "--lookback", "10", "--seed", "3", "--out", str(out)]) == 0
    hashes = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in [data / "summary.json", *(out / name for name in
                     ("report.json", "baseline_report.json", "folds.json", "table.txt"))]
    }
    assert hashes == GROUPS_GOLDEN
