"""The benchmark's three workloads.

Each workload is a class with the same steps:

- ``prepare(work, tag)`` makes the inputs from the seed and makes one
  warm-up call (timed together as set-up);
- ``run(work, tag)`` is the timed phase; ``collect`` turns what it returned
  into the program's output, outside the timed phase;
- ``items(output)`` counts the work items one ``run`` completed;
- ``result_bytes(output)`` serialises the output for byte comparison;
- ``check(output)`` applies seed-independent oracles and returns a dict
  with one entry per checked output: its name and its failure messages,
  empty when it passed;
- ``corrupt(output)`` perturbs one value, for the self-check of ``check``.

Every call into ``synchrony`` goes through a module attribute
(``experiments.predict_sample``, not an imported name), so a traced run
sees the wrapped functions.

Sizes: ``full`` is what the benchmark times; ``small`` is the fixed
reference input whose result bytes are compared against ``reference.json``
and the quick input of the self-check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np

from synchrony import cli, experiments, generate, nn

REFERENCE_SEED = 0


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _report_failures(doc: dict, expect_ids: list[str]) -> list[str]:
    """Recompute a report's three metrics from its per-group rows."""
    rows = doc["per_group"]
    ids = sorted(r["group_id"] for r in rows)
    if ids != sorted(expect_ids):
        return ["group ids differ from the expected set"]
    y = np.array([r["truth"] for r in rows])
    p = np.array([r["prediction"] for r in rows])
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        return ["predictions must be finite and non-negative"]
    err = np.abs((y - p) / y)
    expect = {
        "mean_abs_percent_error": float(np.mean(err)),
        "std_percent_error": float(np.std(err)),
        "r_squared": 1.0 - float(np.sum((y - p) ** 2)) / float(np.sum((y - y.mean()) ** 2)),
        "n_groups": len(expect_ids),
    }
    return [
        f"{k} {doc.get(k)!r} != recomputed {v!r}"
        for k, v in expect.items()
        if not isinstance(doc.get(k), (int, float)) or not _close(doc[k], v)
    ]


class CliBaseline:
    """``synchrony datagen`` in set-up, then ``synchrony baseline`` timed."""

    name = "cli_baseline"
    item_name = "train_windows_per_s"
    SIZES = {
        "full": {"pairs": 30, "len": 500},
        "small": {"pairs": 10, "len": 200},
    }
    WINDOW, LOOKBACK, LSTMS, HIDDEN, FOLDS, STRIDE, EPOCHS = 100, 30, 6, 32, 5, 20, 2
    OUTPUTS = ("report.json", "baseline_report.json", "folds.json", "table.txt")

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.pairs = self.SIZES[size]["pairs"]
        self.length = self.SIZES[size]["len"]
        self.group_ids = [f"pair_{i:04d}" for i in range(self.pairs)]
        self.data = None

    def prepare(self, work: Path, tag: str) -> None:
        data = work / f"data-{tag}"
        rc = cli.main(["datagen", "--pairs", str(self.pairs), "--len", str(self.length),
                       "--seed", str(self.seed), "--out", str(data)])
        if rc != 0:
            raise RuntimeError(f"datagen exited {rc}")
        samples = cli.load_dataset(data)
        windows = experiments.build_windowed_dataset(samples[:2], self.WINDOW, self.STRIDE)
        x, y = nn.windows_to_batch(windows)
        model = nn.init_model(x.shape[2], self.LSTMS, self.HIDDEN)
        nn.loss_and_grads(model, x, y, lookback=self.LOOKBACK)
        self.data = data

    def argv(self, out: Path) -> list[str]:
        return [
            "baseline", "--data", str(self.data), "--out", str(out),
            "--window", str(self.WINDOW), "--lookback", str(self.LOOKBACK),
            "--lstms", str(self.LSTMS), "--hidden-size", str(self.HIDDEN),
            "--folds", str(self.FOLDS), "--stride", str(self.STRIDE),
            "--epochs", str(self.EPOCHS), "--seed", str(self.seed),
        ]

    def run(self, work: Path, tag: str):
        """Run the command; also count the windows each training step sees,
        by wrapping the name ``train_experiment`` looks ``loss_and_grads``
        up by (inside any wrapper a traced run has installed)."""
        out = work / f"out-{tag}"
        inner = experiments.loss_and_grads
        seen = []

        def counted(model, x, *args, **kwargs):
            seen.append(len(x))
            return inner(model, x, *args, **kwargs)

        experiments.loss_and_grads = counted
        try:
            rc = cli.main(self.argv(out))
        finally:
            experiments.loss_and_grads = inner
        return rc, out, sum(seen)

    def collect(self, raw) -> dict:
        """Read the command's result files (outside the timed phase)."""
        rc, out, train_windows = raw
        files = {n: (out / n).read_bytes() for n in self.OUTPUTS if (out / n).exists()}
        shutil.rmtree(out, ignore_errors=True)
        return {"rc": rc, "files": files, "train_windows": train_windows}

    def items(self, output) -> int:
        """Training windows x epochs, summed over folds, as the training
        steps saw them."""
        return output["train_windows"]

    def result_bytes(self, output) -> bytes:
        return b"".join(n.encode() + b"\n" + output["files"].get(n, b"")
                        for n in self.OUTPUTS)

    def corrupt(self, output):
        files = dict(output["files"])
        files["report.json"] = files["report.json"].replace(
            b'"prediction": ', b'"prediction": 1', 1)
        return {**output, "files": files}

    def check(self, output):
        """The exit status and each of the four result files."""
        files = output["files"]
        checks = {"exit status": [] if output["rc"] == 0 else [f"exited {output['rc']}"]}
        if output["train_windows"] < 1:
            checks["exit status"].append("no training step was seen")
        for name in self.OUTPUTS:
            checks[name] = [] if name in files else ["missing"]
        if "report.json" in files:
            checks["report.json"] += _report_failures(
                json.loads(files["report.json"]), self.group_ids)
        if "baseline_report.json" in files:
            checks["baseline_report.json"] += _report_failures(
                json.loads(files["baseline_report.json"]),
                [g + ":chimera" for g in self.group_ids])
        if "folds.json" in files:
            tested = [g for f in json.loads(files["folds.json"]) for g in f["test_groups"]]
            if sorted(tested) != self.group_ids:
                checks["folds.json"].append("test groups are not a partition of the groups")
        if "table.txt" in files:
            table = files["table.txt"].decode().splitlines()
            if len(table) != 3 or not table[2].startswith("Random"):
                checks["table.txt"].append("lacks the Random row")
        return checks


class ScorePairs:
    """Inference only: ``predict_sample`` at stride 1 over long pairs."""

    name = "score_pairs"
    item_name = "scored_windows_per_s"
    SIZES = {"full": {"pairs": 6, "len": 1000}, "small": {"pairs": 2, "len": 300}}
    WINDOW, LOOKBACK, LSTMS, HIDDEN = 100, 30, 6, 32
    # A positive head bias keeps the untrained model's ReLU output above
    # zero, so the predictions carry information to check.
    HEAD_BIAS = 0.5

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.pairs = self.SIZES[size]["pairs"]
        self.length = self.SIZES[size]["len"]
        self.model = None
        self.samples = None
        self._expected = None

    def prepare(self, work: Path, tag: str) -> None:
        model = nn.init_model(2, self.LSTMS, self.HIDDEN, seed=self.seed)
        path = work / f"model-{tag}.json"
        nn.save_model(dataclasses.replace(model, head_b=self.HEAD_BIAS), path)
        self.model = nn.load_model(path)
        pairs = generate.gen_dataset(self.pairs, self.length, (0.1, 0.9), self.seed)
        self.samples = [experiments.pair_to_sample(p, f"pair_{i:04d}")
                        for i, p in enumerate(pairs)]
        # Warm up on a few windows: a full-size call leaves nothing behind
        # (each call allocates its own buffers) and would make set-up time
        # follow the host's memory contention.
        experiments.predict_sample(self.model, self.samples[0], self.WINDOW, self.WINDOW,
                                   lookback=self.LOOKBACK)

    def run(self, work: Path, tag: str):
        return [
            experiments.predict_sample(self.model, s, self.WINDOW, 1, lookback=self.LOOKBACK)
            for s in self.samples
        ]

    def collect(self, raw):
        return raw

    def items(self, output) -> int:
        return len(self.samples) * (self.length - self.WINDOW + 1)

    def result_bytes(self, output) -> bytes:
        return "\n".join(repr(p) for p in output).encode()

    def expected(self) -> list[float]:
        """Mean of ``forward_batch`` over every stride-1 window, with the
        batch built here from the raw signals instead of by the program's
        windowing."""
        if self._expected is None:
            self._expected = []
            for s in self.samples:
                frames = np.stack([s.participants[0][0].values, s.participants[1][0].values], 1)
                x = np.lib.stride_tricks.sliding_window_view(frames, self.WINDOW, axis=0)
                x = np.ascontiguousarray(x.transpose(0, 2, 1))
                self._expected.append(
                    float(np.mean(nn.forward_batch(self.model, x, lookback=self.LOOKBACK))))
        return self._expected

    def corrupt(self, output):
        return [output[0] + 1e-6] + output[1:]

    def check(self, output):
        """Each pair's prediction."""
        checks = {}
        for i, want in enumerate(self.expected()):
            got = output[i] if i < len(output) else None
            ok = got is not None and math.isfinite(got) and got >= 0.0 and _close(got, want, 1e-12)
            checks[f"pair {i}"] = [] if ok else [f"prediction {got!r}, expected {want!r}"]
        if len(output) > len(self.samples):
            checks["extra predictions"] = [f"{len(output)} for {len(self.samples)} pairs"]
        return checks


class GeneratorMC:
    """Monte-Carlo generator fidelity (criterion c2) at benchmark scale."""

    name = "generator_mc"
    item_name = "pairs_per_s"
    PHIS = (0.1, 0.3, 0.5, 0.7, 0.9)
    SIZES = {"full": {"pairs": 500, "len": 1000}, "small": {"pairs": 200, "len": 1000}}
    # The reference seed reproduces the c2 acceptance test's per-coupling
    # seeds (1000 + k) and is held to its 3-SE bound.  Other seeds are held
    # to 5 SE: at 3 SE a correct generator fails one of five couplings on
    # about 1.3% of seeds, at 5 SE on fewer than 3 in a million.
    C2_SE_BOUND = 3.0
    SEEDED_SE_BOUND = 5.0

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.pairs = self.SIZES[size]["pairs"]
        self.length = self.SIZES[size]["len"]
        self.specs = None
        self.seeds = None

    def prepare(self, work: Path, tag: str) -> None:
        self.specs = [generate.ScalarCovSpec(1.0, 1.0, phi, self.length) for phi in self.PHIS]
        base = 1000 + len(self.PHIS) * self.seed
        self.seeds = [generate.pair_seeds(base + k, self.pairs) for k in range(len(self.PHIS))]
        generate.scalar_pair_gen(self.specs[0], self.seeds[0][0])

    def run(self, work: Path, tag: str):
        rows = []
        for spec, seeds in zip(self.specs, self.seeds):
            xs, ys, per_pair = [], [], []
            for s in seeds:
                pair = generate.scalar_pair_gen(spec, s)
                xs.append(pair.x)
                ys.append(pair.y)
                per_pair.append(float(np.mean(pair.x.values * pair.y.values)))
            estimate = generate.empirical_cross_cov(xs, ys)
            se = float(np.std(per_pair, ddof=1) / np.sqrt(len(seeds)))
            rows.append((spec.phi12, estimate, se))
        return rows

    def collect(self, raw):
        return raw

    def items(self, output) -> int:
        return len(self.PHIS) * self.pairs

    def result_bytes(self, output) -> bytes:
        return "\n".join(f"{phi!r},{est!r},{se!r}" for phi, est, se in output).encode()

    def corrupt(self, output):
        phi, est, se = output[0]
        return [(phi, est + 10 * se, se)] + output[1:]

    def check(self, output):
        """Each coupling's estimate."""
        bound = self.C2_SE_BOUND if self.seed == REFERENCE_SEED else self.SEEDED_SE_BOUND
        checks = {}
        for k, want in enumerate(self.PHIS):
            fails = checks[f"coupling {want}"] = []
            if k >= len(output) or output[k][0] != want:
                fails.append("missing or out of order")
                continue
            _, est, se = output[k]
            if not (se > 0 and abs(est - want) <= bound * se):
                dist = abs(est - want) / se if se > 0 else math.inf
                fails.append(f"estimate {est!r} is {dist:.2f} SE away (bound {bound})")
        if len(output) > len(self.PHIS):
            checks["extra couplings"] = [f"{len(output)} for {len(self.PHIS)} couplings"]
        return checks


WORKLOADS = {cls.name: cls for cls in (CliBaseline, ScorePairs, GeneratorMC)}
