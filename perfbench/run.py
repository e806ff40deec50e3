"""Benchmark of the ``synchrony`` package, built from ``src/`` of this checkout.

    python3 perfbench/run.py --workload cli_baseline --seed 1 --seconds 30 --trace 0
    python3 perfbench/selfcheck.py      # quick check of the benchmark itself

Workloads (see ``workloads.py``; each is one closed-loop client, a single
process with one BLAS thread, which measured steadier than two on a shared
2-core machine; the LSTM step is bound by elementwise work, not GEMM):

- ``cli_baseline``: ``synchrony baseline`` through ``cli.main`` on 30
  generated pairs of 500 frames (k-fold training plus the chimeric control);
- ``score_pairs``: ``predict_sample`` at stride 1 over 1000-frame pairs with
  a fixed model, inference only;
- ``generator_mc``: the Monte-Carlo generator fidelity check (c2).

A run prepares the inputs from ``--seed`` five times (the set-up), repeats
the timed phase on them until ``--seconds`` have passed, checks every
output, then runs the fixed reference input and compares its result bytes
with ``reference.json``, recorded once from the parent commit 9d1191e;
default-path result bytes must not change, so nothing re-records them.
The last stdout line is the result:

- ``--trace 0``: end-to-end metrics.  ``setup_s`` is the median time of
  five imports of the package (this process's own and four fresh
  interpreters') plus the median of the five preparations; ``wall_s`` the
  median time of one timed phase that raised no error; ``items_per_s`` the
  work items of one timed phase over ``wall_s`` (training windows x epochs
  summed over folds on ``cli_baseline``, scored windows on ``score_pairs``,
  generated pairs on ``generator_mc``); ``peak_rss_mb`` the process's peak
  resident memory after the timed phase.
- ``--trace 1``: per-layer metrics.  Timed phases alternate untraced and
  traced, so ``trace.overhead_frac`` compares the two in one process; the
  spans of the traced phases give the per-layer numbers (``tracing.py``).

``attempted`` counts checked outputs and ``failed`` those with at least
one failure message (failed_frac = failed / attempted).  Checked outputs
are those each workload's ``check`` names, the result bytes of every phase
after the first (same as the first's), an error raised by a phase, and
the reference input's result bytes.  Machine facts, every iteration
time and the failure messages go to ``.perfbench/results/`` and, as ``#``
lines, to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
workloads = None  # imported by import_package(), after the BLAS settings
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
# BLAS reads its thread count when numpy is first imported, below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


# Times, in a fresh interpreter, the same import as import_package().
_IMPORT_PROBE = """import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t0 = time.perf_counter()
import synchrony, workloads
print(time.perf_counter() - t0)
"""


def import_package():
    """Import ``synchrony`` from this checkout's ``src/``, never from
    anywhere else; returns the import time in seconds."""
    global workloads
    src = ROOT / "src"
    if not (src / "synchrony" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no synchrony sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import synchrony
    import workloads  # numpy and every synchrony module
    elapsed = time.perf_counter() - t0
    if Path(synchrony.__file__).resolve().parent != src / "synchrony":
        raise SystemExit(f"perfbench: imported synchrony from {synchrony.__file__}")
    return elapsed


def fresh_import_times(n: int) -> list[float]:
    """Import time of the package in ``n`` fresh interpreters, one at a time."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "synchrony").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_setting": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
    }


def reference_checks(wl_cls, work: Path) -> dict[str, list[str]]:
    """Run the fixed reference input, check it, and compare its result
    bytes with the ones recorded in ``reference.json``."""
    wl = wl_cls(workloads.REFERENCE_SEED, "small")
    wl.prepare(work, "reference")
    output = wl.collect(wl.run(work, "reference"))
    checks = {f"reference {k}": v for k, v in wl.check(output).items()}
    digest = hashlib.sha256(wl.result_bytes(output)).hexdigest()
    refs = json.loads((HERE / "reference.json").read_text())
    if wl.name not in refs:
        checks["reference bytes"] = [f"reference.json has no entry for {wl.name}"]
    elif refs[wl.name]["sha256"] != digest:
        checks["reference bytes"] = [f"changed: sha256 {digest}"]
    else:
        checks["reference bytes"] = []
    return checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli_baseline", "score_pairs", "generator_mc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full",
                    help="small: the reference input size, for the self-check")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the first output before checking it (self-check)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    import_s = import_package()

    wl_cls = workloads.WORKLOADS[args.workload]
    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        return _run(args, wl_cls, import_s, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl_cls, import_s, work, results) -> int:
    facts = machine_facts(args.seed)
    imports = [import_s] + fresh_import_times(SETUP_REPEATS - 1)
    wl = wl_cls(args.seed, args.size)
    prep = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare(work, f"setup{rep}")
        prep.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(prep)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    walls = {False: [], True: []}
    items = []
    checks: list[tuple[str, list[str]]] = []  # (checked output, failure messages)
    first_bytes = None
    min_iterations = 2 * MIN_ITERATIONS if tracer else MIN_ITERATIONS
    t_start = time.perf_counter()
    i = 0
    while i < min_iterations or time.perf_counter() - t_start < args.seconds:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw = wl.run(work, f"it{i}")
        except Exception as exc:  # a failed operation is counted; the run goes on
            checks.append((f"iteration {i} run", [f"{type(exc).__name__}: {exc}"]))
            continue
        else:
            walls[traced].append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.uninstall()
            i += 1
        output = wl.collect(raw)
        body = wl.result_bytes(output)
        if args.corrupt and i == 1:
            output = wl.corrupt(output)
        own = [(f"iteration {i - 1} {k}", v) for k, v in wl.check(output).items()]
        if first_bytes is None:
            first_bytes = body
        else:
            own.append((f"iteration {i - 1} result bytes",
                        [] if body == first_bytes else ["differ from the first iteration's"]))
        checks += own
        if not traced and not any(fails for _, fails in own):
            items.append(wl.items(output))
    timed_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks += reference_checks(wl_cls, work).items()
    except Exception as exc:
        checks.append(("reference run", [f"{type(exc).__name__}: {exc}"]))
    failures = [f"{name}: {msg}" for name, fails in checks for msg in fails]
    attempted = len(checks)
    failed = sum(1 for _, fails in checks if fails)

    plain = walls[False]
    if not plain or (tracer is not None and not walls[True]):
        for f in failures[:20]:
            print(f"# FAILED {f}")
        print("perfbench: no timed phase completed without an error", file=sys.stderr)
        return 1
    wall_s = statistics.median(plain)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "items_per_s": (statistics.median(items) / wall_s if items else 0.0, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_walls = walls[True]
        metrics = tracing.layer_metrics(tracer, len(traced_walls), sum(traced_walls))
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / wall_s - 1.0, "fraction")
        tracer.write(results / f"{wl.name}-seed{args.seed}-spans.json.gz")

    summary = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "size": args.size,
        "machine": facts, "import_s": imports, "prepare_s": prep,
        "iteration_wall_s": {"untraced": plain, "traced": walls[True]},
        "timed_phase_s": timed_s, "failed_frac": failed / attempted,
        "failures": failures,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "result": result}, indent=2) + "\n")

    print(f"# {wl.name} seed {args.seed} trace {args.trace}: {i} timed phases in "
          f"{timed_s:.2f} s, set-up {SETUP_REPEATS} x, BLAS threads {BLAS_THREADS}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# wall_s median over n={len(plain)} untraced phases "
          f"(min {min(plain):.4f}, max {max(plain):.4f})")
    if tracer is None:
        print(f"# items_per_s is {wl.item_name} on this workload")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    print(f"# failed_frac = {failed}/{attempted} checked outputs")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
