"""The benchmark's reference inputs keep their result bytes.

Each workload in ``perfbench/workloads.py`` runs its ``small`` input at
``REFERENCE_SEED``, as ``perfbench/run.py`` does after its timed phase, and
the SHA-256 of its result bytes must equal the digest recorded in
``perfbench/reference.json``. The golden pins cover the CLI; this also
covers ``predict_sample`` on long windows and ``empirical_cross_cov``.
Nothing under ``perfbench/`` is written.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_input_keeps_its_result_bytes(tmp_path, name):
    wl = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, "small")
    wl.prepare(tmp_path, "reference")
    output = wl.collect(wl.run(tmp_path, "reference"))
    assert {k: v for k, v in wl.check(output).items() if v} == {}
    assert hashlib.sha256(wl.result_bytes(output)).hexdigest() == REFERENCE[name]["sha256"]
