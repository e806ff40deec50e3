import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synchrony.metrics import (
    EvalReport,
    build_report,
    mean_abs_percent_error,
    r_squared,
    std_percent_error,
)


def test_mape_examples():
    assert mean_abs_percent_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mean_abs_percent_error([2.0], [1.0]) == 0.5
    assert mean_abs_percent_error([4.0, 2.0], [3.0, 3.0]) == pytest.approx(0.375, abs=1e-12)


def test_mape_rejects_zero_truth():
    with pytest.raises(ValueError, match="zero ground truth"):
        mean_abs_percent_error([0.0, 1.0], [1.0, 1.0])


def test_std_percent_error_examples():
    assert std_percent_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert std_percent_error([4.0, 2.0], [3.0, 3.0]) == pytest.approx(0.125, abs=1e-12)
    # equal errors -> zero spread
    assert std_percent_error([2.0, 4.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    # signed errors +0.5 and -0.5: the spread is of their absolute values, 0
    assert std_percent_error([2.0, 2.0], [1.0, 3.0]) == 0.0


def test_r_squared_examples():
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-12)


def test_r_squared_errors():
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0])
    with pytest.raises(ValueError, match="total variance"):
        r_squared([2.0, 2.0], [1.0, 3.0])


def test_r_squared_can_be_negative():
    assert r_squared([1.0, 2.0], [10.0, -10.0]) < 0.0


def test_scale_invariance():
    y = [1.0, 2.0, 4.0]
    p = [1.5, 1.5, 3.0]
    for c in (2.0, -3.0, 0.25):
        yc = [c * v for v in y]
        pc = [c * v for v in p]
        assert mean_abs_percent_error(yc, pc) == pytest.approx(
            mean_abs_percent_error(y, p), abs=1e-12
        )
        assert std_percent_error(yc, pc) == pytest.approx(
            std_percent_error(y, p), abs=1e-12
        )


def test_r_squared_affine_invariance():
    y = np.array([1.0, 2.0, 4.0, 3.0])
    p = np.array([1.5, 1.5, 3.0, 3.5])
    base = r_squared(y, p)
    for a, b in ((2.0, 5.0), (-1.5, 0.3)):
        assert r_squared(a * y + b, a * p + b) == pytest.approx(base, abs=1e-12)


@given(st.permutations(list(range(5))))
def test_permutation_invariance(perm):
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    p = np.array([1.1, 2.2, 2.7, 4.4, 4.5])
    assert mean_abs_percent_error(y[perm], p[perm]) == pytest.approx(
        mean_abs_percent_error(y, p), abs=1e-12
    )
    assert std_percent_error(y[perm], p[perm]) == pytest.approx(
        std_percent_error(y, p), abs=1e-12
    )
    assert r_squared(y[perm], p[perm]) == pytest.approx(r_squared(y, p), abs=1e-12)


def test_build_report_perfect_predictions():
    report = build_report([("a", 1.0, 1.0), ("b", 2.0, 2.0), ("c", 3.0, 3.0)])
    assert report.mu_e == 0.0
    assert report.sigma_e == 0.0
    assert report.r2 == 1.0
    assert report.n == 3


def test_build_report_requires_two_groups():
    with pytest.raises(ValueError):
        build_report([("a", 1.0, 1.0)])


def test_report_serialization():
    report = build_report([("a", 2.0, 1.0), ("b", 4.0, 5.0)])
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "mean_abs_percent_error",
        "std_percent_error",
        "r_squared",
        "n_groups",
        "per_group",
    }
    assert doc["n_groups"] == 2
    table = report.to_table("5-Fold validation")
    lines = table.splitlines()
    assert len(lines) == 2
    assert "R^2" in lines[0]
    assert "5-Fold validation" in lines[1]
