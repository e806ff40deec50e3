"""Bit-identity of the LSTM step.

``forward_batch`` and ``loss_and_grads`` write every intermediate into a
reused ``Workspace``.  The reference below is the allocating version they
replaced, kept verbatim as the oracle: the two must agree bit for bit on
predictions, loss and every gradient, whatever batch sizes one workspace
has seen before.  The last test runs the step and a small k-fold report
in fresh interpreters with one and two BLAS threads and compares bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synchrony.nn import (
    DEFAULT_LOOKBACK,
    Workspace,
    forward_batch,
    init_model,
    loss_and_grads,
    mse_loss,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# reference implementation


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow for very negative x rounds to exactly 0, which is the
    # correctly rounded sigmoid value, so the warning is suppressed
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _act(name):
    if name == "tanh":
        return np.tanh, lambda pre, post: 1.0 - post**2
    return (lambda a: np.maximum(a, 0.0)), (lambda pre, post: (pre > 0).astype(float))


def reference_forward_batch(model, x, lookback=None, want_cache=False):
    if x.ndim != 3 or x.shape[2] != model.input_size:
        raise ValueError("dimension mismatch: batch must be (B, T, input_size)")
    lb = lookback or DEFAULT_LOOKBACK
    if x.shape[1] < lb:
        raise ValueError("window shorter than lookback")
    x = x[:, -lb:, :]
    bsz, t, d = x.shape
    n, hh = model.n_lstms, model.hidden_size
    act, _ = _act(model.cell_activation)

    # internal layout (n_lstms, batch, ...) so each step is a batched GEMM
    h = np.zeros((n, bsz, hh))
    c = np.zeros((n, bsz, hh))
    steps = []
    xw = np.matmul(
        x.reshape(1, bsz * t, d), model.wx.transpose(0, 2, 1)
    ).reshape(n, bsz, t, 4 * hh)
    rh_t = np.ascontiguousarray(model.rh.transpose(0, 2, 1))
    for ti in range(t):
        a = xw[:, :, ti, :] + np.matmul(h, rh_t) + model.b[:, None, :]
        i = _sigmoid(a[..., :hh])
        f = _sigmoid(a[..., hh : 2 * hh])
        g = act(a[..., 2 * hh : 3 * hh])
        o = _sigmoid(a[..., 3 * hh :])
        c_prev = c
        c = f * c_prev + i * g
        tc = act(c)
        h_prev = h
        h = o * tc
        if want_cache:
            steps.append((a, i, f, g, o, c_prev, c, tc, h_prev))
    hcat = h.transpose(1, 0, 2).reshape(bsz, n * hh)
    z = hcat @ model.head_w + model.head_b
    pred = np.maximum(z, 0.0)
    if want_cache:
        return pred, {"x": x, "steps": steps, "hcat": hcat, "z": z}
    return pred


def reference_loss_and_grads(model, x, y, lookback=None):
    pred, cache = reference_forward_batch(model, x, lookback=lookback, want_cache=True)
    if not np.all(np.isfinite(pred)):
        raise FloatingPointError("numerical overflow in forward pass")
    bsz = x.shape[0]
    n, hh = model.n_lstms, model.hidden_size
    _, act_deriv = _act(model.cell_activation)
    loss = mse_loss(pred, y)

    dpred = 2.0 * (pred - y) / bsz
    dz = dpred * (cache["z"] > 0)
    g_head_w = cache["hcat"].T @ dz
    g_head_b = float(np.sum(dz))
    # back to the (n_lstms, batch, hidden) layout used in the forward pass
    dh = np.ascontiguousarray(
        (dz[:, None] * model.head_w[None, :]).reshape(bsz, n, hh).transpose(1, 0, 2)
    )
    dc = np.zeros_like(dh)

    g_wx = np.zeros_like(model.wx)
    g_rh = np.zeros_like(model.rh)
    g_b = np.zeros_like(model.b)
    xs = cache["x"]
    for ti in range(len(cache["steps"]) - 1, -1, -1):
        a, i, f, g, o, c_prev, c, tc, h_prev = cache["steps"][ti]
        do = dh * tc
        da_o = do * o * (1.0 - o)
        dc = dc + dh * o * act_deriv(c, tc)
        di = dc * g
        da_i = di * i * (1.0 - i)
        df = dc * c_prev
        da_f = df * f * (1.0 - f)
        dg = dc * i
        da_g = dg * act_deriv(a[..., 2 * hh : 3 * hh], g)
        da = np.concatenate([da_i, da_f, da_g, da_o], axis=-1)  # (n, B, 4H)
        da_t = da.transpose(0, 2, 1)  # (n, 4H, B)
        g_wx += np.matmul(da_t, xs[None, :, ti, :])
        g_rh += np.matmul(da_t, h_prev)
        g_b += da.sum(axis=1)
        dh = np.matmul(da, model.rh)
        dc = dc * f
    grads = {
        "wx": g_wx,
        "rh": g_rh,
        "b": g_b,
        "head_w": g_head_w,
        "head_b": np.array([g_head_b]),
    }
    return loss, grads


# comparisons

# grow, shrink below the first size, grow past every earlier size, shrink
BATCHES = (1, 15, 64, 105)
WINDOW, LOOKBACK = 40, 30  # windows longer than the lookback, as in training


def batch(bsz, d=2, seed=0):
    rng = np.random.default_rng(seed + bsz)
    return rng.standard_normal((bsz, WINDOW, d)), rng.uniform(0.1, 0.9, bsz)


def assert_step_identical(model, x, y, workspace, lookback=LOOKBACK):
    loss, grads = loss_and_grads(model, x, y, lookback=lookback, workspace=workspace)
    ref_loss, ref_grads = reference_loss_and_grads(model, x, y, lookback=lookback)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for k in ref_grads:
        assert np.array_equal(grads[k], ref_grads[k]), k
    pred = forward_batch(model, x, lookback=lookback, workspace=workspace)
    assert np.array_equal(pred, reference_forward_batch(model, x, lookback=lookback))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_step_bit_identical_with_one_reused_workspace(activation):
    model = init_model(2, n_lstms=6, hidden_size=32, seed=3, cell_activation=activation)
    ws = Workspace()
    for bsz in BATCHES + BATCHES[::-1]:
        assert_step_identical(model, *batch(bsz), ws)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("bsz", BATCHES)
def test_step_bit_identical_with_fresh_workspace(activation, bsz):
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4, cell_activation=activation)
    assert_step_identical(model, *batch(bsz, d=3), None)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("bsz, lookback", [(2, LOOKBACK), (1, 1), (1, LOOKBACK),
                                           (1, 29), (7, 29)])
def test_step_bit_identical_at_small_batches_and_odd_lookbacks(activation, bsz, lookback):
    """The input projection runs per step: B = 2 is its smallest GEMM. At
    B = 1 two steps share one GEMM, the last two overlapping at an odd
    lookback, and a lookback of 1 leaves one row, as in the oracle."""
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4, cell_activation=activation)
    assert_step_identical(model, *batch(bsz, d=3), None, lookback=lookback)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_step_bit_identical_where_the_sigmoid_is_exactly_zero(activation):
    """Large inputs make exp overflow to inf inside the sigmoid, which
    must then give exactly 0, as 1 / (1 + exp(-a)) does."""
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4, cell_activation=activation)
    x, y = batch(15, d=3)
    x *= 500.0
    _, cache = forward_batch(model, x, lookback=LOOKBACK, want_cache=True)
    assert np.any(cache["gates"][[0, 1, 3]] == 0.0)
    assert_step_identical(model, x, y, None)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("bsz", (65, 129, 1025))
def test_chunked_inference_bit_identical(activation, bsz):
    """Without a cache the bank runs in chunks of at most INFER_CHUNK
    windows: uneven chunks, and one window past a multiple of 64 and of
    1024, must still give the one-batch predictions."""
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4, cell_activation=activation)
    x, _ = batch(bsz, d=3)
    pred = forward_batch(model, x, lookback=LOOKBACK)
    assert np.array_equal(pred, reference_forward_batch(model, x, lookback=LOOKBACK))


def test_results_survive_the_next_call_on_the_workspace():
    model = init_model(2, n_lstms=3, hidden_size=8, seed=6)
    ws = Workspace()
    x, y = batch(64)
    pred = forward_batch(model, x, lookback=LOOKBACK, workspace=ws)
    _, grads = loss_and_grads(model, x, y, lookback=LOOKBACK, workspace=ws)
    kept_pred = pred.copy()
    kept = {k: g.copy() for k, g in grads.items()}
    # same size first, so the buffers are overwritten in place
    for bsz in (64, 15, 105):
        x2, y2 = batch(bsz, seed=1)
        loss_and_grads(model, x2, y2, lookback=LOOKBACK, workspace=ws)
        forward_batch(model, x2, lookback=LOOKBACK, workspace=ws)
    assert np.array_equal(pred, kept_pred)
    for k in kept:
        assert np.array_equal(grads[k], kept[k]), k


# BLAS thread counts

_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from synchrony.experiments import ExperimentConfig, kfold_cv, pair_to_sample
from synchrony.generate import gen_dataset
from synchrony.nn import TrainConfig, init_model, loss_and_grads

out = hashlib.sha256()
rng = np.random.default_rng(0)
x, y = rng.standard_normal((64, 40, 2)), rng.uniform(0.1, 0.9, 64)
model = init_model(2, n_lstms=6, hidden_size=32, seed=1)
loss, grads = loss_and_grads(model, x, y, lookback=30)
out.update(np.float64(loss).tobytes())
for k in sorted(grads):
    out.update(grads[k].tobytes())
samples = [pair_to_sample(p, f"pair_{i}") for i, p in
           enumerate(gen_dataset(8, 200, (0.1, 0.9), 3))]
cfg = ExperimentConfig(window_length=50, stride=10, n_folds=4, seed=2,
                       train=TrainConfig(epochs=2, n_lstms=2, hidden_size=8,
                                         lookback=20, batch_size=16))
_, report = kfold_cv(samples, cfg)
out.update(report.to_json().encode())
print(out.hexdigest())
"""


def test_results_independent_of_blas_thread_count():
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
