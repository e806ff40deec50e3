"""Bit-identity of the LSTM step.

``forward_batch`` and ``loss_and_grads`` write every intermediate into a
reused ``Workspace``.  The reference below is the allocating version they
replaced, kept verbatim as the oracle: the two must agree bit for bit on
predictions, loss and every gradient, whatever batch sizes one workspace
has seen before.  Inference gives the same bytes on one lane and on two,
and in a forked child.  The last test runs the step, a multi-chunk
prediction and a small k-fold report in fresh interpreters with one and
two BLAS threads and compares bytes.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from synchrony import nn
from synchrony.cli import main
from synchrony.core import WindowedDataset
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
    B = 1 one GEMM projects every step, the oracle's own GEMM, so a
    lookback of 1 leaves one row, as in the oracle."""
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4, cell_activation=activation)
    assert_step_identical(model, *batch(bsz, d=3), None, lookback=lookback)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("bsz, lookback",
                         [*((b, LOOKBACK) for b in (2, 3, 21, 105, 112, 113, 128)),
                          (1, 1), (1, 2), (1, LOOKBACK)])
def test_step_bit_identical_at_the_benchmark_shape(activation, bsz, lookback):
    """6 x 32 LSTMs, as the benchmark scores them, at the chunk sizes of
    its batches and around them: from B = 2 each step's GEMMs write one
    block per gate, at B = 1 the row layout holds (a GEMV's bits depend
    on its output width). The cached final hidden states and predictions,
    the loss, the gradients and the chunked predictions match the oracle."""
    model = init_model(2, n_lstms=6, hidden_size=32, seed=7, cell_activation=activation)
    x, y = batch(bsz)
    pred, cache = forward_batch(model, x, lookback=lookback, want_cache=True)
    ref_pred, ref_cache = reference_forward_batch(model, x, lookback=lookback,
                                                  want_cache=True)
    assert np.array_equal(pred, ref_pred)
    assert np.array_equal(cache["hcat"], ref_cache["hcat"])
    assert_step_identical(model, x, y, None, lookback=lookback)


@pytest.mark.parametrize("reuse", [True, False])
def test_step_bit_identical_where_h_or_the_projection_aliases(reuse):
    """At n_lstms = 1 the cached hcat is a view of the one h buffer, which
    BPTT then fills with h before each step; at B = 1 the projection keeps
    its own buffer, at B >= 2 it is written into the step's gates. The
    cached hcat, the loss, the gradients and the chunked predictions match
    the oracle on one reused workspace and on fresh ones."""
    ws = Workspace() if reuse else None
    for n in (1, 2):
        model = init_model(3, n_lstms=n, hidden_size=5, seed=n)
        for bsz in (1, 2, 64):
            x, y = batch(bsz, d=3)
            for t in (1, 2, 30):
                pred, cache = forward_batch(model, x, lookback=t, want_cache=True,
                                            workspace=ws)
                ref_pred, ref_cache = reference_forward_batch(model, x, lookback=t,
                                                              want_cache=True)
                assert np.array_equal(pred, ref_pred), (n, bsz, t)
                assert np.array_equal(cache["hcat"], ref_cache["hcat"]), (n, bsz, t)
                assert_step_identical(model, x, y, ws, lookback=t)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_step_bit_identical_where_the_sigmoid_is_exactly_zero(activation):
    """Large inputs make exp overflow to inf inside the sigmoid, which
    must then give exactly 0, as 1 / (1 + exp(-a)) does."""
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4, cell_activation=activation)
    x, y = batch(15, d=3)
    x *= 500.0
    _, cache = forward_batch(model, x, lookback=LOOKBACK, want_cache=True)
    assert np.any(cache["gates"][:, :3] == 0.0)
    assert_step_identical(model, x, y, None)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("bsz", (nn.INFER_CHUNK // 2 + 1, nn.INFER_CHUNK + 1,
                                 8 * nn.INFER_CHUNK + 1))
def test_chunked_inference_bit_identical(activation, bsz):
    """Without a cache the bank runs in chunks of at most INFER_CHUNK
    windows: part of one chunk, and uneven chunks one window past one and
    past eight full chunks, must still give the one-batch predictions."""
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


# lanes


def _two_lanes(monkeypatch, split_min_chunks=2):
    """Two lanes, the helper taking half of any batch of at least
    ``split_min_chunks`` chunks."""
    monkeypatch.setattr(nn, "LANES", 2)
    monkeypatch.setattr(nn, "SPLIT_MIN_CHUNKS", split_min_chunks)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_predictions_equal_on_one_and_two_lanes(activation, monkeypatch):
    """The chunks are cut the same way whatever LANES is, and a window's
    hidden states do not depend on its chunk, so two lanes give the bytes
    of one, from two chunks up and with the default split, also for a
    one-window batch and past 2048 windows."""
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4, cell_activation=activation)
    ws = Workspace()
    for bsz in (1, 2, 64, 65, 129, 901, 3001):
        x, _ = batch(bsz, d=3)
        monkeypatch.setattr(nn, "LANES", 1)
        want = forward_batch(model, x, lookback=LOOKBACK, workspace=ws)
        for split in (2, nn.SPLIT_MIN_CHUNKS):
            _two_lanes(monkeypatch, split)
            assert np.array_equal(forward_batch(model, x, lookback=LOOKBACK, workspace=ws),
                                  want), (bsz, split)


def test_a_batch_below_the_split_runs_on_the_caller_alone(monkeypatch):
    """Fewer than SPLIT_MIN_CHUNKS chunks never wake the helper; that many
    give it half of them."""
    monkeypatch.setattr(nn, "LANES", 2)
    run_bank = nn._run_bank
    threads = []

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return run_bank(*args, **kwargs)

    monkeypatch.setattr(nn, "_run_bank", spy)
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4)
    below = (nn.SPLIT_MIN_CHUNKS - 1) * nn.INFER_CHUNK
    for bsz, helper_chunks in ((65, 0), (below, 0), (below + 1, nn.SPLIT_MIN_CHUNKS // 2)):
        threads.clear()
        forward_batch(model, batch(bsz, d=3)[0], lookback=LOOKBACK)
        assert sum(t is not threading.current_thread() for t in threads) == helper_chunks, bsz


def test_no_thread_outlives_a_split_batch(monkeypatch):
    """The helper lives for one batch: forward_batch joins it before it
    returns, so no thread is left behind."""
    monkeypatch.setattr(nn, "LANES", 2)
    run_bank = nn._run_bank
    lanes = set()

    def spy(*args, **kwargs):
        lanes.add(threading.current_thread().name)
        return run_bank(*args, **kwargs)

    monkeypatch.setattr(nn, "_run_bank", spy)
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4)
    x, _ = batch(nn.SPLIT_MIN_CHUNKS * nn.INFER_CHUNK, d=3)
    before = threading.active_count()
    forward_batch(model, x, lookback=LOOKBACK)
    assert threading.active_count() == before
    assert len(lanes) == 2  # the batch did run on a helper
    assert not [t for t in threading.enumerate() if t.name.startswith("synchrony-lane")]


def test_a_dataset_is_gathered_chunk_by_chunk_into_the_same_predictions(monkeypatch):
    """Handed a WindowedDataset, each lane gathers its own chunks; the
    predictions are those of the gathered (B, lookback, D) array."""
    _two_lanes(monkeypatch)
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4)
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((400, 3))
    frames.setflags(write=False)
    starts = np.concatenate([np.arange(0, 161), np.arange(200, 361, 2)])
    dataset = WindowedDataset(frames, WINDOW, starts, np.zeros(starts.size))
    x, _ = nn.windows_to_batch(dataset, LOOKBACK)
    pred = forward_batch(model, dataset, lookback=LOOKBACK)
    assert np.array_equal(pred, forward_batch(model, x, lookback=LOOKBACK))
    assert np.array_equal(pred, reference_forward_batch(model, x, lookback=LOOKBACK))


def _fault_on(monkeypatch, helper: bool):
    """A ``_run_bank`` that raises on the helper lane's chunks (``helper``)
    or on the caller's; the other lane sleeps a little and then runs."""
    run_bank = nn._run_bank
    done = []

    def faulty(*args, **kwargs):
        if (threading.current_thread() is not threading.main_thread()) == helper:
            raise FloatingPointError("fault in a lane")
        time.sleep(0.01)
        done.append(threading.current_thread())
        return run_bank(*args, **kwargs)

    _two_lanes(monkeypatch)
    monkeypatch.setattr(nn, "_run_bank", faulty)
    return done


@pytest.mark.parametrize("helper", [True, False])
def test_an_error_in_either_lane_leaves_forward_batch(monkeypatch, helper):
    """The error propagates, and the other lane has finished when it does:
    leaving the executor's ``with`` joins the helper."""
    done = _fault_on(monkeypatch, helper)
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4)
    x, _ = batch(4 * nn.INFER_CHUNK, d=3)
    with pytest.raises(FloatingPointError, match="fault in a lane"):
        forward_batch(model, x, lookback=LOOKBACK)
    ran = len(done)
    time.sleep(0.05)
    assert ran == len(done) == 2  # the two chunks of the lane that did not fail
    # one chunk runs on the calling thread alone
    if helper:
        forward_batch(model, x[:nn.INFER_CHUNK], lookback=LOOKBACK)


def test_an_error_in_the_helper_lane_exits_2_with_no_outputs(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert main(["datagen", "--pairs", "6", "--len", "200", "--phi-range", "0.1:0.9",
                 "--seed", "3", "--out", str(data)]) == 0
    _fault_on(monkeypatch, helper=True)
    out = tmp_path / "run"
    # the validation pair's 181 windows make two chunks
    assert main(["train", "--data", str(data), "--out", str(out), "--window", "20",
                 "--stride", "1", "--epochs", "1", "--hidden-size", "4", "--lstms", "2",
                 "--lookback", "5"]) == 2
    assert capsys.readouterr().err == "error: fault in a lane\n"
    assert not out.exists()


def _predict_into(conn, model, x):
    conn.send_bytes(forward_batch(model, x, lookback=LOOKBACK).tobytes())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_a_forked_child_predicts_the_same_bytes(monkeypatch):
    """A child forked after the parent ran a split batch starts its own
    helper for its batch and predicts what the parent did."""
    _two_lanes(monkeypatch)
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4)
    x, _ = batch(129, d=3)
    want = forward_batch(model, x, lookback=LOOKBACK).tobytes()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_predict_into, args=(send, model, x))
    child.start()
    try:
        assert receive.poll(60), "the forked child gave no prediction"
        assert receive.recv_bytes() == want
        child.join(10)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_concurrent_callers_each_get_their_own_predictions(monkeypatch):
    """Four threads on two cores, switching every microsecond, each run
    batches through forward_batch at once, each split batch with its own
    helper: each gets the predictions it gets alone."""
    _two_lanes(monkeypatch)
    model = init_model(3, n_lstms=2, hidden_size=5, seed=4)
    inputs = [batch(bsz, d=3)[0] for bsz in (65, 129, 200, 333)]
    want = [forward_batch(model, x, lookback=LOOKBACK) for x in inputs]
    got = [[] for _ in inputs]

    def caller(k):
        ws = Workspace()
        for _ in range(3):
            got[k].append(forward_batch(model, inputs[k], lookback=LOOKBACK, workspace=ws))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for preds, ref in zip(got, want):
        assert len(preds) == 3 and all(np.array_equal(p, ref) for p in preds)


# BLAS thread counts

_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from synchrony.experiments import ExperimentConfig, kfold_cv, pair_to_sample, predict_sample
from synchrony.generate import gen_dataset
from synchrony.nn import (INFER_CHUNK, SPLIT_MIN_CHUNKS, TrainConfig, forward_batch,
                          init_model, loss_and_grads)

out = hashlib.sha256()
rng = np.random.default_rng(0)
x, y = rng.standard_normal((64, 40, 2)), rng.uniform(0.1, 0.9, 64)
model = init_model(2, n_lstms=6, hidden_size=32, seed=1)
loss, grads = loss_and_grads(model, x, y, lookback=30)
out.update(np.float64(loss).tobytes())
for k in sorted(grads):
    out.update(grads[k].tobytes())
# one window past SPLIT_MIN_CHUNKS full chunks, so a split batch on LANES
# lanes, and at most 2050 windows, where the head's GEMV still agrees
# across thread counts
n_long = SPLIT_MIN_CHUNKS * INFER_CHUNK + 1
assert n_long <= 2050, n_long
long = pair_to_sample(gen_dataset(1, n_long + 49, (0.1, 0.9), 4)[0], "long")
out.update(np.float64(predict_sample(model, long, 50, 1, lookback=30)).tobytes())
# one window, where the products are GEMVs, and one chunk of the benchmark's
# 901-window batches
one = pair_to_sample(gen_dataset(1, 50, (0.1, 0.9), 5)[0], "one")
out.update(np.float64(predict_sample(model, one, 50, 1, lookback=30)).tobytes())
out.update(forward_batch(model, rng.standard_normal((113, 40, 2)), 30).tobytes())
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
