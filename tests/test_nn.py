import re

import numpy as np
import pytest

from synchrony import nn
from synchrony.nn import (
    INFER_CHUNK,
    WORKSPACE_ALIGN,
    ModelFormatError,
    Optimizer,
    SynchronyModel,
    TrainConfig,
    Workspace,
    clip_by_global_norm,
    finite_difference_grads,
    forward_batch,
    global_norm,
    init_model,
    load_model,
    loss_and_grads,
    mse_loss,
    save_model,
)


def zero_model(input_size=2, n=2, hidden=3):
    return SynchronyModel(
        wx=np.zeros((n, 4 * hidden, input_size)),
        rh=np.zeros((n, 4 * hidden, hidden)),
        b=np.zeros((n, 4 * hidden)),
        head_w=np.zeros(n * hidden),
        head_b=0.0,
    )


def random_batch(n_windows, k=2, c=1, w=5, seed=0, labels=None):
    """(n_windows, w, k*c) inputs and (n_windows,) labels."""
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = rng.uniform(0.1, 0.9, n_windows)
    x = rng.standard_normal((n_windows, k * c, w)).transpose(0, 2, 1)
    return np.ascontiguousarray(x), np.asarray(labels, dtype=np.float64)


def one_step_state(model, x_t):
    """(h, c) of every LSTM after one step from the zero state, batch of 1."""
    _, cache = forward_batch(model, x_t.reshape(1, 1, -1), lookback=1, want_cache=True)
    h = cache["hcat"][0].reshape(model.n_lstms, model.hidden_size)
    return h.copy(), cache["c"][1][:, 0].copy()


# LSTM step, through forward_batch at batch size 1


def test_lstm_step_zero_params():
    h, c = one_step_state(zero_model(input_size=3, n=1, hidden=2), np.ones(3))
    np.testing.assert_array_equal(h, 0)
    np.testing.assert_array_equal(c, 0)


def test_lstm_step_saturated_gates():
    # gate order i, f, g, o: input gate wide open, forget gate irrelevant
    # (c_prev = 0), candidate saturated at tanh(30) ~ 1
    m = SynchronyModel(
        wx=np.zeros((1, 4, 1)),
        rh=np.zeros((1, 4, 1)),
        b=np.array([[30.0, 30.0, 30.0, 0.0]]),
        head_w=np.zeros(1),
        head_b=0.0,
    )
    _, c = one_step_state(m, np.zeros(1))
    assert c[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_lstm_step_zero_input_fixed_point():
    rng = np.random.default_rng(7)
    m = SynchronyModel(
        wx=rng.normal(scale=0.5, size=(1, 16, 3)),
        rh=rng.normal(scale=0.5, size=(1, 16, 4)),
        b=rng.normal(scale=0.5, size=(1, 16)),
        head_w=np.zeros(4),
        head_b=0.0,
    )
    steps = 5000
    _, cache = forward_batch(m, np.zeros((1, steps, 3)), lookback=steps, want_cache=True)
    # the cache keeps no h: after t steps h = o of the t-th step * tanh(c[t])
    o, c = cache["gates"][:, 2], cache["c"]
    h_last, h_before = (o[t - 1] * np.tanh(c[t]) for t in (steps, steps - 1))
    delta = np.concatenate([h_last - h_before, c[steps] - c[steps - 1]], axis=None)
    assert np.linalg.norm(delta) < 1e-9


def test_lstm_step_dimension_mismatch():
    with pytest.raises(ValueError):
        one_step_state(zero_model(input_size=3, n=1, hidden=2), np.ones(4))


# forward


def test_zero_model_predicts_zero():
    x, _ = random_batch(3)
    np.testing.assert_array_equal(forward_batch(zero_model(), x, lookback=5), 0.0)


def test_constant_head_bias():
    m = zero_model()
    m = SynchronyModel(m.wx, m.rh, m.b, m.head_w, 5.0)
    x, _ = random_batch(3, seed=2)
    np.testing.assert_array_equal(forward_batch(m, x, lookback=5), 5.0)


@pytest.mark.parametrize("head_b", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_head_bias_is_rejected(head_b):
    m = zero_model()
    with pytest.raises(ValueError, match="non-finite parameters"):
        SynchronyModel(m.wx, m.rh, m.b, m.head_w, head_b)


def test_forward_depends_on_input():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=1)
    x, _ = random_batch(8, seed=3)
    preds = {round(float(p), 12) for p in forward_batch(m, x, lookback=5)}
    assert len(preds) > 1


def test_forward_nonnegative():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=5)
    x, _ = random_batch(20, seed=6)
    assert np.all(forward_batch(m, x, lookback=5) >= 0.0)


def test_forward_deterministic_and_stateless():
    m = init_model(2, n_lstms=2, hidden_size=4, seed=2)
    x, _ = random_batch(4, seed=9)

    def predict(i):
        return forward_batch(m, x[i : i + 1], lookback=5)[0]

    first = [predict(i) for i in range(4)]
    # predicting again, and in reverse order, gives bit-identical results
    again = [predict(i) for i in range(4)]
    rev = [predict(i) for i in reversed(range(4))][::-1]
    assert first == again == rev


def test_forward_uses_final_lookback_frames():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=4)
    rng = np.random.default_rng(0)
    tail = rng.standard_normal((1, 5, 2))
    x_long = np.concatenate([rng.standard_normal((1, 7, 2)), tail], axis=1)
    assert forward_batch(m, x_long, lookback=5)[0] == forward_batch(m, tail, lookback=5)[0]


def test_forward_lookback_below_one_raises():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=4)
    x, _ = random_batch(3, w=8)
    for lookback in (0, -5):
        with pytest.raises(ValueError, match="lookback"):
            forward_batch(m, x, lookback=lookback)


def test_workspace_buffers_are_aligned(monkeypatch):
    """Every buffer a step uses starts on a WORKSPACE_ALIGN-byte boundary,
    also after a buffer grows."""
    get = Workspace._get
    misaligned = []

    def checked(self, name, shape):
        buf = get(self, name, shape)
        if buf.ctypes.data % WORKSPACE_ALIGN:
            misaligned.append((name, shape))
        return buf

    monkeypatch.setattr(Workspace, "_get", checked)
    m = init_model(2, n_lstms=2, hidden_size=3, seed=4)
    ws = Workspace()
    for n_windows in (1, 7, 3, 20):
        x, y = random_batch(n_windows, w=6, seed=n_windows)
        loss_and_grads(m, x, y, lookback=5, workspace=ws)
        forward_batch(m, x, lookback=6, workspace=ws)
    assert misaligned == []


def held(ws):
    return sum(buf.nbytes for buf in ws._buffers.values())


def test_inference_workspace_does_not_grow_with_the_batch(monkeypatch):
    """Without a cache each lane runs one chunk of at most INFER_CHUNK
    windows at a time and projects one step's frames at a time into that
    step's gates, so each lane's workspace holds what one step of one such
    chunk needs (2.9 MiB at 6 x 32 LSTMs for the caller's, which also
    holds the bias both lanes read) at any batch size."""
    monkeypatch.setattr(nn, "LANES", 2)
    made = []

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    n, hh, t, d = 6, 32, 30, 2
    m = init_model(d, n_lstms=n, hidden_size=hh, seed=0)
    x, _ = random_batch(40 * INFER_CHUNK, w=t, seed=1)
    # one step of one chunk: its frames (T, B, D); the pre-activation and
    # the bias, (4, n, B, H) each; the four gates (which first hold the
    # projection), two c and one h, (n, B, H) each
    per_chunk = 8 * INFER_CHUNK * (t * d + n * (2 * 4 * hh + 7 * hh))

    ws = Workspace()
    monkeypatch.setattr(nn, "Workspace", Recorded)
    forward_batch(m, x[:901], lookback=t, workspace=ws)
    (helper_901,) = made
    after_901 = held(ws)
    assert after_901 <= per_chunk
    assert 0 < held(helper_901) <= per_chunk
    forward_batch(m, x, lookback=t, workspace=ws)
    _, helper_big = made  # each split batch has a fresh helper workspace
    one_chunk = Workspace()
    forward_batch(m, x[:INFER_CHUNK], lookback=t, workspace=one_chunk)
    # 901 windows split into chunks of 113 and 112, 40 * INFER_CHUNK into
    # full chunks
    assert after_901 <= held(ws) == held(one_chunk) <= per_chunk
    assert held(helper_901) <= held(helper_big) <= per_chunk


def test_training_workspace_holds_no_projection_of_every_step():
    """A training step keeps the gates and cell states of all T steps for
    BPTT (14.2 MiB at B = 64, 6 x 32 LSTMs, T = 30; 16.08 MiB in all), but
    no history of h or act(c), which BPTT recomputes (5.4 MiB more), and
    projects the frames one step at a time into that step's gates, with
    no (n, B, 4H) projection buffer (0.375 MiB more) and no (n, T * B, 4H)
    projection of every step (11.25 MiB more)."""
    m = init_model(2, n_lstms=6, hidden_size=32, seed=0)
    x, y = random_batch(64, w=30, seed=1)
    ws = Workspace()
    loss_and_grads(m, x, y, lookback=30, workspace=ws)
    assert held(ws) <= 16.1 * 2**20


def test_forward_dimension_mismatch():
    m = init_model(3, n_lstms=2, hidden_size=3, seed=0)
    x, _ = random_batch(1)
    with pytest.raises(ValueError):
        forward_batch(m, x, lookback=5)


# loss


def test_mse_examples():
    assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse_loss([0.0], [2.0]) == 4.0
    assert mse_loss([1.0, 3.0], [2.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        mse_loss([], [])


# gradients


def grad_check(model, batch, lookback=5, eps=1e-5, tol=1e-4):
    x, y = batch
    _, analytic = loss_and_grads(model, x, y, lookback=lookback)
    numeric = finite_difference_grads(model, x, y, lookback=lookback, eps=eps)
    for key in analytic:
        scale = np.maximum(np.abs(numeric[key]), 1e-6)
        rel = np.max(np.abs(analytic[key] - numeric[key]) / scale)
        assert rel <= tol, f"{key}: rel err {rel}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bptt_matches_finite_differences(seed):
    m = init_model(2, n_lstms=2, hidden_size=3, seed=seed)
    grad_check(m, random_batch(4, seed=seed + 100))


def test_bptt_matches_finite_differences_relu_cell():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=3, cell_activation="relu")
    grad_check(m, random_batch(4, seed=50))


def test_zero_loss_zero_gradients():
    m = zero_model()
    x, y = random_batch(4, labels=np.zeros(4))
    _, grads = loss_and_grads(m, x, y, lookback=5)
    for g in grads.values():
        np.testing.assert_array_equal(g, 0)


def test_duplicated_batch_same_mean_gradient():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=8)
    x, y = random_batch(4, seed=60)
    x2 = np.concatenate([x, x])
    y2 = np.concatenate([y, y])
    _, g1 = loss_and_grads(m, x, y, lookback=5)
    _, g2 = loss_and_grads(m, x2, y2, lookback=5)
    for k in g1:
        np.testing.assert_allclose(g1[k], g2[k], atol=1e-12)


# optimizer


def test_sgd_zero_gradients_no_change():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=0)
    cfg = TrainConfig(optimizer="sgd")
    zero = {k: np.zeros_like(v) for k, v in m.params().items()}
    m2 = Optimizer(cfg).step(m, zero)
    for k in m.params():
        np.testing.assert_array_equal(m.params()[k], m2.params()[k])


def test_adam_zero_gradients_no_change():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=0)
    zero = {k: np.zeros_like(v) for k, v in m.params().items()}
    m2 = Optimizer(TrainConfig()).step(m, zero)
    for k in m.params():
        np.testing.assert_array_equal(m.params()[k], m2.params()[k])


def test_sgd_update_rule():
    m = zero_model()
    grads = {k: np.zeros_like(v) for k, v in m.params().items()}
    grads["head_b"] = np.array([1.0])
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.1, clip_norm=100.0)
    m2 = Optimizer(cfg).step(m, grads)
    assert m2.head_b == pytest.approx(-0.1)


@pytest.mark.parametrize("field, value", [
    ("clip_norm", -5.0), ("clip_norm", 0.0), ("clip_norm", float("nan")),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("learning_rate", 0.0), ("learning_rate", -1e-3),
    ("lookback", 0), ("batch_size", -1), ("epochs", -1),
    # not integers: these used to pass and fail only inside training
    ("epochs", 2.5), ("epochs", float("nan")), ("epochs", 2.0),
    ("batch_size", 8.5), ("hidden_size", 4.0), ("n_lstms", 2.5),
    ("lookback", 30.0), ("seed", 1.5),
])
def test_train_config_rejects_values_that_break_training(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be")) as info:
        TrainConfig(**{field: value})
    assert str(info.value).endswith(f", not {value!r}")


def test_train_config_rejects_an_unknown_cell_activation():
    with pytest.raises(ValueError, match="cell_activation must be 'tanh' or 'relu'"):
        TrainConfig(cell_activation="sigmoid")


def test_infinite_clip_norm_never_clips():
    m = zero_model()
    grads = {k: np.zeros_like(v) for k, v in m.params().items()}
    grads["head_b"] = np.array([1e6])
    cfg = TrainConfig(optimizer="sgd", learning_rate=1.0, clip_norm=float("inf"))
    assert Optimizer(cfg).step(m, grads).head_b == -1e6


def test_global_norm_clipping():
    grads = {"a": np.full(4, 3.0), "b": np.full(16, 2.0)}
    norm = global_norm(grads)
    assert norm == pytest.approx(10.0)
    clipped = clip_by_global_norm(grads, 1.0)
    assert global_norm(clipped) == pytest.approx(1.0)
    untouched = clip_by_global_norm(grads, 20.0)
    assert untouched is grads


# training dynamics


def test_loss_decreases_on_toy_dataset():
    x, y = random_batch(20, seed=77)
    successes = 0
    for seed in range(5):
        m = init_model(2, n_lstms=2, hidden_size=4, seed=seed)
        cfg = TrainConfig(learning_rate=5e-3)
        opt = Optimizer(cfg)
        initial, _ = loss_and_grads(m, x, y, lookback=5)
        for _ in range(200):
            _, grads = loss_and_grads(m, x, y, lookback=5)
            m = opt.step(m, grads)
        final = mse_loss(forward_batch(m, x, lookback=5), y)
        if final <= 0.1 * initial:
            successes += 1
    assert successes >= 4


# persistence


def test_save_load_round_trip(tmp_path):
    m = init_model(3, n_lstms=2, hidden_size=4, seed=11)
    path = tmp_path / "model.json"
    save_model(m, path)
    m2 = load_model(path)
    for k, v in m.params().items():
        np.testing.assert_array_equal(v, m2.params()[k])
    assert m2.cell_activation == m.cell_activation


def test_load_truncated_file(tmp_path):
    m = init_model(2, n_lstms=1, hidden_size=2, seed=0)
    path = tmp_path / "model.json"
    save_model(m, path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_dimension_corruption(tmp_path):
    import json

    m = init_model(2, n_lstms=1, hidden_size=3, seed=0)
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["hidden_size"] = 4  # payload still sized for 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="dimension corruption"):
        load_model(path)


def test_load_version_mismatch(tmp_path):
    import json

    m = init_model(2, n_lstms=1, hidden_size=2, seed=0)
    path = tmp_path / "model.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_load_rejects_a_version_that_only_equals_1(tmp_path, version):
    """The version is the JSON integer MODEL_VERSION; true and 1.0 compare
    equal to 1 in Python but are not it."""
    import json

    path = tmp_path / "model.json"
    save_model(init_model(2, n_lstms=1, hidden_size=2, seed=0), path)
    doc = json.loads(path.read_text())
    doc["version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


@pytest.mark.parametrize("payload", ["!!{}#*", "{} ", "{}\n"])
def test_load_rejects_a_payload_outside_the_base64_alphabet(tmp_path, payload):
    """A character outside the base64 alphabet makes the file malformed;
    it is not dropped."""
    import json

    path = tmp_path / "model.json"
    save_model(init_model(2, n_lstms=1, hidden_size=2, seed=0), path)
    doc = json.loads(path.read_text())
    doc["arrays"]["b"] = payload.format(doc["arrays"]["b"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


@pytest.mark.parametrize("head_b", [float("nan"), float("inf")])
def test_load_rejects_a_non_finite_head_bias(tmp_path, head_b):
    """Python's json reads NaN and Infinity, so the loaded model checks them."""
    import json

    path = tmp_path / "model.json"
    save_model(init_model(2, n_lstms=1, hidden_size=2, seed=0), path)
    doc = json.loads(path.read_text())
    doc["head_b"] = head_b
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="non-finite parameters"):
        load_model(path)


# (field, value, arrays whose payload the value empties): each loaded at the
# parent, through int() and float() or as an empty bank that predicts head_b
LOAD_FAULTS = {
    "zero-lstms": ("n_lstms", 0, nn.ARRAYS),
    "zero-hidden-size": ("hidden_size", 0, nn.ARRAYS),
    "zero-input-size": ("input_size", 0, ("wx",)),
    "string-count": ("n_lstms", "1", ()),
    "bool-count": ("hidden_size", True, ()),
    "fractional-count": ("input_size", 1.9, ()),
    "string-head-bias": ("head_b", "0.5", ()),
}


@pytest.mark.parametrize("case", list(LOAD_FAULTS))
def test_load_rejects_what_training_never_writes(tmp_path, case):
    """A count is a JSON integer >= 1 and head_b a JSON number; the error
    names the field."""
    import json

    field, value, emptied = LOAD_FAULTS[case]
    path = tmp_path / "model.json"
    save_model(init_model(1, n_lstms=1, hidden_size=1, seed=0), path)
    doc = json.loads(path.read_text())
    doc[field] = value
    doc["arrays"].update(dict.fromkeys(emptied, ""))
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=f"{field} must be"):
        load_model(path)


def test_load_rejects_float32_payloads(tmp_path):
    import base64
    import json

    m = init_model(2, n_lstms=2, hidden_size=3, seed=13)
    path = tmp_path / "model32.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    assert doc["dtype"] == "float64"
    doc["dtype"] = "float32"
    doc["arrays"] = {
        k: base64.b64encode(v.astype(np.float32).tobytes()).decode("ascii")
        for k, v in (("wx", m.wx), ("rh", m.rh), ("b", m.b), ("head_w", m.head_w))
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="dtype"):
        load_model(path)


def test_cells_round_trip_packed_layout():
    m = init_model(3, n_lstms=2, hidden_size=4, seed=21)
    hh = 4
    # forget-gate bias init
    np.testing.assert_array_equal(m.b[:, hh : 2 * hh], 1.0)
    # one step of the packed forward matches each cell's step written out
    # from its slices of wx, rh and b (gate order i, f, g, o)
    xvec = np.random.default_rng(1).standard_normal(3)
    h, c = one_step_state(m, xvec)

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    for n in range(2):
        pre = m.wx[n] @ xvec + m.rh[n] @ np.zeros(hh) + m.b[n]
        i, f, g, o = (pre[k * hh : (k + 1) * hh] for k in range(4))
        c_ref = sigmoid(f) * 0.0 + sigmoid(i) * np.tanh(g)
        h_ref = sigmoid(o) * np.tanh(c_ref)
        np.testing.assert_allclose(c[n], c_ref, atol=1e-12)
        np.testing.assert_allclose(h[n], h_ref, atol=1e-12)
