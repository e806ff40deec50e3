import numpy as np
import pytest

from synchrony.core import Window
from synchrony.nn import (
    LstmCellParams,
    ModelFormatError,
    Optimizer,
    SynchronyModel,
    TrainConfig,
    cell_step,
    clip_by_global_norm,
    finite_difference_grads,
    forward_batch,
    global_norm,
    init_model,
    load_model,
    loss_and_grads,
    model_forward,
    mse_loss,
    save_model,
    windows_to_batch,
)


def zero_cell(hidden=2, inputs=3):
    z = lambda *shape: np.zeros(shape)
    return LstmCellParams(
        *(z(hidden, inputs) for _ in range(4)),
        *(z(hidden, hidden) for _ in range(4)),
        *(z(hidden) for _ in range(4)),
    )


def zero_model(input_size=2, n=2, hidden=3):
    return SynchronyModel(
        wx=np.zeros((n, 4 * hidden, input_size)),
        rh=np.zeros((n, 4 * hidden, hidden)),
        b=np.zeros((n, 4 * hidden)),
        head_w=np.zeros(n * hidden),
        head_b=0.0,
    )


def random_windows(n_windows, k=2, c=1, w=5, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = rng.uniform(0.1, 0.9, n_windows)
    return [
        Window(0, rng.standard_normal((k, c, w)), float(labels[i]))
        for i in range(n_windows)
    ]


# cell step


def test_cell_step_zero_params():
    cell = zero_cell()
    h, c = cell_step(cell, np.ones(3), np.zeros(2), np.zeros(2))
    np.testing.assert_array_equal(h, 0)
    np.testing.assert_array_equal(c, 0)


def test_cell_step_saturated_gates():
    cell = LstmCellParams(
        *(np.zeros((1, 1)) for _ in range(4)),
        *(np.zeros((1, 1)) for _ in range(4)),
        np.array([30.0]),  # input gate wide open
        np.array([30.0]),  # forget gate (irrelevant, c_prev = 0)
        np.array([30.0]),  # candidate saturated at tanh(30) ~ 1
        np.array([0.0]),
    )
    _, c = cell_step(cell, np.zeros(1), np.zeros(1), np.zeros(1))
    assert c[0] == pytest.approx(1.0, abs=1e-9)


def test_cell_step_zero_input_fixed_point():
    rng = np.random.default_rng(7)
    cell = LstmCellParams(
        *(rng.normal(scale=0.5, size=(4, 3)) for _ in range(4)),
        *(rng.normal(scale=0.5, size=(4, 4)) for _ in range(4)),
        *(rng.normal(scale=0.5, size=4) for _ in range(4)),
    )
    h = np.zeros(4)
    c = np.zeros(4)
    prev = None
    for _ in range(5000):
        prev = (h, c)
        h, c = cell_step(cell, np.zeros(3), h, c)
    assert np.linalg.norm(np.concatenate([h - prev[0], c - prev[1]])) < 1e-9


def test_cell_step_dimension_mismatch():
    with pytest.raises(ValueError):
        cell_step(zero_cell(), np.ones(4), np.zeros(2), np.zeros(2))


# forward


def test_zero_model_predicts_zero():
    m = zero_model()
    for w in random_windows(3):
        assert model_forward(m, w, lookback=5) == 0.0


def test_constant_head_bias():
    m = zero_model()
    m = SynchronyModel(m.wx, m.rh, m.b, m.head_w, 5.0)
    for w in random_windows(3, seed=2):
        assert model_forward(m, w, lookback=5) == 5.0


def test_forward_depends_on_input():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=1)
    preds = {round(model_forward(m, w, lookback=5), 12) for w in random_windows(8, seed=3)}
    assert len(preds) > 1


def test_forward_nonnegative():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=5)
    for w in random_windows(20, seed=6):
        assert model_forward(m, w, lookback=5) >= 0.0


def test_forward_deterministic_and_stateless():
    m = init_model(2, n_lstms=2, hidden_size=4, seed=2)
    windows = random_windows(4, seed=9)
    first = [model_forward(m, w, lookback=5) for w in windows]
    # predicting again, and in reverse order, gives bit-identical results
    again = [model_forward(m, w, lookback=5) for w in windows]
    rev = [model_forward(m, w, lookback=5) for w in reversed(windows)][::-1]
    assert first == again == rev


def test_forward_uses_final_lookback_frames():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=4)
    rng = np.random.default_rng(0)
    tail = rng.standard_normal((2, 1, 5))
    w_long = Window(0, np.concatenate([rng.standard_normal((2, 1, 7)), tail], axis=2), 0.5)
    w_tail = Window(0, tail, 0.5)
    assert model_forward(m, w_long, lookback=5) == model_forward(m, w_tail, lookback=5)


def test_forward_dimension_mismatch():
    m = init_model(3, n_lstms=2, hidden_size=3, seed=0)
    with pytest.raises(ValueError):
        model_forward(m, random_windows(1)[0], lookback=5)


# loss


def test_mse_examples():
    assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse_loss([0.0], [2.0]) == 4.0
    assert mse_loss([1.0, 3.0], [2.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        mse_loss([], [])


# gradients


def grad_check(model, windows, lookback=5, eps=1e-5, tol=1e-4):
    x, y = windows_to_batch(windows)
    _, analytic = loss_and_grads(model, x, y, lookback=lookback)
    numeric = finite_difference_grads(model, x, y, lookback=lookback, eps=eps)
    for key in analytic:
        scale = np.maximum(np.abs(numeric[key]), 1e-6)
        rel = np.max(np.abs(analytic[key] - numeric[key]) / scale)
        assert rel <= tol, f"{key}: rel err {rel}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bptt_matches_finite_differences(seed):
    m = init_model(2, n_lstms=2, hidden_size=3, seed=seed)
    grad_check(m, random_windows(4, seed=seed + 100))


def test_bptt_matches_finite_differences_relu_cell():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=3, cell_activation="relu")
    grad_check(m, random_windows(4, seed=50))


def test_zero_loss_zero_gradients():
    m = zero_model()
    windows = random_windows(4, labels=np.zeros(4))
    x, y = windows_to_batch(windows)
    _, grads = loss_and_grads(m, x, y, lookback=5)
    for g in grads.values():
        np.testing.assert_array_equal(g, 0)


def test_duplicated_batch_same_mean_gradient():
    m = init_model(2, n_lstms=2, hidden_size=3, seed=8)
    windows = random_windows(4, seed=60)
    x, y = windows_to_batch(windows)
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
    windows = random_windows(20, seed=77)
    x, y = windows_to_batch(windows)
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


def test_float32_storage_round_trips_at_reduced_precision(tmp_path):
    m = init_model(2, n_lstms=2, hidden_size=3, seed=13)
    path = tmp_path / "model32.json"
    save_model(m, path, dtype="float32")
    m2 = load_model(path)
    np.testing.assert_allclose(m.wx, m2.wx, atol=1e-6)


def test_cells_round_trip_packed_layout():
    m = init_model(3, n_lstms=2, hidden_size=4, seed=21)
    cells = m.cells
    assert len(cells) == 2
    assert cells[0].hidden_size == 4
    assert cells[0].input_size == 3
    # forget-gate bias init
    np.testing.assert_array_equal(cells[0].b_forget, np.ones(4))
    # cell_step on unpacked params matches one step of the packed forward
    data = np.random.default_rng(1).standard_normal((3, 1, 1))
    xvec = data.reshape(3)
    h_ref, c_ref = cell_step(cells[0], xvec, np.zeros(4), np.zeros(4))
    pred, cache = forward_batch(m, data.reshape(1, 1, 3), lookback=1, want_cache=True)
    np.testing.assert_allclose(cache["c"][1][0, 0], c_ref, atol=1e-12)
