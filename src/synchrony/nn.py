"""From-scratch parallel-LSTM regressor with exact BPTT gradients.

The model is a bank of independent LSTM cells that all read the same
flattened (participant, channel) input vector each frame, followed by a
dense head with ReLU that maps the concatenated final hidden states to a
single nonnegative synchrony prediction.

Everything is float64 numpy. For speed the cell parameters are stored
stacked across the bank: gate order along the 4H axis is input, forget,
cell-candidate, output.

Gates use sigmoid and the candidate/cell nonlinearity is tanh by default;
``cell_activation="relu"`` replaces tanh with ReLU inside the cell for
strict all-ReLU experiments.

Batches. ``windows_to_batch`` is the one place window data is copied: it
gathers the last ``lookback`` frames of chosen windows of a
``WindowedDataset`` (cut by ``experiments.build_windowed_dataset``) into
a C-contiguous (B, lookback, D) array. Training gathers each minibatch
so, and prediction each sample's windows; ``forward_batch`` also takes
longer windows and reads their last ``lookback`` frames.

Training step. ``forward_batch`` and ``loss_and_grads`` write every
intermediate with ``out=`` into a ``Workspace``, a set of named float64
buffers that grow on demand, so a step on a reused workspace allocates
nothing larger than a gradient. With T lookback frames, n LSTMs of H units
and a batch of B, the forward cache (``want_cache=True``) holds:

- ``x``: (B, T, D), the frames the step consumed (a view of the input,
  which ``windows_to_batch`` gathers at lookback width for training);
- ``gates``: (4, T, n, B, H), post-activations i, f, g, o, one
  contiguous array per gate and step;
- ``c``, ``h``: (T + 1, n, B, H), cell and hidden states; index 0 is the
  zero initial state, index t + 1 the state after step t;
- ``tc``: (T, n, B, H), act(c) per step;
- ``hcat``: (B, n * H) final hidden states and ``z``: (B,) head output
  before the ReLU.

The pre-activations are not kept: the ReLU derivative is read from the
post-activation, since (g > 0) equals (pre > 0). Without a cache they
hold one step and two states of one chunk (see Inference below). Cache
arrays are views into the workspace and are overwritten by the next call
on it; predictions and gradients are fresh arrays. A workspace belongs
to one caller at a time (``kfold_cv`` and ``sweep_lstm_count`` reuse one
across their training runs); ``None`` gives each call a fresh one.
Overflow warnings are silenced for the whole step (the sigmoid's exp
overflows to the correctly rounded 0); ``loss_and_grads`` raises
``FloatingPointError`` on a non-finite prediction.

The step is bit-identical to the allocating version it replaced, kept in
``tests/test_bit_identity.py`` as the oracle, because it keeps the
operands and the order of every operation:

- the input projection x @ wx^T is formed per step, one (B, D) block of
  frames per GEMM, never for all T steps at once; a row of a GEMM with at
  least two rows has the bits of the same row in the oracle's (T * B)-row
  GEMM. A one-row product goes through GEMV, whose bits differ, so at
  B = 1 one GEMM projects two steps (the last two overlap when T is odd);
  only T = B = 1 projects one row, as the oracle does;
- the rows of ``wx``, ``rh`` and ``b`` for the i, f and o gates are
  multiplied by -1 once per call. That is exact, and rounding is
  symmetric in sign, so those gates' pre-activations come out as exactly
  -a and ``_sigmoid_of_negated`` forms 1 / (1 + exp(-a)) without a
  negation pass (only a zero may differ in sign, and exp(-0) = exp(0));
- the recurrent GEMM is h @ rh^T with shape (n, B, 4H); a gate-major
  rh @ h^T gives different bits;
- the pre-activation is summed as (x wx^T + h rh^T) + b, with b broadcast
  to (n, B, 4H) once per call, so each step's bias add is contiguous;
- sigmoid and tanh read the same strided slices of the pre-activation,
  and every elementwise product is formed in the same order;
- the backward pass builds each gate's gradient in contiguous scratch and
  writes it into its slice of one (n, B, 4H) array, which the gradient
  GEMMs and the batch sum read exactly as the concatenated array before.

Results also match between one and two OpenBLAS threads at batch sizes 1,
15, 64 and 105, but not at 901, where the ``rh`` gradient (a reduction
over the batch) differs in the last bits with the thread count. A training
step at B = 64, 6 x 32 LSTMs and T = 30 holds 22 MiB of workspace, 19.9 MiB
of it the gates and states BPTT reads; projecting all T steps up front
took 11.25 MiB more.

Inference. Without a cache ``forward_batch`` runs the bank over
``np.array_split`` chunks of at most ``INFER_CHUNK`` = 64 windows, one
after another in the same workspace, and then the head once over the
whole batch. The workspace so holds one step of one chunk whatever B is:
2.0 MiB after a 901-window batch at 6 x 32 LSTMs, where projecting each
chunk's 30 steps up front held 12 MiB and one pass over the batch 177 MiB.
A step's arrays so fit a 2 MiB per-core L2, where the up-front
projection was written once and read back step by step from beyond it,
and a one-pass step over 901 windows wrote a 5.5 MB pre-activation array
alone: the gain comes from the working set, not from fewer FLOPs
(Appleyard et al., arXiv:1604.01946). Measured with one and two OpenBLAS
threads, a window's final hidden states are bit-identical at every batch
size >= 2 and every offset in the batch, but not at batch size 1, where
the recurrent product is a GEMV; ``array_split`` makes a one-window chunk
only of a one-window batch. The head's output for a window does change
in the last bit with the batch size (the same six windows have equal
hidden states at B = 6 and 63, but not equal ``z``), so the head is not
chunked. The predictions therefore equal those of one pass over the
whole batch.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import WindowedDataset, window_view

DEFAULT_LOOKBACK = 30
WORKSPACE_ALIGN = 64  # bytes; a cache line, and the widest SIMD load
INFER_CHUNK = 64  # windows per bank pass without a cache
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ModelFormatError(ValueError):
    """Raised when a model file is malformed, truncated, or inconsistent."""


def _sigmoid_of_negated(neg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigmoid(a) = 1 / (1 + exp(neg)) from the negated pre-activation
    neg = -a, written into ``out``.

    exp overflows for large neg and the result rounds to exactly 0, the
    correctly rounded sigmoid value; callers run it under
    ``np.errstate(over="ignore")``.
    """
    np.exp(neg, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


@dataclass(frozen=True)
class SynchronyModel:
    """Bank of LSTM cells plus dense ReLU head.

    ``wx``: (n_lstms, 4H, D) input weights, ``rh``: (n_lstms, 4H, H)
    recurrent weights, ``b``: (n_lstms, 4H) biases, gate order i,f,g,o.
    ``head_w``: (n_lstms * H,), ``head_b``: scalar.
    """

    wx: np.ndarray
    rh: np.ndarray
    b: np.ndarray
    head_w: np.ndarray
    head_b: float
    cell_activation: str = "tanh"

    def __post_init__(self):
        n, k, d = self.wx.shape
        h = k // 4
        if k != 4 * h or self.rh.shape != (n, k, h) or self.b.shape != (n, k):
            raise ValueError("inconsistent LSTM bank shapes")
        if self.head_w.shape != (n * h,):
            raise ValueError("head dimension must be n_lstms * hidden_size")
        if self.cell_activation not in ("tanh", "relu"):
            raise ValueError("cell_activation must be 'tanh' or 'relu'")
        for arr in (self.wx, self.rh, self.b, self.head_w):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite parameters")

    @property
    def n_lstms(self) -> int:
        return self.wx.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.wx.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.wx.shape[2]

    def params(self) -> dict[str, np.ndarray]:
        return {
            "wx": self.wx,
            "rh": self.rh,
            "b": self.b,
            "head_w": self.head_w,
            "head_b": np.array([self.head_b]),
        }

    def with_params(self, p: dict[str, np.ndarray]) -> "SynchronyModel":
        return SynchronyModel(
            wx=p["wx"],
            rh=p["rh"],
            b=p["b"],
            head_w=p["head_w"],
            head_b=float(p["head_b"][0]),
            cell_activation=self.cell_activation,
        )


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults are standard robust LSTM
    practice. Adam's moment decays and epsilon are the constants
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. ``clip_norm`` is the
    global gradient-norm threshold; ``inf`` never clips."""

    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 64
    optimizer: str = "adam"
    clip_norm: float = 5.0
    seed: int = 0
    hidden_size: int = 32
    n_lstms: int = 6
    lookback: int = DEFAULT_LOOKBACK
    cell_activation: str = "tanh"

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, not {self.learning_rate!r}")
        if not self.clip_norm > 0:  # false for NaN too; inf never clips
            raise ValueError(f"clip_norm must be > 0, not {self.clip_norm!r}")
        for name in ("batch_size", "hidden_size", "n_lstms", "lookback"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, not {getattr(self, name)!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, not {self.epochs!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")


def init_model(
    input_size: int,
    n_lstms: int = 6,
    hidden_size: int = 32,
    seed: int = 0,
    cell_activation: str = "tanh",
) -> SynchronyModel:
    """Xavier-uniform weights, forget-gate bias +1, other biases 0."""
    rng = np.random.default_rng(seed)
    h, d = hidden_size, input_size

    def xavier(shape, fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=shape)

    wx = xavier((n_lstms, 4 * h, d), d, h)
    rh = xavier((n_lstms, 4 * h, h), h, h)
    b = np.zeros((n_lstms, 4 * h))
    b[:, h : 2 * h] = 1.0
    head_w = xavier((n_lstms * h,), n_lstms * h, 1)
    return SynchronyModel(wx, rh, b, head_w, 0.0, cell_activation)


def windows_to_batch(
    dataset: WindowedDataset, lookback: int | None = None, idx=None
) -> tuple[np.ndarray, np.ndarray]:
    """The last ``lookback`` frames (all W when None) of the windows
    ``idx`` (all when None) as a C-contiguous (B, lookback, K*C) input
    array, and their (B,) labels; the one place window data is copied."""
    w = dataset.window_length
    lookback = w if lookback is None else lookback
    if lookback <= 0:
        raise ValueError(f"lookback must be positive, not {lookback}")
    if w < lookback:
        raise ValueError("window shorter than lookback")
    pick = slice(None) if idx is None else idx
    starts = dataset.starts[pick]
    if starts.size == 0:
        raise ValueError("empty batch")
    x = window_view(dataset.frames, lookback)[starts + (w - lookback)]
    return x, dataset.labels[pick]


class Workspace:
    """Named float64 scratch buffers reused by ``forward_batch`` and
    ``loss_and_grads``.

    A buffer grows on demand and is never shrunk: a smaller request gets a
    view of the front of the existing one. Every buffer starts on a
    ``WORKSPACE_ALIGN``-byte boundary, so the speed of a step does not
    depend on where earlier, unrelated allocations left the heap. Arrays a
    call returns inside its cache are such views, valid until the next
    call on the same workspace; predictions and gradients are always
    fresh arrays.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def _get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            # drop the old buffer first so the two never coexist
            del buf
            self._buffers.pop(name, None)
            raw = np.empty(size + WORKSPACE_ALIGN // 8)
            skip = (-raw.ctypes.data % WORKSPACE_ALIGN) // 8
            buf = self._buffers[name] = raw[skip : skip + size]
        return buf[:size].reshape(shape)


def _act_deriv(name: str, post: np.ndarray, out: np.ndarray) -> np.ndarray:
    """act'(pre) from the post-activation: 1 - post**2 for tanh, and
    (post > 0), which equals (pre > 0), for relu."""
    if name == "tanh":
        np.square(post, out=out)
        return np.subtract(1.0, out, out=out)
    return np.greater(post, 0.0, out=out)


def _sigmoid_grad(x: np.ndarray, s: np.ndarray, scratch: np.ndarray,
                  out: np.ndarray) -> None:
    """out = (x * s) * (1 - s), the gradient through s = sigmoid(a); x is
    overwritten."""
    np.multiply(x, s, out=x)
    np.subtract(1.0, s, out=scratch)
    np.multiply(x, scratch, out=out)


def _run_bank(model: SynchronyModel, x: np.ndarray, ws: Workspace, keep: int):
    """The bank over (B, T, D) frames in ``ws``, keeping the last ``keep``
    steps; returns the final hidden states as a (B, n, H) view and the
    gates, c, h and tc buffers."""
    bsz, t, d = x.shape
    n, hh = model.n_lstms, model.hidden_size
    act = np.tanh if model.cell_activation == "tanh" else _relu

    # the i, f and o rows negated (exact), so their pre-activations come
    # out as -a, which is what the sigmoid reads
    sign = np.ones(4 * hh)
    sign[: 2 * hh] = sign[3 * hh :] = -1.0
    wx_t = (model.wx * sign[:, None]).transpose(0, 2, 1)
    rh_t = np.ascontiguousarray((model.rh * sign[:, None]).transpose(0, 2, 1))
    bias = ws._get("bias", (n, bsz, 4 * hh))
    np.multiply(model.b[:, None, :], sign, out=bias)

    # frames time-major; one input-projection GEMM covers `span` steps: two
    # at B = 1, as a one-row GEMM takes another BLAS path and other bits
    xt = ws._get("x_time_major", (t, bsz, d))
    np.copyto(xt, x.transpose(1, 0, 2))
    span = min(t, 2 if bsz == 1 else 1)
    xw = ws._get("xw", (n, span * bsz, 4 * hh))
    first = -span  # first step in xw

    # internal layout (n_lstms, batch, ...) so each step is a batched GEMM
    a = ws._get("a", (n, bsz, 4 * hh))
    gates = ws._get("gates", (4, keep, n, bsz, hh))  # i, f, g, o
    cs = ws._get("c", (keep + 1, n, bsz, hh))
    hs = ws._get("h", (keep + 1, n, bsz, hh))
    tcs = ws._get("tc", (keep, n, bsz, hh))
    ig = ws._get("ig", (n, bsz, hh))
    cs[0] = 0.0
    hs[0] = 0.0
    with np.errstate(over="ignore"):
        for ti in range(t):
            s, prev, cur = ti % keep, ti % (keep + 1), (ti + 1) % (keep + 1)
            if ti >= first + span:  # the last span overlaps when t is odd
                first = min(ti, t - span)
                np.matmul(xt[first : first + span].reshape(span * bsz, d), wx_t,
                          out=xw)
            row = (ti - first) * bsz
            np.matmul(hs[prev], rh_t, out=a)
            np.add(xw[:, row : row + bsz], a, out=a)
            np.add(a, bias, out=a)
            i, f, g, o = gates[:, s]
            _sigmoid_of_negated(a[..., :hh], out=i)
            _sigmoid_of_negated(a[..., hh : 2 * hh], out=f)
            act(a[..., 2 * hh : 3 * hh], out=g)
            _sigmoid_of_negated(a[..., 3 * hh :], out=o)
            np.multiply(f, cs[prev], out=cs[cur])
            np.multiply(i, g, out=ig)
            np.add(cs[cur], ig, out=cs[cur])
            act(cs[cur], out=tcs[s])
            np.multiply(o, tcs[s], out=hs[cur])
    hfinal = hs[t % (keep + 1)].transpose(1, 0, 2)
    return hfinal, {"gates": gates, "c": cs, "h": hs, "tc": tcs}


def forward_batch(
    model: SynchronyModel,
    x: np.ndarray,
    lookback: int,
    want_cache: bool = False,
    *,
    workspace: Workspace | None = None,
):
    """Run the bank over a (B, T, D) batch; returns (B,) predictions.

    Only the final ``lookback`` frames are consumed (a lookback below 1
    raises ValueError). Hidden and cell states start at zero for every
    window (no carryover). Intermediate arrays live in ``workspace`` (a
    fresh one when None); with ``want_cache`` the cache returned beside
    the predictions holds views into it. Without it the bank runs in
    chunks of at most ``INFER_CHUNK`` windows, the head over the batch.
    """
    if x.ndim != 3 or x.shape[2] != model.input_size:
        raise ValueError("dimension mismatch: batch must be (B, T, input_size)")
    if lookback <= 0:
        raise ValueError(f"lookback must be positive, not {lookback}")
    if x.shape[1] < lookback:
        raise ValueError("window shorter than lookback")
    x = x[:, -lookback:, :]
    ws = Workspace() if workspace is None else workspace
    if want_cache:
        hcat, cache = _run_bank(model, x, ws, keep=lookback)
    else:
        parts = max(1, math.ceil(len(x) / INFER_CHUNK))  # one empty chunk for B = 0
        hcat = np.empty((len(x), model.n_lstms, model.hidden_size))
        for xc, out in zip(np.array_split(x, parts), np.array_split(hcat, parts)):
            out[...] = _run_bank(model, xc, ws, keep=1)[0]
    hcat = hcat.reshape(len(x), -1)
    z = hcat @ model.head_w + model.head_b
    pred = np.maximum(z, 0.0)
    if want_cache:
        return pred, {"x": x, **cache, "hcat": hcat, "z": z}
    return pred


def mse_loss(preds, labels) -> float:
    """Mean squared error."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("need equal-length non-empty inputs")
    return float(np.mean((p - y) ** 2))


def loss_and_grads(
    model: SynchronyModel,
    x: np.ndarray,
    y: np.ndarray,
    lookback: int,
    *,
    workspace: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-MSE loss and exact gradients for every parameter via BPTT.

    Forward cache and backward scratch live in ``workspace`` (a fresh one
    when None); the returned gradients are fresh arrays.
    """
    ws = Workspace() if workspace is None else workspace
    pred, cache = forward_batch(model, x, lookback=lookback, want_cache=True,
                                workspace=ws)
    if not np.all(np.isfinite(pred)):
        raise FloatingPointError("numerical overflow in forward pass")
    bsz = x.shape[0]
    n, hh = model.n_lstms, model.hidden_size
    loss = mse_loss(pred, y)

    dpred = 2.0 * (pred - y) / bsz
    dz = dpred * (cache["z"] > 0)
    g_head_w = cache["hcat"].T @ dz
    g_head_b = float(np.sum(dz))
    # back to the (n_lstms, batch, hidden) layout used in the forward pass
    dh = ws._get("dh", (n, bsz, hh))
    np.copyto(dh, (dz[:, None] * model.head_w[None, :]).reshape(bsz, n, hh)
              .transpose(1, 0, 2))
    dc = ws._get("dc", (n, bsz, hh))
    dc[...] = 0.0
    tmp = ws._get("tmp", (n, bsz, hh))
    deriv = ws._get("deriv", (n, bsz, hh))
    da = ws._get("da", (n, bsz, 4 * hh))
    da_i, da_f, da_g, da_o = (da[..., k * hh : (k + 1) * hh] for k in range(4))
    da_t = da.transpose(0, 2, 1)  # (n, 4H, B)

    g_wx = np.zeros_like(model.wx)
    g_rh = np.zeros_like(model.rh)
    g_b = np.zeros_like(model.b)
    step_wx = ws._get("step_wx", g_wx.shape)
    step_rh = ws._get("step_rh", g_rh.shape)
    step_b = ws._get("step_b", g_b.shape)
    xs, gates, cs, hs, tcs = (cache[k] for k in ("x", "gates", "c", "h", "tc"))
    name = model.cell_activation
    for ti in range(xs.shape[1] - 1, -1, -1):
        i, f, g, o = gates[:, ti]
        # each gate's gradient is formed in contiguous scratch and written
        # to its strided slice of da once; strided operands cost ~2x
        # da_o = (dh * act(c)) * o * (1 - o)
        np.multiply(dh, tcs[ti], out=tmp)
        _sigmoid_grad(tmp, o, deriv, out=da_o)
        # dc += (dh * o) * act'(c)
        np.multiply(dh, o, out=tmp)
        np.multiply(tmp, _act_deriv(name, tcs[ti], deriv), out=tmp)
        np.add(dc, tmp, out=dc)
        # da_i = (dc * g) * i * (1 - i)
        np.multiply(dc, g, out=tmp)
        _sigmoid_grad(tmp, i, deriv, out=da_i)
        # da_f = (dc * c_prev) * f * (1 - f)
        np.multiply(dc, cs[ti], out=tmp)
        _sigmoid_grad(tmp, f, deriv, out=da_f)
        # da_g = (dc * i) * act'(a_g)
        np.multiply(dc, i, out=tmp)
        np.multiply(tmp, _act_deriv(name, g, deriv), out=da_g)
        g_wx += np.matmul(da_t, xs[None, :, ti, :], out=step_wx)
        g_rh += np.matmul(da_t, hs[ti], out=step_rh)
        g_b += np.sum(da, axis=1, out=step_b)
        np.matmul(da, model.rh, out=dh)
        np.multiply(dc, f, out=dc)
    grads = {
        "wx": g_wx,
        "rh": g_rh,
        "b": g_b,
        "head_w": g_head_w,
        "head_b": np.array([g_head_b]),
    }
    return loss, grads


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g**2)) for g in grads.values())))


def clip_by_global_norm(
    grads: dict[str, np.ndarray], threshold: float
) -> dict[str, np.ndarray]:
    norm = global_norm(grads)
    if norm <= threshold or norm == 0.0:
        return grads
    scale = threshold / norm
    return {k: g * scale for k, g in grads.items()}


class Optimizer:
    """Adam (default) or plain SGD with global-norm gradient clipping."""

    def __init__(self, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m: dict[str, np.ndarray] | None = None
        self.v: dict[str, np.ndarray] | None = None

    def step(
        self, model: SynchronyModel, grads: dict[str, np.ndarray]
    ) -> SynchronyModel:
        cfg = self.config
        grads = clip_by_global_norm(grads, cfg.clip_norm)
        params = {k: p.astype(np.float64, copy=True) for k, p in model.params().items()}
        if cfg.optimizer == "sgd":
            for k in params:
                params[k] -= cfg.learning_rate * grads[k]
            return model.with_params(params)
        if self.m is None:
            self.m = {k: np.zeros_like(p) for k, p in params.items()}
            self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k in params:
            self.m[k] = b1 * self.m[k] + (1 - b1) * grads[k]
            self.v[k] = b2 * self.v[k] + (1 - b2) * grads[k] ** 2
            mhat = self.m[k] / (1 - b1**self.t)
            vhat = self.v[k] / (1 - b2**self.t)
            params[k] -= cfg.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
        return model.with_params(params)


MODEL_FORMAT = "synchrony-model"
MODEL_VERSION = 1


def save_model(model: SynchronyModel, path) -> None:
    """Write a versioned JSON model file (base64 float64 weight payloads)."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n_lstms": model.n_lstms,
        "hidden_size": model.hidden_size,
        "input_size": model.input_size,
        "cell_activation": model.cell_activation,
        "dtype": "float64",
        "head_b": model.head_b,
        "arrays": {
            k: base64.b64encode(
                np.ascontiguousarray(v, dtype=np.float64).tobytes()
            ).decode("ascii")
            for k, v in (("wx", model.wx), ("rh", model.rh),
                         ("b", model.b), ("head_w", model.head_w))
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> SynchronyModel:
    """Load a model file; malformed input, or a payload dtype other than
    float64, raises ModelFormatError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a synchrony model file")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version: {doc.get('version')!r}")
    try:
        n, h, d = int(doc["n_lstms"]), int(doc["hidden_size"]), int(doc["input_size"])
        if doc["dtype"] != "float64":
            raise ModelFormatError(f"unsupported payload dtype: {doc['dtype']!r}")
        shapes = {
            "wx": (n, 4 * h, d),
            "rh": (n, 4 * h, h),
            "b": (n, 4 * h),
            "head_w": (n * h,),
        }
        arrays = {}
        for k, shape in shapes.items():
            raw = base64.b64decode(doc["arrays"][k])
            flat = np.frombuffer(raw, dtype=np.float64)
            if flat.size != int(np.prod(shape)):
                raise ModelFormatError(
                    f"dimension corruption: {k} payload has {flat.size} values, "
                    f"header implies {int(np.prod(shape))}"
                )
            arrays[k] = flat.reshape(shape).copy()
        return SynchronyModel(
            wx=arrays["wx"],
            rh=arrays["rh"],
            b=arrays["b"],
            head_w=arrays["head_w"],
            head_b=float(doc["head_b"]),
            cell_activation=str(doc["cell_activation"]),
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc


def finite_difference_grads(
    model: SynchronyModel,
    x: np.ndarray,
    y: np.ndarray,
    lookback: int,
    eps: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of the batch loss. Oracle for BPTT;
    O(#params) forward passes, so keep the model tiny."""

    def loss_at(params):
        m = model.with_params(params)
        return mse_loss(forward_batch(m, x, lookback=lookback), y)

    base = {k: p.astype(np.float64, copy=True) for k, p in model.params().items()}
    out = {}
    for k, p in base.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = loss_at(base)
            p[idx] = orig - eps
            down = loss_at(base)
            p[idx] = orig
            g[idx] = (up - down) / (2 * eps)
        out[k] = g
    return out
