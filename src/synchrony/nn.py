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
so. ``forward_batch`` also takes longer windows and reads their last
``lookback`` frames, or a ``WindowedDataset``, which it gathers chunk by
chunk (see Inference).

Training step. ``forward_batch`` and ``loss_and_grads`` write every
intermediate with ``out=`` into a ``Workspace``, a set of named float64
buffers that grow on demand, so a step on a reused workspace allocates
nothing larger than a gradient. With T lookback frames, n LSTMs of H units
and a batch of B, the forward cache (``want_cache=True``) holds:

- ``x``: (B, T, D), the frames the step consumed (a view of the input,
  which ``windows_to_batch`` gathers at lookback width for training);
- ``gates``: (T, 4, n, B, H), post-activations i, f, o, g (the three
  sigmoids first; the weights keep the order i, f, g, o), one contiguous
  (4, n, B, H) block per step;
- ``c``: (T + 1, n, B, H), cell states; index 0 is the zero initial
  state, index t + 1 the state after step t;
- ``hcat``: (B, n * H) final hidden states and ``z``: (B,) head output
  before the ReLU.

The pre-activations are not kept: the ReLU derivative is read from the
post-activation, since (g > 0) equals (pre > 0). Nor are h and act(c)
per step: the forward pass keeps one h buffer, the step's scratch for
i * g, act(c) and then the new h once the recurrent GEMM has read it, and
BPTT recomputes act(c) from ``c`` and h from the previous step's o and
act(c), a step at a time. Each is formed by the forward pass's ufunc (the
cell activation, then a multiply) on the same operands, elementwise, so
it has the bits the forward pass had. Without a cache the gates and c
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
  frames per GEMM into that step's block of ``gates``, never for all T
  steps at once; a row of a GEMM with at least two rows has the bits of
  the same row in the oracle's (T * B)-row GEMM. A one-row product goes
  through GEMV, whose bits differ, so at B = 1 one GEMM projects two
  steps into a buffer of their own (the last two overlap when T is odd);
  only T = B = 1 projects one row, as the oracle does;
- the rows of ``wx``, ``rh`` and ``b`` for the i, f and o gates are
  multiplied by -1 once per call. That is exact, and rounding is
  symmetric in sign, so those gates' pre-activations come out as exactly
  -a and each step forms 1 / (1 + exp(-a)) without a negation pass (only
  a zero may differ in sign, and exp(-0) = exp(0));
- the recurrent GEMM is h @ rh^T with shape (n, B, 4H); a gate-major
  rh @ h^T gives different bits;
- the pre-activation is summed as (x wx^T + h rh^T) + b, with b broadcast
  to (n, B, 4H) once per call, so each step's bias add is contiguous;
- exp and the cell activation read the gates' strided columns of the
  pre-activation through one (4, n, B, H) view, two exp calls (i and f
  together, then o) and the cell activation per step; one add and one
  divide then finish all three sigmoids over their contiguous block of
  ``gates``. Each element so goes through the same operations as in the
  oracle, and every elementwise product is formed in the same order;
- the backward pass builds each gate's gradient in contiguous scratch and
  writes it into its slice of one (n, B, 4H) array, which the gradient
  GEMMs and the batch sum read exactly as the concatenated array before.

Results also match between one and two OpenBLAS threads at batch sizes 1,
15, 64 and 105, but not at 901, where the ``rh`` gradient (a reduction
over the batch) differs in the last bits with the thread count. A training
step at B = 64, 6 x 32 LSTMs and T = 30 holds 16.1 MiB of workspace, 14.2
MiB of it the gates and cell states BPTT reads; storing h and act(c) per
step too took 22.1 MiB.

Inference. Without a cache ``forward_batch`` runs the bank over
``np.array_split`` chunks of at most ``INFER_CHUNK`` = 128 windows and
then the head once over the whole batch. The workspace so holds one step
of one chunk whatever B is: 2.9 MiB for a full chunk at 6 x 32 LSTMs,
2.5 MiB after a 901-window batch (chunks of 112 and 113), where one pass
over the batch would hold 177 MiB. On one lane the chunk size hardly
matters: at 6 x 32 LSTMs a 901-window batch took about as long with
chunks of 31 windows as with 226, and longer only with 451. On two lanes
it does: they took more than twice as long with 16-window chunks as with
113-window ones, and were fastest with chunks of 90 to 226 windows
(``BENCH_17.json``, ``micro``). Each NumPy call releases the GIL and
takes it back, and a lane that takes it back while the other holds it
waits to be woken, so the lanes' speed-up is set by the calls per window,
not by the FLOPs: fewer, larger chunks and the grouped sigmoid gates help
them (Appleyard et al., arXiv:1604.01946, give the same advice for RNN
kernels). Measured with one and two OpenBLAS
threads, a window's final hidden states are bit-identical at every batch
size >= 2 and every offset in the batch, but not at batch size 1, where
the recurrent product is a GEMV; ``array_split`` makes a one-window chunk
only of a one-window batch. The head's output for a window does change
in the last bit with the batch size (the same six windows have equal
hidden states at B = 6 and 63, but not equal ``z``), so the head is not
chunked. The predictions therefore equal those of one pass over the whole
batch.

The chunks of one batch are independent, so they run on ``LANES`` threads
(two where the process may use two CPUs): a batch of at least
``SPLIT_MIN_CHUNKS`` = 6 chunks (641 windows or more) starts one helper
thread, which runs the second half of the chunks in a fresh workspace
(1.9 MiB after a 901-window batch) while the caller runs the first half
in its own, and the call joins it before returning. The sign-folded
weights and the broadcast bias are formed once per call, and both lanes
read them. NumPy releases the GIL inside each GEMM and ufunc, so the
lanes overlap; starting the helper takes ~0.2 ms. A smaller batch runs
on the caller alone: on a 2-vCPU Xeon VM, with a spinning process on the
second core, two lanes were faster than one in 1 to 7 of 15 calls at 2 to
5 chunks of 128 windows, and in 17 of 30 at 6 chunks, 22 of 30 at 7 and
26 of 30 at 8 (with the second core idle they won from 2 chunks on); a
``synchrony baseline`` run that gave its two-chunk validation passes to a
helper ran its training steps up to 44% slower afterwards, varying from
run to run. Each lane writes only its chunks' rows of the final hidden
states, and the cut into chunks, the work per chunk and the head are
those of one lane, so the predictions keep their bytes on one lane or
two. An error in either lane leaves ``forward_batch`` only after the
other lane has finished, so no lane writes after it returns, and no
thread outlives the call. Given a ``WindowedDataset`` instead of an
array, each lane gathers its own chunks at lookback width, so a
validation pass or a predicted sample never holds its (B, lookback, D)
array.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .core import WindowedDataset, window_view

DEFAULT_LOOKBACK = 30
WORKSPACE_ALIGN = 64  # bytes; a cache line, and the widest SIMD load
INFER_CHUNK = 128  # windows per bank pass without a cache
# threads that share one batch's chunks: the caller and, where the process
# may use two CPUs, one helper
LANES = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# chunks (at least 2) a batch needs before the helper takes half of them
SPLIT_MIN_CHUNKS = 6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ModelFormatError(ValueError):
    """Raised when a model file is malformed, truncated, or inconsistent."""


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
        for arr in (self.wx, self.rh, self.b, self.head_w, self.head_b):
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
        for name in ("epochs", "batch_size", "hidden_size", "n_lstms", "lookback", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
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
        if self.cell_activation not in ("tanh", "relu"):
            raise ValueError("cell_activation must be 'tanh' or 'relu'")


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
    x = _gather(dataset, lookback, pick)
    if len(x) == 0:
        raise ValueError("empty batch")
    return x, dataset.labels[pick]


def _gather(dataset: WindowedDataset, lookback: int, pick) -> np.ndarray:
    """``windows_to_batch``'s copy without its checks, for callers that
    made them once: the last ``lookback`` frames of the windows ``pick``."""
    starts = dataset.starts[pick] + (dataset.window_length - lookback)
    return window_view(dataset.frames, lookback)[starts]


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


_CELL_ACT = {"tanh": np.tanh, "relu": _relu}  # the cell activation, both passes


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


def _fold_signs(model: SynchronyModel, ws: Workspace, bsz: int):
    """wx^T and rh^T with the rows of the i, f and o gates negated (exact),
    so those gates' pre-activations come out as -a, which is what the
    sigmoid reads, and b so negated and broadcast to (n, bsz, 4H) in
    ``ws``. Formed once per call; every chunk and lane reads them."""
    hh = model.hidden_size
    sign = np.ones(4 * hh)
    sign[: 2 * hh] = sign[3 * hh :] = -1.0
    wx_t = (model.wx * sign[:, None]).transpose(0, 2, 1)
    rh_t = np.ascontiguousarray((model.rh * sign[:, None]).transpose(0, 2, 1))
    bias = ws._get("bias", (model.n_lstms, bsz, 4 * hh))
    np.multiply(model.b[:, None, :], sign, out=bias)
    return wx_t, rh_t, bias


def _run_bank(model: SynchronyModel, x: np.ndarray, ws: Workspace, keep: int, folded):
    """The bank over (B, T, D) frames in ``ws``, keeping the gates and cell
    states of the last ``keep`` steps, with the ``_fold_signs`` weights
    ``folded`` (their bias for at least B windows); returns the final
    hidden states as a (B, n, H) view and the gates and c buffers. The one
    h buffer, once the recurrent GEMM has read it, holds i * g, act(c) and
    then the new h; BPTT recomputes act(c) and each earlier h."""
    bsz, t, d = x.shape
    n, hh = model.n_lstms, model.hidden_size
    act = _CELL_ACT[model.cell_activation]
    wx_t, rh_t, bias = folded
    bias = bias[:, :bsz]

    # frames time-major; a step's input projection goes into its gates block,
    # except at B = 1, where one GEMM projects two steps into xw, as a
    # one-row GEMM takes another BLAS path and other bits
    xt = ws._get("x_time_major", (t, bsz, d))
    np.copyto(xt, x.transpose(1, 0, 2))
    span = min(t, 2 if bsz == 1 else 1)
    xw = ws._get("xw", (n, span, 4 * hh)) if bsz == 1 else None
    first = -span  # first step in the projection

    # internal layout (n_lstms, batch, ...) so each step is a batched GEMM;
    # a_gate is the (4, n, B, H) gate-major view of the weights' i, f, g, o
    a = ws._get("a", (n, bsz, 4 * hh))
    a_gate = a.reshape(n, bsz, 4, hh).transpose(2, 0, 1, 3)
    # step-major, sigmoid gates first, so one add and one divide cover all three
    gates = ws._get("gates", (keep, 4, n, bsz, hh))  # i, f, o, g
    cs = ws._get("c", (keep + 1, n, bsz, hh))
    h = ws._get("h", (n, bsz, hh))
    cs[0] = 0.0
    h[...] = 0.0
    with np.errstate(over="ignore"):
        for ti in range(t):
            s, prev, cur = ti % keep, ti % (keep + 1), (ti + 1) % (keep + 1)
            step = gates[s]
            proj = step.reshape(n, bsz, 4 * hh) if xw is None else xw
            if ti >= first + span:  # the last span overlaps when t is odd
                first = min(ti, t - span)
                np.matmul(xt[first : first + span].reshape(span * bsz, d), wx_t,
                          out=proj)
            row = (ti - first) * bsz
            np.matmul(h, rh_t, out=a)
            np.add(proj[:, row : row + bsz], a, out=a)
            np.add(a, bias, out=a)
            # sigmoid(a) = 1 / (1 + exp(-a)) of i, f and o from their
            # negated pre-activations; where exp overflows it is exactly 0
            i, f, o, g = step
            sig = step[:3]
            np.exp(a_gate[:2], out=step[:2])
            np.exp(a_gate[3], out=o)
            np.add(1.0, sig, out=sig)
            np.divide(1.0, sig, out=sig)
            act(a_gate[2], out=g)
            np.multiply(f, cs[prev], out=cs[cur])
            np.multiply(i, g, out=h)
            np.add(cs[cur], h, out=cs[cur])
            act(cs[cur], out=h)
            np.multiply(o, h, out=h)
    return h.transpose(1, 0, 2), {"gates": gates, "c": cs}


def _bank_in_chunks(model: SynchronyModel, windows, n_windows: int,
                    ws: Workspace) -> np.ndarray:
    """The bank's final hidden states, (B, n, H), over ``np.array_split``
    chunks of at most ``INFER_CHUNK`` windows; ``windows(lo, hi)`` gives
    the frames of windows lo to hi. With two lanes and at least
    ``SPLIT_MIN_CHUNKS`` chunks the caller runs the first half of the
    chunks and a helper thread, started for this batch in a fresh
    workspace, the rest. Leaving the ``with`` joins the helper, also when
    the caller's lane raised, so no lane outlives or writes after the
    call."""
    parts = max(1, math.ceil(n_windows / INFER_CHUNK))  # one empty chunk for B = 0
    q, r = divmod(n_windows, parts)
    edges = [k * q + min(k, r) for k in range(parts + 1)]  # as np.array_split
    folded = _fold_signs(model, ws, edges[1])
    hcat = np.empty((n_windows, model.n_lstms, model.hidden_size))

    def lane(chunks, lane_ws):
        for k in chunks:
            lo, hi = edges[k], edges[k + 1]
            hcat[lo:hi] = _run_bank(model, windows(lo, hi), lane_ws, 1, folded)[0]

    if LANES < 2 or parts < SPLIT_MIN_CHUNKS:
        lane(range(parts), ws)
        return hcat
    # imported here, so importing the package starts nothing
    from concurrent.futures import ThreadPoolExecutor

    half = (parts + 1) // 2
    with ThreadPoolExecutor(1, thread_name_prefix="synchrony-lane") as pool:
        helper = pool.submit(lane, range(half, parts), Workspace())
        lane(range(half), ws)
        helper.result()
    return hcat


def forward_batch(
    model: SynchronyModel,
    x: np.ndarray | WindowedDataset,
    lookback: int,
    want_cache: bool = False,
    *,
    workspace: Workspace | None = None,
):
    """Run the bank over a batch of windows; returns (B,) predictions.

    ``x`` is a (B, T, D) array, or a ``WindowedDataset`` whose windows are
    gathered chunk by chunk, so its (B, lookback, D) array is never built.
    Only the final ``lookback`` frames are consumed (a lookback below 1
    raises ValueError). Hidden and cell states start at zero for every
    window (no carryover). Intermediate arrays live in ``workspace`` (a
    fresh one when None); with ``want_cache`` the cache returned beside
    the predictions holds views into it. Without it the bank runs in
    chunks of at most ``INFER_CHUNK`` windows on ``LANES`` threads, the
    head over the batch.
    """
    if len(x.shape) != 3 or x.shape[2] != model.input_size:
        raise ValueError("dimension mismatch: batch must be (B, T, input_size)")
    bsz, t, _ = x.shape
    if lookback <= 0:
        raise ValueError(f"lookback must be positive, not {lookback}")
    if t < lookback:
        raise ValueError("window shorter than lookback")
    if isinstance(x, WindowedDataset):
        dataset = x

        def windows(lo, hi):
            return _gather(dataset, lookback, slice(lo, hi))
    else:
        x = x[:, -lookback:, :]

        def windows(lo, hi):
            return x[lo:hi]
    ws = Workspace() if workspace is None else workspace
    if want_cache:
        x = windows(0, bsz)
        hcat, cache = _run_bank(model, x, ws, lookback, _fold_signs(model, ws, bsz))
    else:
        hcat = _bank_in_chunks(model, windows, bsz, ws)
    hcat = hcat.reshape(bsz, -1)
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
    xs, gates, cs = cache["x"], cache["gates"], cache["c"]
    t = xs.shape[1]
    name = model.cell_activation
    act = _CELL_ACT[name]
    # h and act(c) are recomputed a step at a time, by the forward pass's
    # ufuncs on its operands, so they carry its bits; h before a step goes
    # to the h buffer, whose final state (hcat at n = 1) was read above
    tc = ws._get("tc", (n, bsz, hh))
    h_prev = ws._get("h", (n, bsz, hh))
    act(cs[t], out=tc)
    for ti in range(t - 1, -1, -1):
        i, f, o, g = gates[ti]
        # each gate's gradient is formed in contiguous scratch and written
        # to its strided slice of da once; strided operands cost ~2x
        # da_o = (dh * act(c)) * o * (1 - o), with tc = act(c) after step ti
        np.multiply(dh, tc, out=tmp)
        _sigmoid_grad(tmp, o, deriv, out=da_o)
        # dc += (dh * o) * act'(c)
        np.multiply(dh, o, out=tmp)
        np.multiply(tmp, _act_deriv(name, tc, deriv), out=tmp)
        np.add(dc, tmp, out=dc)
        # h before step ti = o of step ti - 1 times act(c before step ti)
        if ti:
            act(cs[ti], out=tc)
            np.multiply(gates[ti - 1, 2], tc, out=h_prev)
        else:
            h_prev[...] = 0.0
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
        g_rh += np.matmul(da_t, h_prev, out=step_rh)
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
