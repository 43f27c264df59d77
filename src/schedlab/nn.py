"""Small feed-forward networks with hand-written gradients, trained in float32.

The policy/value networks are plain affine->tanh stacks with an identity
output layer. Forward and backward passes are pure functions of the
parameters and run in the parameters' dtype: an input, an upstream gradient
and Adam's buffers take it. ``init_mlp`` returns float64 weights, which the
trainers cast to float32 once; the test suite checks the backward pass
against central finite differences on float64 networks, where double
precision keeps that check tight. Model files hold float32 networks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, ModelFormatError, ModelVersionError, NoValidActionError
from .files import read_json, write_text

MODEL_FORMAT_VERSION = 2  # 2: float32 weights; 1 held float64 ones


@dataclass
class MlpParams:
    """Weights and biases per layer; weights[l] has shape (d_l, d_{l+1})."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def num_layers(self) -> int:
        return len(self.weights)

    def astype(self, dtype) -> "MlpParams":
        return MlpParams([w.astype(dtype) for w in self.weights], [b.astype(dtype) for b in self.biases])


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # make decomposition unique
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_mlp(dims: list[int], rng: np.random.Generator, output_gain: float = 1.0) -> MlpParams:
    """Orthogonal init, gain sqrt(2) on hidden layers and output_gain on the last."""
    weights, biases = [], []
    for i in range(len(dims) - 1):
        gain = output_gain if i == len(dims) - 2 else np.sqrt(2.0)
        weights.append(_orthogonal(rng, dims[i], dims[i + 1], gain))
        biases.append(np.zeros(dims[i + 1]))
    return MlpParams(weights, biases)


def _check_input(params: MlpParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=params.weights[0].dtype)
    if x.shape[-1] != params.weights[0].shape[0]:
        raise InvalidArgumentError(
            f"input dim {x.shape[-1]} does not match network input {params.weights[0].shape[0]}"
        )
    return x


def mlp_activations(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's output: [x, h_1, ..., output].

    The last entry is ``mlp_forward(params, x)``; for a ``(b, d)`` batch,
    the list is what ``mlp_gradient`` takes.

    ``x`` may have any leading shape. The stacking rule: a ``(k, 1, d)``
    stack runs k gemv products, so row i is bit-equal to the forward of
    ``x[i, 0]`` alone; a ``(k, d)`` batch runs one gemm, which sums in
    another order, so its rows may differ from the single forwards in the
    last bit.
    """
    h = _check_input(params, x)
    activations = [h]
    last = params.num_layers() - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w
        h += b
        if i != last:
            np.tanh(h, out=h)
        activations.append(h)
    return activations


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """tanh hidden layers, identity output. Accepts a vector, a batch or a stack.

    See ``mlp_activations`` for which shapes are bit-equal to vector calls.
    """
    return mlp_activations(params, x)[-1]


def mlp_gradient(
    params: MlpParams, activations: list[np.ndarray], upstream: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parameter gradients by reverse accumulation.

    ``activations`` is ``mlp_activations(params, x)`` for a ``(b, d)`` batch
    ``x``, its first entry. ``upstream`` is dLoss/dOutput, shaped like the
    last entry (any batch scaling belongs to the caller); it is converted to
    the activations' dtype. Returns (weight grads, bias grads) shaped and
    typed like the parameters.
    """
    output = activations[-1]
    if upstream.shape != output.shape:
        raise InvalidArgumentError(f"upstream shape {upstream.shape} does not match output {output.shape}")

    n_layers = params.num_layers()
    grad_w: list[np.ndarray] = [np.empty(0)] * n_layers
    grad_b: list[np.ndarray] = [np.empty(0)] * n_layers
    delta = upstream.astype(output.dtype, copy=False)
    for i in range(n_layers - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i].T
            delta *= 1.0 - activations[i] ** 2
    return grad_w, grad_b


def masked_log_probs(logits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Log softmax over valid entries of (possibly batched) raw logits; masked entries are -inf.

    Each row of a batch is bit-equal to the call on that row alone: the max
    and the sum run along the last axis, row by row.
    """
    neg = np.where(masks, logits, -np.inf)
    z = neg - neg.max(axis=-1, keepdims=True)
    # exp(-inf) is exactly 0.0, so masked entries add nothing to the sum
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def greedy_action(params: MlpParams, obs: np.ndarray, mask: np.ndarray) -> int:
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise NoValidActionError("mask admits no valid action")
    return int(np.argmax(np.where(mask, mlp_forward(params, obs), -np.inf)))


def sample_actions(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """One action per row of ``probs`` (k, n), row i drawn by ``draws[i]`` in [0, 1).

    Row i takes the number of running sums (np.cumsum, left to right) at or
    below ``draws[i]`` times the row total, capped at n - 1: the first index
    whose running sum exceeds the cut point. The sums run in float64, so
    float32 probabilities give the sums of a Python-float loop.
    """
    cum = np.cumsum(probs, axis=-1, dtype=np.float64)
    cuts = draws * cum[:, -1]
    return np.minimum((cum <= cuts[:, None]).sum(axis=-1), probs.shape[-1] - 1)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard Adam over an MlpParams pytree; updates the parameters in place.

    The moments ``m``, ``v`` and the gradients of a step live in flat vectors
    of the parameters' dtype (all weights, then all biases, each raveled), so
    each elementwise update runs once over every parameter. The parameters
    stay separate arrays, because BLAS results depend on their memory layout.
    """

    def __init__(self, params: MlpParams, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        arrays = (*params.weights, *params.biases)
        sizes = [a.size for a in arrays]
        dtype = params.weights[0].dtype
        self.m = np.zeros(sum(sizes), dtype=dtype)
        self.v = np.zeros(sum(sizes), dtype=dtype)
        self._grad = np.empty(sum(sizes), dtype=dtype)
        self._delta = np.empty(sum(sizes), dtype=dtype)
        # per-parameter views of the flat update, in the order of the moments
        self._deltas = [
            part.reshape(a.shape)
            for part, a in zip(np.split(self._delta, np.cumsum(sizes)[:-1]), arrays)
        ]

    def step(self, grad_w: list[np.ndarray], grad_b: list[np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, g = self.m, self.v, self._grad
        np.concatenate([a.ravel() for a in (*grad_w, *grad_b)], out=g)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        np.divide(self.lr * (m / bc1), np.sqrt(v / bc2) + ADAM_EPS, out=self._delta)
        for p, delta in zip((*self.params.weights, *self.params.biases), self._deltas):
            p -= delta


# ---------------------------------------------------------------------------
# Model files: self-describing JSON with exact float round-trip
# ---------------------------------------------------------------------------

def save_model(params: MlpParams, path: str | Path) -> None:
    """Write a float32 network; each value is written as the double it equals."""
    for a in (*params.weights, *params.biases):
        if a.dtype != np.float32:
            raise InvalidArgumentError(f"a model file holds a float32 network, got {a.dtype} arrays")
    payload = {
        "format": "mlp-params",
        "version": MODEL_FORMAT_VERSION,
        "dims": params.dims(),
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    write_text(path, json.dumps(payload))


def load_model(path: str | Path) -> MlpParams:
    payload = read_json(path, ModelFormatError)
    if not isinstance(payload, dict) or payload.get("format") != "mlp-params":
        raise ModelFormatError(f"{path}: not a model file")
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"{path}: model format version {payload.get('version')!r}, expected "
            f"{MODEL_FORMAT_VERSION} (float32 weights); retrain the model with `schedlab train`"
        )
    unknown = sorted(payload.keys() - {"format", "version", "dims", "weights", "biases"})
    if unknown:
        raise ModelFormatError(f"{path}: unknown key {unknown[0]!r}")
    try:
        dims = [int(d) for d in payload["dims"]]
        weights = [np.asarray(w, dtype=np.float32) for w in payload["weights"]]
        biases = [np.asarray(b, dtype=np.float32) for b in payload["biases"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload: {exc!r}") from exc
    if len(dims) < 2 or min(dims) < 1:
        raise ModelFormatError(f"{path}: dims {dims}: need two or more entries, each >= 1")
    if ([w.shape for w in weights] != list(zip(dims, dims[1:]))
            or [b.shape for b in biases] != [(d,) for d in dims[1:]]):
        raise ModelFormatError(f"{path}: dims {dims} do not match stored arrays")
    return MlpParams(weights, biases)
