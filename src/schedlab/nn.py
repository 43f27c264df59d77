"""Small feed-forward networks with hand-written gradients, trained in float32.

The policy/value networks are plain affine->tanh stacks with an identity
output layer. Forward and backward passes run in the parameters' dtype: an
input, an upstream gradient and Adam's buffers take it. The backward pass
can write into an optimizer's flat gradient, and one ``Adam`` can step
several networks. ``init_mlp`` returns float64 weights, which the trainers
cast to float32 once; the test suite checks the backward pass against
central finite differences on float64 networks, where double precision
keeps that check tight. Model files hold float32 networks.
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
    params: MlpParams, activations: list[np.ndarray], upstream: np.ndarray,
    out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parameter gradients by reverse accumulation.

    ``activations`` is ``mlp_activations(params, x)`` for a ``(b, d)`` batch
    ``x``, its first entry. ``upstream`` is dLoss/dOutput, shaped like the
    last entry (any batch scaling belongs to the caller); it is converted to
    the activations' dtype. Returns (weight grads, bias grads) shaped and
    typed like the parameters: fresh arrays, or the arrays of ``out``, a pair
    of that form (``Adam.grads``), written in place. The products refuse to
    cast, so a term in another dtype raises instead of being rounded into them.
    """
    output = activations[-1]
    if upstream.shape != output.shape:
        raise InvalidArgumentError(f"upstream shape {upstream.shape} does not match output {output.shape}")

    if out is None:
        out = [np.empty_like(w) for w in params.weights], [np.empty_like(b) for b in params.biases]
    grad_w, grad_b = out
    delta = upstream.astype(output.dtype, copy=False)
    for i in range(params.num_layers() - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grad_w[i], casting="no")
        delta.sum(axis=0, out=grad_b[i])
        if i > 0:
            w = params.weights[i]
            # one output: one product per entry, so a broadcast is exact and beats matmul's loop
            delta = delta * w[:, 0] if w.shape[1] == 1 else delta @ w.T
            slope = np.square(activations[i])  # tanh' = 1 - h^2, in one temporary
            delta *= np.subtract(1.0, slope, out=slope)
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
    """Standard Adam over one or more MlpParams; updates the parameters in place.

    The moments ``m``, ``v`` and the gradients live in flat vectors of the
    parameters' dtype (per network, all weights, then all biases, raveled),
    so each elementwise update runs once over every parameter, through
    preallocated buffers. ``grads[k]`` holds network k's (weight grads, bias
    grads) as views of the flat gradient, for ``mlp_gradient(..., out=)`` to
    fill before each ``step``, which uses them as scratch. The update is elementwise with one ``lr`` and step
    count, so each network steps bitwise as under its own Adam. The
    parameters stay separate arrays: BLAS results depend on memory layout.
    """

    def __init__(self, *networks: MlpParams, lr: float):
        self.networks = networks
        self.lr = lr
        self.t = 0
        self._params = [a for net in networks for a in (*net.weights, *net.biases)]
        size = sum(a.size for a in self._params)
        dtype = self._params[0].dtype
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self._grad = np.zeros(size, dtype=dtype)
        self._delta = np.empty(size, dtype=dtype)
        # per-parameter views of the flat vectors, in the order of the moments
        bounds = np.cumsum([a.size for a in self._params])[:-1]
        self._deltas = [d.reshape(a.shape) for d, a in zip(np.split(self._delta, bounds), self._params)]
        grads = iter([g.reshape(a.shape) for g, a in zip(np.split(self._grad, bounds), self._params)])
        self.grads = [([next(grads) for _ in net.weights], [next(grads) for _ in net.biases])
                      for net in networks]

    def step(self) -> None:
        """One update from ``grads``: lr * (m / bc1) / (sqrt(v / bc2) + eps),
        with every product and sum in the order of the textbook form."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, g, delta = self.m, self.v, self._grad, self._delta
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=delta)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=delta), g, out=delta)  # ((1 - b2) * g) * g
        np.multiply(np.divide(m, bc1, out=g), self.lr, out=g)  # lr * (m / bc1); g is read for the last time
        np.sqrt(np.divide(v, bc2, out=delta), out=delta)
        delta += ADAM_EPS
        np.divide(g, delta, out=delta)
        for p, d in zip(self._params, self._deltas):
            p -= d


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


def _float32_arrays(path: str | Path, kind: str, stored: list) -> list[np.ndarray]:
    """The stored layers as float32 arrays; a value that the cast would change is refused."""
    arrays = [np.asarray(values, dtype=np.float64) for values in stored]
    for layer, wide in enumerate(arrays):
        with np.errstate(over="ignore"):  # an overflow to inf is refused here
            changed = wide[(wide.astype(np.float32) != wide) & ~np.isnan(wide)]
        if changed.size:
            raise ModelFormatError(f"{path}: layer {layer} {kind}: {float(changed[0])!r} is no float32 value")
    return [wide.astype(np.float32) for wide in arrays]


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
        weights = _float32_arrays(path, "weights", payload["weights"])
        biases = _float32_arrays(path, "biases", payload["biases"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload: {exc!r}") from exc
    if len(dims) < 2 or min(dims) < 1:
        raise ModelFormatError(f"{path}: dims {dims}: need two or more entries, each >= 1")
    if ([w.shape for w in weights] != list(zip(dims, dims[1:]))
            or [b.shape for b in biases] != [(d,) for d in dims[1:]]):
        raise ModelFormatError(f"{path}: dims {dims} do not match stored arrays")
    return MlpParams(weights, biases)
