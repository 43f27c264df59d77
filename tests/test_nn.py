import json
import warnings
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from conftest import PerArrayAdam
from schedlab.errors import (
    InvalidArgumentError,
    ModelFormatError,
    ModelVersionError,
    NoValidActionError,
    SchedlabError,
)
from schedlab.nn import (
    Adam,
    MlpParams,
    greedy_action,
    init_mlp,
    load_model,
    masked_log_probs,
    mlp_activations,
    mlp_forward,
    mlp_gradient,
    sample_actions,
    save_model,
)


def rng_(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def test_zero_params_zero_output():
    params = MlpParams(
        weights=[np.zeros((4, 8)), np.zeros((8, 3))],
        biases=[np.zeros(8), np.zeros(3)],
    )
    out = mlp_forward(params, rng_().standard_normal(4))
    assert np.array_equal(out, np.zeros(3))


def test_identity_single_layer():
    params = MlpParams(weights=[np.eye(5)], biases=[np.zeros(5)])
    x = rng_(1).standard_normal(5)
    assert np.allclose(mlp_forward(params, x), x)


def test_dimension_mismatch_raises():
    params = init_mlp([4, 8, 2], rng_())
    with pytest.raises(ValueError):
        mlp_forward(params, np.zeros(5))
    with pytest.raises(ValueError):
        mlp_gradient(params, mlp_activations(params, np.zeros((3, 4))), np.zeros((3, 3)))


def test_dimension_mismatch_is_a_typed_caller_error():
    params = init_mlp([4, 8, 2], rng_())
    assert issubclass(InvalidArgumentError, SchedlabError)
    with pytest.raises(InvalidArgumentError, match="^input dim 5 does not match network input 4$"):
        mlp_forward(params, np.zeros(5))
    with pytest.raises(InvalidArgumentError,
                       match=r"^upstream shape \(3, 3\) does not match output \(3, 2\)$"):
        mlp_gradient(params, mlp_activations(params, np.zeros((3, 4))), np.zeros((3, 3)))


STACK_DIMS = [[25, 64, 64, 6], [25, 64, 64, 1], [13, 64, 64, 1], [9, 7, 5, 1]]
STACK_ROWS = [1, 2, 57, 255, 256, 257, 2049]


def check_stacked_forward(dims, k, dtype):
    rng = rng_(k + dims[0])
    params = init_mlp(dims, rng, output_gain=1.0).astype(dtype)
    x = rng.random((k, dims[0])) * 2.0 - 0.5
    stacked = mlp_forward(params, x[:, None, :])
    assert stacked.shape == (k, 1, dims[-1]) and stacked.dtype == dtype
    for row, xi in zip(stacked[:, 0], x):
        assert row.tobytes() == mlp_forward(params, xi).tobytes()


@pytest.mark.parametrize("dims", STACK_DIMS)
@pytest.mark.parametrize("k", STACK_ROWS)
def test_stacked_forward_rows_equal_single_forwards_bitwise(dims, k):
    """A (k, 1, d) stack runs one gemv per row, the product a single vector takes."""
    check_stacked_forward(dims, k, np.float64)


@pytest.mark.parametrize("dims", STACK_DIMS)
@pytest.mark.parametrize("k", STACK_ROWS)
def test_stacked_forward_rows_equal_single_forwards_bitwise_float32(dims, k):
    """The same in float32, the dtype the trainers run; float64 inputs are cast first."""
    check_stacked_forward(dims, k, np.float32)


def finite_difference_grads(params, x, upstream, h=1e-5):
    """Central-difference oracle for d(sum(out * upstream))/d(theta)."""

    def loss() -> float:
        return float(np.sum(mlp_forward(params, x) * upstream))

    fd_w, fd_b = [], []
    for arrays, grads in ((params.weights, fd_w), (params.biases, fd_b)):
        for arr in arrays:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss()
                arr[idx] = orig - h
                down = loss()
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
                it.iternext()
            grads.append(g)
    return fd_w, fd_b


@pytest.mark.parametrize("trial", range(10))
def test_gradient_matches_central_differences(trial):
    rng = rng_(trial)
    dims = [int(rng.integers(2, 6)) for _ in range(4)]
    params = init_mlp(dims, rng)
    batch = int(rng.integers(1, 5))
    x = rng.standard_normal((batch, dims[0]))
    upstream = rng.standard_normal((batch, dims[-1]))
    gw, gb = mlp_gradient(params, mlp_activations(params, x), upstream)
    fw, fb = finite_difference_grads(params, x, upstream)
    worst = 0.0
    for a, b in zip(gw + gb, fw + fb):
        denom = np.maximum(np.abs(b), 1.0)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    assert worst < 1e-4


@pytest.mark.parametrize("dims", [[3, 1, 4, 1], [4, 3, 1, 2], [2, 5, 1]])
def test_gradient_through_one_output_layers_matches_central_differences(dims):
    """Layers of width 1, whose backward is a broadcast, not a matmul."""
    rng = rng_(60)
    params = init_mlp(dims, rng)
    x = rng.standard_normal((4, dims[0]))
    upstream = rng.standard_normal((4, dims[-1]))
    gw, gb = mlp_gradient(params, mlp_activations(params, x), upstream)
    fw, fb = finite_difference_grads(params, x, upstream)
    for a, b in zip(gw + gb, fw + fb):
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)) < 1e-4


@pytest.mark.parametrize("dims", [[25, 64, 64, 6], [25, 64, 64, 1]])
@pytest.mark.parametrize("seed", range(3))
def test_float32_gradient_matches_float64_gradient_of_same_weights(dims, seed):
    """The trainers' float32 backward pass against float64 arithmetic on the
    same float32 weights and inputs, with a float64 upstream as PPO passes it.
    Every entry lies within 64 float32 epsilons (7.6e-6) of its array's
    largest float64 entry; measured errors reach about 1e-6 of it."""
    rng = rng_(100 + seed)
    params = init_mlp(dims, rng).astype(np.float32)
    wide = params.astype(np.float64)
    x = rng.random((256, dims[0])).astype(np.float32)
    upstream = rng.standard_normal((256, dims[-1])) / 256
    gw, gb = mlp_gradient(params, mlp_activations(params, x), upstream)
    ww, wb = mlp_gradient(wide, mlp_activations(wide, x), upstream)
    tol = 64 * np.finfo(np.float32).eps
    for got, want in zip(gw + gb, ww + wb):
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def policy_probs(params, obs, mask):
    """Action probabilities as PPO samples them."""
    return np.exp(masked_log_probs(mlp_forward(params, obs), mask))


def test_policy_probs_uniform_logits():
    params = MlpParams(weights=[np.zeros((2, 6))], biases=[np.zeros(6)])
    mask = np.array([True, False, True, False, True, False])
    probs = policy_probs(params, np.zeros(2), mask)
    assert probs[~mask].tolist() == [0.0, 0.0, 0.0]
    assert np.allclose(probs[mask], 1 / 3)
    assert probs.sum() == pytest.approx(1.0)


def test_policy_probs_single_valid():
    params = init_mlp([3, 4, 5], rng_(7))
    mask = np.array([False, False, True, False, False])
    probs = policy_probs(params, rng_(8).standard_normal(3), mask)
    assert probs[2] == pytest.approx(1.0)
    assert probs.sum() == pytest.approx(1.0)


def test_greedy_action_all_false_raises():
    params = init_mlp([3, 4, 2], rng_())
    with pytest.raises(NoValidActionError):
        greedy_action(params, np.zeros(3), np.array([False, False]))


def test_sampling_never_violates_mask():
    rng = rng_(21)
    params = init_mlp([4, 8, 6], rng)
    obs = rng.standard_normal(4)
    mask = np.array([True, False, True, True, False, False])
    probs = np.tile(policy_probs(params, obs, mask), (10_000, 1))
    assert set(sample_actions(probs, rng.random(10_000)).tolist()) == {0, 2, 3}


def test_masked_log_probs_batch():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    masks = np.array([[True, True, False], [True, True, True]])
    lp = masked_log_probs(logits, masks)
    assert np.allclose(np.exp(lp[0][:2]).sum(), 1.0)
    assert lp[0][2] == -np.inf
    assert np.allclose(np.exp(lp[1]), 1 / 3)


def test_greedy_action_respects_mask():
    params = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    obs = np.array([5.0, 10.0, 1.0])
    assert greedy_action(params, obs, np.array([True, True, True])) == 1
    assert greedy_action(params, obs, np.array([True, False, True])) == 0


def test_adam_moves_toward_minimum():
    params = MlpParams(weights=[np.array([[4.0]])], biases=[np.array([0.0])])
    opt = Adam(params, lr=0.1)
    [(grad_w, grad_b)] = opt.grads
    for _ in range(500):
        grad_w[0][0, 0] = 2 * params.weights[0][0, 0]  # d(w^2)/dw
        grad_b[0][0] = 0.0
        opt.step()
    assert abs(params.weights[0][0, 0]) < 1e-2


def fill_grads(opt_grads, grad_w, grad_b):
    """Copy gradients into an optimizer's gradient views (``Adam.grads[k]``)."""
    for dst, src in zip((*opt_grads[0], *opt_grads[1]), (*grad_w, *grad_b)):
        dst[...] = src


def random_grads(rng, params):
    scale = 10.0 ** rng.uniform(-4, 1)
    dtype = params.weights[0].dtype
    return ([(scale * rng.standard_normal(w.shape)).astype(dtype) for w in params.weights],
            [(scale * rng.standard_normal(b.shape)).astype(dtype) for b in params.biases])


@pytest.mark.parametrize("dims", [[25, 64, 64, 6], [13, 64, 64, 1]])
def test_adam_matches_per_array_reference_bitwise(dims):
    check_adam_against_per_array_reference(dims, np.float64)


@pytest.mark.parametrize("dims", [[25, 64, 64, 6], [13, 64, 64, 1]])
def test_adam_matches_per_array_reference_bitwise_float32(dims):
    """As the trainers run it: every product and sum of the preallocated
    update rounds in float32 as the textbook form does."""
    check_adam_against_per_array_reference(dims, np.float32)


def check_adam_against_per_array_reference(dims, dtype):
    rng = rng_(50)
    params = init_mlp(dims, rng).astype(dtype)
    ref_params = params.copy()
    opt, ref = Adam(params, lr=1e-3), PerArrayAdam(ref_params, lr=1e-3)
    for _ in range(50):
        grad_w, grad_b = random_grads(rng, params)
        fill_grads(opt.grads[0], grad_w, grad_b)
        opt.step()
        ref.step(grad_w, grad_b)
    for a, b in zip(params.weights + params.biases, ref_params.weights + ref_params.biases):
        assert a.dtype == dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_adam_over_two_networks_steps_each_like_its_own_adam(dtype):
    """PPO's policy and value share one optimizer: each network's bits are
    those of a lone Adam with the same lr fed the same gradients."""
    rng = rng_(51)
    nets = [init_mlp(dims, rng).astype(dtype) for dims in ([25, 64, 64, 6], [25, 64, 64, 1])]
    alone = [net.copy() for net in nets]
    shared, own = Adam(*nets, lr=3e-4), [Adam(net, lr=3e-4) for net in alone]
    assert [id(net) for net in shared.networks] == [id(net) for net in nets]
    assert len(shared.grads) == 2
    for _ in range(30):
        for k, net in enumerate(nets):
            grad_w, grad_b = random_grads(rng, net)
            fill_grads(shared.grads[k], grad_w, grad_b)
            fill_grads(own[k].grads[0], grad_w, grad_b)
        shared.step()
        for opt in own:
            opt.step()
    for net, ref in zip(nets, alone):
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dims", [[25, 64, 64, 6], [25, 64, 64, 1], [7, 1, 5, 1], [9, 32, 32, 32, 3]])
def test_gradient_written_into_out_equals_fresh_gradient_bitwise(dims, dtype):
    """``out=`` (Adam's views of its flat gradient) changes where the
    gradients go, not their bits."""
    rng = rng_(52)
    params = init_mlp(dims, rng).astype(dtype)
    acts = mlp_activations(params, rng.random((100, dims[0])))
    upstream = rng.standard_normal((100, dims[-1])) / 100
    opt = Adam(params, lr=1e-3)
    fresh = mlp_gradient(params, acts, upstream)
    written = mlp_gradient(params, acts, upstream, out=opt.grads[0])
    assert written[0] is opt.grads[0][0] and written[1] is opt.grads[0][1]
    assert np.shares_memory(written[0][0], opt._grad)
    for a, b in zip(fresh[0] + fresh[1], written[0] + written[1]):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()


def test_gradient_in_another_dtype_than_its_output_raises():
    """A backward pass whose products would run in float64 refuses to round
    them into float32 gradients, fresh or written into an Adam's buffer."""
    rng = rng_(54)
    wide = init_mlp([7, 16, 3], rng)
    narrow = wide.astype(np.float32)
    x = rng.random((10, 7))
    upstream = rng.standard_normal((10, 3))
    with pytest.raises(TypeError):
        mlp_gradient(narrow, mlp_activations(wide, x), upstream)  # float64 activations
    with pytest.raises(TypeError):
        mlp_gradient(wide, mlp_activations(wide, x), upstream, out=Adam(narrow, lr=1e-3).grads[0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_output_backward_broadcast_equals_matmul_bitwise(dtype):
    """The backward of a one-output layer: ``delta * w[:, 0]`` is
    ``delta @ w.T`` entry for entry, one product each."""
    rng = rng_(53)
    for b, d in ((256, 64), (1, 3), (37, 1)):
        delta = rng.standard_normal((b, 1)).astype(dtype)
        w = rng.standard_normal((d, 1)).astype(dtype)
        assert (delta * w[:, 0]).tobytes() == (delta @ w.T).tobytes()


def reference_sample_action(probs, u):
    """The per-row sampler: Python-float running sums and bisect_right."""
    cum = list(accumulate(probs.tolist()))
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


def searchsorted_sample_action(probs, u):
    cum = np.cumsum(probs)
    return min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(probs) - 1)


def test_sample_action_matches_cumsum_searchsorted():
    """``sample_actions`` row i equals the per-row samplers given draw i."""
    gen = rng_(60)
    for n in range(1, 13):
        probs = np.empty((1_000, n))
        for i, row in enumerate(probs):
            mask = gen.random(n) < 0.6
            mask[gen.integers(n)] = True
            if i % 2:  # policy probabilities, exactly 0.0 where masked
                row[:] = np.exp(masked_log_probs(3.0 * gen.standard_normal(n), mask))
            else:  # unnormalized weights with zeros
                row[:] = np.where(mask, gen.random(n), 0.0)
        draws = gen.random(len(probs))
        got = sample_actions(probs, draws).tolist()
        assert got == [reference_sample_action(p, u) for p, u in zip(probs, draws)]
        assert got == [searchsorted_sample_action(p, u) for p, u in zip(probs, draws)]
    # draws that land exactly on a cut point, where zero-probability entries tie
    draws = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    probs = np.tile([0.0, 0.5, 0.0, 0.5, 0.0], (3, 1))
    assert sample_actions(probs, draws).tolist() == [
        reference_sample_action(p, u) for p, u in zip(probs, draws)
    ] == [1, 3, 3]


LOG_PROB_WIDTHS = [1, 2, 3, 6, 7, 8, 9, 20, 50]


def check_stacked_masked_log_probs(n, dtype):
    rng = rng_(80 + n)
    logits = (10.0 ** rng.uniform(-2, 2, (64, 1)) * rng.standard_normal((64, n))).astype(dtype)
    masks = rng.random((64, n)) < 0.7
    masks[:, 0] = True
    got = masked_log_probs(logits, masks)
    assert got.dtype == dtype
    for row, lg, m in zip(got, logits, masks):
        assert row.tobytes() == masked_log_probs(lg, m).tobytes()
    assert np.exp(got).tobytes() == np.stack([np.exp(r) for r in got]).tobytes()


@pytest.mark.parametrize("n", LOG_PROB_WIDTHS)
def test_stacked_masked_log_probs_rows_equal_single_calls_bitwise(n):
    """Rows of a (k, n) call equal per-row calls, also past numpy's 8-wide
    pairwise-sum blocks; the lockstep PPO rollout relies on it."""
    check_stacked_masked_log_probs(n, np.float64)


@pytest.mark.parametrize("n", LOG_PROB_WIDTHS)
def test_stacked_masked_log_probs_rows_equal_single_calls_bitwise_float32(n):
    """The same in float32, the dtype of the policy's logits in training."""
    check_stacked_masked_log_probs(n, np.float32)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 57, 2048, 2049])
def test_philox_bulk_draws_equal_single_draws(k):
    """``random(k)`` gives the doubles of k ``random()`` calls and leaves the
    same state; the PPO rollout takes a buffer's draws in one call."""
    bulk, single = rng_(90), rng_(90)
    draws = bulk.random(k)
    assert draws.tobytes() == np.array([single.random() for _ in range(k)]).tobytes()
    state = lambda g: json.dumps(g.bit_generator.state, default=np.ndarray.tolist)
    assert state(bulk) == state(single)
    assert bulk.random() == single.random()
    assert bulk.permutation(10).tolist() == single.permutation(10).tolist()


def reference_masked_log_probs(logits, masks):
    masks = np.asarray(masks, dtype=bool)
    neg = np.where(masks, logits, -np.inf)
    z = neg - neg.max(axis=-1, keepdims=True)
    logsum = np.log(np.where(masks, np.exp(z), 0.0).sum(axis=-1, keepdims=True))
    return z - logsum


@pytest.mark.parametrize("shape", [(6,), (1, 6), (256, 6), (64, 13)])
def test_masked_log_probs_matches_two_where_form(shape):
    rng = rng_(70)
    for _ in range(20):
        logits = 10.0 ** rng.uniform(-2, 2) * rng.standard_normal(shape)
        masks = rng.random(shape) < 0.5
        masks[..., 0], masks[..., -1] = True, False
        got = masked_log_probs(logits, masks)
        want = reference_masked_log_probs(logits, masks)
        assert np.isneginf(got[~masks]).all()
        assert got.tobytes() == want.tobytes()


def test_model_roundtrip_bitwise(tmp_path):
    params = init_mlp([5, 16, 16, 4], rng_(33)).astype(np.float32)  # the dtype trainers ship
    path = tmp_path / "model.json"
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.dims() == params.dims()
    for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
        assert a.dtype == np.float32 and np.array_equal(a, b)


def test_model_roundtrip_behavioral(tmp_path):
    rng = rng_(44)
    params = init_mlp([6, 16, 16, 3], rng).astype(np.float32)
    path = tmp_path / "model.json"
    save_model(params, path)
    loaded = load_model(path)
    mask = np.array([True, True, True])
    for _ in range(100):
        obs = rng.standard_normal(6)
        assert greedy_action(params, obs, mask) == greedy_action(loaded, obs, mask)


def test_model_truncated_file(tmp_path):
    params = init_mlp([3, 4, 2], rng_()).astype(np.float32)
    path = tmp_path / "model.json"
    save_model(params, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


# shape faults that once loaded, then failed with an IndexError or a broadcast
# ValueError in dims() or the forward pass
MALFORMED_MODEL_ARRAYS = {
    "one dims entry": {"dims": [5], "weights": [], "biases": []},
    "2-d bias": {"dims": [9, 2], "weights": [[[0.0, 0.0]] * 9], "biases": [[[0.0], [0.0]]]},
    "scalar bias": {"dims": [9, 1], "weights": [[[0.0]] * 9], "biases": [0.0]},
    "zero width": {"dims": [9, 0], "weights": [[[]] * 9], "biases": [[]]},
}


def write_model_payload(path, arrays):
    path.write_text(json.dumps({"format": "mlp-params", "version": 2, **arrays}))
    return path


@pytest.mark.parametrize("name", sorted(MALFORMED_MODEL_ARRAYS))
def test_model_malformed_shapes_rejected(tmp_path, name):
    path = write_model_payload(tmp_path / "model.json", MALFORMED_MODEL_ARRAYS[name])
    with pytest.raises(ModelFormatError, match="dims"):
        load_model(path)


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "not a model file"),
    ({"format": "csv", "version": 1}, "not a model file"),
    ({"format": "mlp-params", "version": 2, "weights": [], "biases": []},
     "malformed model payload: KeyError('dims')"),
    ({"format": "mlp-params", "version": 2, "dims": ["nine", 2], "weights": [], "biases": []},
     "malformed model payload: ValueError"),
], ids=["list", "other-format", "no-dims", "word-in-dims"])
def test_model_file_that_is_no_model_rejected(tmp_path, payload, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: {message}")


def test_model_unknown_key_rejected(tmp_path):
    # a saved model has exactly these five keys; one more, such as an
    # architecture tag, must not load silently as a plain MLP
    path = tmp_path / "model.json"
    save_model(init_mlp([3, 4, 2], rng_()).astype(np.float32), path)
    payload = json.loads(path.read_text())
    assert sorted(payload) == ["biases", "dims", "format", "version", "weights"]
    path.write_text(json.dumps({**payload, "arch": "equivariant"}))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: unknown key 'arch'"


def test_model_version_mismatch(tmp_path):
    params = init_mlp([3, 4, 2], rng_()).astype(np.float32)
    path = tmp_path / "model.json"
    save_model(params, path)
    text = path.read_text().replace('"version": 2', '"version": 99')
    path.write_text(text)
    with pytest.raises(ModelVersionError):
        load_model(path)


def test_model_version_1_refused(tmp_path):
    # version 1 held float64 networks; loading one as float32 would round it silently
    path = tmp_path / "model.json"
    save_model(init_mlp([3, 4, 2], rng_()).astype(np.float32), path)
    path.write_text(path.read_text().replace('"version": 2', '"version": 1'))
    with pytest.raises(ModelVersionError) as exc:
        load_model(path)
    assert str(exc.value) == (
        f"{path}: model format version 1, expected 2 (float32 weights); "
        "retrain the model with `schedlab train`"
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float16])
def test_save_model_takes_float32_networks_only(tmp_path, dtype):
    path = tmp_path / "model.json"
    with pytest.raises(InvalidArgumentError, match=f"float32 network, got {np.dtype(dtype)} arrays"):
        save_model(init_mlp([3, 4, 2], rng_()).astype(dtype), path)
    assert not path.exists()


@pytest.mark.parametrize("value, kind, layer", [
    (0.1, "weights", 0), (1e300, "weights", 1), (-1e-50, "biases", 1), (3.4028235677973366e38, "biases", 0),
], ids=["rounded", "overflow", "underflow", "above-max"])
def test_model_value_that_is_not_a_float32_rejected(tmp_path, value, kind, layer):
    """A hand-edited value that the float32 cast would change, round or
    overflow to inf fails with the file and the layer named."""
    path = tmp_path / "model.json"
    save_model(init_mlp([3, 4, 2], rng_()).astype(np.float32), path)
    payload = json.loads(path.read_text())
    cell = payload[kind][layer]
    if kind == "weights":
        cell[-1][0] = value
    else:
        cell[-1] = value
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
    assert str(exc.value) == f"{path}: layer {layer} {kind}: {value!r} is no float32 value"


def test_model_extreme_float32_values_roundtrip_bitwise(tmp_path):
    """Every float32, including the largest, the smallest subnormal, -0.0
    and the infinities, is written as the double it equals and loads back."""
    params = init_mlp([3, 4, 2], rng_()).astype(np.float32)
    f32 = np.finfo(np.float32)
    params.weights[0][:, 0] = [f32.max, -f32.max, f32.smallest_subnormal]
    params.biases[0][:] = [-0.0, np.inf, -np.inf, f32.tiny]
    path = tmp_path / "model.json"
    save_model(params, path)
    loaded = load_model(path)
    for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
        assert a.dtype == np.float32 and a.tobytes() == b.tobytes()


def test_model_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "missing.json")
