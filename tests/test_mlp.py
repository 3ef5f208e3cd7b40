import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lupus import metrics, mlp, optimizer
from lupus.errors import ConfigError, DataError
from lupus.mlp import (
    MlpArchitecture,
    TrainedModel,
    backward,
    bce_loss,
    flatten,
    forward_batch,
    init_params,
    model_from_json,
    model_to_json,
    train,
    unflatten,
)
from lupus.optimizer import GwoConfig, SearchSpace

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])
# Recorded passing seed for the XOR swarm-training example (60 agents,
# 300 iterations, bounds [-5, 5]); found by scripts/search_xor_seed.py.
XOR_SEED = 0


def finite_difference(arch, params, X, y, h=1e-5):
    grad = np.empty_like(params)
    for k in range(params.size):
        up = params.copy()
        up[k] += h
        down = params.copy()
        down[k] -= h
        grad[k] = (bce_loss(arch, up, X, y) - bce_loss(arch, down, X, y)) / (2 * h)
    return grad


class TestArchitecture:
    def test_param_count(self):
        assert MlpArchitecture((13, 16, 1)).n_params == 241
        assert MlpArchitecture((2, 4, 1)).n_params == 17
        assert MlpArchitecture((1, 1)).n_params == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            MlpArchitecture((13,))
        with pytest.raises(ConfigError):
            MlpArchitecture((13, 0, 1))
        with pytest.raises(ConfigError):
            MlpArchitecture((13, 16, 2))


class TestFlattenRoundTrip:
    def test_thousand_random_vectors(self):
        arch = MlpArchitecture((5, 7, 1))
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = rng.normal(size=arch.n_params)
            assert np.array_equal(flatten(unflatten(arch, v)), v)

    def test_shapes(self):
        arch = MlpArchitecture((3, 2, 1))
        layers = unflatten(arch, np.arange(float(arch.n_params)))
        assert layers[0][0].shape == (3, 2) and layers[0][1].shape == (2,)
        assert layers[1][0].shape == (2, 1) and layers[1][1].shape == (1,)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            unflatten(MlpArchitecture((3, 2, 1)), np.zeros(5))

    @pytest.mark.parametrize("shape", [(4, 5), (4, 12), (2, 2, 11), ()])
    def test_stack_wrong_last_axis_rejected(self, shape):
        with pytest.raises(ValueError, match="11 parameters"):
            unflatten(MlpArchitecture((3, 2, 1)), np.zeros(shape))

    def test_stack_slices_last_axis(self):
        arch = MlpArchitecture((3, 2, 1))
        stack = np.random.default_rng(3).normal(size=(4, arch.n_params))
        layers = unflatten(arch, stack)
        assert [(w.shape, b.shape) for w, b in layers] == [((4, 3, 2), (4, 2)),
                                                           ((4, 2, 1), (4, 1))]
        for i, row in enumerate(stack):
            for (w, b), (w_row, b_row) in zip(layers, unflatten(arch, row)):
                assert np.array_equal(w[i], w_row) and np.array_equal(b[i], b_row)


def _two_sided_sigmoid(z):
    """The mask-indexed two-sided logistic that _stable_sigmoid replaced.

    Kept as the bit-for-bit oracle of the branch-free form.
    """
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _double_clipped_bce(arch, params, X, y):
    """bce_loss written out with the two-sided sigmoid and both clips it
    used to apply: forward_batch's (0, 1) clip, then the loss band."""
    a = X
    for w, b in unflatten(arch, params):
        a = _two_sided_sigmoid(a @ w + b)
    p = np.clip(a[:, 0], np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    p = np.clip(p, mlp.BCE_CLIP, 1.0 - mlp.BCE_CLIP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def assert_same_bits(actual, expected):
    """Equal bit patterns (so -0.0 != 0.0), with NaN compared by position."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


# exp(-|z|) underflows to a subnormal or zero beyond |z| ~ 708 in both forms;
# that rounding is the exact result, so only underflow is let through.
_SIGMOID_ERRSTATE = dict(all="raise", under="ignore")
_SIGMOID_SPECIALS = [0.0, 5e-324, 1e-300, 36.8, 709.0, 745.0, 1e308, math.inf]


class TestStableSigmoid:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 100.0, 1e3])
    def test_bit_identical_to_two_sided_form(self, scale):
        z = np.random.default_rng(17).normal(scale=scale, size=(208, 16))
        with np.errstate(**_SIGMOID_ERRSTATE):
            assert_same_bits(mlp._stable_sigmoid(z), _two_sided_sigmoid(z))

    def test_specials_bit_identical(self):
        z = np.array(_SIGMOID_SPECIALS + [-v for v in _SIGMOID_SPECIALS] + [math.nan])
        with np.errstate(**_SIGMOID_ERRSTATE):
            out = mlp._stable_sigmoid(z)
            assert_same_bits(out, _two_sided_sigmoid(z))
        assert np.isnan(out[-1]) and not np.isnan(out[:-1]).any()

    def test_no_floating_point_error_short_of_underflow(self):
        z = np.linspace(-708.0, 708.0, 20001)
        with np.errstate(all="raise"):
            assert_same_bits(mlp._stable_sigmoid(z), _two_sided_sigmoid(z))

    def test_agent_stack_bit_identical(self):
        # The shape of one chunk of the swarm's stacked loss on the heart data.
        z = np.random.default_rng(23).normal(scale=5.0, size=(9, 208, 16))
        with np.errstate(**_SIGMOID_ERRSTATE):
            assert_same_bits(mlp._stable_sigmoid(z), _two_sided_sigmoid(z))

    def test_in_place_bit_identical(self):
        # out=z takes the z >= 0 mask before it overwrites z.
        z = np.array(_SIGMOID_SPECIALS + [-v for v in _SIGMOID_SPECIALS] + [math.nan])
        stack = np.random.default_rng(31).normal(scale=50.0, size=(9, 208, 16))
        for values in (z, stack):
            with np.errstate(**_SIGMOID_ERRSTATE):
                expected = mlp._stable_sigmoid(values)
                in_place = values.copy()
                assert mlp._stable_sigmoid(in_place, out=in_place) is in_place
            assert_same_bits(in_place, expected)

    def test_argument_left_unchanged(self):
        # The sigmoid writes its work arrays with out=; none may be the caller's.
        z = np.random.default_rng(29).normal(scale=5.0, size=(4, 208, 16))
        z[0, 0, :4] = [-0.0, math.inf, -math.inf, math.nan]
        before = z.copy()
        with np.errstate(**_SIGMOID_ERRSTATE):
            mlp._stable_sigmoid(z)
        assert_same_bits(z, before)


def forward(arch, params, x):
    """Predicted probability of one feature vector, as a one-row batch."""
    return float(forward_batch(arch, params, np.asarray(x)[None, :])[0])


def predict(arch, params, X, threshold=0.5):
    """Labels as metrics.evaluate thresholds forward_batch scores."""
    return (forward_batch(arch, params, X) >= threshold).astype(int)


class TestForward:
    def test_zero_params_give_half(self):
        arch = MlpArchitecture((4, 3, 1))
        assert forward(arch, np.zeros(arch.n_params), np.array([1.0, -2.0, 0.5, 3.0])) == 0.5

    def test_single_unit_closed_form(self):
        arch = MlpArchitecture((1, 1))
        w, b, x = 0.7, -0.2, 1.3
        expected = 1.0 / (1.0 + math.exp(-(w * x + b)))
        assert forward(arch, np.array([w, b]), np.array([x])) == pytest.approx(
            expected, abs=1e-12)

    def test_two_layer_matches_hand_matrix_math(self):
        arch = MlpArchitecture((2, 2, 1))
        params = np.random.default_rng(42).normal(size=arch.n_params)
        x = np.array([1.0, -1.0])
        # independent hand computation of the same pass
        w1 = params[0:4].reshape(2, 2)
        b1 = params[4:6]
        w2 = params[6:8].reshape(2, 1)
        b2 = params[8:9]
        z1 = x @ w1 + b1
        a1 = 1.0 / (1.0 + np.exp(-z1))
        z2 = a1 @ w2 + b2
        expected = float(1.0 / (1.0 + np.exp(-z2[0])))
        assert forward(arch, params, x) == pytest.approx(expected, abs=1e-12)

    def test_stack_gives_one_row_per_vector(self):
        arch = MlpArchitecture((3, 4, 1))
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(3, arch.n_params))
        X = rng.normal(size=(5, 3))
        expected = np.array([forward_batch(arch, row, X) for row in stack])
        assert np.array_equal(forward_batch(arch, stack, X), expected)

    def test_dimension_mismatch(self):
        arch = MlpArchitecture((3, 1))
        for X in (np.zeros((1, 2)), np.zeros((2, 4)), np.zeros(3)):
            with pytest.raises(ValueError, match="3 columns"):
                forward_batch(arch, np.zeros(arch.n_params), X)

    @given(scale=st.floats(min_value=0.1, max_value=1000.0))
    def test_output_strictly_inside_unit_interval(self, scale):
        arch = MlpArchitecture((2, 2, 1))
        params = np.full(arch.n_params, scale)
        p = forward(arch, params, np.array([100.0, 100.0]))
        assert 0.0 < p < 1.0
        q = forward(arch, -params, np.array([100.0, 100.0]))
        assert 0.0 < q < 1.0


class TestBceLoss:
    def test_maximal_uncertainty(self):
        arch = MlpArchitecture((2, 1))
        loss = bce_loss(arch, np.zeros(3), np.array([[1.0, 2.0]]), np.array([1]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_value(self):
        # p = (0.9, 0.2), y = (1, 0) via a single logit unit: z = log(p/(1-p))
        arch = MlpArchitecture((1, 1))
        z = [math.log(0.9 / 0.1), math.log(0.2 / 0.8)]
        X = np.array([[z[0]], [z[1]]])
        loss = bce_loss(arch, np.array([1.0, 0.0]), X, np.array([1, 0]))
        assert loss == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2.0, abs=1e-9)
        assert loss == pytest.approx(0.164252, abs=1e-6)

    def test_perfect_prediction_loss_vanishes(self):
        arch = MlpArchitecture((1, 1))
        loss = bce_loss(arch, np.array([30.0, 0.0]), np.array([[1.0]]), np.array([1]))
        assert loss < 1e-12

    def test_empty_dataset(self):
        arch = MlpArchitecture((1, 1))
        with pytest.raises(ValueError):
            bce_loss(arch, np.zeros(2), np.empty((0, 1)), np.empty(0))

    # The loss reads a label as "is it 1": any other value would count as 0.
    @pytest.mark.parametrize("label", [0.5, 2.0, -1.0, math.nan])
    def test_labels_other_than_zero_or_one_rejected(self, label):
        arch = MlpArchitecture((1, 1))
        X, y = np.array([[1.0], [2.0]]), np.array([1.0, label])
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            bce_loss(arch, np.zeros(2), X, y)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            backward(arch, np.zeros(2), X, y)

    @pytest.mark.parametrize("scale", [1.0, 11.0])
    def test_bit_identical_to_double_clipped_formula(self, scale):
        # scale 11 pushes most outputs to exactly 0 or 1, into the clips
        arch = MlpArchitecture((13, 16, 1))
        rng = np.random.default_rng(29)
        X = rng.normal(size=(208, 13))
        y = rng.integers(0, 2, 208).astype(float)
        for _ in range(200):
            params = scale * rng.uniform(-5.0, 5.0, size=arch.n_params)
            with np.errstate(**_SIGMOID_ERRSTATE):
                expected = _double_clipped_bce(arch, params, X, y)
                actual = bce_loss(arch, params, X, y)
            assert_same_bits(np.array([actual]), np.array([expected]))

    def test_vector_gives_python_float(self):
        arch = MlpArchitecture((2, 3, 1))
        loss = bce_loss(arch, np.full(arch.n_params, 0.3), XOR_X, XOR_Y)
        assert type(loss) is float

    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize(
        "sizes", [(13, 1), (13, 16, 1), (13, 16, 8, 1), (13, 64, 1), (13, 3, 3, 3, 1)],
        ids=lambda sizes: "-".join(map(str, sizes)))
    def test_stack_equals_per_row_bit_for_bit(self, sizes, scale):
        # Stack sizes straddle the chunk size k, so chunks are full, partial
        # or single; scale 100 saturates most units into the clips.
        arch = MlpArchitecture(sizes)
        rng = np.random.default_rng(43)
        X = rng.normal(size=(208, 13))
        y = rng.integers(0, 2, 208).astype(float)
        k = max(1, mlp.LOSS_CHUNK_ELEMENTS // (X.shape[0] * max(sizes)))
        for m in sorted({1, max(k - 1, 1), k, k + 1, 137}):
            stack = scale * rng.uniform(-5.0, 5.0, size=(m, arch.n_params))
            with np.errstate(**_SIGMOID_ERRSTATE):
                stacked = bce_loss(arch, stack, X, y)
                per_row = np.array([bce_loss(arch, row, X, y) for row in stack])
            assert stacked.shape == (m,)
            assert_same_bits(stacked, per_row)

    def test_permutation_invariance(self):
        arch = MlpArchitecture((3, 4, 1))
        rng = np.random.default_rng(5)
        params = rng.normal(size=arch.n_params)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        perm = rng.permutation(20)
        assert bce_loss(arch, params, X, y) == pytest.approx(
            bce_loss(arch, params, X[perm], y[perm]), abs=1e-12)


class TestBackward:
    def test_single_unit_closed_form(self):
        arch = MlpArchitecture((1, 1))
        grad = backward(arch, np.zeros(2), np.array([[1.0]]), np.array([1]))
        assert grad == pytest.approx([-0.5, -0.5], abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            sizes = (int(rng.integers(2, 14)), int(rng.integers(2, 17)), 1)
            arch = MlpArchitecture(sizes)
            params = rng.normal(scale=0.8, size=arch.n_params)
            X = rng.normal(size=(20, sizes[0]))
            y = rng.integers(0, 2, 20)
            grad = backward(arch, params, X, y)
            fd = finite_difference(arch, params, X, y)
            # relative 1e-5 with an absolute floor for vanishing coordinates
            # (the central-difference oracle itself carries ~2e-10 noise)
            tolerance = np.maximum(1e-5 * np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
            assert np.all(np.abs(grad - fd) <= tolerance)

    def test_rejects_stack(self):
        arch = MlpArchitecture((1, 1))
        with pytest.raises(ValueError, match="one parameter vector"):
            backward(arch, np.zeros((2, 2)), np.array([[1.0]]), np.array([1]))

    def test_zero_gradient_at_analytic_optimum(self):
        # one unit, contradictory labels at the same point: optimum at z = 0
        arch = MlpArchitecture((1, 1))
        X = np.array([[1.0], [1.0]])
        y = np.array([1, 0])
        grad = backward(arch, np.zeros(2), X, y)
        assert np.linalg.norm(grad) < 1e-6


def _reference_activations(arch, params, X):
    """Every layer, the output unit included, as ``a @ w + b`` through the
    two-sided sigmoid: the forward pass before the output unit's sigmoid
    moved out of it."""
    activations = [X]
    for w, b in unflatten(arch, params):
        activations.append(_two_sided_sigmoid(activations[-1] @ w + b[..., None, :]))
    return activations


def _reference_bce_loss(arch, params, X, y):
    """The loss as it ran before the batched tail: per chunk of
    LOSS_CHUNK_ELEMENTS (a vector on its own), the whole forward pass, then
    the clip and the BCE mean."""
    def mean_bce(part):
        p = _reference_activations(arch, part, X)[-1][..., 0]
        p = np.clip(p, mlp.BCE_CLIP, 1.0 - mlp.BCE_CLIP)
        return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)

    if params.ndim == 1:
        return mean_bce(params)
    k = max(1, mlp.LOSS_CHUNK_ELEMENTS // (X.shape[0] * max(arch.layer_sizes)))
    return np.concatenate([mean_bce(params[s:s + k]) for s in range(0, len(params), k)])


def _reference_backward(arch, params, X, y):
    """backward on the reference forward pass, written out as it was."""
    layers = unflatten(arch, params)
    activations = _reference_activations(arch, params, X)
    p = activations[-1][:, 0]
    delta = (p - y) / X.shape[0]
    delta[(p <= mlp.BCE_CLIP) | (p >= 1.0 - mlp.BCE_CLIP)] = 0.0
    delta = delta[:, None]
    grads = [None] * len(layers)
    for layer in range(len(layers) - 1, -1, -1):
        a_prev = activations[layer]
        grads[layer] = (a_prev.T @ delta, delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ layers[layer][0].T) * a_prev * (1.0 - a_prev)
    return flatten(grads)


_ORACLE_SIZES = [(13, 1), (13, 16, 1), (13, 16, 8, 1), (13, 64, 1), (13, 3, 3, 3, 1)]


class TestAgainstReference:
    """bce_loss, forward_batch and backward bit for bit against the reference
    composition above; scale 100 saturates most units into the clips."""

    @pytest.fixture(params=[0.01, 1.0, 100.0], ids=lambda scale: f"scale{scale}")
    def data(self, request):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(208, 13))
        y = rng.integers(0, 2, 208).astype(float)
        return request.param, rng, X, y

    @pytest.mark.parametrize("sizes", _ORACLE_SIZES, ids=lambda sizes: "-".join(map(str, sizes)))
    def test_bce_loss(self, data, sizes):
        scale, rng, X, y = data
        arch = MlpArchitecture(sizes)
        k = max(1, mlp.LOSS_CHUNK_ELEMENTS // (X.shape[0] * max(sizes)))
        for m in sorted({1, max(k - 1, 1), k, k + 1, 137}):
            stack = scale * rng.uniform(-5.0, 5.0, size=(m, arch.n_params))
            with np.errstate(**_SIGMOID_ERRSTATE):
                assert_same_bits(bce_loss(arch, stack, X, y),
                                 _reference_bce_loss(arch, stack, X, y))
                for row in stack[:3]:
                    assert_same_bits(np.array([bce_loss(arch, row, X, y)]),
                                     np.array([_reference_bce_loss(arch, row, X, y)]))

    @pytest.mark.parametrize("sizes", _ORACLE_SIZES, ids=lambda sizes: "-".join(map(str, sizes)))
    def test_forward_batch_and_backward(self, data, sizes):
        scale, rng, X, y = data
        arch = MlpArchitecture(sizes)
        stack = scale * rng.uniform(-5.0, 5.0, size=(5, arch.n_params))
        tiny, below_one = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        with np.errstate(**_SIGMOID_ERRSTATE):
            for params in (stack, *stack):
                expected = np.clip(_reference_activations(arch, params, X)[-1][..., 0],
                                   tiny, below_one)
                assert_same_bits(forward_batch(arch, params, X), expected)
            for params in stack:
                assert_same_bits(backward(arch, params, X, y),
                                 _reference_backward(arch, params, X, y))


class TestPredict:
    def test_threshold_tie_is_positive(self):
        arch = MlpArchitecture((2, 1))
        labels = predict(arch, np.zeros(3), np.array([[5.0, -1.0]]), threshold=0.5)
        assert labels.tolist() == [1]

    def test_high_threshold_dominates(self):
        arch = MlpArchitecture((1, 1))
        z = math.log(0.9 / 0.1)
        labels = predict(arch, np.array([1.0, 0.0]), np.array([[z]]), threshold=0.99)
        assert labels.tolist() == [0]

    def test_threshold_validated(self):
        arch = MlpArchitecture((1, 1))
        scores = forward_batch(arch, np.zeros(2), np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="threshold"):
            metrics.evaluate([1, 0], scores, threshold=0.0)


BOUNDS = (-5.0, 5.0)


class TestTrainAcgwo:
    # The swarm alone: zero gradient steps after the search.
    def test_xor_at_recorded_seed(self):
        arch = MlpArchitecture((2, 4, 1))
        cfg = GwoConfig(variant="acgwo", n_agents=60, max_iter=300, seed=XOR_SEED)
        params, _ = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 0, 0.1, 0)
        labels = predict(arch, params, XOR_X)
        assert np.array_equal(labels, XOR_Y)

    def test_xor_feasible_by_construction(self):
        # hand-built witness that a [2,4,1] net within [-5,5] separates XOR
        arch = MlpArchitecture((2, 4, 1))
        w1 = np.zeros((2, 4))
        b1 = np.zeros(4)
        w1[:, 0] = (5.0, -5.0)
        b1[0] = -2.5
        w1[:, 1] = (-5.0, 5.0)
        b1[1] = -2.5
        w2 = np.zeros((4, 1))
        w2[0, 0] = 5.0
        w2[1, 0] = 5.0
        b2 = np.array([-2.5])
        params = flatten([(w1, b1), (w2, b2)])
        assert np.all(np.abs(params) <= 5.0)
        assert np.array_equal(predict(arch, params, XOR_X), XOR_Y)

    def test_loss_history_non_increasing(self):
        arch = MlpArchitecture((2, 3, 1))
        cfg = GwoConfig(variant="acgwo", n_agents=10, max_iter=40, seed=1)
        _, history = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 0, 0.1, 0)
        assert history.size == 40
        assert np.all(np.diff(history) <= 0)

    def test_deterministic(self):
        arch = MlpArchitecture((2, 3, 1))
        cfg = GwoConfig(variant="acgwo", n_agents=8, max_iter=25, seed=3)
        a, _ = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 0, 0.1, 0)
        b, _ = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 0, 0.1, 0)
        assert np.array_equal(a, b)

    def test_respects_bounds(self):
        arch = MlpArchitecture((2, 3, 1))
        cfg = GwoConfig(variant="acgwo", n_agents=8, max_iter=30, seed=2)
        params, _ = train(arch, XOR_X, XOR_Y, cfg, (-1.5, 1.5), 0, 0.1, 0)
        assert np.all(params >= -1.5)
        assert np.all(params <= 1.5)


class TestTrainBp:
    # Gradient descent alone: no swarm, a Glorot start from the seed.
    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(-2.0, 0.5, (25, 2)), rng.normal(2.0, 0.5, (25, 2))])
        y = np.array([0] * 25 + [1] * 25)
        arch = MlpArchitecture((2, 1))
        params, history = train(arch, X, y, None, BOUNDS, 200, 0.5, 1)
        assert history.size == 200
        assert history[-1] < history[0]
        assert np.mean(predict(arch, params, X) == y) == 1.0

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_rejects_bad_learning_rate(self, learning_rate):
        arch = MlpArchitecture((2, 1))
        with pytest.raises(ConfigError, match="learning_rate"):
            train(arch, XOR_X, XOR_Y, None, BOUNDS, 1, learning_rate, 0)

    def test_rejects_negative_epochs(self):
        with pytest.raises(ConfigError, match="bp_epochs"):
            train(MlpArchitecture((2, 1)), XOR_X, XOR_Y, None, BOUNDS, -1, 0.1, 0)

    def test_zero_epochs_keeps_start(self):
        arch = MlpArchitecture((2, 3, 1))
        params, history = train(arch, XOR_X, XOR_Y, None, BOUNDS, 0, 0.1, 5)
        assert np.array_equal(params, init_params(arch, 5))
        assert history.size == 0


class TestTrainHybrid:
    def test_zero_bp_epochs_equals_pure_swarm(self):
        arch = MlpArchitecture((2, 3, 1))
        cfg = GwoConfig(variant="acgwo", n_agents=8, max_iter=20, seed=6)
        params, history = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 0, 0.1, 0)
        swarm = optimizer.run(lambda P, rng: bce_loss(arch, P, XOR_X, XOR_Y),
                              SearchSpace(arch.n_params, *BOUNDS), cfg)
        assert np.array_equal(params, swarm.best_position)
        assert np.array_equal(history, swarm.history)

    def test_small_lr_tail_never_hurts_phase_endpoints(self, heart_csv):
        from lupus import dataprep
        from lupus.seeding import derive_seed

        ds = dataprep.clean(dataprep.load_table(heart_csv))
        arch = MlpArchitecture((13, 8, 1))
        for seed in range(10):
            train_part, _ = dataprep.stratified_split(ds, 0.7, derive_seed(seed, "split"))
            stats = dataprep.fit_standardizer(train_part.X, train_part.feature_names)
            x = dataprep.apply_standardizer(stats, train_part.X)
            cfg = GwoConfig(variant="acgwo", n_agents=15, max_iter=60, seed=seed)
            _, history = train(arch, x, train_part.y, cfg, BOUNDS, 40, 1e-3, 0)
            swarm_end = history[59]
            assert history[-1] <= swarm_end + 1e-9

    def test_learning_rate_checked_before_swarm_phase(self, monkeypatch):
        def swarm_phase(*_args):
            raise AssertionError("swarm phase ran")

        monkeypatch.setattr(mlp.optimizer, "run", swarm_phase)
        cfg = GwoConfig(variant="acgwo", n_agents=8, max_iter=15, seed=4)
        with pytest.raises(ConfigError, match="learning_rate"):
            train(MlpArchitecture((2, 3, 1)), XOR_X, XOR_Y, cfg, BOUNDS, 10, math.nan, 0)

    def test_history_concatenates_phases(self):
        arch = MlpArchitecture((2, 3, 1))
        cfg = GwoConfig(variant="acgwo", n_agents=8, max_iter=15, seed=4)
        _, history = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 10, 0.05, 0)
        _, swarm_history = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 0, 0.05, 0)
        assert history.size == 25
        assert np.array_equal(history[:15], swarm_history)

    def test_deterministic(self):
        arch = MlpArchitecture((2, 3, 1))
        cfg = GwoConfig(variant="acgwo", n_agents=8, max_iter=15, seed=4)
        a, _ = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 10, 0.05, 0)
        b, _ = train(arch, XOR_X, XOR_Y, cfg, BOUNDS, 10, 0.05, 0)
        assert np.array_equal(a, b)


class TestModelPersistence:
    def _model(self):
        arch = MlpArchitecture((2, 2, 1))
        return TrainedModel(
            layer_sizes=arch.layer_sizes,
            params=np.linspace(-1, 1, arch.n_params),
            scaler_mean=np.array([0.5, -0.5]),
            scaler_std=np.array([1.5, 2.0]),
            threshold=0.5,
            split_seed=12345,
            train_fraction=0.7,
            impute=False,
            mode="hybrid",
        )

    def test_round_trip(self):
        model = self._model()
        restored = model_from_json(model_to_json(model))
        assert restored.layer_sizes == model.layer_sizes
        assert np.array_equal(restored.params, model.params)
        assert np.array_equal(restored.scaler_mean, model.scaler_mean)
        assert restored.split_seed == model.split_seed

    def test_corrupted_json_rejected(self):
        with pytest.raises(DataError):
            model_from_json("{not json", source="m.json")

    def test_nesting_too_deep_rejected(self):
        with pytest.raises(DataError, match="m.json"):
            model_from_json("[" * 100000 + "]" * 100000, source="m.json")

    @pytest.mark.parametrize("field,value", [
        ("layer_sizes", [2, 0, 1]),
        ("scaler_mean", [0.5]),
        ("scaler_std", [1.5, 2.0, 1.0]),
        ("params", [math.nan] + [0.0] * 8),
        ("scaler_mean", [0.5, math.inf]),
        ("scaler_std", [math.nan, 2.0]),
        ("scaler_std", [1.5, 0.0]),
        ("scaler_std", [-1.5, 2.0]),
        ("threshold", 1.5),
        ("threshold", 0.0),
        ("train_fraction", 1.0),
        ("train_fraction", -0.1),
        ("params", [[0.0] * 9]),
        ("scaler_mean", [[0.5, -0.5]]),
        ("split_seed", -1),
        ("split_seed", 1.5),
        ("split_seed", True),
        ("split_seed", "7"),
        ("impute", "no"),
        ("impute", 0),
        pytest.param("layer_sizes", [2.9, 2, 1], id="layer_sizes-float"),
        pytest.param("layer_sizes", [2, True, 1], id="layer_sizes-bool"),
        pytest.param("layer_sizes", [2, math.inf, 1], id="layer_sizes-inf"),
        pytest.param("params", [10 ** 400] + [0.0] * 8, id="params-huge-int"),
        pytest.param("scaler_std", ["1.5", 2.0], id="scaler_std-string"),
        pytest.param("threshold", "0.5", id="threshold-string"),
        pytest.param("threshold", 10 ** 400, id="threshold-huge-int"),
        pytest.param("train_fraction", "0.7", id="train_fraction-string"),
        pytest.param("mode", [1], id="mode-list"),
        pytest.param("mode", "xx", id="mode-unknown"),
        pytest.param("layer_sizes", [10 ** 2200, 10 ** 2200, 1], id="layer_sizes-huge"),
    ])
    def test_field_eval_relies_on_validated(self, field, value):
        payload = json.loads(model_to_json(self._model()))
        payload[field] = value
        with pytest.raises(DataError, match=field):
            model_from_json(json.dumps(payload), source="m.json")

    def test_wrong_param_count_rejected(self):
        model = self._model()
        text = model_to_json(model).replace('"layer_sizes": [\n    2,\n    2,\n    1\n  ]',
                                            '"layer_sizes": [\n    3,\n    2,\n    1\n  ]')
        with pytest.raises(DataError):
            model_from_json(text)
