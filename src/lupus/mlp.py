"""Small feed-forward sigmoid network for binary classification.

The parameter vector is the flattened concatenation of each layer's weight
matrix (fan_in x fan_out, row-major) followed by its bias vector, so the
whole network doubles as a search point for the swarm optimizers.
:func:`train` runs an optional swarm search over the flattened parameters,
then full-batch gradient descent from the best point found;
:func:`fit_classifier` runs it inside the whole ``lupus train`` pipeline.

:func:`unflatten`, :func:`forward_batch` and :func:`bce_loss` also take a
stack of parameter vectors, shape ``(m, n_params)``: weights come out as
``(m, fan_in, fan_out)``, biases as ``(m, fan_out)``, probabilities as
``(m, rows)`` and the loss as the ``(m,)`` losses, each row bit for bit equal
to the call on that row's vector. A single vector keeps its ``float`` loss.

The loss runs only the hidden layers per chunk of agents, in place on each
fresh ``a @ w``, and gathers the output unit's pre-activations in one
``(m, rows)`` array; the output sigmoid, the clip and the BCE mean run once
over it. Each element sees the same ufuncs in the same order as alone.

:func:`train` evaluates the swarm's loss in two halves where
:func:`optimizer.worker` gives a pool: its thread takes the tail half of each
stack, the loop's own thread the head. Each row's loss is the same either way.
"""

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import dataprep, fileio, metrics, optimizer
from .errors import ConfigError, DataError
from .optimizer import GwoConfig, SearchSpace
from .seeding import derive_seed

# Predicted probabilities are clipped to [BCE_CLIP, 1 - BCE_CLIP] inside the
# loss; samples pushed outside that band carry zero gradient.
BCE_CLIP = 1e-12

# A stacked loss runs its hidden layers in chunks of agents whose widest
# activation holds about this many float64 values (512 KiB); whole-swarm
# activations fall out of cache. With the swarm's loss in two halves, 2^16
# beat 2^15 in paired runs (fewer, longer ufunc calls per thread); 2^17 was
# no faster and held more memory.
# The output unit's tail (sigmoid, clip, BCE mean) runs once on all agents:
# per chunk, its call overhead dominated.
LOSS_CHUNK_ELEMENTS = 2 ** 16


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer sizes from input to the single sigmoid output unit."""

    layer_sizes: Tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ConfigError("architecture needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] != 1:
            raise ConfigError(f"output layer must have size 1, got {sizes[-1]}")

    @property
    def n_params(self) -> int:
        return sum(
            fan_in * fan_out + fan_out
            for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:])
        )


# The modes that model.json records; only fit_classifier sets them.
MODES = ("acgwo", "bp", "hybrid")


def _stable_sigmoid(z: np.ndarray, out=None) -> np.ndarray:
    """Logistic function without overflow, branch-free.

    ``exp(-|z|)`` is the same ``exp`` call on the same value as the two-sided
    form (``exp(-z)`` for z >= 0, ``exp(z)`` below), so both branches round
    exactly as there. ``max(e, z >= 0)`` is 1 for z >= 0 (where ``e <= 1``)
    and ``e`` below, NaN staying NaN, so each element gets its one division
    without ``np.where``, which costs more than the ``exp``. Keep ``e / d``:
    ``e * (1 / d)`` rounds twice.

    The result goes to ``out`` (``out=z`` computes in place, as the mask is
    taken before ``z`` is overwritten); without it, ``z`` is left as is.
    """
    nonnegative = z >= 0
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, nonnegative, out=e)
    return np.divide(e, d, out=e)


def unflatten(arch: MlpArchitecture, params) -> list:
    """Parameter vector (or stack of them) back into per-layer (weights, bias)
    pairs, sliced from the last axis."""
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != arch.n_params:
        raise ValueError(
            f"expected {arch.n_params} parameters for {arch.layer_sizes}, "
            f"or a stack of them, got shape {params.shape}"
        )
    stack = params.shape[:-1]
    layers = []
    offset = 0
    for fan_in, fan_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        w = params[..., offset:offset + fan_in * fan_out].reshape(stack + (fan_in, fan_out))
        offset += fan_in * fan_out
        b = params[..., offset:offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def flatten(layers) -> np.ndarray:
    """Inverse of :func:`unflatten`; exact round trip."""
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


def _forward_activations(layers, X) -> list:
    """The input, each hidden layer's activation, then the output unit's
    pre-activation (the logit): the caller applies the final sigmoid."""
    X = np.asarray(X, dtype=float)
    n_inputs = layers[0][0].shape[-2]
    if X.ndim != 2 or X.shape[1] != n_inputs:
        raise ValueError(f"expected a matrix with {n_inputs} columns, got {X.shape}")
    activations = [X]
    for i, (w, b) in enumerate(layers, start=1):
        z = activations[-1] @ w
        z += b[..., None, :]
        if i < len(layers):
            _stable_sigmoid(z, out=z)
        activations.append(z)
    return activations


def forward_batch(arch: MlpArchitecture, params, X) -> np.ndarray:
    """Predicted probabilities for every row of X, strictly inside (0, 1)."""
    p = _stable_sigmoid(_forward_activations(unflatten(arch, params), X)[-1][..., 0])
    # Saturated units can round to exactly 0 or 1 in float; pull them back
    # to the nearest representable interior value.
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def _labeled_data(X, y):
    """Features and labels as float arrays, checked non-empty and aligned,
    the labels 0 or 1."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return X, y


def bce_loss(arch: MlpArchitecture, params, X, y):
    """Mean binary cross-entropy with clipped probabilities.

    A parameter vector gives a ``float``; an ``(m, n_params)`` stack gives the
    ``(m,)`` losses, its hidden layers evaluated in chunks of
    :data:`LOSS_CHUNK_ELEMENTS`.
    """
    X, y = _labeled_data(X, y)
    params = np.asarray(params, dtype=float)
    layers = unflatten(arch, np.atleast_2d(params))
    chunk = max(1, LOSS_CHUNK_ELEMENTS // (X.shape[0] * max(arch.layer_sizes)))
    p = np.empty((layers[0][1].shape[0], X.shape[0]))
    for start in range(0, p.shape[0], chunk):
        part = [(w[start:start + chunk], b[start:start + chunk]) for w, b in layers]
        p[start:start + chunk] = _forward_activations(part, X)[-1][..., 0]
    _stable_sigmoid(p, out=p)
    # The loss band lies inside forward_batch's (0, 1) clip, so one clip of
    # the raw output gives the same probabilities.
    np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP, out=p)
    # With 0/1 labels the BCE is -log of the true label's probability,
    # |p - (1 - y)|: p - 1 is exactly -(1 - p) and p - 0 is p.
    np.subtract(p, 1.0 - y, out=p)
    losses = -np.log(np.abs(p, out=p)).mean(axis=-1)
    return losses if params.ndim == 2 else float(losses[0])


def backward(arch: MlpArchitecture, params, X, y) -> np.ndarray:
    """Exact gradient of :func:`bce_loss` in the flattened layout."""
    X, y = _labeled_data(X, y)
    if np.ndim(params) != 1:
        raise ValueError(f"backward takes one parameter vector, got shape {np.shape(params)}")
    layers = unflatten(arch, params)
    activations = _forward_activations(layers, X)
    p = _stable_sigmoid(activations[-1][:, 0])

    n = X.shape[0]
    # d(loss)/d(z_out); clipped samples sit on the flat part of the loss.
    delta = (p - y) / n
    delta[(p <= BCE_CLIP) | (p >= 1.0 - BCE_CLIP)] = 0.0
    delta = delta[:, None]

    grads = [None] * len(layers)
    for layer in range(len(layers) - 1, -1, -1):
        a_prev = activations[layer]
        grads[layer] = (a_prev.T @ delta, delta.sum(axis=0))
        if layer > 0:
            w, _ = layers[layer]
            delta = (delta @ w.T) * a_prev * (1.0 - a_prev)
    return flatten(grads)


def init_params(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """Uniform Glorot initialization of the flattened parameter vector."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        span = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-span, span, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return flatten(layers)


def check_learning_rate(learning_rate: float) -> None:
    """Reject a gradient step size that is not finite and positive."""
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ConfigError(f"learning_rate must be finite and > 0, got {learning_rate}")


def _swarm_loss(arch: MlpArchitecture, X, y, pool):
    """The swarm's objective: the losses of an ``(m, n_params)`` stack. With a
    one-thread ``pool``, its thread evaluates the rows from ``m // 2`` on while
    this one evaluates those before, and the two arrays are joined in order."""
    def objective(P, rng):
        if pool is None:
            return bce_loss(arch, P, X, y)
        half = P.shape[0] // 2
        tail = pool.submit(bce_loss, arch, P[half:], X, y)
        head = bce_loss(arch, P[:half], X, y)
        return np.concatenate((head, tail.result()))
    return objective


def train(arch: MlpArchitecture, X, y, swarm: Optional[GwoConfig],
          bounds: Tuple[float, float], bp_epochs: int, learning_rate: float,
          seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Swarm search (unless ``swarm`` is None), then full-batch gradient descent.

    The swarm minimizes the training loss over the flattened parameters in
    ``bounds``, and the descent starts from its best position; without a
    swarm it starts from the Glorot init of ``seed``. Returns the final
    parameters and the loss history: the swarm's alpha scores, then the loss
    after each of the ``bp_epochs`` steps. Where :func:`optimizer.worker`
    gives a pool, the swarm's loss is evaluated in two halves, the tail half
    on its thread, which lives as long as the swarm.
    """
    if bp_epochs < 0:
        raise ConfigError(f"bp_epochs must be >= 0, got {bp_epochs}")
    check_learning_rate(learning_rate)
    history = []
    if swarm is None:
        params = init_params(arch, seed)
    else:
        space = SearchSpace(arch.n_params, *bounds)
        with optimizer.worker() as pool:
            result = optimizer.run(_swarm_loss(arch, X, y, pool), space, swarm)
        params, history = result.best_position, [result.history]
    losses = np.empty(bp_epochs)
    for epoch in range(bp_epochs):
        params = params - learning_rate * backward(arch, params, X, y)
        losses[epoch] = bce_loss(arch, params, X, y)
    return params, np.concatenate(history + [losses])


@dataclass
class TrainedModel:
    """Persistable model: architecture, parameters, and the exact context
    (scaler statistics, decision threshold, split recipe) needed to evaluate
    it on the same data split later."""

    layer_sizes: Tuple[int, ...]
    params: np.ndarray
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    threshold: float
    split_seed: int
    train_fraction: float
    impute: bool
    mode: str

    @property
    def architecture(self) -> MlpArchitecture:
        return MlpArchitecture(self.layer_sizes)


def split_inputs(model: TrainedModel, ds: dataprep.Dataset) -> list:
    """The training and held-out parts of ``ds`` that ``model`` was fit on, as
    ``(X, y)`` pairs standardized by its scaler. A model whose scaler is still
    ``None`` (one being fit) takes the scaler of its training rows."""
    if ds.X.shape[1] != model.layer_sizes[0]:
        raise DataError(f"model expects {model.layer_sizes[0]} features but the data "
                        f"has {ds.X.shape[1]}")
    parts = dataprep.stratified_split(ds, model.train_fraction, model.split_seed)
    if model.scaler_mean is None:
        stats = dataprep.fit_standardizer(parts[0].X, ds.feature_names)
        model.scaler_mean, model.scaler_std = stats.mean, stats.std
    stats = dataprep.StandardizationStats(mean=model.scaler_mean, std=model.scaler_std)
    return [(dataprep.apply_standardizer(stats, part.X), part.y) for part in parts]


def fit_classifier(ds: dataprep.Dataset, seed: int, hidden: Tuple[int, ...] = (16,),
                   swarm: Optional[GwoConfig] = GwoConfig(),
                   bounds: Tuple[float, float] = (-5.0, 5.0), bp_epochs: int = 100,
                   learning_rate: float = 0.1, threshold: float = 0.5,
                   train_fraction: float = 0.7) -> tuple:
    """The ``lupus train`` pipeline on a cleaned dataset, whose flags take
    their defaults from this signature: a stratified split, a scaler fit on
    the training part, a network with ``hidden`` layers trained by
    :func:`train`, then both parts scored.

    The split, the swarm (its own seed replaced) and the init draw from seeds
    derived from ``seed``. The model records mode ``bp`` without a swarm,
    ``acgwo`` with no BP epoch, ``hybrid`` otherwise, and ``ds.impute``, how
    ``ds`` was cleaned. Returns the model, the loss history, the final
    training loss and the training and held-out :class:`metrics.EvalReport`.
    """
    arch = MlpArchitecture((ds.X.shape[1], *hidden, 1))
    model = TrainedModel(
        layer_sizes=arch.layer_sizes, params=None, scaler_mean=None, scaler_std=None,
        threshold=threshold, split_seed=derive_seed(seed, "split"),
        train_fraction=train_fraction, impute=ds.impute,
        mode="bp" if swarm is None else "hybrid" if bp_epochs else "acgwo")
    (x_train, y_train), test = split_inputs(model, ds)
    if swarm is not None:
        swarm = dataclasses.replace(swarm, seed=derive_seed(seed, "swarm"))
    model.params, history = train(arch, x_train, y_train, swarm, bounds, bp_epochs,
                                  learning_rate, derive_seed(seed, "init"))
    return (model, history, bce_loss(arch, model.params, x_train, y_train),
            *(metrics.evaluate(y, forward_batch(arch, model.params, x), threshold)
              for x, y in ((x_train, y_train), test)))


_ARRAY_FIELDS = ("params", "scaler_mean", "scaler_std")


def model_to_json(model: TrainedModel) -> str:
    payload = dataclasses.asdict(model)
    payload.update((name, np.asarray(payload[name], dtype=float).tolist())
                   for name in _ARRAY_FIELDS)
    return fileio.json_text(payload)


def model_from_json(text: str, source: str = "model") -> TrainedModel:
    """Read a model file whose every field holds what ``model_to_json`` writes.

    Nothing is coerced: a field of the wrong JSON type or out of range is a
    :class:`DataError` naming it.
    """
    try:
        payload = json.loads(text)
        fields = {f.name: payload[f.name] for f in dataclasses.fields(TrainedModel)}
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DataError(f"{source}: cannot parse model file: {exc}") from exc

    def check(name, ok, want):
        if not ok(fields[name]):
            shown = json.dumps(fields[name])
            shown = shown if len(shown) <= 40 else shown[:37] + "..."
            raise DataError(f"{source}: {name} must be {want}, got {shown}")

    def number(value):  # not a bool (json's true), nor an int beyond every float
        return type(value) in (int, float) and abs(value) <= sys.float_info.max

    check("layer_sizes", lambda v: type(v) is list
          and all(type(s) is int and 0 < s <= sys.maxsize for s in v),
          f"a list of integers in [1, {sys.maxsize}]")
    for name in _ARRAY_FIELDS:
        check(name, lambda v: type(v) is list and all(map(number, v)),
              "a flat list of finite numbers")
        fields[name] = np.array(fields[name], dtype=float)
    for name in ("threshold", "train_fraction"):
        check(name, number, "a finite number")
        metrics.check_unit_interval(fields[name], f"{source}: {name}", DataError)
    check("split_seed", lambda v: type(v) is int and v >= 0, "a non-negative integer")
    check("impute", lambda v: type(v) is bool, "true or false")
    check("mode", lambda v: v in MODES, "one of " + ", ".join(MODES))
    model = TrainedModel(**dict(fields, layer_sizes=tuple(fields["layer_sizes"])))
    try:
        arch = model.architecture
    except ConfigError as exc:
        raise DataError(f"{source}: layer_sizes: {exc}") from exc
    # eval rebuilds its inputs from these fields, so check all it relies on.
    n_inputs = arch.layer_sizes[0]
    for name, size in (("params", arch.n_params), ("scaler_mean", n_inputs),
                       ("scaler_std", n_inputs)):
        if fields[name].size != size:
            raise DataError(f"{source}: {name} has {fields[name].size} entries but layer "
                            f"sizes {model.layer_sizes} need {size}")
    if not np.all(model.scaler_std > 0):
        raise DataError(f"{source}: scaler_std must be > 0 in every entry")
    return model
