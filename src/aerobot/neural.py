"""Small neural machinery: activations, an MLP trained by backprop,
training-pathology diagnostics, and the Hopfield associative memory.

The MLP exists to exercise activation and gradient behavior (vanishing
gradients under Sigmoid, dead units under ReLU); the Hopfield net is the
decision memory of the sidewalk pipeline. Every product is an `np.einsum`
with optimize=False, which never calls BLAS, so the bits do not depend on
the host's BLAS kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyDataset,
    NonBipolarPattern,
    NonConvergent,
    OutOfRange,
)

SIGMOID = "sigmoid"
RELU = "relu"
LEAKY_RELU = "leaky_relu"
_KINDS = (SIGMOID, RELU, LEAKY_RELU)
# weights plus biases of one MLP; bounds what a layer list allocates and the
# two forward passes per parameter that gradient_check runs
MAX_PARAMETERS = 10_000
# negative-side slope of leaky_relu
LEAKY_SLOPE = 0.01
# central-difference step of gradient_check
FD_STEP = 1e-5


@dataclass(frozen=True)
class Activation:
    """One of sigmoid, relu, or leaky_relu (negative slope LEAKY_SLOPE)."""

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigInvalid(f"unknown activation {self.kind!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == SIGMOID:
            return 1.0 / (1.0 + np.exp(-x))
        if self.kind == RELU:
            return np.maximum(0.0, x)
        return np.where(x >= 0.0, x, LEAKY_SLOPE * x)

    def deriv(self, x):
        """Derivative at the pre-activation x; the ReLU kink at 0 maps to 0."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == SIGMOID:
            s = self(x)
            return s * (1.0 - s)
        if self.kind == RELU:
            return np.where(x > 0.0, 1.0, 0.0)
        return np.where(x >= 0.0, 1.0, LEAKY_SLOPE)


# MLP ------------------------------------------------------------------------

@dataclass
class Mlp:
    """Fully connected net; weights[i], shaped (n_{i+1}, n_i), maps layer i to layer i+1."""

    activation: Activation
    weights: list
    biases: list


def mlp_init(layer_sizes, activation: Activation, seed: int) -> Mlp:
    """Weights uniform in [-0.5, 0.5] from the seeded generator; biases zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 3 or any(s < 1 for s in sizes):
        raise OutOfRange(f"layer sizes {sizes}: need at least 3 layers, each of size >= 1")
    n_params = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    if n_params > MAX_PARAMETERS:
        raise OutOfRange(f"{n_params} weights and biases, above the budget of {MAX_PARAMETERS}")
    if seed < 0:  # default_rng's own refusal is an untyped ValueError
        raise OutOfRange(f"seed {seed} is negative")
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.5, 0.5, size=(sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    return Mlp(activation, weights, biases)


def _forward(net: Mlp, x: np.ndarray):
    """Pre-activations and activations (input included) of one input (n0,) or a batch (rows, n0)."""
    n_in = net.weights[0].shape[1]
    if x.shape[-1:] != (n_in,):
        raise DimensionMismatch(f"input shaped {x.shape}, expected (..., {n_in})")
    activations = [x]
    pre = []
    for w, b in zip(net.weights, net.biases):
        z = np.einsum("...i,ji->...j", activations[-1], w, optimize=False) + b
        pre.append(z)
        activations.append(net.activation(z))
    return pre, activations


def mlp_forward(net: Mlp, x) -> list:
    """Per-layer activations of one input vector or a batch of rows, input layer first."""
    _, activations = _forward(net, np.asarray(x, dtype=np.float64))
    return activations


def _matrix(rows, what: str) -> np.ndarray:
    """Equal-length vectors stacked into one float64 matrix, a row each."""
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:
        if len({np.shape(r) for r in rows}) > 1:
            raise DimensionMismatch(f"{what} rows of different lengths") from None
        raise


def _gradients(net: Mlp, x: np.ndarray, target: np.ndarray):
    """Row-mean weight and bias gradients of ||y - t||^2 / n_out, its mean, the pre-activations.

    x is (rows, n0) and target (rows, n_out): one forward and one backward pass.
    """
    if x.ndim != 2 or target.shape != (len(x), len(net.biases[-1])):
        raise DimensionMismatch(f"inputs shaped {x.shape} and targets {target.shape}")
    pre, acts = _forward(net, x)
    rows, n_out = target.shape
    err = acts[-1] - target
    delta = 2.0 * err / n_out * net.activation.deriv(pre[-1])
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = np.einsum("rj,ri->ji", delta, acts[i], optimize=False) / rows
        grads_b[i] = delta.mean(axis=0)
        if i > 0:
            delta = (np.einsum("rj,ji->ri", delta, net.weights[i], optimize=False)
                     * net.activation.deriv(pre[i - 1]))
    # every row has n_out entries, so this is also the mean of the per-row MSEs
    return grads_w, grads_b, float(np.mean(err ** 2)), pre


def mlp_train_step(net: Mlp, batch, learning_rate: float) -> tuple[Mlp, float]:
    """One batch-averaged gradient descent step; returns the pre-update MSE."""
    if learning_rate < 0:
        raise OutOfRange(f"learning rate {learning_rate}")
    if not batch:
        raise EmptyDataset("batch is empty")
    inputs, targets = zip(*batch)
    grads_w, grads_b, loss, _ = _gradients(net, _matrix(inputs, "input"),
                                           _matrix(targets, "target"))
    for w, g in zip(net.weights, grads_w):
        w -= learning_rate * g
    for b, g in zip(net.biases, grads_b):
        b -= learning_rate * g
    return net, loss


def gradient_check(net: Mlp, x, target) -> float:
    """Max relative error of analytic vs central finite-difference gradients (step FD_STEP).

    Callers must keep pre-activations at least 1e-3 from ReLU/leaky kinks so
    the two-sided difference never straddles one.
    """
    x = np.asarray(x, dtype=np.float64)[None]
    target = np.asarray(target, dtype=np.float64)[None]
    grads_w, grads_b, _, _ = _gradients(net, x, target)

    def loss_now():
        _, acts = _forward(net, x)
        return float(np.mean((acts[-1] - target) ** 2))

    worst = 0.0
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + FD_STEP
                up = loss_now()
                flat_p[i] = orig - FD_STEP
                down = loss_now()
                flat_p[i] = orig
                numeric = (up - down) / (2.0 * FD_STEP)
                denom = max(abs(numeric), abs(flat_g[i]), 1e-12)
                worst = max(worst, abs(numeric - flat_g[i]) / denom)
    return worst


@dataclass(frozen=True)
class GradientReport:
    """Per-weight-layer mean |gradient| and the dead units, in layer then neuron order."""

    layer_mean_abs_grad: tuple
    dead_neurons: tuple  # (layer, neuron) pairs, layers numbered from 1 (first hidden)


def diagnose(net: Mlp, dataset) -> GradientReport:
    """Dead-unit and gradient-magnitude report over a sequence of inputs or a (rows, n0) array.

    A neuron is dead only under ReLU, when its pre-activation is negative for
    every input (zero output, zero gradient, no influence downstream). The
    gradient magnitudes come from one backprop pass of the squared error
    against zero targets, averaged over the dataset.
    """
    x = _matrix(dataset, "input")
    if len(x) == 0:
        raise EmptyDataset("dataset is empty")
    grads_w, _, _, pre = _gradients(net, x, np.zeros((len(x), len(net.biases[-1]))))
    relu = net.activation.kind == RELU
    dead = tuple((li, int(ni)) for li, z in enumerate(pre, start=1)
                 for ni in np.flatnonzero((z < 0.0).all(axis=0) & relu))
    means = tuple(float(np.mean(np.abs(g))) for g in grads_w)
    return GradientReport(means, dead)


# Hopfield ---------------------------------------------------------------

@dataclass(frozen=True)
class HopfieldNet:
    """Symmetric zero-diagonal weights storing bipolar patterns as attractors."""

    weights: np.ndarray  # (n, n) for patterns of length n
    stored_patterns: tuple


def _check_bipolar(pattern, n: int) -> np.ndarray:
    p = np.asarray(pattern, dtype=np.float64)
    if p.shape != (n,):
        raise DimensionMismatch(f"pattern length {p.shape}, expected {n}")
    if not np.all(np.isin(p, (-1.0, 1.0))):
        raise NonBipolarPattern(f"entries must be -1 or +1, got {list(p)}")
    return p


def hopfield_train(patterns) -> HopfieldNet:
    """Hebbian storage: W = P^T P / n over the pattern rows P of the first one's length n,
    diagonal forced to 0. The weights are read-only, so one trained net can be shared."""
    patterns = list(patterns)
    if not patterns:
        raise EmptyDataset("need at least one pattern")
    n = np.size(patterns[0])
    stacked = np.array([_check_bipolar(p, n) for p in patterns])
    weights = np.einsum("pi,pj->ij", stacked, stacked, optimize=False) / n
    np.fill_diagonal(weights, 0.0)
    weights.flags.writeable = False
    return HopfieldNet(weights, tuple(tuple(int(v) for v in p) for p in stacked))


def hopfield_recall(net: HopfieldNet, pattern, max_iter: int = 10) -> tuple[np.ndarray, int]:
    """Synchronous recall of a ternary probe; zero local fields hold their state.

    Sweeps s <- sign(W s) until the state repeats; returns the fixed point and
    the number of sweeps spent confirming it (a stored vertex reports 1).
    Raises NonConvergent when no zero-free fixed point appears in max_iter.
    """
    state = np.asarray(pattern, dtype=np.float64)
    if state.shape != (len(net.weights),):
        raise DimensionMismatch(f"input length {state.shape}, expected {len(net.weights)}")
    if not np.all(np.isin(state, (-1.0, 0.0, 1.0))):
        raise NonBipolarPattern(f"entries must be -1, 0, or +1, got {list(state)}")
    if max_iter < 1:
        raise OutOfRange("max_iter must be >= 1")
    for sweep in range(1, max_iter + 1):
        field_ = np.einsum("ij,j->i", net.weights, state, optimize=False)
        new_state = np.where(field_ > 0.0, 1.0, np.where(field_ < 0.0, -1.0, state))
        if np.array_equal(new_state, state):
            if np.any(new_state == 0.0):
                raise NonConvergent(f"fixed point {list(new_state)} keeps a zero entry")
            return new_state, sweep
        state = new_state
    raise NonConvergent(f"no fixed point within {max_iter} sweeps")


def hopfield_energy(net: HopfieldNet, state) -> float:
    """Attractor energy E = -1/2 s^T W s of a bipolar state."""
    s = _check_bipolar(state, len(net.weights))
    return float(-0.5 * np.einsum("i,ij,j->", s, net.weights, s, optimize=False))
