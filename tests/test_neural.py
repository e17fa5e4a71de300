import copy
import itertools
from fractions import Fraction

import numpy as np
import pytest

from aerobot import neural
from aerobot.errors import (
    DimensionMismatch,
    EmptyDataset,
    NonBipolarPattern,
    NonConvergent,
    OutOfRange,
)
from aerobot.neural import (
    LEAKY_RELU,
    MAX_PARAMETERS,
    RELU,
    SIGMOID,
    Activation,
    GradientReport,
    diagnose,
    gradient_check,
    HopfieldNet,
    hopfield_energy,
    hopfield_recall,
    hopfield_train,
    mlp_forward,
    mlp_init,
    mlp_train_step,
)

VERTICES = ((1, -1, 1), (-1, 1, -1))


def two_vertex_net():
    return hopfield_train(VERTICES)


class TestActivations:
    def test_sigmoid_midpoint(self):
        assert float(Activation(SIGMOID)(0.0)) == 0.5

    def test_relu_negative_flat(self):
        a = Activation(RELU)
        assert float(a(-3.0)) == 0.0
        assert float(a.deriv(-3.0)) == 0.0

    def test_relu_kink_derivative_is_zero(self):
        assert float(Activation(RELU).deriv(0.0)) == 0.0

    def test_leaky_negative_slope(self):
        a = Activation(LEAKY_RELU)
        assert float(a(-3.0)) == pytest.approx(-0.03)
        assert float(a.deriv(-3.0)) == 0.01

    def test_sigmoid_range_open(self):
        a = Activation(SIGMOID)
        for x in np.linspace(-40, 40, 41):
            y = float(a(x))
            assert 0.0 < y < 1.0 or (abs(x) > 30 and 0.0 <= y <= 1.0)

    def test_all_non_decreasing(self):
        xs = np.linspace(-5, 5, 201)
        for a in (Activation(SIGMOID), Activation(RELU), Activation(LEAKY_RELU)):
            ys = a(xs)
            assert np.all(np.diff(ys) >= 0)

    def test_derivative_matches_finite_difference(self):
        xs = [-2.3, -0.7, 0.4, 1.9]  # away from kinks
        eps = 1e-6
        for a in (Activation(SIGMOID), Activation(RELU), Activation(LEAKY_RELU)):
            for x in xs:
                fd = (float(a(x + eps)) - float(a(x - eps))) / (2 * eps)
                assert float(a.deriv(x)) == pytest.approx(fd, abs=1e-8)


class TestMlp:
    def test_same_seed_same_weights(self):
        a = mlp_init((2, 3, 1), Activation(SIGMOID), 7)
        b = mlp_init((2, 3, 1), Activation(SIGMOID), 7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_weight_shapes(self):
        net = mlp_init((2, 3, 1), Activation(SIGMOID), 0)
        assert net.weights[0].shape == (3, 2)
        assert net.weights[1].shape == (1, 3)

    def test_weights_in_init_range(self):
        net = mlp_init((4, 16, 4), Activation(SIGMOID), 3)
        for w in net.weights:
            assert w.min() >= -0.5 and w.max() <= 0.5

    def test_zero_size_layer_rejected(self):
        with pytest.raises(OutOfRange, match=r"^layer sizes \(2, 0, 1\): need at least 3 "
                                             r"layers, each of size >= 1$"):
            mlp_init((2, 0, 1), Activation(SIGMOID), 0)

    def test_too_few_layers_rejected(self):
        with pytest.raises(OutOfRange, match=r"^layer sizes \(2, 1\): need at least 3 layers"):
            mlp_init((2, 1), Activation(SIGMOID), 0)

    def test_forward_zero_weights_sigmoid(self):
        net = mlp_init((2, 3, 2), Activation(SIGMOID), 0)
        for w in net.weights:
            w[:] = 0.0
        acts = mlp_forward(net, [0.3, -0.8])
        assert np.all(acts[1] == 0.5)
        assert np.all(acts[2] == 0.5)

    def test_forward_zero_weights_relu(self):
        net = mlp_init((2, 3, 1), Activation(RELU), 0)
        for w in net.weights:
            w[:] = 0.0
        assert mlp_forward(net, [1.0, 2.0])[-1] == 0.0

    def test_identity_chain_relu(self):
        net = mlp_init((1, 1, 1), Activation(RELU), 0)
        for w in net.weights:
            w[:] = 1.0
        assert mlp_forward(net, [2.0])[-1][0] == 2.0

    def test_forward_dimension_mismatch(self):
        net = mlp_init((2, 3, 1), Activation(SIGMOID), 0)
        with pytest.raises(DimensionMismatch):
            mlp_forward(net, [1.0, 2.0, 3.0])

    def test_zero_learning_rate_keeps_weights(self):
        net = mlp_init((2, 3, 1), Activation(SIGMOID), 1)
        before = [w.copy() for w in net.weights]
        _, loss = mlp_train_step(net, [((0.2, 0.4), (0.7,))], 0.0)
        assert loss > 0.0
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_exact_prediction_zero_gradient(self):
        net = mlp_init((1, 1, 1), Activation(RELU), 2)
        for w in net.weights:
            w[:] = 1.0
        before = [w.copy() for w in net.weights]
        _, loss = mlp_train_step(net, [((1.5,), (1.5,))], 0.5)
        assert loss == 0.0
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_xor_training_run(self):
        # training-run oracle: seed 1 reaches MSE < 0.05 (final loss 0.0024)
        xor = [((0, 0), (0,)), ((0, 1), (1,)), ((1, 0), (1,)), ((1, 1), (0,))]
        net = mlp_init((2, 4, 1), Activation(SIGMOID), 1)
        loss = None
        for _ in range(5000):
            net, loss = mlp_train_step(net, xor, 0.5)
        assert loss < 0.05

    def test_ragged_batch(self):
        net = mlp_init((2, 3, 1), Activation(SIGMOID), 0)
        with pytest.raises(DimensionMismatch, match="input rows"):
            mlp_train_step(net, [((0.1, 0.2), (0.5,)), ((0.1, 0.2, 0.3), (0.5,))], 0.1)
        with pytest.raises(DimensionMismatch, match="target rows"):
            mlp_train_step(net, [((0.1, 0.2), (0.5,)), ((0.1, 0.2), (0.5, 0.5))], 0.1)

    @pytest.mark.parametrize("x, target", [
        ((0.1, 0.2, 0.3), (0.5,)),    # input width
        ((0.1, 0.2), (0.5, 0.5)),     # target width
        (0.1, (0.5,)),                # a scalar input
        (((0.1, 0.2),), (0.5,)),      # a matrix input
    ])
    def test_batch_of_wrong_shapes(self, x, target):
        net = mlp_init((2, 3, 1), Activation(SIGMOID), 0)
        with pytest.raises(DimensionMismatch):
            mlp_train_step(net, [(x, target)] * 2, 0.1)

    def test_empty_batch(self):
        with pytest.raises(EmptyDataset):
            mlp_train_step(mlp_init((2, 3, 1), Activation(SIGMOID), 0), [], 0.1)

    def test_batch_forward_matches_rows(self):
        net = mlp_init((3, 5, 4, 2), Activation(LEAKY_RELU), 6)
        x = np.random.default_rng(6).uniform(-1, 1, size=(7, 3))
        batch = mlp_forward(net, x)
        for i, row in enumerate(x):
            for layer, acts in zip(batch, mlp_forward(net, row)):
                np.testing.assert_allclose(layer[i], acts, rtol=1e-12)

    def test_parameter_budget(self, monkeypatch):
        # (1, 1, n) holds 2 + 2n weights and biases, (2, 1, n) 3 + 2n
        class Allocated(Exception):
            pass

        def fail(seed):
            raise Allocated(seed)

        monkeypatch.setattr(np.random, "default_rng", fail)
        n = (MAX_PARAMETERS - 2) // 2
        with pytest.raises(Allocated):
            mlp_init((1, 1, n), Activation(SIGMOID), 0)
        with pytest.raises(OutOfRange, match=f"^{MAX_PARAMETERS + 1} weights and biases, above"):
            mlp_init((2, 1, n), Activation(SIGMOID), 0)
        with pytest.raises(OutOfRange, match=f"above the budget of {MAX_PARAMETERS}$"):
            mlp_init((2, 200_000, 200_000, 1), Activation(SIGMOID), 0)


class TestGradientCheck:
    # probe chosen so every pre-activation sits >= 1e-2 from the ReLU kink
    PROBE = (0.3, -0.7)
    TARGET = (0.25,)
    SEED = 2

    @pytest.mark.parametrize("kind,bound", [
        (SIGMOID, 1e-6), (RELU, 1e-6), (LEAKY_RELU, 1e-6),
    ])
    def test_seeded_231_net(self, kind, bound):
        net = mlp_init((2, 3, 1), Activation(kind), self.SEED)
        pre = []
        a = np.asarray(self.PROBE, dtype=float)
        for w, b in zip(net.weights, net.biases):
            z = w @ a + b
            pre.append(z)
            a = net.activation(z)
        assert min(abs(v) for z in pre for v in z) > 1e-3  # kink clearance
        assert gradient_check(net, self.PROBE, self.TARGET) < bound

    def test_linear_single_neuron(self):
        # loss quadratic in the weight: analytic equals central difference
        net = mlp_init((1, 1, 1), Activation(RELU), 4)
        for w in net.weights:
            w[:] = 1.0
        assert gradient_check(net, (2.0,), (0.5,)) < 1e-9


class TestDiagnose:
    def test_relu_dead_neurons(self):
        net = mlp_init((2, 3, 1), Activation(RELU), 5)
        net.weights[0][:] = 0.01
        net.biases[0][:] = -10.0
        report = diagnose(net, [(0.0, 0.0), (1.0, 1.0), (0.5, 0.2)])
        assert {(1, n) for n in range(3)} <= set(report.dead_neurons)
        assert len(report.dead_neurons) >= 3

    def test_leaky_never_dead(self):
        net = mlp_init((2, 3, 1), Activation(LEAKY_RELU), 5)
        net.weights[0][:] = 0.01
        net.biases[0][:] = -10.0
        report = diagnose(net, [(0.0, 0.0), (1.0, 1.0), (0.5, 0.2)])
        assert report.dead_neurons == ()

    def test_sigmoid_never_dead(self):
        net = mlp_init((2, 3, 1), Activation(SIGMOID), 5)
        net.biases[0][:] = -50.0
        report = diagnose(net, [(0.0, 0.0)])
        assert report.dead_neurons == ()

    def test_vanishing_gradient_deep_sigmoid(self):
        # measured run: layer-1 mean |grad| 1.8e-9 vs layer-10 5.5e-2, seed 1
        net = mlp_init((4,) + (8,) * 9 + (2,), Activation(SIGMOID), 1)
        rng = np.random.default_rng(1)
        report = diagnose(net, rng.uniform(0, 1, size=(16, 4)))
        assert len(report.layer_mean_abs_grad) == 10
        assert report.layer_mean_abs_grad[0] < report.layer_mean_abs_grad[-1]

    def test_empty_dataset(self):
        net = mlp_init((2, 3, 1), Activation(SIGMOID), 0)
        with pytest.raises(EmptyDataset):
            diagnose(net, [])

    def test_ragged_dataset(self):
        net = mlp_init((2, 3, 1), Activation(RELU), 0)
        with pytest.raises(DimensionMismatch, match="input rows"):
            diagnose(net, [(0.1, 0.2), (0.1,)])
        with pytest.raises(DimensionMismatch):
            diagnose(net, [(0.1, 0.2, 0.3), (0.1, 0.2, 0.3)])


# Per-example reference implementations: the MLP code before it moved to
# batch matrices, one gemv forward and one backprop pass per example.

def forward_oracle(net, x):
    activations = [x]
    pre = []
    for w, b in zip(net.weights, net.biases):
        z = w @ activations[-1] + b
        pre.append(z)
        activations.append(net.activation(z))
    return pre, activations


def backprop_oracle(net, x, target):
    pre, acts = forward_oracle(net, x)
    n_out = len(net.biases[-1])
    delta = 2.0 * (acts[-1] - target) / n_out * net.activation.deriv(pre[-1])
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = np.outer(delta, acts[i])
        grads_b[i] = delta
        if i > 0:
            delta = (net.weights[i].T @ delta) * net.activation.deriv(pre[i - 1])
    loss = float(np.mean((acts[-1] - target) ** 2))
    return grads_w, grads_b, loss


def batch_gradients_oracle(net, batch):
    sum_w = [np.zeros_like(w) for w in net.weights]
    sum_b = [np.zeros_like(b) for b in net.biases]
    total_loss = 0.0
    for x, target in batch:
        gw, gb, loss = backprop_oracle(net, np.asarray(x, dtype=np.float64),
                                       np.asarray(target, dtype=np.float64))
        for acc, g in zip(sum_w, gw):
            acc += g
        for acc, g in zip(sum_b, gb):
            acc += g
        total_loss += loss
    m = len(batch)
    return [g / m for g in sum_w], [g / m for g in sum_b], total_loss / m


def diagnose_oracle(net, dataset):
    inputs = [np.asarray(x, dtype=np.float64) for x in dataset]
    always_negative = [np.ones(len(b), dtype=bool) for b in net.biases]
    for x in inputs:
        pre, _ = forward_oracle(net, x)
        for i, z in enumerate(pre):
            always_negative[i] &= z < 0.0
    dead = []
    if net.activation.kind == RELU:
        for layer, flags in enumerate(always_negative, start=1):
            for neuron, flag in enumerate(flags):
                if flag:
                    dead.append((layer, neuron))
    zero_target = np.zeros(len(net.biases[-1]))
    grads_w, _, _ = batch_gradients_oracle(net, [(x, zero_target) for x in inputs])
    means = tuple(float(np.mean(np.abs(g))) for g in grads_w)
    return GradientReport(means, tuple(dead))


def sweep_cases(count=300):
    """Seeded nets of 3-6 layers, 1-8 units each, random biases, 1-39 rows,
    every activation; yields (net, inputs, targets)."""
    kinds = (SIGMOID, RELU, LEAKY_RELU)
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        sizes = tuple(int(v) for v in rng.integers(1, 9, size=int(rng.integers(3, 7))))
        net = mlp_init(sizes, Activation(kinds[seed % 3]), seed)
        for b in net.biases:
            b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
        rows = int(rng.integers(1, 40))
        yield (net, rng.uniform(-1.0, 1.0, size=(rows, sizes[0])),
               rng.uniform(0.0, 1.0, size=(rows, sizes[-1])))


class TestBatchMatchesPerExampleOracle:
    # gemm sums in another order than per-example gemv: allow last-digit drift
    RTOL = 1e-10

    def test_gradients_and_loss(self):
        for net, x, t in sweep_cases():
            grads_w, grads_b, loss, _ = neural._gradients(net, x, t)
            want_w, want_b, want_loss = batch_gradients_oracle(net, list(zip(x, t)))
            for got, want in zip(grads_w + grads_b, want_w + want_b):
                np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0.0)
            assert loss == pytest.approx(want_loss, rel=self.RTOL, abs=0.0)

    def test_train_step(self):
        for net, x, t in sweep_cases():
            twin = copy.deepcopy(net)
            want_w, want_b, want_loss = batch_gradients_oracle(twin, list(zip(x, t)))
            _, loss = mlp_train_step(net, list(zip(x, t)), 0.3)
            assert loss == pytest.approx(want_loss, rel=self.RTOL, abs=0.0)
            for got, old, g in zip(net.weights + net.biases, twin.weights + twin.biases,
                                   want_w + want_b):
                np.testing.assert_allclose(got, old - 0.3 * g, rtol=self.RTOL, atol=0.0)

    def test_diagnose(self):
        for net, x, _ in sweep_cases():
            got, want = diagnose(net, x), diagnose_oracle(net, x)
            assert got.dead_neurons == want.dead_neurons
            np.testing.assert_allclose(got.layer_mean_abs_grad, want.layer_mean_abs_grad,
                                       rtol=self.RTOL, atol=0.0)


class TestHopfieldTrain:
    def test_two_vertex_weights(self):
        # hand Hebbian sums: w12 = -2/3, w13 = +2/3, w23 = -2/3
        net = two_vertex_net()
        expected = np.array([
            [0.0, -2 / 3, 2 / 3],
            [-2 / 3, 0.0, -2 / 3],
            [2 / 3, -2 / 3, 0.0],
        ])
        assert np.allclose(net.weights, expected, atol=1e-12)
        assert np.array_equal(net.weights, net.weights.T)
        assert np.all(np.diag(net.weights) == 0.0)

    def test_weights_refuse_writes(self):
        net = two_vertex_net()
        with pytest.raises(ValueError, match="read-only"):
            net.weights[0, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            net.weights += 1.0
        assert net.weights[0, 1] == pytest.approx(-2 / 3)

    def test_single_pattern(self):
        net = hopfield_train([(1, 1)])
        assert net.weights[0, 1] == pytest.approx(0.5)
        assert net.weights[0, 0] == 0.0

    def test_matches_outer_product_sum_bit_for_bit(self):
        # every entry is an integer sum before the division, so order cannot matter
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 65))
            patterns = rng.integers(0, 2, size=(int(rng.integers(1, 12)), n)) * 2 - 1
            want = np.zeros((n, n))
            for p in patterns.astype(np.float64):
                want += np.outer(p, p)
            want /= n
            np.fill_diagonal(want, 0.0)
            got = hopfield_train(patterns.tolist()).weights
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rejects_zero_entry(self):
        with pytest.raises(NonBipolarPattern):
            hopfield_train([(1, 0, -1)])

    def test_rejects_length_mismatch(self):
        # the first pattern sets the length every later one must have
        for patterns in ([(1, -1), (1, -1, 1)], [(1, -1, 1), (1, -1)], [[(1, -1), (-1, 1)]]):
            with pytest.raises(DimensionMismatch):
                hopfield_train(patterns)
        assert hopfield_train(iter([(1, -1, 1), (-1, 1, -1)])).weights.shape == (3, 3)

    def test_rejects_no_patterns(self):
        for patterns in ([], iter(())):
            with pytest.raises(EmptyDataset):
                hopfield_train(patterns)

    def test_stored_patterns_are_fixed_points(self):
        # Hebbian storage is probabilistic near capacity (~0.138n); this seed's
        # draws at n >= 4 * pattern-count all store cleanly and stay frozen
        rng = np.random.default_rng(3)
        for trial in range(20):
            n_patterns = int(rng.integers(1, 4))
            n = 4 * n_patterns + int(rng.integers(0, 4))
            patterns = (rng.integers(0, 2, size=(n_patterns, n)) * 2 - 1).tolist()
            net = hopfield_train(patterns)
            for p in patterns:
                state, sweeps = hopfield_recall(net, p, max_iter=5)
                assert sweeps == 1
                assert np.array_equal(state, np.asarray(p, dtype=float))


def recall_oracle(patterns, probe, max_sweeps):
    """Definition-level recall in exact rationals, independent of the package.

    Returns (state, sweeps) or None when no zero-free fixed point shows up.
    """
    n = len(probe)
    weights = [[Fraction(0)] * n for _ in range(n)]
    for p in patterns:
        for i in range(n):
            for j in range(n):
                if i != j:
                    weights[i][j] += Fraction(p[i] * p[j], n)
    state = [Fraction(v) for v in probe]
    for sweep in range(1, max_sweeps + 1):
        fields = [sum(weights[i][j] * state[j] for j in range(n)) for i in range(n)]
        new = [Fraction(1) if f > 0 else Fraction(-1) if f < 0 else s
               for f, s in zip(fields, state)]
        if new == state:
            if any(v == 0 for v in new):
                return None
            return [int(v) for v in new], sweep
        state = new
    return None


class TestHopfieldRecall:
    def test_vertex_stable_first_sweep(self):
        net = two_vertex_net()
        for vertex in VERTICES:
            state, sweeps = hopfield_recall(net, vertex)
            assert tuple(int(v) for v in state) == vertex
            assert sweeps == 1

    def test_partial_probe(self):
        # hand sweep: fields (4/3, -2/3, 2/3) -> signs (+, -, +)
        net = two_vertex_net()
        state, sweeps = hopfield_recall(net, (0, -1, 1))
        assert tuple(int(v) for v in state) == (1, -1, 1)
        assert sweeps == 2

    def test_all_zero_probe(self):
        with pytest.raises(NonConvergent):
            hopfield_recall(two_vertex_net(), (0, 0, 0))

    def test_two_cycle_probe(self):
        # (1, 1, 0) <-> (-1, -1, 0) never settles
        with pytest.raises(NonConvergent):
            hopfield_recall(two_vertex_net(), (1, 1, 0), max_iter=10)

    def test_exhaustive_27_ternary_probes(self):
        net = two_vertex_net()
        outcomes = {"vertex": 0, "nonconvergent": 0}
        for probe in itertools.product((-1, 0, 1), repeat=3):
            expected = recall_oracle(VERTICES, probe, 3)
            try:
                state, sweeps = hopfield_recall(net, probe, max_iter=3)
            except NonConvergent:
                assert expected is None, probe
                outcomes["nonconvergent"] += 1
                continue
            assert expected is not None, probe
            assert [int(v) for v in state] == expected[0], probe
            assert sweeps == expected[1], probe
            assert tuple(int(v) for v in state) in VERTICES, probe
            outcomes["vertex"] += 1
        assert sum(outcomes.values()) == 27
        assert outcomes["vertex"] > 0 and outcomes["nonconvergent"] > 0

    def test_sign_flip_symmetry(self):
        net = two_vertex_net()
        for probe in itertools.product((-1, 0, 1), repeat=3):
            try:
                state, _ = hopfield_recall(net, probe, max_iter=5)
            except NonConvergent:
                with pytest.raises(NonConvergent):
                    hopfield_recall(net, tuple(-v for v in probe), max_iter=5)
                continue
            mirrored, _ = hopfield_recall(net, tuple(-v for v in probe), max_iter=5)
            assert np.array_equal(mirrored, -state)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            hopfield_recall(two_vertex_net(), (2, 0, 0))

    def test_rejects_length(self):
        with pytest.raises(DimensionMismatch):
            hopfield_recall(two_vertex_net(), (1, -1))


class TestHopfieldEnergy:
    def test_sign_flip_equality(self):
        net = two_vertex_net()
        assert hopfield_energy(net, (1, -1, 1)) == hopfield_energy(net, (-1, 1, -1))

    def test_vertices_are_unique_minima(self):
        # brute force over all 8 bipolar states: vertices at -2, others at 2/3
        net = two_vertex_net()
        energies = {s: hopfield_energy(net, s) for s in itertools.product((-1, 1), repeat=3)}
        low = min(energies.values())
        minima = {s for s, e in energies.items() if e == pytest.approx(low)}
        assert minima == set(VERTICES)
        assert low == pytest.approx(-2.0)
        for s, e in energies.items():
            if s not in VERTICES:
                assert e == pytest.approx(2 / 3)

    def test_fixed_points_beat_one_bit_flips(self):
        net = two_vertex_net()
        for vertex in VERTICES:
            base = hopfield_energy(net, vertex)
            for i in range(3):
                flipped = list(vertex)
                flipped[i] = -flipped[i]
                assert base <= hopfield_energy(net, flipped)

    def test_zero_weights(self):
        zeroed = HopfieldNet(np.zeros((4, 4)), ((1, 1, 1, 1),))
        for s in itertools.product((-1, 1), repeat=4):
            assert hopfield_energy(zeroed, s) == 0.0

    def test_rejects_ternary_state(self):
        with pytest.raises(NonBipolarPattern):
            hopfield_energy(two_vertex_net(), (1, 0, 1))

