"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion on stdout.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from aerobot.errors import NonConvergent
from aerobot.flight import max_tilt, simulate_hover
from aerobot.fuzzy import (
    FuzzySystem,
    FuzzyVariable,
    MembershipFunction,
    Rule,
    infer,
    pesticide_dose,
    stabilizer_deltas,
)
from aerobot.neural import (
    LEAKY_RELU,
    RELU,
    SIGMOID,
    Activation,
    diagnose,
    gradient_check,
    hopfield_energy,
    hopfield_recall,
    hopfield_train,
    mlp_init,
)
from aerobot.raster import Histogram, Image
from aerobot.sidewalk import SidewalkParams, generate_sidewalk, inspect
from aerobot.sizing import (
    GRAVITY,
    SimConfig,
    ThrustSpec,
    default_mass_table,
    thrust_per_rotor,
    total_mass,
)
from aerobot.thermal import radiance_to_temperature, temperature_to_radiance
from aerobot.vision import green_density, hough_circles, hough_lines, otsu_threshold

VERTICES = ((1, -1, 1), (-1, 1, -1))


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} PASS - {text}")


def test_criterion_01_mass_table_total():
    table = default_mass_table()
    start = time.perf_counter()
    total = total_mass(table)
    elapsed = time.perf_counter() - start
    assert total == 32019
    assert elapsed < 0.001
    report(1, f"bundled mass table sums to 32019 g exactly in {elapsed * 1e6:.1f} us")


def test_criterion_02_thrust_formula():
    value = thrust_per_rotor(ThrustSpec(32.019, 4, 1.2))
    assert abs(value - 19.2114) < 1e-9
    base = thrust_per_rotor(ThrustSpec(5.0, 4, 1.0))
    for w_scale in (0.5, 2.0, 7.5):
        for s in (1.0, 1.2, 2.0):
            for n in (4, 6, 8):
                got = thrust_per_rotor(ThrustSpec(5.0 * w_scale, n, s))
                assert got == pytest.approx(base * w_scale * s * 4 / n, rel=1e-12)
    report(2, "T(32.019 kg, n=4, s=1.2) = 19.2114 kgf within 1e-9; linearity grid holds")


def _recall_oracle(probe, max_sweeps=3):
    n = 3
    weights = [[Fraction(0)] * n for _ in range(n)]
    for p in VERTICES:
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
            return None if any(v == 0 for v in new) else tuple(int(v) for v in new)
        state = new
    return None


def test_criterion_03_hopfield_storage_and_recall():
    net = hopfield_train(VERTICES)
    for vertex in VERTICES:
        state, sweeps = hopfield_recall(net, vertex)
        assert tuple(int(v) for v in state) == vertex and sweeps == 1
    converged = failed = 0
    for probe in itertools.product((-1, 0, 1), repeat=3):
        expected = _recall_oracle(probe)
        try:
            state, sweeps = hopfield_recall(net, probe, max_iter=3)
        except NonConvergent:
            assert expected is None, probe
            failed += 1
            continue
        result = tuple(int(v) for v in state)
        assert result == expected and result in VERTICES and sweeps <= 3, probe
        converged += 1
    assert converged + failed == 27
    energies = {s: hopfield_energy(net, s) for s in itertools.product((-1, 1), repeat=3)}
    minimum = min(energies.values())
    assert {s for s, e in energies.items() if e == minimum} == set(VERTICES)
    report(3, f"both vertices fixed in 1 sweep; 27/27 ternary probes match the "
              f"enumeration oracle ({converged} converge, {failed} raise); "
              f"energy minima are exactly the two vertices")


def _erasures_without_triples(rng, n_blocks):
    while True:
        k = int(rng.integers(0, 4))
        erased = tuple(sorted(rng.choice(n_blocks, size=k, replace=False).tolist()))
        if not any(erased[i + 2] - erased[i] == 2 for i in range(len(erased) - 2)):
            return erased


def test_criterion_04_sidewalk_batch():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    exact = 0
    block_total = block_correct = 0
    for i in range(200):
        erased = _erasures_without_triples(rng, 12)
        clean = generate_sidewalk(SidewalkParams(erased_blocks=erased), seed=i)
        got, _ = inspect(clean)
        if tuple(got.flagged_blocks) == erased:
            exact += 1
        noisy = generate_sidewalk(
            SidewalkParams(erased_blocks=erased, noise_sigma=10.0), seed=i)
        noisy_report, _ = inspect(noisy)
        flagged = set(noisy_report.flagged_blocks)
        for b in range(12):
            block_total += 1
            block_correct += (b in flagged) == (b in erased)
    elapsed = time.perf_counter() - start
    accuracy = block_correct / block_total
    assert exact == 200, f"only {exact}/200 exact at sigma=0"
    assert accuracy >= 0.95
    assert elapsed < 10.0
    report(4, f"200/200 images exact at sigma=0; per-block accuracy {accuracy:.4f} "
              f"at sigma=10; batch took {elapsed:.2f} s")


def test_criterion_05_green_density():
    arr = np.full((20, 20, 3), 128, np.uint8)
    arr[:, :10] = (0, 255, 0)
    half = green_density(Image.from_array(arr)).fraction
    assert abs(half - 0.500) <= 0.005
    full = np.tile(np.array([0, 255, 0], np.uint8), (20, 20, 1))
    assert green_density(Image.from_array(full)).fraction == 1.0
    rng = np.random.default_rng(7)
    flat = arr.reshape(-1, 3)
    for _ in range(50):
        shuffled = flat[rng.permutation(len(flat))].reshape(arr.shape)
        assert green_density(Image.from_array(shuffled)).fraction == half
    report(5, f"half-green image measures {half:.3f}; all-green 1.0; invariant "
              f"under 50 pixel shuffles")


def _otsu_oracle(bins):
    best_t, best = 0, Fraction(-1)
    total = sum(bins)
    for t in range(256):
        n0 = sum(bins[: t + 1])
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        mu0 = Fraction(sum(v * bins[v] for v in range(t + 1)), n0)
        mu1 = Fraction(sum(v * bins[v] for v in range(t + 1, 256)), n1)
        score = Fraction(n0, total) * Fraction(n1, total) * (mu0 - mu1) ** 2
        if score > best:
            best, best_t = score, t
    return best_t


def test_criterion_06_otsu_oracle_equivalence():
    rng = np.random.default_rng(10)
    for _ in range(100):
        bins = rng.integers(0, 50, size=256)
        bins[rng.integers(0, 128)] += 1
        bins[rng.integers(128, 256)] += 1
        h = Histogram(tuple(int(b) for b in bins))
        assert otsu_threshold(h) == _otsu_oracle(h.bins)
    report(6, "100/100 random histograms match the exhaustive argmax, ties lowest")


def test_criterion_07_gradient_check():
    probe, target = (0.3, -0.7), (0.25,)
    worst = {}
    for kind in (SIGMOID, RELU, LEAKY_RELU):
        net = mlp_init((2, 3, 1), Activation(kind), 2)
        pre = []
        a = np.asarray(probe)
        for w, b in zip(net.weights, net.biases):
            z = w @ a + b
            pre.append(z)
            a = net.activation(z)
        assert min(abs(v) for z in pre for v in z) > 1e-3
        worst[kind] = gradient_check(net, probe, target)
        assert worst[kind] < 1e-6
    report(7, "max relative gradient error vs central differences: " +
              ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_08_pathology_diagnostics():
    relu_net = mlp_init((2, 3, 1), Activation(RELU), 5)
    relu_net.weights[0][:] = 0.01
    relu_net.biases[0][:] = -10.0
    inputs = [(0.0, 0.0), (1.0, 1.0), (0.3, 0.8)]
    relu_dead = diagnose(relu_net, inputs).dead_neurons
    assert len(relu_dead) >= 1

    leaky_net = mlp_init((2, 3, 1), Activation(LEAKY_RELU), 5)
    leaky_net.weights[0][:] = 0.01
    leaky_net.biases[0][:] = -10.0
    assert diagnose(leaky_net, inputs).dead_neurons == ()

    deep = mlp_init((4,) + (8,) * 9 + (2,), Activation(SIGMOID), 1)
    rng = np.random.default_rng(1)
    grads = diagnose(deep, rng.uniform(0, 1, size=(16, 4))).layer_mean_abs_grad
    assert grads[0] < grads[-1]
    report(8, f"ReLU net reports {len(relu_dead)} dead neurons, LeakyReLU twin 0; "
              f"deep sigmoid grads shrink {grads[-1]:.2e} -> {grads[0]:.2e}")


def test_criterion_09_stabilizer_zero_sum_and_equivariance():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(1000):
        deltas = stabilizer_deltas(
            float(rng.uniform(0, 360)), float(rng.uniform(0, 1)),
            (float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4))))
        worst = max(worst, abs(float(deltas.sum())))
    assert worst < 1e-9
    base = stabilizer_deltas(33.0, 0.8)
    for shift in range(8):
        shifted = stabilizer_deltas(33.0 + 45.0 * shift, 0.8)
        assert np.allclose(np.roll(base, shift), shifted, atol=1e-9)
    report(9, f"sum of deltas bounded by {worst:.1e} over 1000 random inputs; "
              f"all 8 rotor shifts permute the deltas")


def test_criterion_10_hover_simulation():
    cfg_on = SimConfig(controller=True)  # 10 s at 1 kHz, full-extension sweep
    cfg_off = SimConfig(controller=False)
    start = time.perf_counter()
    trace_on = simulate_hover(cfg_on)
    elapsed = time.perf_counter() - start
    trace_off = simulate_hover(cfg_off)
    tilt_on, tilt_off = max_tilt(trace_on), max_tilt(trace_off)
    assert tilt_on < tilt_off
    weight = cfg_on.vehicle_mass_kg * GRAVITY
    for state in trace_on:
        assert abs(sum(state.rotor_thrusts) - weight) < 1e-9
    assert elapsed < 5.0
    report(10, f"max tilt {tilt_on:.3f} rad with controller vs {tilt_off:.1f} rad "
               f"without; thrust sum conserved at every step; run took {elapsed:.2f} s")


def test_criterion_11_fuzzy_engine():
    x = FuzzyVariable("x", (0.0, 1.0), {
        "on": MembershipFunction.trapezoid(0.0, 0.0, 1.0, 1.0),
        "off": MembershipFunction.triangle(0.0, 0.0, 0.5),
    })
    y = FuzzyVariable("y", (0.0, 1.0), {
        "mid": MembershipFunction.triangle(0.25, 0.5, 0.75),
        "unused": MembershipFunction.triangle(0.0, 0.0, 0.25),
    })
    system = FuzzySystem([x], [y], [Rule((("x", "on"),), ("y", "mid"))])
    centroid = infer(system, {"x": 0.5})["y"]
    assert abs(centroid - 0.5) <= 1e-6

    doses = [pesticide_dose(i / 100.0) for i in range(101)]
    assert all(b >= a - 1e-12 for a, b in zip(doses, doses[1:]))
    assert abs(doses[50] - 5.0) <= 0.05
    report(11, f"single-rule centroid {centroid:.9f}; dose sweep monotone; "
               f"dose(0.5) = {doses[50]:.4f} L")


def test_criterion_12_hough_recovery():
    arr = np.zeros((31, 31), np.uint8)
    arr[:, 12] = 255
    top = hough_lines(Image.from_array(arr), 1.0, threshold=20)[0]
    assert abs(top.rho - 12) <= 1 and min(top.theta, 180 - top.theta) <= 1
    arr = np.zeros((31, 31), np.uint8)
    arr[9, :] = 255
    top = hough_lines(Image.from_array(arr), 1.0, threshold=20)[0]
    assert abs(top.rho - 9) <= 1 and abs(top.theta - 90) <= 1
    arr = np.zeros((25, 25), np.uint8)
    for tenth in range(3600):
        a = math.radians(tenth / 10)
        arr[round(12 + 6 * math.sin(a)), round(12 + 6 * math.cos(a))] = 255
    circle = hough_circles(Image.from_array(arr), 4, 8, threshold=15)[0]
    assert abs(circle.cx - 12) <= 1 and abs(circle.cy - 12) <= 1
    assert abs(circle.radius - 6) <= 1
    report(12, "vertical and horizontal lines within 1 px / 1 deg; circle "
               "center and radius within 1 px")


def test_criterion_13_thermal():
    worst = 0.0
    for t in (1.0, 77.0, 300.0, 1234.5, 5800.0):
        back = radiance_to_temperature(temperature_to_radiance(t))
        worst = max(worst, abs(back - t) / t)
    assert worst < 1e-12
    p300 = temperature_to_radiance(300.0)
    assert abs(p300 - 459.27) <= 0.01
    report(13, f"round-trip relative error {worst:.1e}; 300 K emits {p300:.2f} W/m^2")


def test_criterion_14_cnn_accuracy_out_of_scope():
    # the eight-layer CNN and its reported accuracy need a field dataset that
    # is not available; no stand-in metric is claimed for it
    report(14, "tower-inspection CNN accuracy is explicitly not reproduced "
               "(dataset unavailable, out of scope)")
