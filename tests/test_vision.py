import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aerobot import vision
from aerobot.errors import (
    BadRadiusRange,
    DegenerateHistogram,
    EmptyBank,
    NegativeRadiance,
    NonPositiveSigma,
    NotGrayscale,
    NotRGB,
    ZeroVariance,
)
from aerobot.raster import Histogram, Image, histogram
from aerobot.vision import (
    STEFAN_BOLTZMANN,
    GaborParams,
    default_gabor_bank,
    gabor_bank,
    gabor_kernel,
    green_density,
    hough_circles,
    hough_lines,
    CircleHit,
    LineHit,
    mexican_hat_kernel,
    otsu_threshold,
    pca_project,
    radiance_to_temperature,
    temperature_to_radiance,
    wavelet_response,
)


def gray(arr) -> Image:
    return Image.from_array(np.asarray(arr, dtype=np.uint8))


def spikes(**level_counts) -> Histogram:
    bins = [0] * 256
    for level, count in level_counts.items():
        bins[int(level[1:])] = count
    return Histogram(tuple(bins))


# Otsu ----------------------------------------------------------------------

def otsu_oracle(bins) -> int:
    """Definitional search: exact between-class variance per split, ties lowest.

    variance(t) is proportional to w0*w1*(mu0 - mu1)^2, evaluated with exact
    rationals so the argmax is beyond float-rounding doubt.
    """
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


class TestOtsu:
    def test_two_spikes_matches_oracle(self):
        h = spikes(v50=100, v200=100)
        # variance is flat over t in [50, 199]; lowest maximizer wins
        assert otsu_oracle(h.bins) == 50
        assert otsu_threshold(h) == 50

    def test_degenerate_single_bin(self):
        with pytest.raises(DegenerateHistogram) as err:
            otsu_threshold(spikes(v7=42))
        assert err.value.value == 7

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            otsu_threshold(Histogram((0,) * 256))

    def test_oracle_equivalence_random_suite(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            bins = rng.integers(0, 50, size=256)
            # keep at least two distinct populated levels
            bins[rng.integers(0, 128)] += 1
            bins[rng.integers(128, 256)] += 1
            h = Histogram(tuple(int(b) for b in bins))
            assert otsu_threshold(h) == otsu_oracle(h.bins)

    def test_oracle_equivalence_sparse_suite(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            bins = np.zeros(256, dtype=int)
            levels = rng.choice(256, size=rng.integers(2, 6), replace=False)
            for v in levels:
                bins[v] = int(rng.integers(1, 100))
            h = Histogram(tuple(int(b) for b in bins))
            assert otsu_threshold(h) == otsu_oracle(h.bins)

    @settings(max_examples=60)
    @given(st.one_of(
        st.lists(st.integers(0, 10**6), min_size=256, max_size=256),
        st.dictionaries(st.integers(0, 255), st.integers(1, 10**12), max_size=6).map(
            lambda spikes: [spikes.get(v, 0) for v in range(256)]),
    ))
    def test_matches_fraction_oracle_on_any_histogram(self, bins):
        hist = Histogram(tuple(bins))
        populated = sum(1 for b in bins if b)
        if populated == 0:
            with pytest.raises(ValueError):
                otsu_threshold(hist)
        elif populated == 1:
            with pytest.raises(DegenerateHistogram):
                otsu_threshold(hist)
        else:
            assert otsu_threshold(hist) == otsu_oracle(bins)

    def test_binarization_separates_two_level_image(self):
        img = gray([[20] * 4 + [240] * 4] * 3)
        t = otsu_threshold(histogram(img))
        assert 20 <= t < 240


# Green density ----------------------------------------------------------------

class TestGreenDensity:
    def test_pure_green(self):
        img = Image.from_array(np.tile(np.array([0, 255, 0], np.uint8), (4, 4, 1)))
        result = green_density(img)
        assert result.fraction == 1.0
        assert set(result.mask.samples) == {255}

    def test_neutral_gray(self):
        img = Image.from_array(np.full((4, 4, 3), 128, np.uint8))
        assert green_density(img).fraction == 0.0

    def test_half_green(self):
        arr = np.full((4, 8, 3), 128, np.uint8)
        arr[:, :4] = (0, 255, 0)
        result = green_density(Image.from_array(arr))
        assert result.fraction == 0.5  # pixel-count oracle: 16 of 32
        assert result.mask.pixel(0, 0) == 255
        assert result.mask.pixel(7, 0) == 0

    def test_threshold_boundary_is_strict(self):
        # ExG = 2*30 - 20 - 20 = 20, not above the default threshold 20
        img = Image.from_array(np.tile(np.array([20, 30, 20], np.uint8), (1, 1, 1)))
        assert green_density(img).fraction == 0.0
        assert green_density(img, exg_threshold=19).fraction == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        arr = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        base = green_density(Image.from_array(arr)).fraction
        flat = arr.reshape(-1, 3)
        for _ in range(10):
            shuffled = flat[rng.permutation(len(flat))].reshape(6, 6, 3)
            assert green_density(Image.from_array(shuffled)).fraction == base

    def test_side_by_side_dilution(self):
        green = np.tile(np.array([0, 255, 0], np.uint8), (4, 4, 1))
        grayp = np.full((4, 4, 3), 128, np.uint8)
        assert green_density(Image.from_array(np.hstack([green, grayp]))).fraction == 0.5
        assert green_density(Image.from_array(np.hstack([green, green]))).fraction == 1.0

    def test_rejects_gray(self):
        with pytest.raises(NotRGB):
            green_density(gray([[1]]))

    @pytest.mark.parametrize("threshold", [-511, -510, -1, 0, 20, 509, 510, 10**6])
    def test_matches_int32_formula(self, threshold):
        rng = np.random.default_rng(threshold % 1000)
        arr = rng.integers(0, 256, size=(23, 17, 3), dtype=np.uint8)
        arr[0, :4] = [(0, 255, 0), (255, 0, 255), (0, 0, 0), (255, 255, 255)]
        rgb = arr.astype(np.int32)
        exg = 2 * rgb[:, :, 1] - rgb[:, :, 0] - rgb[:, :, 2]
        expected = np.where(exg > threshold, 255, 0).astype(np.uint8)
        result = green_density(Image.from_array(arr), exg_threshold=threshold)
        assert result.fraction == float(np.count_nonzero(exg > threshold)) / exg.size
        assert result.mask.samples == expected.tobytes()


# Mexican-Hat kernel and wavelet ---------------------------------------------

class TestMexicanHat:
    def test_center_before_shift_is_one(self):
        # psi(0) = (1 - 0)*e^0 = 1; the built kernel is psi minus its mean
        sigma, radius = 2.0, 8
        offs = np.arange(-radius, radius + 1, dtype=float)
        r2 = offs[:, None] ** 2 + offs[None, :] ** 2
        u = r2 / (2 * sigma * sigma)
        psi = (1 - u) * np.exp(-u)
        assert psi[radius, radius] == 1.0
        k = mexican_hat_kernel(sigma, radius=radius)
        assert k.values[radius, radius] == pytest.approx(1.0 - psi.mean(), abs=1e-15)

    def test_zero_crossing_at_sigma_sqrt2(self):
        # psi(sigma*sqrt2) = (1 - 1)*e^-1 = 0 before the shift
        sigma = 2.0
        r = sigma * math.sqrt(2.0)
        u = r * r / (2 * sigma * sigma)
        assert (1.0 - u) * math.exp(-u) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0])
    def test_zero_sum(self, sigma):
        k = mexican_hat_kernel(sigma)
        assert abs(k.values.sum()) < 1e-12

    def test_rejects_non_positive_sigma(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(NonPositiveSigma):
                mexican_hat_kernel(sigma)


def direct_convolve(arr, kernel):
    """Loop-wise convolution with edge-repeating reflect padding."""
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    h, w = arr.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-ry, ry + 1):
                for dx in range(-rx, rx + 1):
                    sy, sx = y + dy, x + dx
                    if sy < 0:
                        sy = -sy - 1
                    if sy >= h:
                        sy = 2 * h - sy - 1
                    if sx < 0:
                        sx = -sx - 1
                    if sx >= w:
                        sx = 2 * w - sx - 1
                    acc += arr[sy, sx] * kernel[-dy + ry, -dx + rx]
            out[y, x] = acc
    return out


def einsum_convolve(arr, kernel):
    """The earlier direct convolution: einsum over reflect-padded sliding windows."""
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    padded = np.pad(arr, ((ry, ry), (rx, rx)), mode="symmetric")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))
    return np.einsum("ijkl,kl->ij", windows, kernel[::-1, ::-1])


class TestWaveletResponse:
    @pytest.mark.parametrize("shape, sigma", [
        ((1, 1), 1.0), ((1, 7), 2.0), ((5, 1), 1.5), ((8, 8), 3.0),
        ((23, 31), 1.0), ((64, 40), 2.5),
    ])
    def test_fft_matches_einsum(self, shape, sigma):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
        kernel = mexican_hat_kernel(sigma).values
        got = wavelet_response(gray(arr), sigma).values
        assert got.shape == shape
        assert np.abs(got - einsum_convolve(arr.astype(np.float64), kernel)).max() < 1e-9

    def test_constant_image_is_zero(self):
        resp = wavelet_response(gray(np.full((9, 9), 200)), 1.5)
        assert np.abs(resp.values).max() < 1e-9

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(13)
        arr = rng.integers(0, 256, size=(7, 9)).astype(np.float64)
        kernel = mexican_hat_kernel(1.0, radius=2).values  # 5x5
        expected = direct_convolve(arr, kernel)
        got = wavelet_response(gray(arr), 1.0, radius=2)
        assert np.allclose(got.values, expected, atol=1e-9)

    def test_bright_stripe_peaks_on_centerline(self):
        arr = np.zeros((15, 15), np.uint8)
        arr[:, 7] = 255
        resp = wavelet_response(gray(arr), 1.0)
        assert np.unravel_index(np.argmax(resp.values), resp.values.shape)[1] == 7

    def test_mirror_commutes(self):
        rng = np.random.default_rng(14)
        arr = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
        resp = wavelet_response(gray(arr), 1.0)
        mirrored = wavelet_response(gray(arr[:, ::-1].copy()), 1.0)
        assert np.allclose(mirrored.values, resp.values[:, ::-1], atol=1e-9)
        flipped = wavelet_response(gray(arr[::-1].copy()), 1.0)
        assert np.allclose(flipped.values, resp.values[::-1], atol=1e-9)

    def test_rejects_rgb(self):
        with pytest.raises(NotGrayscale):
            wavelet_response(Image(1, 1, 3, bytes(3)), 1.0)

    def test_pgm_export_scales(self):
        resp = wavelet_response(gray(np.eye(8) * 255), 1.0)
        img = resp.to_pgm_image()
        assert img.channels == 1
        assert max(img.samples) == 255
        assert min(img.samples) == 0


# Hough ----------------------------------------------------------------------

def line_votes_oracle(arr, rho, theta_deg):
    """Count edge pixels whose rounded rho at theta lands in the cell."""
    votes = 0
    rad = math.radians(theta_deg)
    for y in range(arr.shape[0]):
        for x in range(arr.shape[1]):
            if arr[y, x] == 255 and round(x * math.cos(rad) + y * math.sin(rad)) == rho:
                votes += 1
    return votes


def hough_lines_oracle(edges, theta_step=1.0, threshold=1):
    """The earlier accumulator: np.add.at votes and spread, ranked by sorted()."""
    arr = edges.to_array()
    ys, xs = np.nonzero(arr == 255)
    if len(xs) == 0:
        return []
    n_theta = int(round(180.0 / theta_step))
    thetas = np.arange(n_theta) * theta_step
    rad = np.deg2rad(thetas)
    diag = int(math.ceil(math.hypot(edges.width - 1, edges.height - 1)))
    exact = xs[:, None] * np.cos(rad)[None, :] + ys[:, None] * np.sin(rad)[None, :]
    rhos = np.rint(exact).astype(np.int64)
    acc = np.zeros((2 * diag + 1, n_theta), dtype=np.int64)
    spread = np.zeros_like(acc, dtype=np.float64)
    flat = (rhos + diag) * n_theta + np.arange(n_theta)[None, :]
    np.add.at(acc.reshape(-1), flat.ravel(), 1)
    np.add.at(spread.reshape(-1), flat.ravel(), np.abs(exact - rhos).ravel())
    hits = []
    order = []
    for ri, ti in zip(*np.nonzero(acc >= threshold)):
        hits.append(LineHit(float(ri - diag), float(thetas[ti]), int(acc[ri, ti])))
        order.append(float(spread[ri, ti]))
    ranked = sorted(zip(hits, order), key=lambda p: (-p[0].votes, p[1], p[0].rho, p[0].theta))
    return [h for h, _ in ranked]


def line_mask(seed, h=48, w=64):
    """Two drawn lines, a short segment and scattered noise pixels at 255."""
    rng = np.random.default_rng(seed)
    arr = np.zeros((h, w), np.uint8)
    arr[:, int(rng.integers(0, w))] = 255
    arr[int(rng.integers(0, h)), :] = 255
    x0, y0 = int(rng.integers(0, w // 2)), int(rng.integers(0, h // 2))
    for k in range(int(rng.integers(5, 20))):
        arr[min(h - 1, y0 + k), min(w - 1, x0 + 2 * k)] = 255
    arr[rng.random((h, w)) < 0.02] = 255
    return gray(arr)


def row_and_column_mask(seed, side):
    """A field-survey Otsu mask: one full row, one full column, a few stray pixels."""
    rng = np.random.default_rng(seed)
    h, w = (side + int(rng.integers(-8, 9)) for _ in range(2))
    arr = np.zeros((h, w), np.uint8)
    arr[:, int(rng.integers(4, w - 4))] = 255
    arr[int(rng.integers(4, h - 4)), :] = 255
    arr[rng.random((h, w)) < 0.002] = 255
    return gray(arr)


def sparse_strip(shape):
    """Every other pixel of a one-row or one-column image at 255."""
    arr = np.zeros(shape, np.uint8)
    arr.reshape(-1)[::2] = 255
    return gray(arr)


class TestHoughLines:
    def test_vertical_column(self):
        arr = np.zeros((11, 11), np.uint8)
        arr[:, 5] = 255
        top = hough_lines(gray(arr), 1.0, threshold=8)[0]
        assert (top.rho, top.theta, top.votes) == (5.0, 0.0, 11)
        assert line_votes_oracle(arr, 5, 0.0) == 11

    def test_horizontal_row(self):
        arr = np.zeros((11, 11), np.uint8)
        arr[3, :] = 255
        top = hough_lines(gray(arr), 1.0, threshold=8)[0]
        assert (top.rho, top.theta, top.votes) == (3.0, 90.0, 11)
        assert line_votes_oracle(arr, 3, 90.0) == 11

    def test_empty_image(self):
        assert hough_lines(gray(np.zeros((5, 5))), 1.0, threshold=1) == []

    def test_translation_shifts_rho(self):
        for x0 in (2, 6, 13):
            arr = np.zeros((17, 17), np.uint8)
            arr[:, x0] = 255
            top = hough_lines(gray(arr), 1.0, threshold=12)[0]
            assert (top.rho, top.theta) == (float(x0), 0.0)

    def test_diagonal(self):
        arr = np.zeros((21, 21), np.uint8)
        np.fill_diagonal(arr, 255)
        top = hough_lines(gray(arr), 1.0, threshold=15)[0]
        assert top.theta == 135.0
        assert top.rho == 0.0

    def test_theta_step_must_divide_180(self):
        with pytest.raises(ValueError):
            hough_lines(gray(np.zeros((3, 3))), 7.0)

    @pytest.mark.parametrize("threshold", [1, 5, 40])
    def test_matches_add_at_oracle(self, threshold):
        for seed in range(50):
            edges = line_mask(seed)
            got = hough_lines(edges, 1.0, threshold=threshold)
            assert got == hough_lines_oracle(edges, 1.0, threshold)
            assert all(type(h.rho) is float and type(h.theta) is float and type(h.votes) is int
                       for h in got[:3])

    @pytest.mark.parametrize("theta_step", [0.5, 3.0, 45.0])
    def test_matches_oracle_at_other_steps(self, theta_step):
        for seed in range(5):
            edges = line_mask(100 + seed, 17, 23)
            assert hough_lines(edges, theta_step, 2) == hough_lines_oracle(edges, theta_step, 2)

    @pytest.mark.parametrize("side", [96, 224])
    def test_row_and_column_masks_match_oracle(self, side):
        for seed in range(3):
            edges = row_and_column_mask(seed, side)
            got = hough_lines(edges, 1.0, threshold=40)
            assert got == hough_lines_oracle(edges, 1.0, 40)
            assert got[0].theta in (0.0, 90.0)
            assert hough_lines(edges, 45.0, 40) == hough_lines_oracle(edges, 45.0, 40)

    def test_threshold_above_every_count(self):
        edges = row_and_column_mask(5, 96)
        most = hough_lines(edges, 1.0, threshold=1)[0].votes
        assert hough_lines(edges, 1.0, threshold=most) == hough_lines_oracle(edges, 1.0, most)
        assert hough_lines(edges, 1.0, threshold=most + 1) == []

    def test_matches_oracle_with_many_or_few_hit_columns(self):
        # the residual spread is summed over the theta rows that hold a hit,
        # whether a few of them do or all of them
        edges = gray(np.where(np.random.default_rng(11).random((40, 40)) < 0.3, 255, 0))
        hit_columns = set()
        for threshold in range(14, 30, 2):
            got = hough_lines(edges, 1.0, threshold)
            assert got == hough_lines_oracle(edges, 1.0, threshold)
            hit_columns.add(len({h.theta for h in got}))
        assert min(hit_columns) <= 36 < max(hit_columns) == 180

    @pytest.mark.parametrize("threshold, bound", [(40, 2.75), (60, 2.75), (60, 2.25)],
                             ids=["40", "60", "60-few-rows"])
    def test_dense_mask_bounded_memory(self, threshold, bound):
        # every theta row holds a hit at 40, 36 of 180 do at 60; either way
        # only the rho table and its int64 cell table are vote-sized, and the
        # spread is summed one hit row at a time
        arr = np.where(np.random.default_rng(7).random((128, 128)) < 0.3, 255, 0)
        table = np.count_nonzero(arr) * 180 * 8
        tracemalloc.start()
        try:
            hough_lines(gray(arr), 1.0, threshold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * table

    @pytest.mark.parametrize("theta_step", [1.0, 45.0])
    def test_threshold_zero_lists_every_cell(self, theta_step):
        edges = line_mask(7, 17, 23)
        got = hough_lines(edges, theta_step, threshold=0)
        assert len(got) == (2 * math.ceil(math.hypot(22, 16)) + 1) * round(180 / theta_step)
        assert got == hough_lines_oracle(edges, theta_step, 0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1)])
    def test_one_row_or_column_matches_oracle(self, shape):
        edges = sparse_strip(shape)
        for threshold in (0, 1, 3):
            assert hough_lines(edges, 1.0, threshold) == hough_lines_oracle(edges, 1.0, threshold)

    @settings(max_examples=100)
    @given(arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24))),
           st.sampled_from([0.5, 1.0, 3.0, 45.0, 90.0]), st.data())
    def test_matches_oracle_on_any_mask(self, mask, theta_step, data):
        edges = gray(mask * 255)
        hits = hough_lines(edges, theta_step, 1)
        most = hits[0].votes if hits else 0
        threshold = data.draw(st.integers(0, most + 1), label="threshold")
        got = hough_lines(edges, theta_step, threshold)
        assert got == hough_lines_oracle(edges, theta_step, threshold)

    def test_votes_sorted_descending(self):
        arr = np.zeros((11, 11), np.uint8)
        arr[:, 5] = 255
        arr[2, 0:4] = 255
        hits = hough_lines(gray(arr), 1.0, threshold=3)
        votes = [h.votes for h in hits]
        assert votes == sorted(votes, reverse=True)


def rasterize_circle(arr, cx, cy, r):
    for tenth_deg in range(3600):
        a = math.radians(tenth_deg / 10.0)
        x = round(cx + r * math.cos(a))
        y = round(cy + r * math.sin(a))
        arr[y, x] = 255


def circle_votes_oracle(arr, cx, cy, r):
    """Edge pixels supporting (cx, cy, r): any sampled direction lands there."""
    votes = 0
    ys, xs = np.nonzero(arr == 255)
    for x, y in zip(xs, ys):
        for deg in range(360):
            a = math.radians(deg)
            if round(x - r * math.cos(a)) == cx and round(y - r * math.sin(a)) == cy:
                votes += 1
                break
    return votes


def hough_circles_oracle(edges, r_min, r_max, threshold=1, angle_step=1.0):
    """The earlier voter: one np.unique of center cells per edge pixel per radius."""
    arr = edges.to_array()
    ys, xs = np.nonzero(arr == 255)
    w, h = edges.width, edges.height
    angles = np.deg2rad(np.arange(0.0, 360.0, angle_step))
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    hits = []
    for r in range(r_min, r_max + 1):
        acc = np.zeros((h, w), dtype=np.int64)
        dx = np.rint(r * cos_a).astype(np.int64)
        dy = np.rint(r * sin_a).astype(np.int64)
        for x, y in zip(xs, ys):
            cx = x - dx
            cy = y - dy
            ok = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
            cells = np.unique(cy[ok] * w + cx[ok])
            acc.reshape(-1)[cells] += 1
        for cy_i, cx_i in zip(*np.nonzero(acc >= threshold)):
            hits.append(CircleHit(int(cx_i), int(cy_i), r, int(acc[cy_i, cx_i])))
    hits.sort(key=lambda c: (-c.votes, c.cx, c.cy, c.radius))
    return hits


def clipped_circles_image(seed, h, w, n_circles, noise):
    """Edge image of circles that may cross the border, plus scattered pixels."""
    rng = np.random.default_rng(seed)
    arr = np.zeros((h, w), np.uint8)
    for _ in range(n_circles):
        cx, cy = rng.integers(-3, w + 3), rng.integers(-3, h + 3)
        r = int(rng.integers(2, 12))
        a = np.deg2rad(np.arange(0.0, 360.0, 0.5))
        x = np.rint(cx + r * np.cos(a)).astype(int)
        y = np.rint(cy + r * np.sin(a)).astype(int)
        ok = (x >= 0) & (x < w) & (y >= 0) & (y < h)
        arr[y[ok], x[ok]] = 255
    arr[rng.random((h, w)) < noise] = 255
    return gray(arr)


class TestHoughCircles:
    @pytest.mark.parametrize("angle_step", [0.5, 1.0, 7.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_pixel_oracle(self, angle_step, seed):
        edges = clipped_circles_image(seed, 24 + seed * 5, 30 - seed * 4, 3, 0.02)
        for r_min, r_max, threshold in ((2, 12, 1), (3, 9, 6)):
            got = hough_circles(edges, r_min, r_max, threshold, angle_step)
            assert got == hough_circles_oracle(edges, r_min, r_max, threshold, angle_step)

    @pytest.mark.parametrize("r", [1, 4, 11])
    def test_single_radius_matches_oracle(self, r):
        edges = clipped_circles_image(7, 20, 26, 2, 0.03)
        assert hough_circles(edges, r, r) == hough_circles_oracle(edges, r, r)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 5)])
    def test_radius_beyond_image_matches_oracle(self, shape):
        edges = gray(np.full(shape, 255))
        assert hough_circles(edges, 1, 12) == hough_circles_oracle(edges, 1, 12)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1)])
    def test_one_row_or_column_matches_oracle(self, shape):
        edges = sparse_strip(shape)
        for threshold in (1, 2):
            assert hough_circles(edges, 1, 6, threshold) == \
                hough_circles_oracle(edges, 1, 6, threshold)

    @pytest.mark.parametrize("per_batch, r_min, r_max", [
        (3, 2, 13),   # four batches of three radii
        (4, 2, 13),   # three batches of four
        (5, 2, 13),   # five, five and two
        (2, 4, 4),    # one radius, room for two
    ])
    def test_radius_batches_match_oracle(self, monkeypatch, per_batch, r_min, r_max):
        edges = clipped_circles_image(3, 22, 27, 3, 0.03)
        plane = (22 + 2 * min(r_max, 21)) * (27 + 2 * min(r_max, 26))
        monkeypatch.setattr(vision, "_VOTE_CHUNK", per_batch * plane)
        for threshold in (1, 5):
            got = hough_circles(edges, r_min, r_max, threshold)
            assert got == hough_circles_oracle(edges, r_min, r_max, threshold)

    def test_batch_stops_at_radii_beyond_image(self, monkeypatch):
        edges = gray(np.full((3, 5), 255))
        # the 360 offsets per radius outweigh the 7x13 padded plane
        monkeypatch.setattr(vision, "_VOTE_CHUNK", 2 * 360)
        assert hough_circles(edges, 1, 12) == hough_circles_oracle(edges, 1, 12)
        # at threshold 0 every cell of a radius that reaches some center counts,
        # and no radius beyond the last such one is listed
        reach = max(hit.radius for hit in hough_circles_oracle(edges, 1, 12))
        assert hough_circles(edges, 1, 12, threshold=0) == [
            hit for hit in hough_circles_oracle(edges, 1, 12, threshold=0) if hit.radius <= reach]

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_one_ties_match_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        arr = np.where(rng.random((18, 21)) < 0.05, 255, 0).astype(np.uint8)
        arr[rng.integers(0, 18), rng.integers(0, 21)] = 255
        edges = gray(arr)
        got = hough_circles(edges, 1, 9, threshold=1)
        assert got == hough_circles_oracle(edges, 1, 9, threshold=1)
        votes = [h.votes for h in got]
        assert len(votes) > 2 * len(set(votes))  # many hits share a vote count
        assert all(type(v) is int for hit in got[:5] for v in hit)

    def test_dense_edges_bounded_memory(self):
        rng = np.random.default_rng(19)
        arr = np.where(rng.random((192, 192)) < 0.08, 255, 0).astype(np.uint8)
        edges = gray(arr)
        assert 2500 < np.count_nonzero(arr) < 3500
        tracemalloc.start()
        try:
            hough_circles(edges, 4, 40, threshold=60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_single_circle_recovery(self):
        arr = np.zeros((21, 21), np.uint8)
        rasterize_circle(arr, 10, 10, 5)
        top = hough_circles(gray(arr), 3, 7, threshold=10)[0]
        assert abs(top.cx - 10) <= 1 and abs(top.cy - 10) <= 1
        assert abs(top.radius - 5) <= 1
        assert top.votes == circle_votes_oracle(arr, top.cx, top.cy, top.radius)

    def test_two_disjoint_circles(self):
        arr = np.zeros((40, 80), np.uint8)
        rasterize_circle(arr, 15, 20, 6)
        rasterize_circle(arr, 60, 18, 9)
        hits = hough_circles(gray(arr), 4, 11, threshold=20)
        best_near = {}
        for cx, cy, r in ((15, 20, 6), (60, 18, 9)):
            near = [h for h in hits if abs(h.cx - cx) <= 1 and abs(h.cy - cy) <= 1
                    and abs(h.radius - r) <= 1]
            assert near, (cx, cy, r)
            best_near[(cx, cy)] = max(near, key=lambda h: h.votes)
        assert len(best_near) == 2

    def test_empty_image(self):
        assert hough_circles(gray(np.zeros((9, 9))), 2, 4) == []

    def test_bad_radius_range(self):
        with pytest.raises(BadRadiusRange):
            hough_circles(gray(np.zeros((9, 9))), 5, 3)
        with pytest.raises(BadRadiusRange):
            hough_circles(gray(np.zeros((9, 9))), 0, 3)


# Shape-keyed tables ----------------------------------------------------------

def pad_reflect_convolve(arr, kernel_shape, spectrum):
    """The earlier `_reflect_convolve`, padding with np.pad(mode="symmetric")."""
    kh, kw = kernel_shape
    ry, rx = kh // 2, kw // 2
    products = spectrum * np.fft.rfft2(np.pad(arr, ((ry, ry), (rx, rx)), mode="symmetric"))
    rows = np.fft.ifft(products, axis=-2, out=products)[..., kh - 1:, :]
    return np.fft.irfft(rows, n=arr.shape[1] + kw - 1, axis=-1)[..., kw - 1:]


class TestShapeKeyedTables:
    CACHES = (vision._symmetric_index, vision._line_angles, vision._circle_offsets,
              vision._gabor_spectra)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_symmetric_index_matches_np_pad(self, n):
        axis = np.arange(n)
        for r in range(26):  # r > n reflects more than once
            assert np.array_equal(vision._symmetric_index(n, r),
                                  np.pad(axis, r, mode="symmetric"))

    def test_memoized_arrays_are_read_only(self):
        arrays = [vision._symmetric_index(7, 12), *vision._line_angles(180, 1.0),
                  vision._circle_offsets(2, 10, 1.0, 9, 9, 35, 39 * 35)[1]]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_every_cache_is_bounded(self):
        for fn in self.CACHES:
            assert 0 < fn.cache_info().maxsize <= 64

    def test_alternating_geometries_match_oracles(self):
        rng = np.random.default_rng(21)
        a = (clipped_circles_image(4, 19, 23, 3, 0.03), 2, 8, 1.0)
        b = (clipped_circles_image(5, 31, 12, 4, 0.02), 3, 14, 7.0)
        masks = (line_mask(6, 20, 30), line_mask(7, 33, 17))
        crops = [rng.integers(0, 256, size=shape).astype(np.float64) for shape in ((9, 5), (3, 16))]
        kernels = [rng.normal(size=shape) for shape in ((7, 21), (5, 3))]
        for fn in self.CACHES:
            fn.cache_clear()
        for i in (0, 1, 0):
            edges, r_min, r_max, step = (a, b)[i]
            assert hough_circles(edges, r_min, r_max, 2, step) == \
                hough_circles_oracle(edges, r_min, r_max, 2, step)
            theta_step = (1.0, 4.5)[i]
            assert hough_lines(masks[i], theta_step) == hough_lines_oracle(masks[i], theta_step)
            arr, kernel = crops[i], kernels[i]
            spectrum = vision._kernel_spectrum(kernel, arr.shape)
            assert np.array_equal(vision._reflect_convolve(arr, kernel.shape, spectrum),
                                  pad_reflect_convolve(arr, kernel.shape, spectrum))
        assert vision._circle_offsets.cache_info().hits >= 1
        assert vision._line_angles.cache_info().hits >= 1
        assert vision._symmetric_index.cache_info().hits >= 2


# Gabor + PCA -----------------------------------------------------------------

def make_grating(size, wavelength, theta):
    yy, xx = np.mgrid[0:size, 0:size]
    phase = 2 * math.pi * (xx * math.cos(theta) + yy * math.sin(theta)) / wavelength
    return np.clip(128 + 100 * np.cos(phase), 0, 255).astype(np.uint8)


class TestGabor:
    def test_matching_orientation_wins(self):
        bank = default_gabor_bank(wavelength=8.0, sigma=4.0)
        for idx, theta in enumerate(p.orientation for p in bank):
            img = gray(make_grating(48, 8.0, theta))
            maps = gabor_bank(img, bank)
            scores = [float(np.abs(m.values).mean()) for m in maps]
            assert int(np.argmax(scores)) == idx

    def test_constant_image_near_zero(self):
        img = gray(np.full((32, 32), 77))
        maps = gabor_bank(img, default_gabor_bank())
        assert max(float(np.abs(m.values).max()) for m in maps) < 1e-8

    def test_rot90_permutes_winner(self):
        bank = default_gabor_bank(wavelength=8.0, sigma=4.0)
        base = make_grating(48, 8.0, 0.0)
        img_scores = [float(np.abs(m.values).mean()) for m in gabor_bank(gray(base), bank)]
        rot_scores = [float(np.abs(m.values).mean())
                      for m in gabor_bank(gray(np.rot90(base).copy()), bank)]
        assert int(np.argmax(img_scores)) == 0
        assert int(np.argmax(rot_scores)) == 2  # 0 deg -> 90 deg member

    @pytest.mark.parametrize("shape", [(1, 1), (8, 8), (13, 60), (70, 52)])
    def test_fft_matches_einsum(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
        bank = default_gabor_bank() + [GaborParams(5.0, 0.3, 1.5, aspect=0.8, phase=1.0)]
        maps = gabor_bank(gray(arr), bank)
        for p, m in zip(bank, maps):
            expected = einsum_convolve(arr.astype(np.float64), gabor_kernel(p))
            assert np.abs(m.values - expected).max() < 1e-9

    def test_interleaved_kernel_sizes_keep_bank_order(self):
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 256, size=(37, 29), dtype=np.uint8)
        small = [GaborParams(4.0, a, 1.2) for a in (0.0, 1.1)]
        large = [GaborParams(9.0, a, 3.0, aspect=0.7) for a in (0.4, 2.0)]
        bank = [small[0], large[0], small[1], large[1]]
        assert len({gabor_kernel(p).shape for p in bank}) == 2
        maps = gabor_bank(gray(arr), bank)
        for p, m in zip(bank, maps):
            expected = einsum_convolve(arr.astype(np.float64), gabor_kernel(p))
            assert m.values.shape == arr.shape
            assert np.abs(m.values - expected).max() < 1e-9

    def test_repeated_and_interleaved_shapes_give_same_maps(self):
        rng = np.random.default_rng(12)
        images = [gray(rng.integers(0, 256, size=shape, dtype=np.uint8))
                  for shape in ((32, 32), (9, 14), (32, 32), (14, 9))]
        bank = default_gabor_bank()
        vision._gabor_spectra.cache_clear()
        first = [[m.values.copy() for m in gabor_bank(img, bank)] for img in images]
        for _ in range(2):
            for img, expected in zip(images, first):
                for m, e in zip(gabor_bank(img, bank), expected):
                    assert np.array_equal(m.values, e)
        for img, expected in zip(images, first):
            for p, e in zip(bank, expected):
                assert np.abs(einsum_convolve(img.to_array().astype(np.float64),
                                              gabor_kernel(p)) - e).max() < 1e-9

    def test_mutating_a_map_leaves_the_next_call_alone(self):
        img = gray(np.random.default_rng(13).integers(0, 256, size=(20, 24), dtype=np.uint8))
        bank = default_gabor_bank()
        expected = [m.values.copy() for m in gabor_bank(img, bank)]
        for m in gabor_bank(img, bank):
            m.values[...] = 7.0
        for m, e in zip(gabor_bank(img, bank), expected):
            assert np.array_equal(m.values, e)

    def test_cached_spectra_are_read_only_and_bounded(self):
        bank = tuple(default_gabor_bank())
        vision._gabor_spectra.cache_clear()
        for side in range(4, 14):
            gabor_bank(gray(np.zeros((side, side + 1))), list(bank))
        info = vision._gabor_spectra.cache_info()
        assert info.misses == 10
        assert info.currsize <= info.maxsize <= 8
        for members, shape, spectrum in vision._gabor_spectra(bank, (13, 14)):
            assert spectrum.shape == (len(members), 13 + shape[0] - 1, (14 + shape[1] - 1) // 2 + 1)
            assert not spectrum.flags.writeable
            with pytest.raises(ValueError):
                spectrum[0, 0, 0] = 0.0

    def test_empty_bank(self):
        with pytest.raises(EmptyBank):
            gabor_bank(gray(np.zeros((4, 4))), [])

    def test_bad_params(self):
        with pytest.raises(ValueError):
            GaborParams(wavelength=0.0, orientation=0.0, sigma=1.0)


class TestPca:
    def test_line_direction(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3.1], [4, 3.9]])
        comps, _ = pca_project(pts, 1)
        # analytic: dominant eigenvector of this covariance is ~(1,1)/sqrt(2)
        assert np.allclose(np.abs(comps[0]), 1 / math.sqrt(2), atol=0.02)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(40, 6))
        comps, _ = pca_project(data, 6)
        gram = comps @ comps.T
        assert np.allclose(gram, np.eye(6), atol=1e-9)

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(30, 5))
        comps, _ = pca_project(data, 5)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        _, vecs = np.linalg.eigh(cov)
        reference = vecs[:, ::-1].T  # descending order
        for got, ref in zip(comps, reference):
            assert np.allclose(np.abs(got), np.abs(ref), atol=1e-8)

    def test_projected_variance_non_increasing(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(50, 4)) * np.array([5.0, 2.0, 1.0, 0.3])
        _, proj = pca_project(data, 4)
        variances = proj.var(axis=0)
        assert all(b <= a + 1e-12 for a, b in zip(variances, variances[1:]))

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(18)
        data = rng.normal(size=(20, 3))
        comps, proj = pca_project(data, 3)
        centered = data - data.mean(axis=0)
        assert np.allclose(proj @ comps, centered, atol=1e-9)

    def test_identical_vectors(self):
        with pytest.raises(ZeroVariance):
            pca_project(np.ones((5, 3)), 2)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            pca_project(np.ones((1, 3)), 1)


# Thermal ----------------------------------------------------------------------

class TestThermal:
    def test_unit_case(self):
        assert radiance_to_temperature(STEFAN_BOLTZMANN) == pytest.approx(1.0, rel=1e-12)

    def test_300_kelvin(self):
        # hand: 5.67e-8 * 300^4 = 5.67e-8 * 8.1e9 = 459.27
        assert temperature_to_radiance(300.0) == pytest.approx(459.27, abs=0.01)

    def test_round_trip(self):
        for t in (0.5, 77.0, 300.0, 1234.5):
            back = radiance_to_temperature(temperature_to_radiance(t))
            assert abs(back - t) / t < 1e-12

    def test_monotone(self):
        temps = np.linspace(0.0, 2000.0, 100)
        powers = [temperature_to_radiance(t) for t in temps]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_negative_radiance(self):
        with pytest.raises(NegativeRadiance):
            radiance_to_temperature(-1.0)

    def test_negative_temperature(self):
        with pytest.raises(ValueError):
            temperature_to_radiance(-5.0)
