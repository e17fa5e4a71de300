"""Classical vision primitives.

Covers Otsu thresholding, excess-green vegetation density, the Mexican-Hat
wavelet, Hough line/circle voting, and a real Gabor filter bank with PCA.
All convolutions reflect-pad so flat borders stay response-free. The
blackbody power/temperature pair lives in `thermal` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BadRadiusRange,
    DegenerateHistogram,
    EmptyBank,
    NonPositiveSigma,
    NotGrayscale,
    NotRGB,
    ZeroVariance,
)
from .raster import Histogram, Image
from .thermal import (  # noqa: F401  re-exported
    STEFAN_BOLTZMANN,
    THERMAL_BANDS_UM,
    radiance_to_temperature,
    temperature_to_radiance,
)

DEFAULT_EXG_THRESHOLD = 20


@dataclass(frozen=True)
class ResponseMap:
    """Signed per-pixel filter responses (wavelet or Gabor)."""

    width: int
    height: int
    values: np.ndarray  # float64, shape (height, width)

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise ValueError(f"values shaped {self.values.shape}, expected {(self.height, self.width)}")

    def to_pgm_image(self) -> Image:
        """Min-max scale to 0..255 for visual inspection; flat maps go black."""
        lo, hi = float(self.values.min()), float(self.values.max())
        if hi == lo:
            return Image.from_array(np.zeros((self.height, self.width), dtype=np.uint8))
        scaled = np.floor((self.values - lo) / (hi - lo) * 255.0 + 0.5)
        return Image.from_array(scaled.astype(np.uint8))


class LineHit(NamedTuple):
    rho: float
    theta: float  # degrees in [0, 180)
    votes: int


class CircleHit(NamedTuple):
    cx: int
    cy: int
    radius: int
    votes: int


class GreenDensity(NamedTuple):
    fraction: float
    mask: Image  # 255 where the pixel counted as green


@dataclass(frozen=True)
class GaborParams:
    """Real Gabor kernel parameters: cosine carrier under a rotated Gaussian."""

    wavelength: float        # carrier period, pixels
    orientation: float       # radians
    sigma: float             # Gaussian envelope scale, pixels
    aspect: float = 0.5      # envelope ellipticity gamma
    phase: float = 0.0       # carrier phase psi, radians

    def __post_init__(self):
        if self.wavelength <= 0 or self.sigma <= 0 or self.aspect <= 0:
            raise ValueError("wavelength, sigma, and aspect must be positive")


def default_gabor_bank(wavelength: float = 8.0, sigma: float = 4.0) -> list[GaborParams]:
    """Four-orientation bank (0, 45, 90, 135 degrees) at one scale."""
    return [GaborParams(wavelength, i * math.pi / 4, sigma) for i in range(4)]


# Otsu --------------------------------------------------------------------

def otsu_threshold(hist: Histogram) -> int:
    """Threshold maximizing between-class variance; ties go to the lowest t.

    The split is {levels <= t} vs {levels > t}. Scores are compared in exact
    integer arithmetic so the argmax never depends on float rounding:
    with class counts n0, n1 and sums s0, s1, between-class variance is
    proportional to (s0*n1 - s1*n0)^2 / (n0*n1).
    """
    bins = hist.bins
    total = sum(bins)
    if total == 0:
        raise ValueError("histogram is empty")
    nonzero = [v for v in range(256) if bins[v] > 0]
    if len(nonzero) == 1:
        raise DegenerateHistogram(nonzero[0])

    total_sum = sum(v * bins[v] for v in nonzero)
    best_t = 0
    best_num, best_den = -1, 1  # score as exact fraction best_num/best_den
    n0 = 0
    s0 = 0
    # an empty level scores like the level below it, so it never wins the strict >
    for t in nonzero:
        n0 += bins[t]
        s0 += t * bins[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        s1 = total_sum - s0
        num = (s0 * n1 - s1 * n0) ** 2
        den = n0 * n1
        # num/den > best_num/best_den, exactly
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            best_t = t
    return best_t


# Excess green -------------------------------------------------------------

def green_density(img: Image, exg_threshold: int = DEFAULT_EXG_THRESHOLD) -> GreenDensity:
    """Fraction of pixels with excess-green index 2G - R - B above the threshold."""
    if img.channels != 3:
        raise NotRGB("green density requires an RGB image")
    rgb = img.to_array().astype(np.int16)  # ExG spans -510..510
    exg = 2 * rgb[:, :, 1] - rgb[:, :, 0] - rgb[:, :, 2]
    green = exg > exg_threshold
    fraction = float(np.count_nonzero(green)) / (img.width * img.height)
    mask = Image.from_array(green.view(np.uint8) * np.uint8(255))
    return GreenDensity(fraction, mask)


# Mexican-Hat wavelet --------------------------------------------------------

def mexican_hat_kernel(sigma: float, radius: int | None = None) -> ResponseMap:
    """Square (1 - r^2/2s^2)exp(-r^2/2s^2) kernel, mean-shifted to sum to zero.

    The zero sum makes constant regions vanish under convolution. Radius
    defaults to ceil(4*sigma), which captures the full ripple.
    """
    if not 0 < sigma < math.inf:
        raise NonPositiveSigma(f"sigma {sigma}")
    if radius is None:
        radius = math.ceil(4 * sigma)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    r2 = offs[:, None] ** 2 + offs[None, :] ** 2
    u = r2 / (2.0 * sigma * sigma)
    kernel = (1.0 - u) * np.exp(-u)
    kernel -= kernel.mean()
    side = 2 * radius + 1
    return ResponseMap(side, side, kernel)


def _kernel_spectrum(kernels: np.ndarray, image_shape: tuple) -> np.ndarray:
    """rfft2 of one (kh, kw) kernel or a stack (n, kh, kw) at the padded size.

    The padded input is (h + kh - 1, w + kw - 1), so a circular convolution
    of that size wraps only into the rows and columns that are cut away.
    """
    kh, kw = kernels.shape[-2:]
    return np.fft.rfft2(kernels, s=(image_shape[0] + kh - 1, image_shape[1] + kw - 1))


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _symmetric_index(n: int, r: int) -> np.ndarray:
    """Read-only source indices of `np.pad(mode="symmetric")` for an axis of n
    padded by r a side; the reflection has period 2n, so r > n reflects again."""
    i = np.arange(-r, n + r) % (2 * n)
    return _read_only(np.minimum(i, 2 * n - 1 - i))[0]


def _reflect_convolve(arr: np.ndarray, kernel_shape: tuple, spectrum: np.ndarray) -> np.ndarray:
    """2-D convolution with edge-repeating reflect padding, by FFT.

    spectrum is `_kernel_spectrum` of kernels shaped kernel_shape for an
    image shaped like arr; the image is padded and transformed once for the
    whole stack. The inverse runs along the columns first, so the row pass
    transforms only the h rows that are kept.
    """
    kh, kw = kernel_shape
    padded = arr[np.ix_(*map(_symmetric_index, arr.shape, (kh // 2, kw // 2)))]
    products = spectrum * np.fft.rfft2(padded)
    rows = np.fft.ifft(products, axis=-2, out=products)[..., kh - 1:, :]
    return np.fft.irfft(rows, n=arr.shape[1] + kw - 1, axis=-1)[..., kw - 1:]


def wavelet_response(img: Image, sigma: float, radius: int | None = None) -> ResponseMap:
    """Signed Mexican-Hat coefficient array of a gray image."""
    if img.channels != 1:
        raise NotGrayscale("wavelet response requires a gray image")
    kernel = mexican_hat_kernel(sigma, radius).values
    arr = img.to_array().astype(np.float64)
    values = _reflect_convolve(arr, kernel.shape, _kernel_spectrum(kernel, arr.shape))
    return ResponseMap(img.width, img.height, values)


# Hough voting ---------------------------------------------------------------

@lru_cache(maxsize=8)
def _line_angles(n_theta: int, theta_step: float) -> tuple:
    """Read-only theta (degrees), cos(theta) and sin(theta) of the line accumulator."""
    thetas = np.arange(n_theta) * theta_step
    rad = np.deg2rad(thetas)
    return _read_only(thetas, np.cos(rad), np.sin(rad))


def hough_lines(edges: Image, theta_step: float = 1.0, threshold: int = 1) -> list[LineHit]:
    """Line hits from a binary edge image (edge pixels are 255).

    rho is accumulated at 1-pixel resolution over x cos(theta) + y sin(theta),
    theta over [0, 180) at theta_step degrees. Cells with >= threshold votes
    are returned sorted by votes descending.
    """
    if edges.channels != 1:
        raise NotGrayscale("edge image must be gray")
    if theta_step <= 0 or (180.0 / theta_step) != round(180.0 / theta_step):
        raise ValueError(f"theta_step {theta_step} must divide 180")
    ys, xs = np.divmod(np.flatnonzero(np.frombuffer(edges.samples, np.uint8) == 255), edges.width)
    if len(xs) == 0:
        return []
    n_theta = int(round(180.0 / theta_step))
    thetas, cos_t, sin_t = _line_angles(n_theta, theta_step)
    diag = int(math.ceil(math.hypot(edges.width - 1, edges.height - 1)))
    n_rho = 2 * diag + 1
    # theta-major tables; the sin product sits in the cell table until rint
    exact = np.multiply.outer(cos_t, xs)
    cell = np.empty(exact.shape, np.int64)
    exact += np.multiply.outer(sin_t, ys, out=cell.view(np.float64))
    np.rint(exact, out=cell, casting="unsafe")
    exact -= cell  # residual to the bin center
    cell += (np.arange(n_theta) * n_rho + diag)[:, None]  # cell t * n_rho + rho + diag
    acc = np.bincount(cell.ravel(), minlength=n_theta * n_rho)
    cells = np.flatnonzero(acc >= threshold)
    if len(cells) == 0:
        return []
    ti, ri = np.divmod(cells, n_rho)
    # equal votes rank by summed residual (the most concentrated theta first),
    # then in (rho, theta) order; only hit theta rows are summed, pixel by pixel
    rows = np.flatnonzero(np.bincount(ti, minlength=n_theta))
    spread = np.stack([np.bincount(cell[c] - c * n_rho, weights=np.abs(exact[c]), minlength=n_rho)
                       for c in rows.tolist()])
    order = np.lexsort((ri * n_theta + ti, spread[np.searchsorted(rows, ti), ri], -acc[cells]))
    return [LineHit(rho, theta, votes) for rho, theta, votes in
            zip((ri[order] - diag).astype(np.float64).tolist(), thetas[ti[order]].tolist(),
                acc[cells[order]].tolist())]


# largest number of circle votes cast in one bincount, and of accumulator
# cells or offsets in one batch of radii; bounds the temporaries
_VOTE_CHUNK = 1 << 18


@lru_cache(maxsize=32)
def _circle_offsets(lo: int, hi: int, angle_step: float, py: int, px: int, gw: int, plane: int):
    """How many radii of lo..hi - 1 reach a center cell, and their sorted,
    distinct, read-only flat offsets within the stack of padded grids."""
    angles = np.deg2rad(np.arange(0.0, 360.0, angle_step))
    radii = np.arange(lo, hi)[:, None]
    dy = np.rint(radii * np.sin(angles)).astype(np.int64)
    dx = np.rint(radii * np.cos(angles)).astype(np.int64)
    keep = (np.abs(dy) <= py) & (np.abs(dx) <= px)
    # along each direction the rounded offset never shrinks as the radius
    # grows, so the radii with a kept offset are a prefix of the batch and
    # no later radius has one
    n = int(np.count_nonzero(keep.any(axis=1)))
    # flat offset within the stack: radius k votes into plane k
    dy *= gw
    dy += dx - (np.arange(hi - lo) * plane)[:, None]
    shifts = np.sort(dy[keep])
    # a pixel reaches each center cell through exactly one offset, so one
    # vote per distinct offset is one vote per pixel per cell
    return n, _read_only(shifts[np.diff(shifts, prepend=shifts[:1] - 1) != 0])[0]


def hough_circles(edges: Image, r_min: int, r_max: int, threshold: int = 1,
                  angle_step: float = 1.0) -> list[CircleHit]:
    """Circle hits via a (cx, cy, r) accumulator.

    Every edge pixel casts one vote per radius into each distinct center cell
    reached along directions sampled at angle_step degrees, so a hit's votes
    count supporting edge pixels. Cells with >= threshold votes are returned
    sorted by votes descending. A threshold <= 0 also lists zero-vote cells,
    but only up to the last radius with a rounded offset inside the image
    (at most w - 1 columns and h - 1 rows); no larger radius reaches a center.
    """
    if edges.channels != 1:
        raise NotGrayscale("edge image must be gray")
    if not 0 < r_min <= r_max:
        raise BadRadiusRange(f"r_min {r_min}, r_max {r_max}")
    ys, xs = np.divmod(np.flatnonzero(np.frombuffer(edges.samples, np.uint8) == 255), edges.width)
    if len(xs) == 0:
        return []
    w, h = edges.width, edges.height
    # votes go to a stack of grids, one per radius of a batch, each padded by
    # py rows and px columns on every side, so none needs a bounds check; an
    # offset longer than a whole image side never reaches a center cell and is
    # dropped
    py, px = min(r_max, h - 1), min(r_max, w - 1)
    gw = w + 2 * px
    plane = (h + 2 * py) * gw
    cells = (ys + py) * gw + (xs + px)
    batch = max(1, _VOTE_CHUNK // max(plane, math.ceil(360.0 / angle_step)))
    found = []
    for lo in range(r_min, r_max + 1, batch):
        n, shifts = _circle_offsets(lo, min(lo + batch, r_max + 1), angle_step, py, px, gw, plane)
        if n == 0:
            break
        step = max(1, _VOTE_CHUNK // len(shifts))
        counts = (np.bincount((cells[i:i + step, None] - shifts).ravel(), minlength=n * plane)
                  for i in range(0, len(cells), step))
        acc = next(counts)
        for more in counts:
            acc += more
        acc = acc.reshape(n, h + 2 * py, gw)[:, py:py + h, px:px + w]
        ks, cys, cxs = np.nonzero(acc >= threshold)
        found.append(np.stack((cxs, cys, lo + ks, acc[ks, cys, cxs])))
    if not found:
        return []
    hits = np.concatenate(found, axis=1)
    hits = hits[:, np.lexsort((hits[2], hits[1], hits[0], -hits[3]))]
    return list(map(CircleHit._make, hits.T.tolist()))


def line_hits_csv(hits: list[LineHit]) -> str:
    rows = ["rho,theta,votes"]
    rows += [f"{h.rho:g},{h.theta:g},{h.votes}" for h in hits]
    return "\n".join(rows) + "\n"


def circle_hits_csv(hits: list[CircleHit]) -> str:
    rows = ["cx,cy,r,votes"]
    rows += [f"{h.cx},{h.cy},{h.radius},{h.votes}" for h in hits]
    return "\n".join(rows) + "\n"


# Gabor + PCA ----------------------------------------------------------------

def gabor_kernel(p: GaborParams) -> np.ndarray:
    """Sampled real Gabor kernel, mean-shifted so flat regions give no response."""
    sigma_x = p.sigma
    sigma_y = p.sigma / p.aspect
    radius = max(1, math.ceil(3.0 * max(sigma_x, sigma_y)))
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    yy, xx = np.meshgrid(offs, offs, indexing="ij")
    c, s = math.cos(p.orientation), math.sin(p.orientation)
    x_rot = xx * c + yy * s
    y_rot = -xx * s + yy * c
    kernel = np.exp(-(x_rot ** 2 + (p.aspect * y_rot) ** 2) / (2.0 * p.sigma ** 2))
    kernel *= np.cos(2.0 * math.pi * x_rot / p.wavelength + p.phase)
    kernel -= kernel.mean()
    return kernel


@lru_cache(maxsize=4)
def _gabor_spectra(params: tuple, image_shape: tuple) -> tuple:
    """(bank positions, kernel shape, read-only spectrum) per distinct kernel size.

    Keyed by the whole bank and the image shape. The spectra of one size
    take 16 * n * (h + kh - 1) * ((w + kw - 1) // 2 + 1) bytes: 210 KB for
    the default bank on a 32x32 crop, 10 MB on 512x512.
    """
    kernels = [gabor_kernel(p) for p in params]
    groups = []
    for shape in dict.fromkeys(k.shape for k in kernels):
        members = tuple(i for i, k in enumerate(kernels) if k.shape == shape)
        spectrum = _kernel_spectrum(np.stack([kernels[i] for i in members]), image_shape)
        groups.append((members, shape) + _read_only(spectrum))
    return tuple(groups)


def gabor_bank(img: Image, params: list[GaborParams]) -> list[ResponseMap]:
    """Response map per bank member, reflect-padded."""
    if img.channels != 1:
        raise NotGrayscale("gabor bank requires a gray image")
    if not params:
        raise EmptyBank("bank has no parameter sets")
    arr = img.to_array().astype(np.float64)
    values = [None] * len(params)
    # one image spectrum and one batched inverse transform per kernel size
    for members, shape, spectrum in _gabor_spectra(tuple(params), arr.shape):
        for i, v in zip(members, _reflect_convolve(arr, shape, spectrum)):
            values[i] = v
    return [ResponseMap(img.width, img.height, v) for v in values]


def pca_project(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k principal components of row vectors and the projected rows.

    Components are the descending-eigenvalue eigenvectors of the
    mean-centered covariance, returned as orthonormal rows with the
    largest-magnitude entry made positive for a deterministic sign.
    """
    data = np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a matrix of at least 2 vectors")
    n, dim = data.shape
    if not 1 <= k <= dim:
        raise ValueError(f"k {k} outside 1..{dim}")
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    if not cov.any():
        raise ZeroVariance("all vectors are identical")
    _, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    components = eigvecs[:, ::-1][:, :k].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    projected = centered @ components.T
    return components, projected
