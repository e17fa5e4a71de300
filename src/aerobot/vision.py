"""Classical vision primitives.

Covers Otsu thresholding, excess-green vegetation density, the Mexican-Hat
wavelet, Hough line/circle voting, and a real Gabor filter bank with PCA.
All convolutions reflect-pad so flat borders stay response-free. The
blackbody power/temperature pair lives in `thermal`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, EmptyDataset, OutOfRange, ZeroVariance, shown
from .raster import Histogram, Image

DEFAULT_EXG_THRESHOLD = 20
# largest wavelet or Gabor kernel radius, px; bounds the (2r+1)^2 kernel and the FFT's 2r padding
MAX_KERNEL_RADIUS = 256
# most line-accumulator angles, a 0.05 degree step; bounds the (angles, edges) vote tables
MAX_THETAS = 3600
# Gabor envelope ellipticity gamma: the Gaussian spreads sigma / gamma along the stripes
GABOR_ASPECT = 0.5


@dataclass(frozen=True)
class ResponseMap:
    """Signed per-pixel filter responses (wavelet or Gabor)."""

    values: np.ndarray  # float64, shape (height, width) of the filtered image


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
    """Real Gabor kernel parameters: zero-phase cosine carrier under a rotated Gaussian."""

    wavelength: float        # carrier period, pixels
    orientation: float       # radians
    sigma: float             # Gaussian envelope scale, pixels

    def __post_init__(self):
        big = sys.float_info.max  # an int past it is below inf but overflows float arithmetic
        if not (0 < self.wavelength <= big and 0 < self.sigma <= big
                and -big <= self.orientation <= big):
            raise ConfigInvalid(f"wavelength {shown(self.wavelength)} and sigma "
                                f"{shown(self.sigma)} must be positive and finite, "
                                f"orientation {shown(self.orientation)} finite")
        # gabor_kernel's radius ceil(3 * sigma / GABOR_ASPECT) passes the cap when its argument does
        if 3.0 * (self.sigma / GABOR_ASPECT) > MAX_KERNEL_RADIUS:
            raise ConfigInvalid(f"kernel radius outside 1..{MAX_KERNEL_RADIUS}: sigma {self.sigma}")
        # an infinite exponent x^2/2sigma^2 or carrier phase 2 pi x/wavelength makes the kernel
        # NaN; a corner tap has x^2 <= 2 radius^2, so x = 2 radius bounds both with room to round
        radius = math.ceil(3.0 * (self.sigma / GABOR_ASPECT))
        two_s2 = 2.0 * self.sigma ** 2
        if (two_s2 == 0.0 or (2.0 * radius) ** 2 / two_s2 == math.inf
                or 2.0 * math.pi * (2.0 * radius) / self.wavelength == math.inf):
            raise ConfigInvalid(f"sigma {self.sigma} or wavelength {self.wavelength} too small: "
                                f"the kernel overflows at radius {radius}")


def default_gabor_bank() -> list[GaborParams]:
    """Four-orientation bank (0, 45, 90, 135 degrees), wavelength 8 px, sigma 4 px."""
    return [GaborParams(8.0, i * math.pi / 4, 4.0) for i in range(4)]


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
        raise EmptyDataset("histogram is empty")
    nonzero = [v for v in range(256) if bins[v] > 0]
    if len(nonzero) == 1:
        raise ZeroVariance(f"all mass in bin {nonzero[0]}; "
                           "between-class variance is 0 everywhere")

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
        raise DimensionMismatch("green density requires an RGB image")
    rgb = img.to_array().astype(np.int16)  # ExG spans -510..510
    exg = 2 * rgb[:, :, 1] - rgb[:, :, 0] - rgb[:, :, 2]
    green = exg > exg_threshold
    fraction = float(np.count_nonzero(green)) / (img.width * img.height)
    mask = Image.from_array(green.view(np.uint8) * np.uint8(255))
    return GreenDensity(fraction, mask)


# Mexican-Hat wavelet --------------------------------------------------------

def mexican_hat_kernel(sigma: float) -> np.ndarray:
    """Square (1 - r^2/2s^2)exp(-r^2/2s^2) kernel, mean-shifted to sum to zero.

    The zero sum makes constant regions vanish under convolution. The radius
    is ceil(4*sigma), which captures the full ripple; a radius past
    MAX_KERNEL_RADIUS, or a sigma so small that r^2/2s^2 passes float range
    at the kernel's corner, raises OutOfRange before anything is built.
    """
    if not 0 < sigma < math.inf:
        raise OutOfRange(f"sigma {shown(sigma)} must be positive and finite")
    # ceil(4 * sigma) passes an integer bound exactly when 4 * sigma does, and is >= 1
    if 4 * sigma > MAX_KERNEL_RADIUS:
        raise OutOfRange(f"kernel radius outside 1..{MAX_KERNEL_RADIUS}: sigma {shown(sigma)}")
    radius = math.ceil(4 * sigma)
    # an infinite u makes (1 - u) * exp(-u) NaN; r^2 is largest, 2 radius^2, at a corner
    two_s2 = 2.0 * float(sigma) * float(sigma)
    if two_s2 == 0.0 or 2.0 * radius * radius / two_s2 == math.inf:
        raise OutOfRange(f"sigma {sigma} too small: r^2/2sigma^2 overflows at radius {radius}")
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    r2 = offs[:, None] ** 2 + offs[None, :] ** 2
    u = r2 / two_s2
    kernel = (1.0 - u) * np.exp(-u)
    return kernel - kernel.mean()


def _kernel_spectrum(kernels: np.ndarray, image_shape: tuple) -> np.ndarray:
    """rfft2 of one (kh, kw) kernel or a stack (n, kh, kw) at the padded size.

    The padded input is (h + kh - 1, w + kw - 1), so a circular convolution
    of that size wraps only into the rows and columns that are cut away.
    """
    kh, kw = kernels.shape[-2:]
    return np.fft.rfft2(kernels, s=(image_shape[0] + kh - 1, image_shape[1] + kw - 1))


def _reflect_convolve(arr: np.ndarray, kernel_shape: tuple, spectrum: np.ndarray) -> np.ndarray:
    """2-D convolution with edge-repeating reflect padding, by FFT.

    spectrum is `_kernel_spectrum` of kernels shaped kernel_shape for an
    image shaped like arr; the image, uint8 pixels or float64, is padded by
    `np.pad(mode="symmetric")` and transformed once for the whole stack
    (rfft2 reads uint8 as float64 exactly). The inverse runs along the
    columns first, so the row pass transforms only the h rows that are kept.
    """
    kh, kw = kernel_shape
    padded = np.pad(arr, ((kh // 2,) * 2, (kw // 2,) * 2), mode="symmetric")
    products = spectrum * np.fft.rfft2(padded)
    rows = np.fft.ifft(products, axis=-2, out=products)[..., kh - 1:, :]
    return np.fft.irfft(rows, n=arr.shape[1] + kw - 1, axis=-1)[..., kw - 1:]


def wavelet_response(img: Image, sigma: float) -> ResponseMap:
    """Signed Mexican-Hat coefficient array of a gray image."""
    if img.channels != 1:
        raise DimensionMismatch("wavelet response requires a gray image")
    kernel = mexican_hat_kernel(sigma)
    arr = img.to_array()
    values = _reflect_convolve(arr, kernel.shape, _kernel_spectrum(kernel, arr.shape))
    return ResponseMap(values)


# Hough voting ---------------------------------------------------------------

def hough_lines(edges: Image, theta_step: float = 1.0, threshold: int = 1) -> list[LineHit]:
    """Line hits from a binary edge image (edge pixels are 255).

    rho is accumulated at 1-pixel resolution over x cos(theta) + y sin(theta),
    theta over [0, 180) at theta_step degrees. Cells with >= threshold votes
    are returned sorted by votes descending. A theta_step must divide 180
    into at most MAX_THETAS angles and the threshold be at least 1 (not NaN),
    or OutOfRange is raised.
    """
    if edges.channels != 1:
        raise DimensionMismatch("edge image must be gray")
    if not threshold >= 1:  # below 1 vote every cell is a hit, a list that grows with the image
        raise OutOfRange(f"threshold {shown(threshold)} must be at least 1")
    # 180.0 over an int past float range overflows; 180 over it is 0.0, which the bound refuses
    n_theta = 180 / theta_step if 0 < theta_step < math.inf else math.inf
    if not 1 <= n_theta <= MAX_THETAS or n_theta != round(n_theta):
        raise OutOfRange(f"theta_step {shown(theta_step)} must divide 180 in at most {MAX_THETAS} "
                         "steps")
    ys, xs = np.divmod(np.flatnonzero(np.frombuffer(edges.samples, np.uint8) == 255), edges.width)
    if len(xs) == 0:
        return []
    n_theta = int(round(n_theta))
    thetas = np.arange(n_theta) * theta_step
    rad = np.deg2rad(thetas)
    diag = int(math.ceil(math.hypot(edges.width - 1, edges.height - 1)))
    n_rho = 2 * diag + 1
    # theta-major tables; the sin product sits in the cell table until rint
    exact = np.multiply.outer(np.cos(rad), xs)
    cell = np.empty(exact.shape, np.int64)
    exact += np.multiply.outer(np.sin(rad), ys, out=cell.view(np.float64))
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
def _circle_offsets(lo: int, hi: int, py: int, px: int, gw: int, plane: int):
    """How many radii of lo..hi - 1 reach a center cell, and their sorted,
    distinct, read-only flat offsets within the stack of padded grids."""
    angles = np.deg2rad(np.arange(360.0))  # one direction per degree
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
    shifts = shifts[np.diff(shifts, prepend=shifts[:1] - 1) != 0]
    shifts.flags.writeable = False
    return n, shifts


def hough_circles(edges: Image, r_min: int, r_max: int, threshold: int = 1) -> list[CircleHit]:
    """Circle hits via a (cx, cy, r) accumulator.

    Every edge pixel casts one vote per radius into each distinct center cell
    reached along 360 directions, one per degree, so a hit's votes count
    supporting edge pixels. Cells with >= threshold votes are returned
    sorted by votes descending; a threshold below 1, or NaN, raises OutOfRange.
    """
    if edges.channels != 1:
        raise DimensionMismatch("edge image must be gray")
    if not threshold >= 1:
        raise OutOfRange(f"threshold {shown(threshold)} must be at least 1")
    if not 0 < r_min <= r_max:
        raise OutOfRange(f"need 0 < r_min <= r_max, got {shown(r_min)} and {shown(r_max)}")
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
    batch = max(1, _VOTE_CHUNK // max(plane, 360))
    found = []
    for lo in range(r_min, min(r_max, w + h) + 1, batch):  # no radius past w + h reaches a center
        n, shifts = _circle_offsets(lo, min(lo + batch, r_max + 1), py, px, gw, plane)
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
    radius = math.ceil(3.0 * (p.sigma / GABOR_ASPECT))
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    yy, xx = np.meshgrid(offs, offs, indexing="ij")
    c, s = math.cos(p.orientation), math.sin(p.orientation)
    x_rot = xx * c + yy * s
    y_rot = -xx * s + yy * c
    kernel = np.exp(-(x_rot ** 2 + (GABOR_ASPECT * y_rot) ** 2) / (2.0 * p.sigma ** 2))
    kernel *= np.cos(2.0 * math.pi * x_rot / p.wavelength)
    return kernel - kernel.mean()


@lru_cache(maxsize=4)
def _gabor_spectra(params: tuple, image_shape: tuple) -> tuple:
    """Kernel shape and read-only spectrum stack of a bank, each kernel zero-padded
    to the bank's largest (odd, square) side: the added taps are zero and a wider
    reflect pad repeats the same nearest pixels, so every response is unchanged.
    The stack takes 16 * n * (h + k - 1) * ((w + k - 1) // 2 + 1) bytes: 210 KB
    for the default bank on a 32x32 crop, 10 MB on 512x512.
    """
    kernels = [gabor_kernel(p) for p in params]
    side = max(len(k) for k in kernels)
    stack = np.stack([np.pad(k, (side - len(k)) // 2) for k in kernels])
    spectrum = _kernel_spectrum(stack, image_shape)
    spectrum.flags.writeable = False
    return stack.shape[1:], spectrum


def gabor_bank(img: Image, params: list[GaborParams]) -> list[ResponseMap]:
    """Response map per bank member, reflect-padded, from one batched convolution."""
    if img.channels != 1:
        raise DimensionMismatch("gabor bank requires a gray image")
    if not params:
        raise EmptyDataset("bank has no parameter sets")
    arr = img.to_array()
    values = _reflect_convolve(arr, *_gabor_spectra(tuple(params), arr.shape))
    return [ResponseMap(v) for v in values]


def pca_project(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k principal components of row vectors and the projected rows.

    Components are the descending-eigenvalue eigenvectors of the
    mean-centered covariance, returned as orthonormal rows with the
    largest-magnitude entry made positive for a deterministic sign. It calls BLAS
    and LAPACK, so the last bits may vary with their kernels; no pinned
    output (golden CLI stdout or trace digest) reads it.
    """
    data = np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise DimensionMismatch("need a matrix of at least 2 vectors")
    n, dim = data.shape
    if not 1 <= k <= dim:
        raise OutOfRange(f"k {shown(k)} outside 1..{dim}")
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
