"""Sidewalk-edge inspection: find the painted curb strip, read its blocks,
and decide which ones need repainting.

The strip is the horizontal band with the strongest Mexican-Hat response.
Its blocks are averaged, every run of three consecutive blocks is encoded
as a ternary probe (+1 bright, -1 dark, 0 vague), and a three-neuron
Hopfield memory storing the two alternation patterns recalls the nearest
intact pattern, once per distinct probe: only 27 exist. Blocks where the
probe disagrees with the recalled pattern are flagged for paint;
overlapping segments vote, and any vote flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .errors import (ConfigInvalid, DimensionMismatch, NonBipolarPattern, NonConvergent,
                     NoStripFound, OutOfRange)
from .neural import HopfieldNet, hopfield_recall, hopfield_train
from .raster import Image, to_grayscale
from .vision import wavelet_response

# the two intact alternation patterns a three-block window can show
FUNDAMENTAL_PATTERNS = ((1, -1, 1), (-1, 1, -1))

# a block mean at or above BRIGHT_MIN encodes +1, at or below DARK_MAX -1, else 0
BRIGHT_MIN = 0.7
DARK_MAX = 0.3
# mean |wavelet response| per pixel the strongest band must reach
MIN_RESPONSE = 1.0
# Hopfield sweeps before a segment is unresolved
MAX_ITER = 10

INTACT = "intact"
PAINT = "paint"
UNRESOLVED = "unresolved"


@cache
def sidewalk_memory() -> HopfieldNet:
    """Three-neuron Hopfield net storing both alternation patterns, trained once."""
    return hopfield_train(FUNDAMENTAL_PATTERNS)


@dataclass(frozen=True)
class PaintDecision:
    """Verdict for one segment; paint_blocks holds global block indices."""

    start: int
    encoded: tuple
    vertex: tuple | None
    verdict: str
    paint_blocks: tuple = ()

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "encoded": list(self.encoded),
            "vertex": list(self.vertex) if self.vertex is not None else None,
            "verdict": self.verdict,
            "paint_blocks": list(self.paint_blocks),
        }


@dataclass(frozen=True)
class InspectConfig:
    sigma: float = 2.0
    block_length: int = 8

    def __post_init__(self):
        if self.block_length < 1:
            raise ConfigInvalid(f"block_length {self.block_length} below 1")


@dataclass(frozen=True)
class InspectionReport:
    decisions: tuple
    flagged_blocks: tuple
    band_top: int
    block_length: int
    n_blocks: int

    def to_dict(self) -> dict:
        return {
            "band_top": self.band_top,
            "block_length": self.block_length,
            "n_blocks": self.n_blocks,
            "segments": [d.to_dict() for d in self.decisions],
            "flagged_blocks": list(self.flagged_blocks),
        }


def extract_strip(img: Image, config: InspectConfig) -> tuple[np.ndarray, int]:
    """Locate the band with the strongest wavelet response and split it.

    The band is config.block_length rows tall; the window of rows maximizing
    the summed |response| wins. Returns the read-only mean intensity in [0, 1]
    of each block, left to right, and the band's top row: block j is the
    block_length square at row band_top, column j*block_length. Raises
    NoStripFound when the winner's mean |response| per pixel stays under
    MIN_RESPONSE (flat images).
    """
    block_length = config.block_length
    gray = to_grayscale(img)
    if gray.height <= block_length or gray.width < block_length:
        raise OutOfRange(f"frame {gray.width}x{gray.height} too small for block {block_length}")
    response = wavelet_response(gray, config.sigma)
    row_strength = np.abs(response.values).sum(axis=1)
    window = np.convolve(row_strength, np.ones(block_length), mode="valid")
    top = int(np.argmax(window))
    if window[top] / (block_length * gray.width) < MIN_RESPONSE:
        raise NoStripFound(f"best band response {window[top]:.3g} under the floor")

    n = gray.width // block_length
    band = gray.to_array()[top:top + block_length, :n * block_length]
    # block sums are integers below 2**53, so any summation order is exact
    means = band.reshape(block_length, n, block_length).mean(axis=(0, 2)) / 255.0
    means.flags.writeable = False
    return means, top


def encode_ternary(means) -> np.ndarray:
    """Map block means to int codes {+1 bright, -1 dark, 0 vague}."""
    means = np.asarray(means)
    return np.where(means >= BRIGHT_MIN, 1, np.where(means <= DARK_MAX, -1, 0))


# a code equal to -1, 0 or +1 (an int, bool, float or numpy number) maps to that int
_CODES = {-1: -1, 0: 0, 1: 1}


@lru_cache(maxsize=27)
def _recall(probe: tuple) -> tuple:
    """(vertex, verdict) of a ternary probe; only a stored pattern recalls itself, as intact."""
    try:
        state, _ = hopfield_recall(sidewalk_memory(), probe, max_iter=MAX_ITER)
    except NonConvergent:
        return None, UNRESOLVED
    vertex = tuple(int(v) for v in state)
    return vertex, INTACT if vertex == probe else PAINT


def classify_segment(encoded, start: int = 0) -> PaintDecision:
    """Look up the nearest pattern of sidewalk_memory() and flag the disagreeing blocks."""
    try:
        segment = tuple(encoded)
    except TypeError:
        raise DimensionMismatch("a segment is a sequence of 3 codes") from None
    if len(segment) != 3:
        raise DimensionMismatch(f"a segment holds 3 codes, got {len(segment)}")
    try:
        probe = tuple(map(_CODES.__getitem__, segment))
    except (KeyError, TypeError):  # 1.5, text, 10**400 or a list; the message leaves it out
        raise NonBipolarPattern("codes must be -1, 0 or +1") from None
    vertex, verdict = _recall(probe)
    paint = (tuple(start + i for i in range(3) if probe[i] != vertex[i])
             if verdict == PAINT else ())
    return PaintDecision(start, probe, vertex, verdict, paint)


def inspect(img: Image, config: InspectConfig = InspectConfig()) -> tuple[InspectionReport, Image]:
    """Full pipeline over one image; returns the report and an overlay.

    A stride-1 window turns blocks into overlapping three-block segments;
    every segment is classified independently and a block is flagged when
    any covering segment votes for it. Flagged blocks are outlined at 255
    in a grayscale copy of the source.
    """
    gray = to_grayscale(img)
    means, band_top = extract_strip(gray, config)
    codes = encode_ternary(means).tolist()
    decisions = [classify_segment(codes[s:s + 3], start=s) for s in range(len(codes) - 2)]
    flagged = {i for decision in decisions for i in decision.paint_blocks}

    overlay_arr = gray.to_array().copy()
    length = config.block_length
    for idx in flagged:
        box = overlay_arr[band_top:band_top + length,
                          idx * length:(idx + 1) * length]
        box[[0, -1], :] = 255
        box[:, [0, -1]] = 255
    overlay = Image.from_array(overlay_arr)

    report = InspectionReport(tuple(decisions), tuple(sorted(flagged)),
                              band_top, length, len(codes))
    return report, overlay


# Synthetic ground truth -------------------------------------------------------

# generator gray levels; erased blocks and the ground around the band are BACKGROUND_LEVEL
BRIGHT_LEVEL = 230
DARK_LEVEL = 25
BACKGROUND_LEVEL = 128


@dataclass(frozen=True)
class SidewalkParams:
    """Generator settings for a striped curb with known erased blocks."""

    n_blocks: int = 12
    block_length: int = 8
    image_height: int = 48
    band_top: int = 16
    noise_sigma: float = 0.0
    erased_blocks: tuple = field(default_factory=tuple)
    first_block_bright: bool = True


def generate_sidewalk(params: SidewalkParams, seed: int = 0) -> Image:
    """Render a striped band on a flat background, with erased blocks and noise."""
    j = np.arange(params.n_blocks)
    levels = np.where((j % 2 == 0) == params.first_block_bright, BRIGHT_LEVEL, DARK_LEVEL)
    # on a dozen blocks, isin's default table kind costs more than the painting
    levels[np.isin(j, params.erased_blocks, kind="sort")] = BACKGROUND_LEVEL
    band = np.repeat(levels, params.block_length)
    arr = np.full((params.image_height, band.size), BACKGROUND_LEVEL, dtype=np.float64)
    arr[params.band_top:params.band_top + params.block_length] = band
    if params.noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        arr += rng.normal(0.0, params.noise_sigma, size=arr.shape)
    arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    return Image.from_array(arr)
