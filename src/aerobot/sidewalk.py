"""Sidewalk-edge inspection: find the painted curb strip, read its blocks,
and decide which ones need repainting.

The strip is the horizontal band with the strongest Mexican-Hat response.
Its blocks are averaged, every run of three consecutive blocks is encoded
as a ternary vector (+1 bright, -1 dark, 0 vague), and a three-neuron
Hopfield memory storing the two alternation patterns recalls the nearest
intact pattern. Blocks where the probe disagrees with the recalled pattern
are flagged for paint; overlapping segments vote, and any vote flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BadThresholds, ConfigInvalid, NonConvergent, NoStripFound
from .neural import HopfieldNet, hopfield_recall, hopfield_train
from .raster import Image, to_grayscale
from .vision import wavelet_response

# the two intact alternation patterns a three-block window can show
FUNDAMENTAL_PATTERNS = ((1, -1, 1), (-1, 1, -1))

INTACT = "intact"
PAINT = "paint"
UNRESOLVED = "unresolved"


def sidewalk_memory() -> HopfieldNet:
    """Three-neuron Hopfield net storing both alternation patterns."""
    return hopfield_train(FUNDAMENTAL_PATTERNS, 3)


@dataclass(frozen=True, eq=False)
class BlockStrip:
    """Read-only mean intensity in [0, 1] of each block, left to right.

    Block j is the block_length square at row band_top, column j*block_length.
    """

    means: np.ndarray
    band_top: int
    block_length: int


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
    bright_min: float = 0.7
    dark_max: float = 0.3
    min_response: float = 1.0  # mean |wavelet response| floor for the band
    max_iter: int = 10

    def __post_init__(self):
        if not 0.0 <= self.dark_max < self.bright_min <= 1.0:
            raise BadThresholds(f"dark_max {self.dark_max}, bright_min {self.bright_min}")
        if self.block_length < 1 or self.max_iter < 1:
            raise ConfigInvalid(f"block_length {self.block_length}, max_iter {self.max_iter}")


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


def extract_strip(img: Image, sigma: float = 2.0, block_length: int = 8,
                  min_response: float = 1.0) -> BlockStrip:
    """Locate the band with the strongest wavelet response and split it.

    The band is block_length rows tall; the window of rows maximizing the
    summed |response| wins. Raises NoStripFound when the winner's mean
    |response| per pixel stays under min_response (flat images).
    """
    if block_length < 1:
        raise ConfigInvalid(f"block_length {block_length} below 1")
    gray = to_grayscale(img)
    if gray.height <= block_length or gray.width < block_length:
        raise ValueError("image smaller than one block")
    response = wavelet_response(gray, sigma)
    row_strength = np.abs(response.values).sum(axis=1)
    window = np.convolve(row_strength, np.ones(block_length), mode="valid")
    top = int(np.argmax(window))
    if window[top] / (block_length * gray.width) < min_response:
        raise NoStripFound(f"best band response {window[top]:.3g} under the floor")

    n = gray.width // block_length
    band = gray.to_array()[top:top + block_length, :n * block_length]
    # block sums are integers below 2**53, so any summation order is exact
    means = band.reshape(block_length, n, block_length).mean(axis=(0, 2)) / 255.0
    means.flags.writeable = False
    return BlockStrip(means, top, block_length)


def encode_ternary(means, bright_min: float = 0.7, dark_max: float = 0.3) -> np.ndarray:
    """Map block means to int codes {+1 bright, -1 dark, 0 vague}."""
    if not 0.0 <= dark_max < bright_min <= 1.0:
        raise BadThresholds(f"dark_max {dark_max}, bright_min {bright_min}")
    means = np.asarray(means)
    return np.where(means >= bright_min, 1, np.where(means <= dark_max, -1, 0))


def classify_segment(encoded, net: HopfieldNet, start: int = 0,
                     max_iter: int = 10) -> PaintDecision:
    """Recall the nearest stored pattern and flag the disagreeing blocks."""
    encoded = tuple(int(v) for v in encoded)
    if encoded in net.stored_patterns:
        return PaintDecision(start, encoded, encoded, INTACT)
    try:
        state, _ = hopfield_recall(net, encoded, max_iter=max_iter)
    except NonConvergent:
        return PaintDecision(start, encoded, None, UNRESOLVED)
    vertex = tuple(int(v) for v in state)
    mismatched = tuple(start + i for i in range(3) if encoded[i] != vertex[i])
    return PaintDecision(start, encoded, vertex, PAINT, mismatched)


def inspect(img: Image, config: InspectConfig = InspectConfig()) -> tuple[InspectionReport, Image]:
    """Full pipeline over one image; returns the report and an overlay.

    A stride-1 window turns blocks into overlapping three-block segments;
    every segment is classified independently and a block is flagged when
    any covering segment votes for it. Flagged blocks are outlined at 255
    in a grayscale copy of the source.
    """
    gray = to_grayscale(img)
    strip = extract_strip(gray, config.sigma, config.block_length, config.min_response)
    net = sidewalk_memory()
    codes = encode_ternary(strip.means, config.bright_min, config.dark_max).tolist()
    decisions = []
    flagged = set()
    for start in range(len(codes) - 2):
        decision = classify_segment(codes[start:start + 3], net, start=start,
                                    max_iter=config.max_iter)
        decisions.append(decision)
        flagged.update(decision.paint_blocks)

    overlay_arr = gray.to_array().copy()
    length = strip.block_length
    for idx in flagged:
        box = overlay_arr[strip.band_top:strip.band_top + length,
                          idx * length:(idx + 1) * length]
        box[[0, -1], :] = 255
        box[:, [0, -1]] = 255
    overlay = Image.from_array(overlay_arr)

    report = InspectionReport(tuple(decisions), tuple(sorted(flagged)),
                              strip.band_top, length, len(codes))
    return report, overlay


# Synthetic ground truth -------------------------------------------------------

@dataclass(frozen=True)
class SidewalkParams:
    """Generator settings for a striped curb with known erased blocks."""

    n_blocks: int = 12
    block_length: int = 8
    image_height: int = 48
    band_top: int = 16
    bright: int = 230
    dark: int = 25
    background: int = 128  # erased blocks fall back to this level
    noise_sigma: float = 0.0
    erased_blocks: tuple = field(default_factory=tuple)
    first_block_bright: bool = True

    @classmethod
    def from_json(cls, text: str) -> "SidewalkParams":
        doc = json.loads(text)
        doc["erased_blocks"] = tuple(doc.get("erased_blocks", ()))
        return cls(**doc)

    def to_json(self) -> str:
        doc = dict(self.__dict__)
        doc["erased_blocks"] = list(self.erased_blocks)
        return json.dumps(doc, indent=2)


def generate_sidewalk(params: SidewalkParams, seed: int = 0) -> Image:
    """Render a striped band on a flat background, with erased blocks and noise."""
    width = params.n_blocks * params.block_length
    arr = np.full((params.image_height, width), params.background, dtype=np.float64)
    for j in range(params.n_blocks):
        bright = (j % 2 == 0) == params.first_block_bright
        value = params.background if j in params.erased_blocks else (
            params.bright if bright else params.dark)
        x0 = j * params.block_length
        arr[params.band_top:params.band_top + params.block_length,
            x0:x0 + params.block_length] = value
    if params.noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        arr += rng.normal(0.0, params.noise_sigma, size=arr.shape)
    arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    return Image.from_array(arr)
