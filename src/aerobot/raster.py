"""8-bit raster images and the Netpbm (PGM/PPM) codec.

Images are immutable: ``samples`` is a bytes object laid out row-major
and channel-interleaved. All vision pipelines ingest and emit this type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    MaxvalUnsupported,
    NonPositiveDimensions,
    NotGrayscale,
    TruncatedData,
)

# BT.601 luma weights; the RGB -> gray rule used everywhere in the package.
_LUMA_R, _LUMA_G, _LUMA_B = 0.299, 0.587, 0.114


@dataclass(frozen=True)
class Image:
    """Raster with 1 (gray) or 3 (RGB) channels of 8-bit samples."""

    width: int
    height: int
    channels: int
    samples: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be positive, got {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        expected = self.width * self.height * self.channels
        if len(self.samples) != expected:
            raise ValueError(f"expected {expected} samples, got {len(self.samples)}")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        """Build from an (h, w) or (h, w, 3) uint8-compatible array."""
        a = np.asarray(arr)
        if a.ndim == 2:
            channels = 1
        elif a.ndim == 3 and a.shape[2] == 3:
            channels = 3
        else:
            raise ValueError(f"unsupported array shape {a.shape}")
        if a.dtype != np.uint8:
            if a.min() < 0 or a.max() > 255:
                raise ValueError("sample values outside 0..255")
            a = a.astype(np.uint8)
        h, w = a.shape[:2]
        return cls(w, h, channels, a.tobytes())

    def to_array(self) -> np.ndarray:
        """Read-only uint8 view shaped (h, w) or (h, w, 3)."""
        a = np.frombuffer(self.samples, dtype=np.uint8)
        if self.channels == 1:
            return a.reshape(self.height, self.width)
        return a.reshape(self.height, self.width, 3)

    def pixel(self, x: int, y: int):
        """Sample at column x, row y: an int for gray, an (r, g, b) tuple for RGB."""
        i = (y * self.width + x) * self.channels
        if self.channels == 1:
            return self.samples[i]
        return tuple(self.samples[i:i + 3])


@dataclass(frozen=True)
class Histogram:
    """Counts of the 256 gray levels of a single-channel image."""

    bins: tuple

    def __post_init__(self):
        if len(self.bins) != 256:
            raise ValueError(f"histogram needs 256 bins, got {len(self.bins)}")

    def total(self) -> int:
        return sum(self.bins)


# PNM codec ---------------------------------------------------------------

_MAGIC_CHANNELS = {b"P2": 1, b"P3": 3, b"P5": 1, b"P6": 3}
_MAGIC_ASCII = {b"P2", b"P3"}
_COMMENT = re.compile(rb"#[^\n\r]*")
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"  # bytes.isspace() whitespace
# whitespace and '#' comments to end of line, then the next header token
_TOKEN = re.compile(rb"(?:\s|" + _COMMENT.pattern + rb")*([^\s#]*)")


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """Next header token as an int; only plain decimal digits are accepted."""
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise TruncatedData("header ended early")
    if not match[1].isdigit():
        raise TruncatedData(f"bad {what} token {match[1]!r}")
    return int(match[1]), match.end()


def _decimal_samples(body: bytes, count: int) -> np.ndarray:
    """The first count tokens of body, which holds only digits and whitespace.

    A sample is its token's last three digits, whitespace reading as a zero
    digit; a non-zero digit followed by three more digits is 1000 or more.
    """
    # two spaces give every token two bytes ahead of it; one ends the last token
    d = np.frombuffer(b"".join((b"  ", body, b" ")), np.uint8)
    digit = d >= 48  # every other byte left is whitespace
    ends = np.flatnonzero(digit[2:-1] > digit[3:])[:count]  # token ends, as d[2:] offsets
    if len(ends) < count:
        raise TruncatedData(f"raster has {len(ends)} of {count} samples")
    n = ends[-1] + 3
    head = digit[:n]
    if np.any((d[:n - 3] > 48) & head[1:-2] & head[2:-1] & head[3:]):
        raise TruncatedData("raster holds a sample of 1000 or more")
    v = (d - 48) * digit  # digit values, whitespace reads as 0
    pairs = v[1:] + v[:-1] * np.uint8(10)  # last two digits of the token ending at d[i + 1]
    pairs *= digit[1:]
    return v[2:][ends] + pairs[ends] * np.uint16(10)


def parse_pnm(data: bytes) -> Image:
    """Decode a P2/P3 (ASCII) or P5/P6 (binary) image, maxval <= 255."""
    magic = data[:2]
    if magic not in _MAGIC_CHANNELS:
        raise BadMagic(f"unsupported magic {magic!r}")
    channels = _MAGIC_CHANNELS[magic]
    pos = 2
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width <= 0 or height <= 0:
        raise NonPositiveDimensions(f"{width}x{height}")
    maxval, pos = _int_token(data, pos, "maxval")
    if not 1 <= maxval <= 255:
        raise MaxvalUnsupported(f"maxval {maxval} outside 1..255")

    count = width * height * channels
    if magic in _MAGIC_ASCII:
        # only digits and whitespace may remain once comments are dropped, so
        # signs, underscores and partial tokens such as 12abc are rejected
        body = data[pos:] if data.find(b"#", pos) < 0 else _COMMENT.sub(b" ", data[pos:])
        if body.translate(None, _DIGITS_AND_SPACE):
            raise TruncatedData("raster holds a byte that is neither a digit nor whitespace")
        values = _decimal_samples(body, count)
    else:
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or not data[pos:pos + 1].isspace():
            raise TruncatedData("missing raster separator")
        values = np.frombuffer(data, np.uint8, offset=pos + 1)[:count]
    if len(values) < count:
        raise TruncatedData(f"raster has {len(values)} of {count} samples")
    top = int(values.max())
    if top > maxval:
        raise TruncatedData(f"sample {top} outside 0..{maxval}")
    return Image(width, height, channels, values.astype(np.uint8, copy=False).tobytes())


def write_pnm(img: Image, ascii: bool = False) -> bytes:
    """Encode to P5/P6, or P2/P3 when ``ascii`` is set; inverse of parse_pnm."""
    if ascii:
        magic = "P2" if img.channels == 1 else "P3"
        header = f"{magic}\n{img.width} {img.height}\n255\n"
        per_row = img.width * img.channels
        lines = []
        for y in range(img.height):
            row = img.samples[y * per_row:(y + 1) * per_row]
            lines.append(" ".join(str(v) for v in row))
        return (header + "\n".join(lines) + "\n").encode("ascii")
    magic = "P5" if img.channels == 1 else "P6"
    header = f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.samples


def to_grayscale(img: Image) -> Image:
    """BT.601 luma with round-half-up; gray input is returned unchanged."""
    if img.channels == 1:
        return img
    rgb = img.to_array()
    # ((R*0.299 + G*0.587) + B*0.114) + 0.5 in float64; this order fixes each rounding
    luma = np.multiply(rgb[:, :, 0], _LUMA_R, dtype=np.float64)
    luma += np.multiply(rgb[:, :, 1], _LUMA_G, dtype=np.float64)
    luma += np.multiply(rgb[:, :, 2], _LUMA_B, dtype=np.float64)
    luma += 0.5
    return Image.from_array(np.floor(luma, out=luma).astype(np.uint8))


def histogram(img: Image) -> Histogram:
    """Gray-level counts; bins sum to width*height."""
    if img.channels != 1:
        raise NotGrayscale("histogram requires a gray image")
    counts = np.bincount(np.frombuffer(img.samples, dtype=np.uint8), minlength=256)
    return Histogram(tuple(counts.tolist()))
