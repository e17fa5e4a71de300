"""8-bit raster images and the Netpbm (PGM/PPM) codec.

Images are immutable: ``samples`` is a bytes object laid out row-major
and channel-interleaved. All vision pipelines ingest and emit this type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, ParseError, shown

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
        # a float or bool size would reach write_pnm's header, which parse_pnm refuses
        if not all(type(n) is int or isinstance(n, np.integer) for n in (self.width, self.height)):
            raise OutOfRange(f"width and height must be integers, got {type(self.width).__name__} "
                             f"and {type(self.height).__name__}")
        if self.width < 1 or self.height < 1:
            raise OutOfRange(f"width and height must be positive, got "
                             f"{shown(self.width)}x{shown(self.height)}")
        if self.channels not in (1, 3):
            raise OutOfRange(f"channels must be 1 or 3, got {shown(self.channels)}")
        expected = self.width * self.height * self.channels
        if len(self.samples) != expected:
            raise DimensionMismatch(f"expected {shown(expected)} samples, got {len(self.samples)}")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        """Build from an (h, w) or (h, w, 3) uint8-compatible array."""
        a = np.asarray(arr)
        if a.ndim == 2:
            channels = 1
        elif a.ndim == 3 and a.shape[2] == 3:
            channels = 3
        else:
            raise DimensionMismatch(f"unsupported array shape {a.shape}")
        if a.dtype != np.uint8:
            # NaN fails both comparisons; an empty array meets the width and height check
            if a.size and not (a.min() >= 0 and a.max() <= 255):
                raise OutOfRange("sample values outside 0..255")
            a = a.astype(np.uint8)
        h, w = a.shape[:2]
        return cls(w, h, channels, a.tobytes())

    def to_array(self) -> np.ndarray:
        """Read-only uint8 view shaped (h, w) or (h, w, 3)."""
        a = np.frombuffer(self.samples, dtype=np.uint8)
        if self.channels == 1:
            return a.reshape(self.height, self.width)
        return a.reshape(self.height, self.width, 3)


@dataclass(frozen=True)
class Histogram:
    """Counts of the 256 gray levels of a single-channel image."""

    bins: tuple

    def __post_init__(self):
        if len(self.bins) != 256:
            raise DimensionMismatch(f"histogram needs 256 bins, got {len(self.bins)}")


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
        raise ParseError("header ended early")
    if not match[1].isdigit():
        raise ParseError(f"bad {what} token {match[1]!r}")
    try:
        return int(match[1]), match.end()
    except ValueError:  # past int()'s digit limit, so past any sample count a file can hold
        raise ParseError(f"{what} token has {len(match[1])} digits") from None


def _decimal_samples(body: bytes | memoryview, count: int) -> np.ndarray:
    """The first count tokens of body, which must hold only digits and whitespace.

    A sample is its token's last three digits, whitespace reading as a zero
    digit; a non-zero digit followed by three more digits is 1000 or more.
    """
    # the result comes ahead of the text-sized temporaries in the heap; placed
    # after them, it kept a long decode-and-filter loop's peak RSS 0.5 MB higher.
    # A body holds fewer tokens than bytes, so an overstated count allocates little.
    values = np.empty(min(count, len(body)), np.uint16)
    # two spaces give every token two bytes ahead of it; one ends the last token
    text = bytearray().join((b"  ", body, b" "))
    # signs, underscores and partial tokens such as 12abc are rejected
    if text.translate(None, _DIGITS_AND_SPACE):
        raise ParseError("raster holds a byte that is neither a digit nor whitespace")
    d = np.frombuffer(text, np.uint8)  # writable, so the arithmetic below runs in place
    digit = d >= 48  # every other byte left is whitespace
    ends = np.flatnonzero(digit[2:-1] > digit[3:])[:count]  # token ends, as d[2:] offsets
    if len(ends) < count:
        raise ParseError(f"raster has {len(ends)} of {shown(count)} samples")
    n = ends[-1] + 3
    big = d[:n - 3] > 48
    for k in (1, 2, 3):
        big &= digit[k:n - 3 + k]
    if big.any():
        raise ParseError("raster holds a sample of 1000 or more")
    del big
    d -= 48
    d *= digit  # digit values, whitespace reads as 0
    values[:] = d[2:][ends]
    # zero each token's last digit, so a hundreds digit stays only before a tens digit
    d[:-1] *= digit[1:]
    values += d[1:][ends] * np.uint16(10)
    values += d[ends] * np.uint16(100)
    return values


def parse_pnm(data: bytes) -> Image:
    """Decode a P2/P3 (ASCII) or P5/P6 (binary) image, maxval <= 255.

    Samples under a maxval below 255 are rescaled to 0..255 as
    (v * 255 + maxval // 2) // maxval.
    """
    magic = data[:2]
    if magic not in _MAGIC_CHANNELS:
        raise ParseError(f"unsupported magic {magic!r}")
    channels = _MAGIC_CHANNELS[magic]
    pos = 2
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width <= 0 or height <= 0:
        raise OutOfRange(f"width and height must be positive, got {shown(width)}x{shown(height)}")
    maxval, pos = _int_token(data, pos, "maxval")
    if not 1 <= maxval <= 255:
        raise OutOfRange(f"maxval {shown(maxval)} outside 1..255")

    count = width * height * channels
    if magic in _MAGIC_ASCII:
        # only digits and whitespace may remain once comments are dropped
        body = memoryview(data)[pos:] if data.find(b"#", pos) < 0 else _COMMENT.sub(b" ", data[pos:])
        values = _decimal_samples(body, count)
    else:
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or not data[pos:pos + 1].isspace():
            raise ParseError("missing raster separator")
        values = np.frombuffer(data, np.uint8, offset=pos + 1)[:count]
    if len(values) < count:
        raise ParseError(f"raster has {len(values)} of {shown(count)} samples")
    top = int(values.max())
    if top > maxval:
        raise ParseError(f"sample {top} outside 0..{maxval}")
    if maxval < 255:
        # rescale to 0..255, rounding half up; v * 255 + maxval // 2 stays below 2**16.
        # ASCII samples already sit in a writable uint16 array; binary ones are copied
        values = values.astype(np.uint16, copy=False)
        values *= 255
        values += maxval // 2
        values //= maxval
    return Image(width, height, channels, values.astype(np.uint8, copy=False).tobytes())


def write_pnm(img: Image) -> bytes:
    """Encode to binary P5/P6 at maxval 255; parse_pnm reads it back unchanged."""
    magic = "P6" if img.channels == 3 else "P5"
    return f"{magic}\n{img.width} {img.height}\n255\n".encode("ascii") + img.samples


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
        raise DimensionMismatch("histogram requires a gray image")
    counts = np.bincount(np.frombuffer(img.samples, dtype=np.uint8), minlength=256)
    return Histogram(tuple(counts.tolist()))
