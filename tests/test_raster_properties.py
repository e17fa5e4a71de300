"""Property tests for the PNM codec."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aerobot.errors import AerobotError  # noqa: E402
from aerobot.raster import Image, parse_pnm, write_pnm  # noqa: E402


@st.composite
def images(draw):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    channels = draw(st.sampled_from([1, 3]))
    samples = draw(st.binary(min_size=h * w * channels, max_size=h * w * channels))
    return Image(w, h, channels, samples)


def ascii_pnm(img: Image) -> bytes:
    """P2/P3 text of img, one raster row per line."""
    per_row = img.width * img.channels
    rows = (" ".join(map(str, img.samples[i:i + per_row])) for i in range(0, len(img.samples), per_row))
    magic = "P2" if img.channels == 1 else "P3"
    return f"{magic}\n{img.width} {img.height}\n255\n".encode() + "\n".join(rows).encode() + b"\n"


@given(images(), st.booleans())
def test_write_then_parse_round_trips(img, ascii):
    assert parse_pnm(ascii_pnm(img) if ascii else write_pnm(img)) == img


@given(st.sampled_from([b"P2", b"P3"]), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 255), st.binary(max_size=64))
def test_arbitrary_raster_raises_only_aerobot_errors(magic, w, h, maxval, body):
    data = magic + f"\n{w} {h}\n{maxval}\n".encode() + body
    try:
        img = parse_pnm(data)
    except AerobotError:
        return
    assert (img.width, img.height) == (w, h)
    # every sample is one of the maxval + 1 levels rescaled to 0..255
    assert set(img.samples) <= {(v * 255 + maxval // 2) // maxval for v in range(maxval + 1)}


@given(st.sampled_from([b"P2", b"P3"]), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 255), st.lists(st.integers(0, 10**6), max_size=30),
       st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#c\n"]),
                min_size=31, max_size=31),
       st.lists(st.integers(0, 6), min_size=30, max_size=30))
def test_ascii_raster_is_first_count_tokens(magic, w, h, maxval, values, gaps, pads):
    body = b"".join(g + b"0" * z + str(v).encode() for g, z, v in zip(gaps, pads, values))
    data = magic + f"\n{w} {h}\n{maxval}\n".encode() + body
    count = w * h * (1 if magic == b"P2" else 3)
    head = values[:count]
    if len(head) < count or max(head) > maxval:
        with pytest.raises(AerobotError):
            parse_pnm(data)
    else:
        assert list(parse_pnm(data).samples) == [(v * 255 + maxval // 2) // maxval for v in head]
