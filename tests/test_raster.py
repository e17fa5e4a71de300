import numpy as np
import pytest

from aerobot import raster
from aerobot.errors import (
    BadMagic,
    MaxvalUnsupported,
    NonPositiveDimensions,
    NotGrayscale,
    TruncatedData,
)
from aerobot.raster import Histogram, Image, histogram, parse_pnm, to_grayscale, write_pnm


def gray(arr) -> Image:
    return Image.from_array(np.asarray(arr, dtype=np.uint8))


def _oracle_next_token(data, pos):
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise TruncatedData("header ended early")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _oracle_int_token(data, pos):
    tok, pos = _oracle_next_token(data, pos)
    try:
        return int(tok), pos
    except ValueError:
        raise TruncatedData(f"bad token {tok!r}") from None


def parse_ascii_oracle(data: bytes) -> Image:
    """The earlier per-token P2/P3 decoder: one int() per header field and sample."""
    channels = {b"P2": 1, b"P3": 3}[data[:2]]
    width, pos = _oracle_int_token(data, 2)
    height, pos = _oracle_int_token(data, pos)
    maxval, pos = _oracle_int_token(data, pos)
    values = []
    for _ in range(width * height * channels):
        v, pos = _oracle_int_token(data, pos)
        if not 0 <= v <= maxval:
            raise TruncatedData(f"sample {v} outside 0..{maxval}")
        values.append(v)
    return Image(width, height, channels, bytes(values))


_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


def scrambled_ascii(rng, img: Image, maxval: int) -> bytes:
    """P2/P3 text of img with random whitespace runs, comments and zero padding."""
    def gap():
        run = b"".join(rng.choice(_WHITESPACE) for _ in range(rng.integers(1, 4)))
        if rng.random() < 0.2:
            run += b"# note " + str(int(rng.integers(0, 999))).encode() + b"\n"
        return run

    magic = b"P2" if img.channels == 1 else b"P3"
    fields = [str(img.width).encode(), str(img.height).encode(), str(maxval).encode()]
    for v in img.samples:
        fields.append(b"0" * int(rng.integers(0, 3)) + str(v).encode())
    return magic + b"".join(gap() + f for f in fields) + (gap() if rng.random() < 0.5 else b"")


def parse_fromstring_oracle(data: bytes) -> Image:
    """The earlier P2/P3 decoder: np.fromstring over the comment-free raster."""
    channels = {b"P2": 1, b"P3": 3}[data[:2]]
    width, pos = raster._int_token(data, 2, "width")
    height, pos = raster._int_token(data, pos, "height")
    maxval, pos = raster._int_token(data, pos, "maxval")
    count = width * height * channels
    body = raster._COMMENT.sub(b" ", data[pos:])
    if body.translate(None, raster._DIGITS_AND_SPACE):
        raise TruncatedData("raster holds a byte that is neither a digit nor whitespace")
    if body.isspace():  # fromstring would read whitespace-only text as [0]
        body = b""
    # overlong tokens saturate at the int64 maximum and fail the maxval check
    values = np.fromstring(body, np.int64, sep=" ")[:count]
    if len(values) < count:
        raise TruncatedData(f"raster has {len(values)} of {count} samples")
    if int(values.max()) > maxval:
        raise TruncatedData(f"sample {int(values.max())} outside 0..{maxval}")
    return Image(width, height, channels, values.astype(np.uint8).tobytes())


def odd_token(rng, maxval: int) -> bytes:
    """A sample token the decoder must reject, or one of its zero-padded look-alikes."""
    kind = int(rng.integers(0, 5))
    if kind == 0:  # above maxval, below 1000
        return str(int(rng.integers(maxval + 1, 1000))).encode() if maxval < 999 else b"1000"
    if kind == 1:  # 1000 or more, 4 to 7 digits
        return str(int(rng.integers(1000, 10**7))).encode()
    if kind == 2:  # beyond int64, 20 to 30 digits
        size = int(rng.integers(20, 31))
        return bytes([int(rng.integers(49, 58))]) + bytes(rng.integers(48, 58, size - 1).tolist())
    if kind == 3:  # zero-padded 1000 or more
        return b"0" * int(rng.integers(1, 4)) + str(int(rng.integers(1000, 10**5))).encode()
    # zero padding alone, up to 30 digits: legal
    return b"0" * int(rng.integers(1, 28)) + str(int(rng.integers(0, maxval + 1))).encode()


def scrambled_raster(rng) -> bytes:
    """Random P2/P3 text: padded samples, odd tokens, extra tokens, comments, blank rasters."""
    def gap():
        run = b"".join(rng.choice(_WHITESPACE) for _ in range(rng.integers(0, 3)))
        if rng.random() < 0.2:
            run += b"#" + bytes(rng.integers(32, 127, int(rng.integers(0, 6))).tolist()) + b"\n"
        return run or b" "

    magic = b"P2" if rng.random() < 0.5 else b"P3"
    w, h = (int(v) for v in rng.integers(1, 4, size=2))
    maxval = int(rng.integers(1, 256))
    count = w * h * (1 if magic == b"P2" else 3)
    tokens = [b"0" * int(rng.integers(0, 6)) + str(int(rng.integers(0, maxval + 1))).encode()
              for _ in range(count + int(rng.integers(-2, 4)))]
    mode = rng.random()
    if mode < 0.3 and tokens:  # an odd token anywhere, inside or after the samples
        tokens[int(rng.integers(len(tokens)))] = odd_token(rng, maxval)
    elif mode < 0.45:  # a large value after the last sample
        tokens = tokens[:count] + [odd_token(rng, maxval)]
    elif mode < 0.55:  # a blank or comment-only raster
        tokens = []
    header = [magic, str(w).encode(), str(h).encode(), str(maxval).encode()]
    tail = gap() if rng.random() < 0.5 else b""
    return header[0] + b"".join(gap() + t for t in header[1:] + tokens) + tail


class TestParse:
    def test_p5_binary(self):
        img = parse_pnm(b"P5\n2 1\n255\n" + bytes([0, 255]))
        assert (img.width, img.height, img.channels) == (2, 1, 1)
        assert list(img.samples) == [0, 255]

    def test_p6_binary(self):
        img = parse_pnm(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
        assert img.channels == 3
        assert img.pixel(0, 0) == (10, 20, 30)

    def test_p2_ascii(self):
        img = parse_pnm(b"P2\n3 1\n255\n0 128 255\n")
        assert list(img.samples) == [0, 128, 255]

    def test_p3_ascii(self):
        img = parse_pnm(b"P3\n1 2\n255\n1 2 3\n4 5 6\n")
        assert list(img.samples) == [1, 2, 3, 4, 5, 6]

    def test_comments_in_header(self):
        img = parse_pnm(b"P5 # magic\n# a comment line\n2 # width\n1\n255\n" + bytes([7, 9]))
        assert list(img.samples) == [7, 9]

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_pnm(b"P7\n1 1\n255\n\x00")

    def test_truncated_raster(self):
        with pytest.raises(TruncatedData):
            parse_pnm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_truncated_ascii(self):
        with pytest.raises(TruncatedData):
            parse_pnm(b"P2\n2 2\n255\n1 2 3\n")

    def test_maxval_over_255(self):
        with pytest.raises(MaxvalUnsupported):
            parse_pnm(b"P5\n1 1\n65535\n\x00\x00")

    def test_maxval_zero(self):
        with pytest.raises(MaxvalUnsupported):
            parse_pnm(b"P5\n1 1\n0\n\x00")

    def test_non_positive_dimensions(self):
        with pytest.raises(NonPositiveDimensions):
            parse_pnm(b"P5\n0 3\n255\n")

    def test_ascii_sample_out_of_range(self):
        with pytest.raises(TruncatedData):
            parse_pnm(b"P2\n1 1\n100\n200\n")

    def test_binary_sample_above_maxval(self):
        with pytest.raises(TruncatedData):
            parse_pnm(b"P5\n1 1\n15\n\xff")
        with pytest.raises(TruncatedData):
            parse_pnm(b"P6\n1 1\n200\n" + bytes([10, 201, 30]))

    def test_binary_sample_at_maxval(self):
        assert list(parse_pnm(b"P5\n2 1\n15\n\x00\x0f").samples) == [0, 15]

    @pytest.mark.parametrize("data", [
        b"P5\n+2 1\n255\n..",
        b"P5\n1_0 1\n255\n" + bytes(10),
        b"P5\n2 1_0\n255\n" + bytes(20),
        b"P5\n1 1\n+255\n\x00",
        b"P5\n-1 1\n255\n\x00",
    ])
    def test_header_tokens_are_plain_digits(self, data):
        with pytest.raises(TruncatedData):
            parse_pnm(data)

    def test_header_tokenizer_matches_oracle(self):
        # \x85, \xa0 and \x1c are whitespace to str.isspace() but not to bytes.isspace()
        # or a bytes pattern's \s, so they stay part of a token
        alphabet = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"0", b"7", b"9",
                    b"a", b"-", b"+", b"\x00", b"\x1c", b"\x85", b"\xa0"]
        rng = np.random.default_rng(12)
        for _ in range(20_000):
            n = int(rng.integers(0, 14))
            data = b"".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))
            pos = int(rng.integers(0, n + 1))
            try:
                tok, end = _oracle_next_token(data, pos)
                expected = (int(tok), end) if tok.isdigit() else f"bad width token {tok!r}"
            except TruncatedData as exc:
                expected = str(exc)
            try:
                got = raster._int_token(data, pos, "width")
            except TruncatedData as exc:
                got = str(exc)
            assert got == expected, (data, pos)


class TestAsciiDecoder:
    @pytest.mark.parametrize("data", [
        b"P2\n1 1\n255\n  \n",             # blank: fromstring reads it as [0]
        b"P2\n1 1\n255\n",                  # no raster at all
        b"P2\n2 1\n255\n3\n",               # short, ends in whitespace
        b"P2\n1 1\n255\n1_0\n",             # partial and signed tokens
        b"P2\n1 1\n255\n12abc\n",
        b"P2\n1 1\n255\n+2\n",
        b"P2\n1 1\n255\n-1\n",
        b"P2\n2 1\n255\n1 2.5\n",
        b"P2\n1 1\n9\n99999999999999999999\n",  # overflows, saturates
        b"P3\n1 1\n255\n1 2\n",
    ])
    def test_rejects(self, data):
        with pytest.raises(TruncatedData):
            parse_pnm(data)

    def test_comments_between_samples(self):
        img = parse_pnm(b"P2\n3 1\n255\n1 # one\n2#two\r3 # three")
        assert list(img.samples) == [1, 2, 3]

    def test_comment_right_after_maxval(self):
        assert list(parse_pnm(b"P2 1 1 255#c\n9").samples) == [9]

    def test_leading_zeros(self):
        assert list(parse_pnm(b"P2\n2 1\n255\n007 0255\n").samples) == [7, 255]

    def test_data_after_last_sample_ignored(self):
        assert list(parse_pnm(b"P2\n2 1\n9\n1 2 3 400 5\n\n").samples) == [1, 2]

    def test_every_isspace_byte_separates(self):
        img = parse_pnm(b"P2\n6 1\n255\n1 2\t3\r4\x0b5\x0c6")
        assert list(img.samples) == [1, 2, 3, 4, 5, 6]

    def test_comment_pass_runs_only_on_a_hash(self, monkeypatch):
        class NoSub:
            def sub(self, *_):
                raise AssertionError("comment pass ran")

        monkeypatch.setattr(raster, "_COMMENT", NoSub())
        assert list(parse_pnm(b"P3\n1 1\n255\n7 8 9\n").samples) == [7, 8, 9]
        with pytest.raises(AssertionError, match="comment pass ran"):
            parse_pnm(b"P2\n2 1\n255\n7 # x\n9\n")

    def test_matches_per_token_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            h, w = rng.integers(1, 9, size=2)
            channels = int(rng.choice([1, 3]))
            maxval = int(rng.integers(1, 256))
            shape = (h, w) if channels == 1 else (h, w, 3)
            img = Image.from_array(rng.integers(0, maxval + 1, size=shape, dtype=np.uint8))
            data = scrambled_ascii(rng, img, maxval)
            assert parse_pnm(data) == parse_ascii_oracle(data) == img

    def test_matches_fromstring_oracle_on_scrambled_files(self):
        rng = np.random.default_rng(7)
        decoded = rejected = 0
        for _ in range(1500):
            data = scrambled_raster(rng)
            try:
                expected = parse_fromstring_oracle(data)
            except TruncatedData:
                with pytest.raises(TruncatedData):
                    parse_pnm(data)
                rejected += 1
            else:
                assert parse_pnm(data) == expected
                decoded += 1
        assert decoded > 500 and rejected > 500

    @pytest.mark.parametrize("body, samples", [
        (b"0255 000000007", [255, 7]),
        (b"000000000000000000000000000009 0", [9, 0]),
        (b"0000999 1", None),   # 999 > maxval
        (b"1000 1", None),
        (b"00001000 1", None),
        (b"1 99999999999999999999999", None),
        (b"1 2 1000", [1, 2]),  # the third token is past the last sample
        (b"1 2 99999999999999999999999", [1, 2]),
        (b"\n\t \x0b\x0c\r", None),
        (b"# 1000 2 3\n", None),
        (b"4#1000\n5 # 99999", [4, 5]),
    ])
    def test_value_rule(self, body, samples):
        data = b"P2\n2 1\n255\n" + body
        if samples is None:
            with pytest.raises(TruncatedData):
                parse_pnm(data)
            with pytest.raises(TruncatedData):
                parse_fromstring_oracle(data)
        else:
            assert list(parse_pnm(data).samples) == samples
            assert parse_fromstring_oracle(data) == parse_pnm(data)

    def test_rejections_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            img = Image.from_array(rng.integers(0, 256, size=(3, 4), dtype=np.uint8))
            data = scrambled_ascii(rng, img, 255)
            short = data[:int(rng.integers(len(data) // 2, len(data)))]
            try:
                expected = parse_ascii_oracle(short)
            except TruncatedData:
                with pytest.raises(TruncatedData):
                    parse_pnm(short)
            else:
                assert parse_pnm(short) == expected


class TestRoundTrip:
    def test_single_zero_gray(self):
        img = gray([[0]])
        data = write_pnm(img)
        assert data.startswith(b"P5")
        assert data.endswith(b"\x00")
        assert parse_pnm(data) == img

    def test_random_rgb_binary(self):
        rng = np.random.default_rng(0)
        img = Image.from_array(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
        assert parse_pnm(write_pnm(img)) == img

    def test_random_suite_both_variants(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            h, w = rng.integers(1, 12, size=2)
            channels = rng.choice([1, 3])
            shape = (h, w) if channels == 1 else (h, w, 3)
            img = Image.from_array(rng.integers(0, 256, size=shape, dtype=np.uint8))
            assert parse_pnm(write_pnm(img)) == img
            assert parse_pnm(write_pnm(img, ascii=True)) == img

    def test_ascii_gray_magic(self):
        data = write_pnm(gray([[1, 2], [3, 4]]), ascii=True)
        assert data.startswith(b"P2")


def luma_oracle(rgb: np.ndarray) -> np.ndarray:
    """The earlier formula: a float64 copy of all three channels, then one sum."""
    f = rgb.astype(np.float64)
    luma = 0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2]
    return np.floor(luma + 0.5).astype(np.uint8)


class TestGrayscale:
    def test_matches_float_formula_on_the_whole_rgb_cube(self):
        rgb = np.empty((256, 256, 3), np.uint8)
        rgb[:, :, 1], rgb[:, :, 2] = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        for r in range(256):
            rgb[:, :, 0] = r
            got = to_grayscale(Image.from_array(rgb)).to_array()
            assert np.array_equal(got, luma_oracle(rgb)), f"red {r}"

    def test_gray_identity(self):
        img = gray([[5, 10]])
        assert to_grayscale(img) is img

    def test_white(self):
        img = Image(1, 1, 3, bytes([255, 255, 255]))
        assert to_grayscale(img).samples[0] == 255

    def test_pure_red(self):
        # hand: round(0.299*255) = round(76.245) = 76
        img = Image(1, 1, 3, bytes([255, 0, 0]))
        assert to_grayscale(img).samples[0] == 76

    def test_round_half_up(self):
        # 0.299*5 + 0.587*0 + 0.114*0 = 1.495 -> 1; green 5: 2.935 -> 3
        assert to_grayscale(Image(1, 1, 3, bytes([5, 0, 0]))).samples[0] == 1
        assert to_grayscale(Image(1, 1, 3, bytes([0, 5, 0]))).samples[0] == 3

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        img = Image.from_array(rng.integers(0, 256, size=(6, 7, 3), dtype=np.uint8))
        once = to_grayscale(img)
        assert to_grayscale(once) == once


class TestHistogram:
    def test_two_pixels(self):
        h = histogram(gray([[0, 255]]))
        assert h.bins[0] == 1
        assert h.bins[255] == 1
        assert sum(h.bins) == 2

    def test_constant(self):
        h = histogram(gray(np.full((3, 3), 7)))
        assert h.bins[7] == 9
        assert h.total() == 9

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h, w = rng.integers(1, 20, size=2)
            img = Image.from_array(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
            assert histogram(img).total() == h * w

    def test_bins_are_python_ints_summing_to_pixels(self):
        rng = np.random.default_rng(6)
        arr = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
        bins = histogram(gray(arr)).bins
        assert all(type(c) is int for c in bins)
        assert sum(bins) == 13 * 17
        assert list(bins) == np.bincount(arr.ravel(), minlength=256).tolist()

    def test_rejects_rgb(self):
        img = Image(1, 1, 3, bytes([1, 2, 3]))
        with pytest.raises(NotGrayscale):
            histogram(img)

    def test_needs_256_bins(self):
        with pytest.raises(ValueError):
            Histogram((0,) * 255)
