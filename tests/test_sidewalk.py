import json
from dataclasses import dataclass

import numpy as np
import pytest

from aerobot import sidewalk
from aerobot.errors import BadThresholds, ConfigInvalid, NoStripFound
from aerobot.raster import Image, to_grayscale, write_pnm
from aerobot.sidewalk import (
    FUNDAMENTAL_PATTERNS,
    INTACT,
    PAINT,
    UNRESOLVED,
    InspectConfig,
    InspectionReport,
    SidewalkParams,
    classify_segment,
    encode_ternary,
    extract_strip,
    generate_sidewalk,
    inspect,
    sidewalk_memory,
)
from aerobot.vision import wavelet_response


@dataclass(frozen=True)
class SegmentPattern:
    """Three consecutive block means starting at a block offset."""

    start: int
    means: tuple

    def __post_init__(self):
        if len(self.means) != 3:
            raise ValueError("a segment holds exactly three blocks")


def encode_ternary_oracle(segment, bright_min, dark_max):
    """The per-mean branch ladder that encoded one segment at a time."""
    if not 0.0 <= dark_max < bright_min <= 1.0:
        raise BadThresholds(f"dark_max {dark_max}, bright_min {bright_min}")
    out = []
    for mean in segment.means:
        if mean >= bright_min:
            out.append(1)
        elif mean <= dark_max:
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)


def inspect_oracle(img, config=InspectConfig()):
    """Block-by-block inspection: one slice mean and one segment object each."""
    gray = to_grayscale(img)
    length = config.block_length
    if gray.height <= length or gray.width < length:
        raise ValueError("image smaller than one block")
    response = wavelet_response(gray, config.sigma)
    row_strength = np.abs(response.values).sum(axis=1)
    window = np.convolve(row_strength, np.ones(length), mode="valid")
    top = int(np.argmax(window))
    if window[top] / (length * gray.width) < config.min_response:
        raise NoStripFound(f"best band response {window[top]:.3g} under the floor")
    band = gray.to_array().astype(np.float64)[top:top + length]
    xs, means = [], []
    for j in range(gray.width // length):
        x0 = j * length
        xs.append(x0)
        means.append(float(band[:, x0:x0 + length].mean() / 255.0))

    net = sidewalk_memory()
    decisions = []
    flagged = set()
    for start in range(len(means) - 2):
        segment = SegmentPattern(start, tuple(means[start:start + 3]))
        encoded = encode_ternary_oracle(segment, config.bright_min, config.dark_max)
        decision = classify_segment(encoded, net, start=start, max_iter=config.max_iter)
        decisions.append(decision)
        flagged.update(decision.paint_blocks)

    overlay = gray.to_array().copy()
    for idx in flagged:
        x, y = xs[idx], top
        overlay[y, x:x + length] = 255
        overlay[y + length - 1, x:x + length] = 255
        overlay[y:y + length, x] = 255
        overlay[y:y + length, x + length - 1] = 255
    report = InspectionReport(tuple(decisions), tuple(sorted(flagged)),
                              top, length, len(means))
    return report, Image.from_array(overlay), means


def fill_block(arr, top, x0, length, total):
    """Set one block's pixels so that they sum to total."""
    area = length * length
    block = np.full(area, total // area)
    block[:total % area] += 1
    arr[top:top + length, x0:x0 + length] = block.reshape(length, length)


def planted_frames(n_frames, seed=0):
    """Seeded curb frames with block lengths 1-11, 1-13 blocks and often a
    partial block on the right. Under the default thresholds one block sits on, or one
    sample beside, bright_min and one on or beside dark_max; the second config
    moves both thresholds onto (or one sample beside) block means of the frame.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_frames):
        length = int(rng.integers(1, 12))
        n = int(rng.integers(1, 14))
        height = length + int(rng.integers(2, 12))
        top = int(rng.integers(0, height - length + 1))
        arr = np.full((height, n * length + int(rng.integers(0, length))), 128.0)
        for j in range(n):
            level = 128 if rng.random() < 0.15 else (230 if j % 2 == 0 else 25)
            arr[top:top + length, j * length:(j + 1) * length] = level
        arr += rng.normal(0.0, rng.uniform(0.0, 40.0), size=arr.shape)
        arr = np.clip(np.rint(arr), 0, 255).astype(np.int64)
        area = length * length
        for j, threshold in zip(rng.permutation(n)[:2], (0.7, 0.3)):
            total = int(np.rint(threshold * 255 * area)) + int(rng.integers(-1, 2))
            fill_block(arr, top, int(j) * length, length, total)
        img = Image.from_array(arr.astype(np.uint8))
        yield img, InspectConfig(block_length=length)

        sums = sorted(int(arr[top:top + length, j * length:(j + 1) * length].sum())
                      for j in range(n))
        bright = (sums[int(rng.integers(n // 2, n))] + int(rng.integers(-1, 2))) / area / 255.0
        dark = (sums[int(rng.integers(0, n // 2 + 1))] + int(rng.integers(-1, 2))) / area / 255.0
        if 0.0 <= dark < bright <= 1.0:
            yield img, InspectConfig(block_length=length, bright_min=bright, dark_max=dark)


class TestGenerator:
    def test_dimensions_and_levels(self):
        params = SidewalkParams()
        img = generate_sidewalk(params)
        assert (img.width, img.height) == (96, 48)
        arr = img.to_array()
        band = arr[params.band_top:params.band_top + params.block_length]
        assert set(np.unique(band)) == {params.dark, params.bright}
        assert np.all(arr[:params.band_top] == params.background)

    def test_erased_blocks_fall_to_background(self):
        params = SidewalkParams(erased_blocks=(3,))
        arr = generate_sidewalk(params).to_array()
        block = arr[params.band_top:params.band_top + 8, 24:32]
        assert np.all(block == params.background)

    def test_noise_is_seed_deterministic(self):
        params = SidewalkParams(noise_sigma=10.0)
        assert generate_sidewalk(params, seed=5) == generate_sidewalk(params, seed=5)
        assert generate_sidewalk(params, seed=5) != generate_sidewalk(params, seed=6)

    def test_params_json_round_trip(self):
        params = SidewalkParams(erased_blocks=(1, 4), noise_sigma=3.0)
        assert SidewalkParams.from_json(params.to_json()) == params


class TestExtractStrip:
    def test_band_located_and_partitioned(self):
        params = SidewalkParams()
        strip = extract_strip(generate_sidewalk(params), sigma=2.0, block_length=8)
        assert strip.band_top == params.band_top
        assert strip.block_length == 8
        assert strip.means.shape == (12,)
        # alternating bright/dark: 230/255 and 25/255
        for j, mean in enumerate(strip.means):
            expected = 230 / 255 if j % 2 == 0 else 25 / 255
            assert mean == pytest.approx(expected, abs=0.02)

    def test_blocks_contiguous_non_overlapping(self):
        # block j is exactly the square at columns j*L..(j+1)*L of the band
        arr = generate_sidewalk(SidewalkParams(noise_sigma=20.0), seed=3).to_array()
        arr = np.pad(arr, ((0, 0), (0, 5)), constant_values=128)  # partial block
        strip = extract_strip(Image.from_array(arr), 2.0, 8)
        band = arr[strip.band_top:strip.band_top + 8].astype(np.float64)
        assert strip.means.dtype == np.float64 and strip.means.shape == (12,)
        for j, mean in enumerate(strip.means):
            assert mean == band[:, 8 * j:8 * j + 8].mean() / 255.0
        assert np.all((0.0 <= strip.means) & (strip.means <= 1.0))
        assert not strip.means.flags.writeable

    def test_constant_image_raises(self):
        img = Image.from_array(np.full((48, 96), 128, np.uint8))
        with pytest.raises(NoStripFound):
            extract_strip(img, 2.0, 8)

    def test_image_smaller_than_block(self):
        img = Image.from_array(np.zeros((6, 96), np.uint8))
        with pytest.raises(ValueError):
            extract_strip(img, 2.0, 8)

    @pytest.mark.parametrize("block_length", [0, -8])
    def test_block_length_below_one_is_config_invalid(self, block_length):
        with pytest.raises(ConfigInvalid, match="block_length"):
            extract_strip(generate_sidewalk(SidewalkParams()), 2.0, block_length)


class TestEncodeTernary:
    def test_reference_segment(self):
        assert encode_ternary((0.5, 0.1, 0.9), 0.7, 0.3).tolist() == [0, -1, 1]

    def test_all_decisive(self):
        assert encode_ternary((0.9, 0.1, 0.9)).tolist() == [1, -1, 1]

    def test_all_vague(self):
        assert encode_ternary((0.5, 0.5, 0.5)).tolist() == [0, 0, 0]

    def test_boundaries_inclusive(self):
        assert encode_ternary((0.7, 0.3, 0.5)).tolist() == [1, -1, 0]

    def test_any_length(self):
        assert encode_ternary(()).tolist() == []
        assert encode_ternary((0.0, 1.0, 0.31, 0.69, 0.7)).tolist() == [-1, 1, 0, 0, 1]

    def test_bad_thresholds(self):
        means = (0.5, 0.5, 0.5)
        with pytest.raises(BadThresholds):
            encode_ternary(means, bright_min=0.3, dark_max=0.7)
        with pytest.raises(BadThresholds):
            encode_ternary(means, bright_min=1.2, dark_max=0.3)


class TestClassifySegment:
    def test_stored_vertex_intact(self):
        net = sidewalk_memory()
        for vertex in FUNDAMENTAL_PATTERNS:
            decision = classify_segment(vertex, net)
            assert decision.verdict == INTACT
            assert decision.paint_blocks == ()

    def test_vague_block_painted(self):
        decision = classify_segment((0, -1, 1), sidewalk_memory())
        assert decision.verdict == PAINT
        assert decision.vertex == (1, -1, 1)
        assert decision.paint_blocks == (0,)

    def test_start_offsets_paint_indices(self):
        decision = classify_segment((0, -1, 1), sidewalk_memory(), start=5)
        assert decision.paint_blocks == (5,)

    def test_all_vague_unresolved(self):
        decision = classify_segment((0, 0, 0), sidewalk_memory())
        assert decision.verdict == UNRESOLVED
        assert decision.vertex is None
        assert decision.paint_blocks == ()

    def test_wrong_polarity_painted(self):
        decision = classify_segment((1, 1, 1), sidewalk_memory())
        assert decision.verdict == PAINT
        assert decision.vertex == (1, -1, 1)
        assert decision.paint_blocks == (1,)


class TestInspect:
    def test_clean_image_no_flags(self):
        report, overlay = inspect(generate_sidewalk(SidewalkParams()))
        assert report.flagged_blocks == ()
        assert report.n_blocks == 12
        assert len(report.decisions) == 10
        assert all(d.verdict == INTACT for d in report.decisions)
        assert overlay.width == 96

    def test_rgb_input_is_converted_to_gray_once(self, monkeypatch):
        arr = generate_sidewalk(SidewalkParams(erased_blocks=(4,))).to_array()
        rgb = Image.from_array(np.stack([arr, arr, np.full_like(arr, 128)], axis=-1))
        report, overlay = inspect(to_grayscale(rgb))
        assert report.flagged_blocks == (4,)
        channels = []
        real = sidewalk.to_grayscale
        monkeypatch.setattr(sidewalk, "to_grayscale",
                            lambda img: channels.append(img.channels) or real(img))
        assert inspect(rgb) == (report, overlay)
        assert channels.count(3) == 1

    def test_single_erased_block_flagged(self):
        report, overlay = inspect(generate_sidewalk(SidewalkParams(erased_blocks=(4,))))
        assert report.flagged_blocks == (4,)
        # overlay outlines the flagged block at 255
        arr = overlay.to_array()
        assert np.all(arr[16, 32:40] == 255)

    def test_edge_block_flagged(self):
        report, _ = inspect(generate_sidewalk(SidewalkParams(erased_blocks=(0,))))
        assert report.flagged_blocks == (0,)
        report, _ = inspect(generate_sidewalk(SidewalkParams(erased_blocks=(11,))))
        assert report.flagged_blocks == (11,)

    def test_two_adjacent_erased(self):
        report, _ = inspect(generate_sidewalk(SidewalkParams(erased_blocks=(5, 6))))
        assert report.flagged_blocks == (5, 6)

    def test_fully_erased_raises(self):
        img = generate_sidewalk(SidewalkParams(erased_blocks=tuple(range(12))))
        with pytest.raises(NoStripFound):
            inspect(img)

    def test_contrast_inversion_same_flags(self):
        params = SidewalkParams(erased_blocks=(2, 7))
        img = generate_sidewalk(params)
        inverted = Image.from_array(255 - img.to_array())
        normal, _ = inspect(img)
        flipped, _ = inspect(inverted)
        assert normal.flagged_blocks == flipped.flagged_blocks
        # vertices swap roles segment by segment
        for a, b in zip(normal.decisions, flipped.decisions):
            if a.vertex is not None:
                assert b.vertex == tuple(-v for v in a.vertex)

    def test_sharpening_vague_block_never_adds_flags(self):
        # push the erased block toward the polarity the pattern expects there
        base = generate_sidewalk(SidewalkParams(erased_blocks=(4,)))
        arr = base.to_array().copy()
        flagged_before, _ = inspect(base)
        arr[16:24, 32:40] = 230  # block 4 would be bright in the clean pattern
        flagged_after, _ = inspect(Image.from_array(arr))
        assert set(flagged_after.flagged_blocks) <= set(flagged_before.flagged_blocks)

    def test_report_json_shape(self):
        report, _ = inspect(generate_sidewalk(SidewalkParams(erased_blocks=(4,))))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["flagged_blocks"] == [4]
        assert doc["n_blocks"] == 12
        verdicts = {s["verdict"] for s in doc["segments"]}
        assert verdicts <= {"intact", "paint", "unresolved"}
        painted = [s for s in doc["segments"] if s["verdict"] == "paint"]
        assert all(s["paint_blocks"] for s in painted)

    def test_custom_block_length(self):
        params = SidewalkParams(n_blocks=10, block_length=6, image_height=30, band_top=12)
        report, _ = inspect(generate_sidewalk(params),
                            InspectConfig(sigma=1.5, block_length=6))
        assert report.n_blocks == 10
        assert report.flagged_blocks == ()

    @pytest.mark.parametrize("bright_min, dark_max", [
        (0.3, 0.7), (0.5, 0.5), (1.2, 0.3), (0.7, -0.1), (0.7, float("nan"))])
    def test_bad_thresholds_rejected_when_built(self, bright_min, dark_max):
        with pytest.raises(BadThresholds):
            InspectConfig(bright_min=bright_min, dark_max=dark_max)

    def test_inverted_thresholds_not_silent_on_a_short_strip(self):
        # two blocks make no three-block segment, so no segment is classified
        params = SidewalkParams(n_blocks=2, block_length=8, image_height=32, band_top=12)
        report, _ = inspect(generate_sidewalk(params))
        assert report.n_blocks == 2 and report.decisions == ()
        with pytest.raises(BadThresholds):
            inspect(generate_sidewalk(params), InspectConfig(bright_min=0.3, dark_max=0.7))

    @pytest.mark.parametrize("field", ["block_length", "max_iter"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_counts_rejected_when_built(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"{field} {value}"):
            InspectConfig(**{field: value})

    def test_window_coverage(self):
        report, _ = inspect(generate_sidewalk(SidewalkParams()))
        starts = [d.start for d in report.decisions]
        assert starts == list(range(10))


class TestInspectOracle:
    def test_matches_block_loop_on_planted_frames(self):
        cases = flagged = short = on_threshold = beside_threshold = 0
        for img, config in planted_frames(300):
            want_report, want_overlay, means = inspect_oracle(img, config)
            report, overlay = inspect(img, config)
            assert report.to_dict() == want_report.to_dict()
            assert write_pnm(overlay) == write_pnm(want_overlay)
            cases += 1
            flagged += bool(report.flagged_blocks)
            short += len(means) < 3
            area = config.block_length ** 2
            for mean in means:
                total = round(mean * 255 * area)
                for threshold in (config.bright_min, config.dark_max):
                    on_threshold += mean == threshold
                    beside_threshold += threshold in ((total - 1) / area / 255.0,
                                                      (total + 1) / area / 255.0)
        # the sweep reaches the cases it is meant to pin down
        assert cases > 500 and flagged > 100 and short > 20
        assert on_threshold > 100 and beside_threshold > 100

    @pytest.mark.parametrize("erased", [(), (4,), (0, 11), (5, 6)])
    def test_matches_block_loop_on_generated_curbs(self, erased):
        img = generate_sidewalk(SidewalkParams(erased_blocks=erased, noise_sigma=12.0))
        want_report, want_overlay, _ = inspect_oracle(img)
        report, overlay = inspect(img)
        assert report.to_dict() == want_report.to_dict()
        assert write_pnm(overlay) == write_pnm(want_overlay)
