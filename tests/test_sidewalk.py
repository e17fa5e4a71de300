import json

import numpy as np
import pytest

from aerobot.errors import BadThresholds, ConfigInvalid, NoStripFound
from aerobot.raster import Image
from aerobot.sidewalk import (
    FUNDAMENTAL_PATTERNS,
    INTACT,
    PAINT,
    UNRESOLVED,
    InspectConfig,
    SegmentPattern,
    SidewalkParams,
    classify_segment,
    encode_ternary,
    extract_strip,
    generate_sidewalk,
    inspect,
    sidewalk_memory,
)


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
        assert len(strip.blocks) == 12
        means = strip.means()
        # alternating bright/dark: 230/255 and 25/255
        for j, mean in enumerate(means):
            expected = 230 / 255 if j % 2 == 0 else 25 / 255
            assert mean == pytest.approx(expected, abs=0.02)

    def test_blocks_contiguous_non_overlapping(self):
        strip = extract_strip(generate_sidewalk(SidewalkParams()), 2.0, 8)
        for left, right in zip(strip.blocks, strip.blocks[1:]):
            assert left.x + left.width == right.x
        assert all(0.0 <= b.mean <= 1.0 for b in strip.blocks)

    def test_constant_image_raises(self):
        img = Image.from_array(np.full((48, 96), 128, np.uint8))
        with pytest.raises(NoStripFound):
            extract_strip(img, 2.0, 8)

    def test_image_smaller_than_block(self):
        img = Image.from_array(np.zeros((6, 96), np.uint8))
        with pytest.raises(ValueError):
            extract_strip(img, 2.0, 8)


class TestEncodeTernary:
    def test_reference_segment(self):
        seg = SegmentPattern(0, (0.5, 0.1, 0.9))
        assert encode_ternary(seg, 0.7, 0.3) == (0, -1, 1)

    def test_all_decisive(self):
        assert encode_ternary(SegmentPattern(0, (0.9, 0.1, 0.9))) == (1, -1, 1)

    def test_all_vague(self):
        assert encode_ternary(SegmentPattern(0, (0.5, 0.5, 0.5))) == (0, 0, 0)

    def test_boundaries_inclusive(self):
        assert encode_ternary(SegmentPattern(0, (0.7, 0.3, 0.5))) == (1, -1, 0)

    def test_bad_thresholds(self):
        seg = SegmentPattern(0, (0.5, 0.5, 0.5))
        with pytest.raises(BadThresholds):
            encode_ternary(seg, bright_min=0.3, dark_max=0.7)
        with pytest.raises(BadThresholds):
            encode_ternary(seg, bright_min=1.2, dark_max=0.3)


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
        # two blocks make no three-block segment, so encode_ternary never runs
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
