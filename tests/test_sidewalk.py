import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest

from aerobot import sidewalk
from aerobot.errors import (
    ConfigInvalid,
    DimensionMismatch,
    NonBipolarPattern,
    NonConvergent,
    NoStripFound,
    OutOfRange,
)
from aerobot.neural import hopfield_recall
from aerobot.raster import Image, to_grayscale, write_pnm
from aerobot.sidewalk import (
    BRIGHT_MIN,
    DARK_MAX,
    FUNDAMENTAL_PATTERNS,
    INTACT,
    MAX_ITER,
    PAINT,
    UNRESOLVED,
    InspectConfig,
    PaintDecision,
    MIN_RESPONSE,
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


def encode_ternary_oracle(segment):
    """The per-mean branch ladder that encoded one segment at a time."""
    out = []
    for mean in segment.means:
        if mean >= BRIGHT_MIN:
            out.append(1)
        elif mean <= DARK_MAX:
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)


def classify_segment_oracle(encoded, start=0):
    """One Hopfield recall per segment, with the stored-pattern shortcut."""
    encoded = tuple(int(v) for v in encoded)
    net = sidewalk_memory()
    if encoded in net.stored_patterns:
        return PaintDecision(start, encoded, encoded, INTACT)
    try:
        state, _ = hopfield_recall(net, encoded, max_iter=MAX_ITER)
    except NonConvergent:
        return PaintDecision(start, encoded, None, UNRESOLVED)
    vertex = tuple(int(v) for v in state)
    mismatched = tuple(start + i for i in range(3) if encoded[i] != vertex[i])
    return PaintDecision(start, encoded, vertex, PAINT, mismatched)


def generate_sidewalk_oracle(params, seed=0):
    """The per-block loop that painted one block of the band at a time."""
    width = params.n_blocks * params.block_length
    arr = np.full((params.image_height, width), sidewalk.BACKGROUND_LEVEL, dtype=np.float64)
    for j in range(params.n_blocks):
        bright = (j % 2 == 0) == params.first_block_bright
        value = sidewalk.BACKGROUND_LEVEL if j in params.erased_blocks else (
            sidewalk.BRIGHT_LEVEL if bright else sidewalk.DARK_LEVEL)
        x0 = j * params.block_length
        arr[params.band_top:params.band_top + params.block_length,
            x0:x0 + params.block_length] = value
    if params.noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        arr += rng.normal(0.0, params.noise_sigma, size=arr.shape)
    return Image.from_array(np.clip(np.rint(arr), 0, 255).astype(np.uint8))


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
    if window[top] / (length * gray.width) < MIN_RESPONSE:
        raise NoStripFound(f"best band response {window[top]:.3g} under the floor")
    band = gray.to_array().astype(np.float64)[top:top + length]
    xs, means = [], []
    for j in range(gray.width // length):
        x0 = j * length
        xs.append(x0)
        means.append(float(band[:, x0:x0 + length].mean() / 255.0))

    decisions = []
    flagged = set()
    for start in range(len(means) - 2):
        segment = SegmentPattern(start, tuple(means[start:start + 3]))
        decision = classify_segment_oracle(encode_ternary_oracle(segment), start=start)
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
    partial block on the right. One block sits on, or one sample beside,
    BRIGHT_MIN and one on or beside DARK_MAX.
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


class TestGenerator:
    def test_dimensions_and_levels(self):
        params = SidewalkParams()
        img = generate_sidewalk(params)
        assert (img.width, img.height) == (96, 48)
        arr = img.to_array()
        band = arr[params.band_top:params.band_top + params.block_length]
        assert set(np.unique(band)) == {sidewalk.DARK_LEVEL, sidewalk.BRIGHT_LEVEL}
        assert np.all(arr[:params.band_top] == sidewalk.BACKGROUND_LEVEL)

    def test_erased_blocks_fall_to_background(self):
        params = SidewalkParams(erased_blocks=(3,))
        arr = generate_sidewalk(params).to_array()
        block = arr[params.band_top:params.band_top + 8, 24:32]
        assert np.all(block == sidewalk.BACKGROUND_LEVEL)

    def test_noise_is_seed_deterministic(self):
        params = SidewalkParams(noise_sigma=10.0)
        assert generate_sidewalk(params, seed=5) == generate_sidewalk(params, seed=5)
        assert generate_sidewalk(params, seed=5) != generate_sidewalk(params, seed=6)

    def test_matches_block_loop_on_seeded_params(self):
        rng = np.random.default_rng(27)
        polarities, duplicates, outside = set(), 0, 0
        for _ in range(300):
            n = int(rng.integers(1, 20))
            length = int(rng.integers(1, 12))
            height = int(rng.integers(1, 40))
            erased = tuple(int(j) for j in rng.integers(-3, n + 3, size=int(rng.integers(0, 7))))
            params = SidewalkParams(
                n_blocks=n, block_length=length, image_height=height,
                band_top=int(rng.integers(-length, height + 2)),
                noise_sigma=float(rng.choice((0.0, 5.0, 40.0))), erased_blocks=erased,
                first_block_bright=bool(rng.integers(0, 2)))
            seed = int(rng.integers(2**31))
            got = generate_sidewalk(params, seed)
            assert write_pnm(got) == write_pnm(generate_sidewalk_oracle(params, seed))
            polarities.add(params.first_block_bright)
            duplicates += len(set(erased)) < len(erased)
            outside += any(j < 0 or j >= n for j in erased)
        assert polarities == {False, True} and duplicates > 20 and outside > 100

    @pytest.mark.parametrize("block_length", [-3, 4])
    def test_negative_block_count_is_out_of_range(self, block_length):
        with pytest.raises(OutOfRange):
            generate_sidewalk(SidewalkParams(n_blocks=-2, block_length=block_length))


class TestExtractStrip:
    def test_band_located_and_partitioned(self):
        params = SidewalkParams()
        means, band_top = extract_strip(generate_sidewalk(params), InspectConfig(2.0, 8))
        assert band_top == params.band_top
        assert means.shape == (12,)
        # alternating bright/dark: 230/255 and 25/255
        for j, mean in enumerate(means):
            expected = 230 / 255 if j % 2 == 0 else 25 / 255
            assert mean == pytest.approx(expected, abs=0.02)

    def test_blocks_contiguous_non_overlapping(self):
        # block j is exactly the square at columns j*L..(j+1)*L of the band
        arr = generate_sidewalk(SidewalkParams(noise_sigma=20.0), seed=3).to_array()
        arr = np.pad(arr, ((0, 0), (0, 5)), constant_values=128)  # partial block
        means, band_top = extract_strip(Image.from_array(arr), InspectConfig(2.0, 8))
        band = arr[band_top:band_top + 8].astype(np.float64)
        assert means.dtype == np.float64 and means.shape == (12,)
        for j, mean in enumerate(means):
            assert mean == band[:, 8 * j:8 * j + 8].mean() / 255.0
        assert np.all((0.0 <= means) & (means <= 1.0))
        assert not means.flags.writeable

    def test_floor_falls_between_two_integer_contrasts(self):
        # alternating blocks at 128 +/- delta on a flat 128 ground: the winning band's
        # mean |response| per pixel is delta times 0.1335 at sigma 0.5, so the floor
        # of 1.0 lies between contrasts 7 and 8
        def frame(delta):
            arr = np.full((48, 192), 128, np.uint8)
            for j in range(12):
                arr[16:32, 16 * j:16 * j + 16] = 128 + (delta if j % 2 == 0 else -delta)
            return Image.from_array(arr)

        def band_strength(img):
            rows = np.abs(wavelet_response(img, 0.5).values).sum(axis=1)
            return np.convolve(rows, np.ones(16), mode="valid").max() / (16 * 192)

        unit = band_strength(frame(1))
        for delta in (7, 8):
            assert band_strength(frame(delta)) == pytest.approx(delta * unit, rel=1e-9)
        assert 7 * unit < 1.0 < 8 * unit
        with pytest.raises(NoStripFound):
            extract_strip(frame(7), InspectConfig(0.5, 16))
        assert extract_strip(frame(8), InspectConfig(0.5, 16))[1] == 16

    def test_constant_image_raises(self):
        img = Image.from_array(np.full((48, 96), 128, np.uint8))
        with pytest.raises(NoStripFound):
            extract_strip(img, InspectConfig(2.0, 8))

    def test_image_smaller_than_block(self):
        img = Image.from_array(np.zeros((6, 96), np.uint8))
        with pytest.raises(ValueError):
            extract_strip(img, InspectConfig(2.0, 8))

    @pytest.mark.parametrize("block_length", [0, -8])
    def test_block_length_below_one_is_config_invalid(self, block_length):
        with pytest.raises(ConfigInvalid, match="block_length"):
            InspectConfig(2.0, block_length)


class TestEncodeTernary:
    def test_reference_segment(self):
        assert encode_ternary((0.5, 0.1, 0.9)).tolist() == [0, -1, 1]

    def test_all_decisive(self):
        assert encode_ternary((0.9, 0.1, 0.9)).tolist() == [1, -1, 1]

    def test_all_vague(self):
        assert encode_ternary((0.5, 0.5, 0.5)).tolist() == [0, 0, 0]

    def test_boundaries_inclusive(self):
        assert encode_ternary((0.7, 0.3, 0.5)).tolist() == [1, -1, 0]

    def test_any_length(self):
        assert encode_ternary(()).tolist() == []
        assert encode_ternary((0.0, 1.0, 0.31, 0.69, 0.7)).tolist() == [-1, 1, 0, 0, 1]


class TestClassifySegment:
    def test_memory_is_trained_once_and_read_only(self):
        net = sidewalk_memory()
        assert sidewalk_memory() is net
        with pytest.raises(ValueError, match="read-only"):
            net.weights[0, 1] = 1.0
        assert classify_segment(FUNDAMENTAL_PATTERNS[0]).verdict == INTACT

    def test_stored_vertex_intact(self):
        for vertex in FUNDAMENTAL_PATTERNS:
            decision = classify_segment(vertex)
            assert decision.verdict == INTACT
            assert decision.paint_blocks == ()

    def test_vague_block_painted(self):
        decision = classify_segment((0, -1, 1))
        assert decision.verdict == PAINT
        assert decision.vertex == (1, -1, 1)
        assert decision.paint_blocks == (0,)

    def test_start_offsets_paint_indices(self):
        decision = classify_segment((0, -1, 1), start=5)
        assert decision.paint_blocks == (5,)

    def test_all_vague_unresolved(self):
        decision = classify_segment((0, 0, 0))
        assert decision.verdict == UNRESOLVED
        assert decision.vertex is None
        assert decision.paint_blocks == ()

    def test_wrong_polarity_painted(self):
        decision = classify_segment((1, 1, 1))
        assert decision.verdict == PAINT
        assert decision.vertex == (1, -1, 1)
        assert decision.paint_blocks == (1,)

    def test_every_probe_matches_per_segment_recall(self):
        verdicts = set()
        for probe in itertools.product((-1, 0, 1), repeat=3):
            for start in (0, 5):
                decision = classify_segment(probe, start=start)
                assert decision == classify_segment_oracle(probe, start=start)
                verdicts.add(decision.verdict)
        assert verdicts == {INTACT, PAINT, UNRESOLVED}

    @pytest.mark.parametrize("probe, error", [
        ((2, 0, 0), NonBipolarPattern), ((1, -1), DimensionMismatch),
        ((1, -1, 1, -1), DimensionMismatch), ((), DimensionMismatch),
    ])
    def test_bad_probes_raise_and_are_never_cached(self, probe, error):
        with pytest.raises(error):
            classify_segment_oracle(probe)
        before = sidewalk._recall.cache_info()
        for _ in range(2):
            with pytest.raises(error):
                classify_segment(probe)
        assert sidewalk._recall.cache_info() == before  # refused before the probe table

    @pytest.mark.parametrize("probe", [
        (1.5, -1, 1), (0.9, -1, 1), ("1", "-1", "1"), pytest.param((10**400, 0, 0), id="10**400"),
        pytest.param((10**5000, 0, 0), id="10**5000"), ("a", 0, 0), (float("nan"), 0, 0),
        ([1], 0, 0), "101",
    ])
    def test_a_code_outside_the_three_values_is_non_bipolar(self, probe):
        """int() used to truncate 1.5 to an intact 1 and parse "1"; the rest leaked."""
        with pytest.raises(NonBipolarPattern):
            classify_segment(probe)

    @pytest.mark.parametrize("probe", [None, 5, 1.0, (1, -1, 1, 0), [[1, -1, 1]]])
    def test_a_segment_that_is_not_three_codes_is_a_dimension_mismatch(self, probe):
        with pytest.raises(DimensionMismatch):
            classify_segment(probe)

    def test_codes_equal_to_the_three_values_share_the_27_entries(self):
        sidewalk._recall.cache_clear()
        for probe in itertools.product((-1, 0, 1), repeat=3):
            expected = classify_segment(probe, start=2)
            for same in (tuple(map(float, probe)), np.array(probe), np.array(probe, np.int8),
                         [bool(c) if c >= 0 else c for c in probe]):
                decision = classify_segment(same, start=2)
                assert decision == expected
                assert all(type(c) is int for c in decision.encoded)
        assert sidewalk._recall.cache_info().currsize == 27

    def test_only_stored_patterns_recall_themselves(self):
        fixed = set()
        for probe in itertools.product((-1, 0, 1), repeat=3):
            try:
                state, _ = hopfield_recall(sidewalk_memory(), probe, max_iter=MAX_ITER)
            except NonConvergent:
                continue
            if tuple(state) == probe:
                fixed.add(probe)
        assert fixed == set(FUNDAMENTAL_PATTERNS)

    def test_recall_runs_at_most_once_per_probe(self, monkeypatch):
        calls = []
        real = sidewalk.hopfield_recall
        monkeypatch.setattr(sidewalk, "hopfield_recall",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        sidewalk._recall.cache_clear()
        segments = 0
        for img, config in planted_frames(50, seed=3):
            try:
                segments += len(inspect(img, config)[0].decisions)
            except NoStripFound:
                pass
        assert segments > 200
        assert len(calls) <= 27
        assert len({args[1] for args in calls}) == len(calls)


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

    @pytest.mark.parametrize("field", ["block_length"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_counts_rejected_when_built(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"{field} {value}"):
            InspectConfig(**{field: value})

    def test_window_coverage(self):
        report, _ = inspect(generate_sidewalk(SidewalkParams()))
        starts = [d.start for d in report.decisions]
        assert starts == list(range(10))

    def test_inverted_thresholds_not_silent_on_a_short_strip(self):
        # the fixed thresholds leave a vague band between them, so they are never inverted
        assert 0.0 <= DARK_MAX < BRIGHT_MIN <= 1.0
        # two blocks make no three-block segment, so no segment is classified
        params = SidewalkParams(n_blocks=2, block_length=8, image_height=32, band_top=12)
        report, _ = inspect(generate_sidewalk(params))
        assert report.n_blocks == 2 and report.decisions == ()


class TestInspectOracle:
    def test_matches_block_loop_on_planted_frames(self):
        cases = flagged = short = on_threshold = beside_threshold = 0
        for img, config in planted_frames(600):
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
                for threshold in (BRIGHT_MIN, DARK_MAX):
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
