"""Tests for domain types, posterior normalization, and the AVPF matrix format."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from avfusion import POSTERIOR_FLOOR
from avfusion.core import (
    AlignmentTarget,
    FormatError,
    FusedLogPosterior,
    PosteriorSequence,
    StateSpace,
    StreamWeights,
    UtteranceRecord,
    normalize_posteriors,
    read_manifest,
    read_matrix,
    write_manifest,
    write_matrix,
)


class TestNormalizePosteriors:
    def test_simple_scaling(self):
        out = normalize_posteriors(np.array([[2.0, 1.0, 1.0]]))
        npt.assert_allclose(out, [[0.5, 0.25, 0.25]], atol=1e-12)

    def test_floor_applied_to_zero_entries(self):
        out = normalize_posteriors(np.array([[1.0, 0.0, 0.0]]))
        assert out[0, 1] >= POSTERIOR_FLOOR
        assert out[0, 2] >= POSTERIOR_FLOOR
        npt.assert_allclose(out[0, 0], 1.0, atol=3e-8)
        npt.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_valid_row_unchanged(self):
        row = np.array([[0.3, 0.3, 0.4]])
        npt.assert_allclose(normalize_posteriors(row), row, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.0, 1.0, size=(50, 12))
        raw[raw < 0.3] = 0.0
        raw[:, 0] += 1e-3  # keep every row alive
        once = normalize_posteriors(raw)
        twice = normalize_posteriors(once)
        npt.assert_allclose(twice, once, atol=1e-15)

    def test_rows_stochastic_and_floored_in_bulk(self):
        rng = np.random.default_rng(21)
        raw = rng.exponential(1.0, size=(400, 9))
        raw[rng.uniform(size=raw.shape) < 0.5] = 0.0
        raw[:, 3] += 1e-6
        out = normalize_posteriors(raw)
        npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= POSTERIOR_FLOOR * (1 - 1e-12))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            normalize_posteriors(np.array([[0.5, -0.1, 0.6]]))

    def test_all_zero_row_reports_index(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="index 1"):
            normalize_posteriors(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_reports_index(self, value):
        bad = np.array([[0.5, 0.5], [0.2, 0.8], [value, 1.0]])
        with pytest.raises(ValueError, match="non-finite posterior row at index 2"):
            normalize_posteriors(bad)
        with pytest.raises(ValueError, match="index 0"):
            normalize_posteriors(np.array([[np.nan, 1.0], [0.5, 0.5]]))


def _normalize_by_passes(raw, floor=POSTERIOR_FLOOR):
    """The floor-then-rescale loop that normalize_posteriors solves in closed
    form, as it stood before: up to 100 passes, stopping below 1e-17."""
    raw = np.asarray(raw, dtype=np.float64)
    p = raw / raw.sum(axis=-1)[..., None]
    for _ in range(100):
        clipped = np.maximum(p, floor)
        nxt = clipped / clipped.sum(axis=-1, keepdims=True)
        if np.max(np.abs(nxt - p)) < 1e-17:
            return nxt
        p = nxt
    return p


class TestNormalizeMatchesPassLoop:
    """The closed form against the iterated definition."""

    def _check(self, raw):
        got = normalize_posteriors(raw)
        npt.assert_allclose(got, _normalize_by_passes(raw), rtol=0.0,
                            atol=1e-15)
        floored = got <= POSTERIOR_FLOOR
        assert np.all(got[floored] == POSTERIOR_FLOOR)
        return got

    def test_random_matrices_with_many_sub_floor_entries(self):
        rng = np.random.default_rng(60)
        floored = 0
        for _ in range(40):
            t, s = rng.integers(1, 80), rng.integers(2, 50)
            loglik = rng.normal(0.0, rng.uniform(1.0, 40.0), size=(t, s))
            raw = np.exp(loglik - loglik.max(axis=1, keepdims=True))
            floored += np.sum(self._check(raw) == POSTERIOR_FLOOR)
        assert floored > 1000

    def test_softmax_rows_at_stream_temperatures(self):
        rng = np.random.default_rng(61)
        loglik = rng.normal(0.0, 25.0, size=(300, 30))
        raw = np.exp(loglik - loglik.max(axis=1, keepdims=True))
        got = self._check(raw / raw.sum(axis=1, keepdims=True))
        assert np.mean(got == POSTERIOR_FLOOR) > 0.3

    def test_one_hot_rows(self):
        for s in (2, 3, 17, 60):
            raw = np.eye(s)
            got = self._check(raw)
            npt.assert_array_equal(got[~np.eye(s, dtype=bool)], POSTERIOR_FLOOR)
            npt.assert_allclose(np.diag(got), 1.0 - (s - 1) * POSTERIOR_FLOOR,
                                rtol=0.0, atol=1e-15)

    def test_entries_just_above_the_floor(self):
        # the last two entries fall below the floor only once the two zeros
        # are floored and the rest rescaled by 1 - 2 * floor
        f = POSTERIOR_FLOOR
        low = [f * (1 + 1e-8), f * (1 + 0.5e-8)]
        raw = np.array([[1.0 - sum(low), 0.0, 0.0, *low]])
        got = self._check(raw)
        npt.assert_array_equal(got[0, 1:], POSTERIOR_FLOOR)


_rows = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.one_of(st.just(0.0),
                       st.floats(1e-12, 1e3, allow_subnormal=False)),
).filter(lambda a: bool(np.all(a.sum(axis=1) > 0)))


class TestNormalizeProperties:
    @settings(max_examples=300, deadline=None)
    @given(_rows)
    def test_stochastic_floored_idempotent(self, raw):
        out = normalize_posteriors(raw)
        npt.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(out >= POSTERIOR_FLOOR)
        npt.assert_allclose(normalize_posteriors(out), out, rtol=0.0,
                            atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(_rows, st.randoms(use_true_random=False))
    def test_permuting_a_row_permutes_the_output(self, raw, rnd):
        perm = np.array(rnd.sample(range(raw.shape[1]), raw.shape[1]))
        npt.assert_allclose(normalize_posteriors(raw[:, perm]),
                            normalize_posteriors(raw)[:, perm], rtol=0.0,
                            atol=1e-15)


class TestMatrixIO:
    def test_single_value_file_is_20_bytes(self, tmp_path):
        p = tmp_path / "one.avpf"
        write_matrix(p, np.array([[0.5]]))
        assert p.stat().st_size == 20

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
        p = tmp_path / "m.avpf"
        write_matrix(p, mat)
        back = read_matrix(p)
        npt.assert_array_equal(back, mat)

    def test_round_trip_many_shapes(self, tmp_path):
        rng = np.random.default_rng(11)
        for rows, cols in [(1, 1), (1, 64), (64, 1), (13, 17), (200, 3)]:
            mat = rng.standard_normal((rows, cols)).astype(np.float32)
            p = tmp_path / f"m{rows}x{cols}.avpf"
            write_matrix(p, mat)
            back = read_matrix(p)
            npt.assert_array_equal(back.astype(np.float32), mat)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.avpf"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_matrix(p)
        try:
            read_matrix(p)
        except FormatError as err:
            assert err.offset == 0

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "trunc.avpf"
        write_matrix(p, np.ones((4, 4)))
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="payload"):
            read_matrix(p)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "tiny.avpf"
        p.write_bytes(b"AVPF\x01")
        with pytest.raises(FormatError, match="header"):
            read_matrix(p)

    def test_wrong_version_rejected(self, tmp_path):
        import struct

        p = tmp_path / "v9.avpf"
        p.write_bytes(b"AVPF" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError, match="version"):
            read_matrix(p)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_matrix(tmp_path / "x.avpf", np.zeros(5))


def _avpf_bytes(tmp_path, rows, cols):
    p = tmp_path / "m.avpf"
    write_matrix(p, np.arange(rows * cols, dtype=float).reshape(rows, cols))
    return p, p.read_bytes()


class TestMatrixReadFuzz:
    """Damaged AVPF bytes raise FormatError and nothing else."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_truncated_file(self, tmp_path_factory, rows, cols, data):
        p, full = _avpf_bytes(tmp_path_factory.mktemp("t"), rows, cols)
        cut = data.draw(st.integers(0, len(full) - 1))
        p.write_bytes(full[:cut])
        with pytest.raises(FormatError):
            read_matrix(p)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6),
           st.lists(st.integers(0, 10_000), min_size=1, max_size=4))
    def test_bit_flips(self, tmp_path_factory, rows, cols, flips):
        p, full = _avpf_bytes(tmp_path_factory.mktemp("f"), rows, cols)
        data = bytearray(full)
        for bit in flips:
            bit %= 8 * len(data)
            data[bit // 8] ^= 1 << (bit % 8)
        p.write_bytes(bytes(data))
        try:
            out = read_matrix(p)
        except FormatError:
            return
        assert out.ndim == 2 and 16 + 4 * out.size == len(data)


class TestDomainTypes:
    def test_state_space_validation(self):
        StateSpace(2, ("a", "b"))
        with pytest.raises(ValueError):
            StateSpace(1, ("a",))
        with pytest.raises(ValueError):
            StateSpace(2, ("a", "a"))
        with pytest.raises(ValueError):
            StateSpace(3, ("a", "b"))

    def test_posterior_sequence_accessors(self):
        frames = normalize_posteriors(np.ones((4, 3)))
        seq = PosteriorSequence("A", frames)
        assert seq.num_frames == 4
        assert seq.num_states == 3

    def test_posterior_sequence_rejects_unknown_stream(self):
        with pytest.raises(ValueError, match="stream"):
            PosteriorSequence("X", np.ones((2, 2)) / 2)

    def test_fused_log_posterior_requires_finite(self):
        FusedLogPosterior(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="finite"):
            FusedLogPosterior(np.array([[0.0, -np.inf]]))

    def test_stream_weights_simplex_enforced(self):
        w = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        StreamWeights(w)
        with pytest.raises(ValueError, match="sum"):
            StreamWeights(np.array([[0.5, 0.1, 0.1]]))
        with pytest.raises(ValueError, match="nonnegative"):
            StreamWeights(np.array([[1.2, -0.2, 0.0]]))

    def test_alignment_target_bounds_and_one_hot(self):
        tgt = AlignmentTarget(np.array([0, 2, 1]), num_states=3)
        assert tgt.num_frames == 3
        with pytest.raises(ValueError, match="range"):
            AlignmentTarget(np.array([0, 3]), num_states=3)
        with pytest.raises(ValueError, match="1-D"):
            AlignmentTarget(np.zeros((2, 2), dtype=int), num_states=3)


class TestManifest:
    def test_round_trip(self, tmp_path):
        rec = UtteranceRecord(
            utt_id="u000001",
            transcript=["ba", "ko"],
            split="test",
            audio_paths={"clean": "audio/u000001.clean.wav"},
            posterior_paths={"clean": {"A": "feats/u000001.clean.A.avpf"}},
            alignment_path="align/u000001.avpf",
            video_path="video/u000001.raw",
            num_video_frames=20,
            num_audio_frames=80,
        )
        path = tmp_path / "manifest.json"
        write_manifest(path, "world.json", [rec])
        world, records = read_manifest(path)
        assert world == "world.json"
        assert len(records) == 1
        back = records[0]
        assert back.utt_id == rec.utt_id
        assert back.transcript == rec.transcript
        assert back.audio_paths == rec.audio_paths
        assert back.posterior_paths == rec.posterior_paths
        assert back.num_audio_frames == 80

    def test_manifest_is_stable_text(self, tmp_path):
        rec = UtteranceRecord(utt_id="u0", transcript=["a"], split="train")
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, "w.json", [rec])
        write_manifest(p2, "w.json", [rec])
        assert p1.read_bytes() == p2.read_bytes()
