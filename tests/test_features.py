"""Acoustic and prosodic front-end tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from suprahmm.features import (
    F0_MAX_HZ,
    F0_MIN_HZ,
    VOICING_THRESHOLD,
    AudioClip,
    FeatureSequence,
    FrameProsody,
    LOG_ENERGY_FLOOR,
    MfccConfig,
    append_deltas,
    extract_features,
    filterbank_energies,
    frame_and_window,
    frame_prosody,
    load_features,
    load_wav,
    mel_filterbank,
    mfcc,
    preemphasize,
    save_features,
    save_features_csv,
)
from suprahmm.features import _autocorrelation, _frame_signal, _hamming, _mel_weights

from oracles import direct_autocorrelation, direct_dft_power

RATE = 16000


def tone(freq_hz, duration_s=0.2, rate=RATE, amplitude=0.5):
    t = np.arange(int(duration_s * rate)) / rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), rate)


def silence(num_samples=4000, rate=RATE):
    return AudioClip(np.zeros(num_samples), rate)


class TestAudioClip:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([]), RATE)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), RATE)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(10), 0)


class TestPreemphasis:
    def test_zero_coeff_is_identity(self):
        clip = tone(440)
        out = preemphasize(clip, 0.0)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_constant_signal_coeff_near_one(self):
        clip = AudioClip(np.array([0.3, 0.3, 0.3]), RATE)
        out = preemphasize(clip, 0.999)
        np.testing.assert_allclose(out.samples, [0.3, 0.0003, 0.0003], atol=1e-12)

    def test_two_sample_example(self):
        out = preemphasize(AudioClip(np.array([1.0, 1.0]), RATE), 0.97)
        np.testing.assert_allclose(out.samples, [1.0, 0.03], atol=1e-15)

    def test_coeff_out_of_range(self):
        with pytest.raises(ValueError):
            preemphasize(tone(100), 1.0)


class TestFraming:
    def test_exactly_one_frame(self):
        clip = AudioClip(np.zeros(400), RATE)
        assert frame_and_window(clip, MfccConfig()).shape == (1, 400)

    def test_two_frames_trailing_partial_dropped(self):
        clip = AudioClip(np.zeros(560), RATE)
        assert frame_and_window(clip, MfccConfig()).shape == (2, 400)

    def test_all_ones_gives_hamming_curve(self):
        clip = AudioClip(np.ones(400), RATE)
        frames = frame_and_window(clip, MfccConfig())
        np.testing.assert_allclose(frames[0], np.hamming(400))

    def test_too_short_clip(self):
        with pytest.raises(ValueError):
            frame_and_window(AudioClip(np.zeros(399), RATE), MfccConfig())

    @pytest.mark.parametrize("length", [400, 559, 560, 561])
    def test_rows_are_the_shifted_sample_windows(self, length):
        samples = np.random.default_rng(length).normal(size=length)
        frames = _frame_signal(samples, 400, 160)
        assert frames.shape == (1 + (length - 400) // 160, 400)
        for t, row in enumerate(frames):
            np.testing.assert_array_equal(row, samples[t * 160 : t * 160 + 400])

    def test_windowed_frames_are_a_fresh_array(self):
        clip = AudioClip(np.ones(560), RATE)
        frame_and_window(clip, MfccConfig())[:] = 0.0
        np.testing.assert_array_equal(clip.samples, np.ones(560))


class TestCachedConstants:
    def test_cached_arrays_are_read_only(self):
        for array in (_hamming(400), _mel_weights(26, 512, RATE)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_writing_the_public_filterbank_leaves_energies(self):
        clip, cfg = tone(700), MfccConfig()
        before = filterbank_energies(clip, cfg)
        weights, _ = mel_filterbank(cfg.num_mel_filters, cfg.fft_size, RATE)
        weights[:] = 7.0
        np.testing.assert_array_equal(filterbank_energies(clip, cfg), before)


class TestMelFilterbank:
    def test_partition_strictly_positive_between_centers(self):
        cfg = MfccConfig()
        weights, centers = mel_filterbank(cfg.num_mel_filters, cfg.fft_size, RATE)
        bin_freqs = np.arange(cfg.fft_size // 2 + 1) * RATE / cfg.fft_size
        inner = (bin_freqs > centers[0]) & (bin_freqs < centers[-1])
        assert np.all(weights.sum(axis=0)[inner] > 0)

    def test_scaling_is_quadratic_before_log(self):
        clip = tone(700)
        scaled = AudioClip(0.5 * clip.samples, RATE)
        e1 = filterbank_energies(clip, MfccConfig())
        e2 = filterbank_energies(scaled, MfccConfig())
        np.testing.assert_allclose(e2, 0.25 * e1, rtol=1e-12)


class TestMfcc:
    def test_silence_has_constant_log_floor_cepstrum(self):
        cfg = MfccConfig()
        seq = mfcc(silence(), cfg)
        expected_c0 = cfg.num_mel_filters * math.log(LOG_ENERGY_FLOOR)
        np.testing.assert_allclose(seq.frames[:, 0], expected_c0, rtol=1e-12)
        np.testing.assert_allclose(seq.frames[:, 1:16], 0.0, atol=1e-9)

    def test_delta_half_is_zero(self):
        seq = mfcc(tone(300), MfccConfig())
        assert seq.dim == 32
        np.testing.assert_array_equal(seq.frames[:, 16:], 0.0)

    def test_tone_peaks_at_filter_nearest_1khz(self):
        cfg = MfccConfig()
        clip = tone(1000)
        energies = filterbank_energies(clip, cfg)
        weights, centers = mel_filterbank(cfg.num_mel_filters, cfg.fft_size, RATE)

        # Independent check on the first frame via an explicit DFT sum.
        frame = frame_and_window(clip, cfg)[0]
        oracle_energies = direct_dft_power(frame, cfg.fft_size) @ weights.T
        np.testing.assert_allclose(energies[0], oracle_energies, rtol=1e-8)

        nearest = int(np.argmin(np.abs(centers - 1000.0)))
        assert int(np.argmax(energies[0])) == nearest
        assert int(np.argmax(oracle_energies)) == nearest

    def test_deterministic(self):
        a = mfcc(tone(440), MfccConfig()).frames
        b = mfcc(tone(440), MfccConfig()).frames
        np.testing.assert_array_equal(a, b)

    def test_finite_for_finite_input(self):
        rng = np.random.default_rng(7)
        clip = AudioClip(rng.uniform(-1, 1, size=3000), RATE)
        assert np.all(np.isfinite(extract_features(clip).frames))


class TestDeltas:
    def test_constant_sequence_has_zero_deltas(self):
        frames = np.hstack([np.full((5, 2), 3.0), np.zeros((5, 2))])
        out = append_deltas(FeatureSequence(frames), 2)
        np.testing.assert_array_equal(out.frames[:, 2:], 0.0)

    def test_linear_ramp_recovers_slope(self):
        slope = 0.7
        static = slope * np.arange(10)[:, None] * np.ones((1, 3))
        seq = FeatureSequence(np.hstack([static, np.zeros_like(static)]))
        out = append_deltas(seq, 2)
        np.testing.assert_allclose(out.frames[2:-2, 3:], slope, rtol=1e-12)

    def test_single_frame_deltas_vanish(self):
        seq = FeatureSequence(np.array([[1.0, 2.0, 0.0, 0.0]]))
        out = append_deltas(seq, 2)
        np.testing.assert_array_equal(out.frames[:, 2:], 0.0)

    def test_time_reversal_negates_interior_deltas(self):
        rng = np.random.default_rng(3)
        static = rng.normal(size=(12, 4))
        seq = FeatureSequence(np.hstack([static, np.zeros_like(static)]))
        rev = FeatureSequence(np.hstack([static[::-1], np.zeros_like(static)]))
        w = 2
        fwd = append_deltas(seq, w).frames[:, 4:]
        bwd = append_deltas(rev, w).frames[::-1, 4:]
        np.testing.assert_allclose(bwd[w:-w], -fwd[w:-w], atol=1e-12)


class TestProsody:
    # Segment vector columns: 0 mean log F0, 1 its SD, 2 voiced ratio,
    # 3 mean log-energy, 4 log-energy range, 5 duration in frames.

    def test_pure_tone_pitch_and_voicing(self):
        clip = tone(200, duration_s=0.3)
        track = frame_prosody(clip)
        segment_ids = np.zeros(track.f0_hz.size, dtype=int)
        (vec,) = track.segment_vectors(segment_ids)
        assert vec[2] == 1.0
        assert abs(vec[0] - math.log(200)) < 0.05 * math.log(200)

    def test_silence_is_unvoiced_with_sentinels(self):
        clip = silence()
        track = frame_prosody(clip)
        segment_ids = np.zeros(len(track), dtype=int)
        (vec,) = track.segment_vectors(segment_ids)
        assert vec[2] == 0.0
        assert vec[0] == 0.0
        assert vec[1] == 0.0

    def test_duration_counts_frames(self):
        clip = tone(150, duration_s=0.5)
        track = frame_prosody(clip)
        ids = np.zeros(len(track), dtype=int)
        ids[30:] = 1
        vecs = track.segment_vectors(ids)
        assert vecs[0][5] == 30.0
        assert vecs[1][5] == float(len(track) - 30)

    def test_empty_segment_rejected(self):
        clip = tone(150)
        track = frame_prosody(clip)
        ids = np.full(len(track), 2)  # segments 0 and 1 have no frames
        with pytest.raises(ValueError):
            track.segment_vectors(ids)

    def test_alignment_must_cover_all_frames(self):
        clip = tone(150)
        with pytest.raises(ValueError):
            frame_prosody(clip).segment_vectors(np.zeros(3, dtype=int))

    def test_utterance_vector_matches_single_segment(self):
        clip = tone(120, duration_s=0.3)
        track = frame_prosody(clip)
        whole = track.segment_vectors(np.zeros(len(track), dtype=int))[0]
        np.testing.assert_array_equal(track.utterance_vector(), whole)


@pytest.mark.parametrize("frame_ms", [25.0, 15.0])
def test_autocorrelation_matches_direct_sum(frame_ms):
    # 15 ms frames are 240 samples, so the pitch search reaches lag 239 =
    # frame_len - 1 and the transform length must cover 479 points.
    cfg = MfccConfig(frame_length_ms=frame_ms)
    frame_len = cfg.frame_length_samples(RATE)
    lag_min = math.ceil(RATE / F0_MAX_HZ)
    lag_max = min(frame_len - 1, math.floor(RATE / F0_MIN_HZ))
    assert lag_max == (266 if frame_ms == 25.0 else frame_len - 1)
    rng = np.random.default_rng(11)
    clip = AudioClip(np.concatenate([tone(110, 0.15).samples, tone(310, 0.15).samples,
                                     0.3 * rng.normal(size=2400)]), RATE)
    frames = _frame_signal(clip.samples, frame_len, cfg.frame_shift_samples(RATE))
    acf = _autocorrelation(frames, lag_max)
    direct = np.array([direct_autocorrelation(f, lag_max) for f in frames])
    assert acf.shape == direct.shape
    lags = [0, *range(lag_min, lag_max + 1)]
    assert np.all(np.abs(acf[:, lags] - direct[:, lags]) <= 1e-12 * direct[:, :1])

    r0, window = direct[:, 0], direct[:, lag_min:]
    voiced = (r0 > 0) & (window.max(axis=1) / r0 >= VOICING_THRESHOLD)
    track = frame_prosody(clip, cfg)
    np.testing.assert_array_equal(track.voiced, voiced)
    assert voiced.any() and not voiced.all()
    peak_lag = lag_min + np.argmax(window, axis=1)
    np.testing.assert_array_equal(track.f0_hz, np.where(voiced, RATE / peak_lag, 0.0))


def per_segment_summary(f0, voiced, log_e):
    """One segment's summary by np.mean and np.std, which sum runs of 8 or
    more frames pairwise."""
    log_f0 = np.log(f0[voiced])
    mean, sd = (log_f0.mean(), log_f0.std()) if voiced.any() else (0.0, 0.0)
    return np.array([mean, sd, voiced.mean(), log_e.mean(), log_e.max() - log_e.min(),
                     voiced.size])


class TestSegmentVectors:
    VOICED_SHARE = {"voiced": 1.0, "unvoiced": 0.0, "mixed": 0.5}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           runs=st.lists(st.tuples(st.integers(1, 150),
                                   st.sampled_from(sorted(VOICED_SHARE))),
                         min_size=1, max_size=10))
    @example(seed=0, runs=[(1, "voiced"), (9, "mixed"), (1, "unvoiced"), (40, "unvoiced"),
                           (200, "mixed"), (2, "voiced")])
    def test_matches_per_segment_formula(self, seed, runs):
        rng = np.random.default_rng(seed)
        lengths = [n for n, _ in runs]
        voiced = np.concatenate([rng.random(n) < self.VOICED_SHARE[mode]
                                 for n, mode in runs])
        f0 = np.where(voiced, rng.uniform(60.0, 400.0, voiced.size), 0.0)
        log_e = rng.normal(-3.0, 2.0, voiced.size)
        ids = np.repeat(np.arange(len(runs)), lengths)
        got = FrameProsody(f0, voiced, log_e).segment_vectors(ids)
        assert got.shape == (len(runs), 6)
        bounds = np.cumsum([0] + lengths)
        for row, a, b in zip(got, bounds[:-1], bounds[1:]):
            ref = per_segment_summary(f0[a:b], voiced[a:b], log_e[a:b])
            assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
            # Voiced ratio, energy range and duration are exact.
            np.testing.assert_array_equal(row[[2, 4, 5]], ref[[2, 4, 5]])
            if not voiced[a:b].any():
                assert row[0] == 0.0 and row[1] == 0.0

    @pytest.mark.parametrize("ids", [[0, 0, 2, 2], [0, 1, 0, 0], [1, 1, 2, 2],
                                     [0, 1, 1, -1]])
    def test_ids_that_skip_or_repeat_a_run_raise(self, ids):
        track = FrameProsody(np.full(4, 100.0), np.ones(4, dtype=bool), np.zeros(4))
        with pytest.raises(ValueError):
            track.segment_vectors(np.array(ids))


class TestIo:
    def test_wav_round_trip(self, tmp_path):
        path = tmp_path / "tone.wav"
        samples = (0.25 * np.sin(2 * np.pi * 300 * np.arange(3200) / RATE))
        wavfile.write(path, RATE, (samples * 32767).astype(np.int16))
        clip = load_wav(path)
        assert clip.sample_rate_hz == RATE
        assert len(clip) == 3200
        assert np.max(np.abs(clip.samples)) <= 1.0

    def test_wav_rejects_wrong_rate(self, tmp_path):
        path = tmp_path / "slow.wav"
        wavfile.write(path, 8000, np.zeros(100, dtype=np.int16))
        with pytest.raises(ValueError):
            load_wav(path, expected_sample_rate_hz=RATE)

    def test_wav_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, RATE, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValueError):
            load_wav(path)

    def test_wav_rejects_float(self, tmp_path):
        path = tmp_path / "float.wav"
        wavfile.write(path, RATE, np.zeros(100, dtype=np.float32))
        with pytest.raises(ValueError):
            load_wav(path)

    def test_feature_file_round_trip(self, tmp_path):
        seq = extract_features(tone(440))
        path = tmp_path / "u.feat"
        save_features(path, seq)
        loaded = load_features(path)
        np.testing.assert_array_equal(loaded.frames, seq.frames)

    @pytest.mark.parametrize("part", ["header", "payload"])
    def test_truncated_feature_file_is_rejected_naming_the_path(self, tmp_path, part):
        path = tmp_path / "u.feat"
        save_features(path, FeatureSequence(np.arange(6.0).reshape(3, 2)))
        path.write_bytes(path.read_bytes()[:5 if part == "header" else -8])
        with pytest.raises(ValueError, match="truncated feature (file )?%s" % part) as err:
            load_features(path)
        assert str(path) in str(err.value)

    def test_feature_binary_layout(self, tmp_path):
        seq = FeatureSequence(np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "tiny.feat"
        save_features(path, seq)
        raw = path.read_bytes()
        assert raw[:8] == (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
        np.testing.assert_array_equal(
            np.frombuffer(raw[8:], dtype="<f8"), [1.0, 2.0, 3.0, 4.0]
        )

    def test_csv_export(self, tmp_path):
        seq = FeatureSequence(np.array([[1.5, -2.0], [0.0, 3.25]]))
        path = tmp_path / "tiny.csv"
        save_features_csv(path, seq)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(body, seq.frames)
