"""MFCC and prosodic feature extraction for speech utterances.

The acoustic front-end turns a mono PCM waveform into per-frame cepstral
vectors (static coefficients plus their time deltas).  The prosodic
front-end tracks pitch, voicing, and energy per frame and summarizes them
over arbitrary frame segments for the suprasegmental layer.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, fields

import numpy as np
import scipy.fft
from scipy.io import wavfile

# Filterbank energies below this are clipped before the log stage so that
# silence stays representable.
LOG_ENERGY_FLOOR = 1e-10

# Frame mean-square floor for the prosodic log-energy track.
FRAME_ENERGY_FLOOR = 1e-12

# Autocorrelation peak threshold for the voiced/unvoiced decision.
VOICING_THRESHOLD = 0.3

F0_MIN_HZ = 60.0
F0_MAX_HZ = 400.0

PROSODY_DIM = 6


@dataclass(frozen=True)
class AudioClip:
    """A mono waveform with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("audio clip must be a non-empty 1-D sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("audio clip contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class MfccConfig:
    """Front-end settings.  Defaults: 25 ms frames with a 10 ms shift,
    0.97 preemphasis, 512-point FFT, 26 mel filters, 16 cepstra, delta
    window of 2 frames."""

    preemphasis_coeff: float = 0.97
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    fft_size: int = 512
    num_mel_filters: int = 26
    num_cepstra: int = 16
    delta_window: int = 2

    def __post_init__(self):
        if not 0.0 <= self.preemphasis_coeff < 1.0:
            raise ValueError("preemphasis coefficient must lie in [0, 1)")
        if self.frame_length_ms <= 0 or self.frame_shift_ms <= 0:
            raise ValueError("frame length and shift must be positive")
        if self.frame_shift_ms > self.frame_length_ms:
            raise ValueError("frame shift must not exceed frame length")
        if self.fft_size < 1 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if self.num_mel_filters < 1:
            raise ValueError("need at least one mel filter")
        if not 1 <= self.num_cepstra <= self.num_mel_filters:
            raise ValueError("num_cepstra must lie in [1, num_mel_filters]")
        if self.delta_window < 1:
            raise ValueError("delta window must be >= 1")

    def frame_length_samples(self, sample_rate_hz: int) -> int:
        return int(round(self.frame_length_ms * sample_rate_hz / 1000.0))

    def frame_shift_samples(self, sample_rate_hz: int) -> int:
        return int(round(self.frame_shift_ms * sample_rate_hz / 1000.0))

    def check_fft_size(self, sample_rate_hz: int) -> None:
        """Refuse an FFT shorter than one frame at `sample_rate_hz`, rounded in floats."""
        frame_len = np.round(self.frame_length_ms * sample_rate_hz / 1000.0)
        if frame_len > self.fft_size:
            raise ValueError("fft_size %d is smaller than the %.0f-sample frame"
                             % (self.fft_size, frame_len))


@dataclass(frozen=True)
class FeatureSequence:
    """Per-utterance T x D frame matrix; static half followed by delta half."""

    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError("feature matrix must be 2-D with at least one frame")
        if frames.shape[1] % 2 != 0:
            raise ValueError("feature dimension must be even (static + delta halves)")
        if not np.all(np.isfinite(frames)):
            raise ValueError("feature matrix contains non-finite entries")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def preemphasize(clip: AudioClip, coeff: float) -> AudioClip:
    """First-order high-pass: out[n] = in[n] - coeff * in[n-1], out[0] = in[0]."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError("preemphasis coefficient must lie in [0, 1)")
    x = clip.samples
    out = np.empty_like(x)
    out[0] = x[0]
    out[1:] = x[1:] - coeff * x[:-1]
    return AudioClip(out, clip.sample_rate_hz)


def _frame_signal(samples: np.ndarray, frame_len: int, shift: int) -> np.ndarray:
    if samples.size < frame_len:
        raise ValueError(
            "clip of %d samples is shorter than one %d-sample frame"
            % (samples.size, frame_len)
        )
    return np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::shift]


def frame_and_window(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """Split into overlapping frames and apply a Hamming window.

    Frame t covers samples [t*shift, t*shift + length); a trailing partial
    frame is dropped.  Returns an array of shape (num_frames, frame_len).
    """
    frame_len = cfg.frame_length_samples(clip.sample_rate_hz)
    shift = cfg.frame_shift_samples(clip.sample_rate_hz)
    frames = _frame_signal(clip.samples, frame_len, shift)
    return frames * np.hamming(frame_len)


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(num_filters: int, fft_size: int, sample_rate_hz: int):
    """Triangular filters evenly spaced on the mel scale from 0 Hz to Nyquist.

    Returns (weights, centers_hz) where weights has shape
    (num_filters, fft_size // 2 + 1) and is evaluated on the continuous
    frequency of each FFT bin, so adjacent triangles cross-fade to 1.
    """
    nyquist = sample_rate_hz / 2.0
    mel_points = np.linspace(0.0, hz_to_mel(nyquist), num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate_hz / fft_size)
    weights = np.zeros((num_filters, bin_freqs.size))
    for k in range(num_filters):
        lo, mid, hi = hz_points[k], hz_points[k + 1], hz_points[k + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        weights[k] = np.maximum(0.0, np.minimum(rising, falling))
    return weights, hz_points[1:-1]


@functools.lru_cache(maxsize=16)
def _mel_weights(num_filters: int, fft_size: int, sample_rate_hz: int) -> np.ndarray:
    """mel_filterbank's weights, built once per (filters, FFT size, rate);
    read-only.  Use the `.T` view: a contiguous copy sums in another order."""
    weights, _ = mel_filterbank(num_filters, fft_size, sample_rate_hz)
    weights.flags.writeable = False
    return weights


def filterbank_energies(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """Per-frame mel filterbank energies of the power spectrum, shape (T, K)."""
    cfg.check_fft_size(clip.sample_rate_hz)
    frames = frame_and_window(clip, cfg)
    spectrum = np.fft.rfft(frames, n=cfg.fft_size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    weights = _mel_weights(cfg.num_mel_filters, cfg.fft_size, clip.sample_rate_hz)
    return power @ weights.T


def mfcc(clip: AudioClip, cfg: MfccConfig) -> FeatureSequence:
    """Static cepstra per frame; the delta half of the output is zero.

    Chain: preemphasis, framing, Hamming window, power spectrum, mel
    filterbank, log (floored at LOG_ENERGY_FLOOR), DCT-II.  The DCT
    convention is c_k = sum_n log(E_n) cos(pi k (2n+1) / (2K)), so c_0 of
    silence equals K * log(LOG_ENERGY_FLOOR).
    """
    pre = preemphasize(clip, cfg.preemphasis_coeff)
    energies = filterbank_energies(pre, cfg)
    if not np.all(np.isfinite(energies)):
        raise ValueError("non-finite values in the spectrum")
    log_energies = np.log(np.maximum(energies, LOG_ENERGY_FLOOR))
    cepstra = scipy.fft.dct(log_energies, type=2, axis=1)[:, : cfg.num_cepstra] / 2.0
    frames = np.hstack([cepstra, np.zeros_like(cepstra)])
    return FeatureSequence(frames)


def append_deltas(seq: FeatureSequence, delta_window: int) -> FeatureSequence:
    """Fill the delta half with regression deltas of the static half.

    delta[t] = sum_{k=1..W} k * (static[t+k] - static[t-k]) / (2 * sum k^2),
    with frame indices clamped at the edges.
    """
    if delta_window < 1:
        raise ValueError("delta window must be >= 1")
    num_static = seq.dim // 2
    static = seq.frames[:, :num_static]
    num_frames = static.shape[0]
    denom = 2.0 * sum(k * k for k in range(1, delta_window + 1))
    delta = np.zeros_like(static)
    for k in range(1, delta_window + 1):
        fwd = np.clip(np.arange(num_frames) + k, 0, num_frames - 1)
        bwd = np.clip(np.arange(num_frames) - k, 0, num_frames - 1)
        delta += k * (static[fwd] - static[bwd])
    delta /= denom
    return FeatureSequence(np.hstack([static, delta]))


def extract_features(clip: AudioClip, cfg: MfccConfig | None = None) -> FeatureSequence:
    """Full acoustic front-end: static cepstra plus deltas."""
    cfg = cfg or MfccConfig()
    return append_deltas(mfcc(clip, cfg), cfg.delta_window)


# ---------------------------------------------------------------------------
# Prosody
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameProsody:
    """Per-frame pitch, voicing, and log-energy tracks.

    f0_hz is 0 on unvoiced frames.  A segment summary is a row of
    PROSODY_DIM values: mean and standard deviation of log F0 over the
    voiced frames (both 0 when none is voiced), voiced ratio, mean
    log-energy, log-energy range, and duration in frames.
    """

    f0_hz: np.ndarray
    voiced: np.ndarray
    log_energy: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0_hz, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        log_e = np.asarray(self.log_energy, dtype=np.float64)
        if not (f0.shape == voiced.shape == log_e.shape) or f0.ndim != 1 or f0.size == 0:
            raise ValueError("prosody tracks must be non-empty 1-D arrays of equal length")
        object.__setattr__(self, "f0_hz", f0)
        object.__setattr__(self, "voiced", voiced)
        object.__setattr__(self, "log_energy", log_e)

    def __len__(self) -> int:
        return self.f0_hz.size

    @classmethod
    def concatenate(cls, tracks) -> "FrameProsody":
        """The tracks joined end to end."""
        return cls(*(np.concatenate([getattr(t, f.name) for t in tracks]) for f in fields(cls)))

    def check_values(self, lengths, names) -> None:
        """Raise ValueError naming the first of the utterances joined here
        (`lengths` frames each, called `names`) with a track value that is
        not finite or a voiced frame whose F0 is not positive.  Not in
        __post_init__: per utterance it costs more than building the tracks.
        """
        ok = (np.isfinite(self.f0_hz) & np.isfinite(self.log_energy)
              & ((self.f0_hz > 0) | ~self.voiced))
        if not ok.all():
            first = np.searchsorted(np.cumsum(lengths), np.argmin(ok), side="right")
            raise ValueError("utterance %r: prosody tracks must be finite, with a positive "
                             "F0 on every voiced frame" % names[first])

    def segment_vectors(self, segment_ids: np.ndarray) -> np.ndarray:
        """Summarize each segment; returns an (S, 6) matrix.

        segment_ids maps every frame to a segment and must number the runs
        of equal ids 0..S-1 in time order; ids that skip or repeat a run
        raise.  Each column is one reduceat over the runs; reduceat adds a
        run's first frame to the sum of the rest, so a mean can differ from
        np.mean's in the last bits.
        """
        ids = np.asarray(segment_ids)
        if ids.shape != (len(self),):
            raise ValueError("alignment must cover all %d frames" % len(self))
        starts = np.concatenate([[0], np.flatnonzero(np.diff(ids)) + 1])
        if not np.array_equal(ids[starts], np.arange(starts.size)):
            raise ValueError("segment ids must number the runs 0..S-1 in time order")
        count = np.diff(starts, append=ids.size)
        num_voiced = np.add.reduceat(self.voiced.astype(np.float64), starts)
        # Unvoiced frames read log 1 = 0 and drop out of the sums.
        log_f0 = np.log(np.where(self.voiced, self.f0_hz, 1.0))
        divisor = np.maximum(num_voiced, 1.0)
        mean_log_f0 = np.add.reduceat(log_f0, starts) / divisor
        dev = np.where(self.voiced, log_f0 - np.repeat(mean_log_f0, count), 0.0)
        log_e = self.log_energy
        return np.column_stack([
            mean_log_f0,
            np.sqrt(np.add.reduceat(dev**2, starts) / divisor),
            num_voiced / count,
            np.add.reduceat(log_e, starts) / count,
            np.maximum.reduceat(log_e, starts) - np.minimum.reduceat(log_e, starts),
            count.astype(np.float64),
        ])

    def utterance_vector(self) -> np.ndarray:
        """The whole utterance summarized as a single segment."""
        return self.segment_vectors(np.zeros(len(self), dtype=np.intp))[0]


def _autocorrelation(frames: np.ndarray, lag_max: int) -> np.ndarray:
    """Lags 0..lag_max of each row's autocorrelation (see frame_prosody)."""
    nfft = scipy.fft.next_fast_len(frames.shape[1] + lag_max, real=True)
    spectrum = scipy.fft.rfft(frames, n=nfft, axis=1)
    acf = scipy.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=nfft, axis=1)
    return acf[:, : lag_max + 1]


def frame_prosody(clip: AudioClip, cfg: MfccConfig | None = None) -> FrameProsody:
    """Track F0 (autocorrelation peak in 60-400 Hz), voicing, and log-energy.

    Uses the same framing grid as the cepstral front-end but raw
    (unwindowed, unpreemphasized) frames.  The autocorrelation is the
    inverse FFT of each frame's power spectrum at length
    n = next_fast_len(frame_len + lag_max) (675 for 400-sample frames).
    Its circular wrap-around adds x[m] * x[m + k - n] at lag k only for
    k > n - frame_len >= lag_max, so lag 0 and every lag searched are exact.
    """
    cfg = cfg or MfccConfig()
    rate = clip.sample_rate_hz
    frame_len = cfg.frame_length_samples(rate)
    shift = cfg.frame_shift_samples(rate)
    frames = _frame_signal(clip.samples, frame_len, shift)

    energy = (frames**2).mean(axis=1)
    log_energy = np.log(np.maximum(energy, FRAME_ENERGY_FLOOR))

    lag_min = max(1, int(np.ceil(rate / F0_MAX_HZ)))
    lag_max = min(frame_len - 1, int(np.floor(rate / F0_MIN_HZ)))
    if lag_max <= lag_min:
        raise ValueError("frames too short for the 60-400 Hz pitch search")

    acf = _autocorrelation(frames, lag_max)
    r0 = acf[:, 0]
    window = acf[:, lag_min:]
    peak_lag = lag_min + np.argmax(window, axis=1)
    peak_val = window.max(axis=1) / np.where(r0 > 0, r0, 1.0)

    voiced = (r0 > 0) & (peak_val >= VOICING_THRESHOLD)
    f0 = np.where(voiced, rate / peak_lag, 0.0)
    return FrameProsody(f0, voiced, log_energy)


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------


def load_wav(path, expected_sample_rate_hz: int | None = None) -> AudioClip:
    """Read a mono 16-bit PCM RIFF WAV and normalize samples to [-1, 1]."""
    rate, data = wavfile.read(path)
    if data.dtype != np.int16:
        raise ValueError("%s: only 16-bit PCM WAV input is supported" % path)
    if data.ndim != 1:
        raise ValueError("%s: only mono WAV input is supported" % path)
    if expected_sample_rate_hz is not None and rate != expected_sample_rate_hz:
        raise ValueError(
            "%s: sample rate %d does not match expected %d (resampling is not supported)"
            % (path, rate, expected_sample_rate_hz)
        )
    return AudioClip(data.astype(np.float64) / 32768.0, int(rate))


def save_features(path, seq: FeatureSequence) -> None:
    """Binary feature dump: little-endian u32 T, u32 D, then T*D float64 row-major."""
    frames = np.ascontiguousarray(seq.frames, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", frames.shape[0], frames.shape[1]))
        fh.write(frames.tobytes())


def load_features(path) -> FeatureSequence:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("%s: truncated feature file header" % path)
        num_frames, dim = struct.unpack("<II", header)
        payload = fh.read(8 * num_frames * dim)
    if len(payload) != 8 * num_frames * dim:
        raise ValueError("%s: truncated feature payload" % path)
    frames = np.frombuffer(payload, dtype="<f8").reshape(num_frames, dim)
    return FeatureSequence(frames.copy())


def save_features_csv(path, seq: FeatureSequence) -> None:
    """Equivalent CSV export for debugging; one row per frame."""
    header = ",".join("f%02d" % d for d in range(seq.dim))
    np.savetxt(path, seq.frames, delimiter=",", header=header, comments="")
