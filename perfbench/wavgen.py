"""Seeded WAV corpus for the `wav` workload.

Each clip is 16 kHz mono 16-bit PCM.  A clip is a sequence of syllables:
a short unvoiced (high-passed noise) or silent gap, then a voiced
nucleus.  A nucleus is a sum of harmonics of a constant F0, weighted by a
spectral envelope of three formant resonances plus a low-pass term that
keeps the fundamental strong.

  - emotion: base F0 and formant frequencies (fixed table below),
  - speaker: a pitch factor and a formant factor (from the seed),
  - text: a fixed spoken length (TEXT_SECONDS, by text index), and from
    the seed the syllable count, how the length splits into gaps and
    nuclei, and a per-syllable pitch contour,
  - replicate: harmonic phases, noise and 3 % duration jitter.

The lengths do not depend on the seed, so every seed gives the same
amount of audio and the same amount of work per frame.

The generator returns, per clip, the sample count and the voiced
segments with their F0, so the front-end can be checked against the
signal that was generated.
"""

from __future__ import annotations

import csv
import os
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

RATE_HZ = 16000

# Base F0 (Hz) and formants F1..F3 (Hz) per emotion, in the library's
# DEFAULT_EMOTIONS order.
EMOTION_VOICES = {
    "neutral": (115.0, (500.0, 1500.0, 2500.0)),
    "hot_anger": (175.0, (750.0, 1250.0, 2650.0)),
    "sadness": (95.0, (420.0, 1050.0, 2250.0)),
    "happiness": (150.0, (620.0, 1850.0, 2850.0)),
    "disgust": (125.0, (560.0, 980.0, 2400.0)),
    "panic": (215.0, (820.0, 2050.0, 3050.0)),
}
BANDWIDTHS_HZ = (90.0, 120.0, 160.0)
# Spoken length (s) of txt00, txt01, ..., between 50 ms of lead-in and tail.
TEXT_SECONDS = (0.7, 1.3, 1.0, 0.8, 1.4, 1.1)
_TABLE_SIZE = 4096


# Speaker- and text-disjoint grid: only the train and the test block are made.
TRAIN_SPEAKERS, TEST_SPEAKERS = 4, 2
TRAIN_TEXTS, TEST_TEXTS = 3, 3
REPLICATES = 2


def _blocks():
    spk = ["spk%02d" % i for i in range(TRAIN_SPEAKERS + TEST_SPEAKERS)]
    txt = ["txt%02d" % i for i in range(TRAIN_TEXTS + TEST_TEXTS)]
    return ((spk[:TRAIN_SPEAKERS], txt[:TRAIN_TEXTS]),
            (spk[TRAIN_SPEAKERS:], txt[TRAIN_TEXTS:]))


@dataclass(frozen=True)
class ClipTruth:
    """What was generated: sample count and (start, stop, f0) per voiced span."""

    num_samples: int
    voiced: tuple


def _rng(seed: int, *tags) -> np.random.Generator:
    tag = zlib.crc32("|".join(tags).encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _envelope(freqs, formants):
    env = 0.8 / (1.0 + (freqs / 250.0) ** 2)
    for gain, (centre, width) in zip((1.0, 0.6, 0.35), zip(formants, BANDWIDTHS_HZ)):
        env = env + gain / (1.0 + ((freqs - centre) / width) ** 2)
    return env


def _text_plan(seed: int, text: str):
    """Per syllable: (fricative gap?, gap s, nucleus s, pitch factor)."""
    rng = _rng(seed, "text", text)
    syllables = int(rng.integers(3, 7))
    gaps = rng.uniform(0.03, 0.07, size=syllables)
    nuclei = rng.uniform(0.09, 0.22, size=syllables)
    scale = TEXT_SECONDS[int(text[3:])] / (gaps.sum() + nuclei.sum())
    return [(bool(rng.random() < 0.6), gap * scale, nucleus * scale,
             rng.uniform(0.88, 1.12)) for gap, nucleus in zip(gaps, nuclei)]


def synthesize_clip(seed: int, speaker: str, emotion: str, text: str,
                    replicate: int):
    """(int16 samples, ClipTruth) for one clip."""
    base_f0, formants = EMOTION_VOICES[emotion]
    spk = _rng(seed, "speaker", speaker)
    pitch_factor = float(np.exp(spk.normal(0.0, 0.06)))
    formant_factor = float(np.exp(spk.normal(0.0, 0.04)))
    formants = tuple(f * formant_factor for f in formants)
    rng = _rng(seed, "clip", speaker, emotion, text, str(replicate))

    pieces = [1e-3 * rng.standard_normal(int(0.05 * RATE_HZ))]
    voiced = []
    position = pieces[0].size
    for fricative, gap_s, nucleus_s, contour in _text_plan(seed, text):
        jitter = rng.uniform(0.97, 1.03)
        gap = int(gap_s * jitter * RATE_HZ)
        noise = rng.standard_normal(gap + 1)
        pieces.append(0.04 * np.diff(noise) if fricative else 1e-3 * noise[:gap])
        position += gap

        f0 = base_f0 * pitch_factor * contour
        n = int(nucleus_s * jitter * RATE_HZ)
        # One period of sum_h a_h sin(2 pi h x + phi_h) on a fine grid (an
        # inverse FFT), read at phase f0 * t: exactly periodic at f0.
        orders = np.arange(1, int(7500.0 / f0) + 1)
        amps = _envelope(orders * f0, formants)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=orders.size)
        spectrum = np.zeros(_TABLE_SIZE // 2 + 1, dtype=complex)
        spectrum[orders] = 0.5 * _TABLE_SIZE * amps * np.exp(1j * (phases - np.pi / 2))
        table = np.fft.irfft(spectrum, n=_TABLE_SIZE)
        table = np.append(table, table[0])
        cycle = (f0 * np.arange(n) / RATE_HZ) % 1.0
        wave = np.interp(cycle * _TABLE_SIZE, np.arange(_TABLE_SIZE + 1), table)
        ramp = np.minimum(1.0, np.minimum(np.arange(n), np.arange(n)[::-1]) / 80.0)
        pieces.append(wave / np.abs(wave).max() * 0.5 * ramp
                      + 1e-3 * rng.standard_normal(n))
        voiced.append((position, position + n, f0))
        position += n
    pieces.append(1e-3 * rng.standard_normal(int(0.05 * RATE_HZ)))
    samples = np.concatenate(pieces)
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype(np.int16)
    return pcm, ClipTruth(pcm.size, tuple(voiced))


def write_corpus(seed: int, out_dir, labels):
    """Write every clip and `manifest.csv`; returns (manifest path,
    {utterance id: ClipTruth}, split as (train speakers, test speakers,
    train texts, test texts))."""
    os.makedirs(out_dir, exist_ok=True)
    truth = {}
    rows = []
    for speakers, texts in _blocks():
        for speaker in speakers:
            for emotion in labels:
                for text in texts:
                    for replicate in range(REPLICATES):
                        utt_id = "%s_%s_%s_r%d" % (speaker, emotion, text, replicate)
                        pcm, clip = synthesize_clip(seed, speaker, emotion, text,
                                                    replicate)
                        wavfile.write(os.path.join(out_dir, utt_id + ".wav"),
                                      RATE_HZ, pcm)
                        truth[utt_id] = clip
                        rows.append((utt_id, utt_id + ".wav", speaker, emotion,
                                     text, replicate))
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "path", "speaker", "emotion", "text", "replicate"))
        writer.writerows(rows)
    (train_spk, train_txt), (test_spk, test_txt) = _blocks()
    return manifest, truth, (train_spk, test_spk, train_txt, test_txt)
