"""Front-end walkthrough: cepstral features and prosody tracks.

Builds a few synthetic waveforms (a pure tone, silence, a pitch glide),
runs them through the acoustic front-end, and shows how the prosody
tracker summarizes segments.
"""

import numpy as np

from suprahmm import (
    AudioClip,
    MfccConfig,
    extract_features,
    frame_prosody,
    mfcc,
)
from suprahmm.features import LOG_ENERGY_FLOOR, filterbank_energies, mel_filterbank

RATE = 16000
cfg = MfccConfig()
print("front-end config:", cfg)

# --- a 1 kHz tone ----------------------------------------------------------
t = np.arange(int(0.3 * RATE)) / RATE
tone = AudioClip(0.5 * np.sin(2 * np.pi * 1000.0 * t), RATE)
feats = extract_features(tone, cfg)
print("\n1 kHz tone -> %d frames x %d dims (16 static + 16 delta)"
      % (len(feats), feats.dim))

energies = filterbank_energies(tone, cfg)
_, centers = mel_filterbank(cfg.num_mel_filters, cfg.fft_size, RATE)
peak = int(np.argmax(energies[0]))
print("hottest mel filter: #%d centered at %.0f Hz (tone is at 1000 Hz)"
      % (peak, centers[peak]))

# --- silence ----------------------------------------------------------------
silence = AudioClip(np.zeros(RATE // 4), RATE)
sil = mfcc(silence, cfg)
print("\nsilence c0 = %.2f (the log floor is %g, so c0 = 26 * log(floor))"
      % (sil.frames[0, 0], LOG_ENERGY_FLOOR))
print("silence c1..c15 are all", np.max(np.abs(sil.frames[:, 1:16])))

# --- prosody on a pitch glide ------------------------------------------------
# First half at 120 Hz, second half at 240 Hz: two clear prosodic regimes.
half = int(0.25 * RATE)
glide = np.concatenate([
    0.4 * np.sin(2 * np.pi * 120.0 * np.arange(half) / RATE),
    0.4 * np.sin(2 * np.pi * 240.0 * np.arange(half) / RATE),
])
clip = AudioClip(glide, RATE)
track = frame_prosody(clip, cfg)
print("\npitch glide: %d frames, %.0f%% voiced"
      % (len(track), 100 * track.voiced.mean()))

# Split frames down the middle and summarize each side.
ids = np.zeros(len(track), dtype=int)
ids[len(track) // 2:] = 1
# Columns: mean log F0, its SD, voiced ratio, mean log-energy, energy
# range, duration in frames.
for seg, row in enumerate(track.segment_vectors(ids)):
    print("segment %d: mean f0 = %.0f Hz over %d frames"
          % (seg, np.exp(row[0]), int(row[5])))
