"""Synthetic multimodal corpus generator.

Each utterance has a binary class (directed / not-directed) and, per
modality, a latent trait t_m = +-d_m/2 + g_m where d_m is that modality's
separability knob and the noise g_m is correlated across modalities through
a shared per-utterance latent (coefficient rho). Every modality also has an
independent quality latent that scales how reliably its features expose the
trait; the quality itself is visible in the features but collapses into a
single posterior once a component model reduces the modality to a score.

Prosody and acoustics are emitted as synthesized audio so the full DSP path
is exercised: directed speech gets fewer pauses, steadier pitch and less
cycle-level jitter. Text is a token string (class-leaning vocabulary), ASR
an 8-dim confidence-feature vector.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from ..modalities import MODALITIES
from ..nn.layers import sigmoid
from .manifest import Utterance, write_manifest
from .records import Record, write_records
from ..dsp.audio import SAMPLE_RATE, write_wav

# one tenth of the reference corpus counts (directed, not-directed)
BASE_COUNTS = {
    "train-comp": (520, 3000),
    "train-fus": (340, 1800),
    "val-comp": (260, 1250),
    "val-fus": (150, 740),
    "test": (310, 1700),
}

DEFAULT_SEPARABILITY = {"acoustic": 1.7, "text": 2.0, "asr": 2.3, "prosody": 1.4}

ASR_DIM = 8

_DIRECTED_WORDS = (
    "play", "pause", "set", "timer", "alarm", "weather", "call", "lights",
    "volume", "stop", "remind", "next", "music", "answer", "search",
)
_SIDE_WORDS = (
    "yeah", "like", "think", "going", "dinner", "maybe", "tomorrow", "funny",
    "stuff", "anyway", "right", "cool", "really", "gonna", "okay",
)
_SHARED_WORDS = ("the", "a", "to", "it", "so", "we", "you", "what", "now", "this", "on", "and")


@dataclass
class SynthConfig:
    scale: float = 1.0
    separability: dict = field(default_factory=lambda: dict(DEFAULT_SEPARABILITY))
    rho: float = 0.35
    seed: int = 0

    def validate(self):
        for m, d in self.separability.items():
            if m not in MODALITIES:
                raise DataError(f"separability for unknown modality {m!r}")
            if d < 0:
                raise DataError("separability must be nonnegative")
        if not 0.0 <= self.rho <= 1.0:
            raise DataError("rho must be in [0, 1]")
        if self.scale <= 0:
            raise DataError("scale must be positive")
        return self

    def split_counts(self):
        """(directed, not-directed) utterances per split: the reference counts times scale."""
        return {
            split: tuple(max(2, int(round(n * self.scale))) for n in counts)
            for split, counts in BASE_COUNTS.items()
        }


def synth_audio(rng, trait_prosody, trait_acoustic, quality, f0_base):
    """One utterance of harmonic 'speech' segments separated by pauses."""
    hop = int(round(0.01 * SAMPLE_RATE))
    duration = rng.uniform(0.6, 0.9) + 0.5 * quality
    n = int(duration * SAMPLE_RATE)

    pause_frac = float(np.clip(0.30 - 0.11 * trait_prosody, 0.05, 0.62))
    wobble = float(np.clip(0.035 * np.exp(-0.5 * trait_prosody), 0.004, 0.20))
    fast_jitter = float(np.clip(0.010 * np.exp(-0.45 * trait_prosody), 0.0008, 0.06))
    shimmer_amt = float(np.clip(0.05 * np.exp(-0.35 * trait_prosody), 0.005, 0.25))
    tilt = float(np.clip(1.7 - 0.28 * trait_acoustic, 0.8, 2.8))
    resonance = 0.9 * sigmoid(np.array([0.9 * trait_acoustic]))[0]
    noise_level = 0.004 + 0.030 * (1.0 - quality)

    mean_voiced = 0.27
    mean_pause = mean_voiced * pause_frac / (1.0 - pause_frac)

    x = np.zeros(n)
    pos = int(rng.uniform(0.0, 0.05) * SAMPLE_RATE)
    while pos < n - hop:
        seg_len = int(rng.uniform(0.15, 0.40) * SAMPLE_RATE)
        seg_len = min(seg_len, n - pos)
        if seg_len > 4 * hop:
            n_fr = seg_len // hop + 1
            slow = np.empty(n_fr)
            slow[0] = rng.normal(0.0, wobble)
            for k in range(1, n_fr):
                slow[k] = 0.97 * slow[k - 1] + wobble * rng.normal()
            lf = np.log(f0_base) + slow + fast_jitter * rng.normal(size=n_fr)
            f0 = np.repeat(np.exp(lf), hop)[:seg_len]
            phase = np.cumsum(2.0 * np.pi * f0 / SAMPLE_RATE)

            seg = np.zeros(seg_len)
            for k in range(1, 6):
                amp = k ** (-tilt) * (
                    1.0 + resonance * np.exp(-(((k * f0_base) - 1900.0) / 450.0) ** 2)
                )
                seg += amp * np.sin(k * phase)

            gain = 1.0 + shimmer_amt * rng.normal(size=n_fr)
            seg *= np.repeat(np.clip(gain, 0.4, 1.6), hop)[:seg_len]
            edge = min(int(0.015 * SAMPLE_RATE), seg_len // 2)
            ramp = np.hanning(2 * edge)
            seg[:edge] *= ramp[:edge]
            seg[-edge:] *= ramp[edge:]
            x[pos : pos + seg_len] += seg
        pos += seg_len
        pos += int((0.03 + rng.exponential(mean_pause)) * SAMPLE_RATE)

    x += noise_level * rng.normal(size=n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= rng.uniform(0.35, 0.65) / peak
    return np.clip(x, -1.0, 1.0)


def synth_text(rng, trait_text, quality):
    n_tokens = 3 + int(round(4.0 * quality + rng.uniform(0.0, 2.0)))
    p_dir = sigmoid(np.array([1.1 * trait_text]))[0]
    p_side = sigmoid(np.array([-1.1 * trait_text]))[0]
    tokens = []
    for _ in range(n_tokens):
        r = rng.random()
        if r < 0.5 * p_dir:
            pool = _DIRECTED_WORDS
        elif r < 0.5 * p_dir + 0.5 * p_side:
            pool = _SIDE_WORDS
        else:
            pool = _SHARED_WORDS
        tokens.append(pool[rng.integers(len(pool))])
    return " ".join(tokens)


def synth_asr_features(rng, trait_asr, quality):
    vec = np.empty(ASR_DIM)
    vec[0] = quality * trait_asr + 0.55 * rng.normal()
    vec[1] = quality * trait_asr + 0.55 * rng.normal()
    vec[2] = quality + 0.05 * rng.normal()
    vec[3:] = rng.normal(size=ASR_DIM - 3)
    return vec


def _speaker_table(seed, split, n_utts):
    n_speakers = max(5, n_utts // 40)
    split_idx = list(BASE_COUNTS).index(split)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7_001, split_idx]))
    f0s = rng.uniform(105.0, 235.0, size=n_speakers)
    names = [f"{split}-spk{i:03d}" for i in range(n_speakers)]
    return names, f0s


def generate_corpus(config, out_dir):
    """Write wav files, asr feature records, and the manifest; returns its path."""
    config.validate()
    out_dir = str(out_dir)
    audio_dir = os.path.join(out_dir, "audio")
    feat_dir = os.path.join(out_dir, "features")
    os.makedirs(audio_dir, exist_ok=True)
    os.makedirs(feat_dir, exist_ok=True)

    sep = dict(DEFAULT_SEPARABILITY)
    sep.update(config.separability)
    root = np.sqrt(config.rho)
    comp = np.sqrt(1.0 - config.rho)

    utts = []
    index = 0
    for split, (n_dir, n_not) in config.split_counts().items():
        speakers, f0s = _speaker_table(config.seed, split, n_dir + n_not)
        for label, count in (("directed", n_dir), ("not-directed", n_not)):
            ysign = 1.0 if label == "directed" else -1.0
            for _ in range(count):
                rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
                uid = f"utt{index:06d}"

                shared = rng.normal()
                traits = {}
                for m in MODALITIES:
                    g = root * shared + comp * rng.normal()
                    traits[m] = 0.5 * sep[m] * ysign + g
                q_audio, q_text, q_asr = rng.uniform(0.25, 1.0, size=3)
                spk = int(rng.integers(len(speakers)))

                audio = synth_audio(rng, traits["prosody"], traits["acoustic"], q_audio, f0s[spk])
                wav_rel = os.path.join("audio", f"{uid}.wav")
                write_wav(os.path.join(out_dir, wav_rel), audio)

                asr_rel = os.path.join("features", f"{uid}.asr.rec")
                write_records(
                    os.path.join(out_dir, asr_rel),
                    [
                        Record(
                            utterance_id=uid,
                            modality="asr",
                            kind="features",
                            present=True,
                            payload=synth_asr_features(rng, traits["asr"], q_asr),
                        )
                    ],
                )

                utts.append(
                    Utterance(
                        utterance_id=uid,
                        label=label,
                        split=split,
                        speaker_id=speakers[spk],
                        audio_path=wav_rel,
                        text=synth_text(rng, traits["text"], q_text),
                        feature_paths={"asr": asr_rel},
                    )
                )
                index += 1

    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(manifest_path, utts)
    return manifest_path, utts
