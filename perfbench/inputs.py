"""Seeded input generators for the components and fusion workloads.

The generated files have the formats the ddsd pipeline itself writes:
feature records like ``extraction.extract_features`` and score/embedding
records like ``components.export_directedness``. Every utterance has its own
random stream (``SeedSequence([seed, tag, index])``), so the same seed always
gives byte-identical inputs.
"""

import os

import numpy as np
from scipy.signal import lfilter

from ddsd.data.manifest import Utterance, write_manifest
from ddsd.data.records import Record, write_records
from ddsd.dsp.audio import frame_count
from ddsd.modalities import EMBEDDING_DIMS, MODALITIES

SAMPLE_RATE = 16000
# share of directed utterances in the synthetic corpus (data.synth.BASE_COUNTS)
DIRECTED_SHARE = 0.16
# class separation of the latent trait, as data.synth.DEFAULT_SEPARABILITY
SEPARABILITY = {"acoustic": 1.7, "text": 2.0, "asr": 2.3, "prosody": 1.4}
RHO = 0.35  # correlation of the traits across modalities

_COMPONENT_TAG = 11
_FUSION_TAG = 23


def split_labels(counts):
    """[(split, label)] with DIRECTED_SHARE directed per split, both classes present."""
    rows = []
    for split, n in counts.items():
        n_dir = min(max(1, int(round(DIRECTED_SHARE * n))), n - 1)
        rows += [(split, "directed")] * n_dir + [(split, "not-directed")] * (n - n_dir)
    return rows


def _smooth(rng, n, pole):
    """Unit-variance AR(1) noise of length n."""
    return lfilter([np.sqrt(1.0 - pole * pole)], [1.0, -pole], rng.normal(size=n))


def component_features(rng, directed):
    """(prosody (T, 5), filterbank (T, 40)) for one synthetic utterance.

    Duration follows data.synth (0.6-0.9 s plus up to 0.5 s), i.e. about
    70-138 frames. Directed speech has fewer pauses, steadier pitch and a
    flatter spectrum, as in the synthesizer.
    """
    duration = rng.uniform(0.6, 0.9) + 0.5 * rng.uniform(0.25, 1.0)
    t = frame_count(int(duration * SAMPLE_RATE), SAMPLE_RATE)
    sign = 1.0 if directed else -1.0
    trait_p = 0.5 * SEPARABILITY["prosody"] * sign + rng.normal()
    trait_a = 0.5 * SEPARABILITY["acoustic"] * sign + rng.normal()

    voiced = (_smooth(rng, t, 0.9) > -0.4 - 0.3 * trait_p).astype(np.float64)
    f0 = rng.uniform(105.0, 235.0)
    log_pitch = voiced * (np.log(f0) + 0.05 * np.exp(-0.5 * trait_p) * _smooth(rng, t, 0.97))
    voicing = np.clip(np.where(voiced > 0, 0.75, 0.2) + 0.1 * rng.normal(size=t), 0.0, 1.0)
    jitter = voiced * np.abs(0.01 * np.exp(-0.45 * trait_p) * (1.0 + 0.3 * rng.normal(size=t)))
    shimmer = voiced * np.abs(0.05 * np.exp(-0.35 * trait_p) * (1.0 + 0.3 * rng.normal(size=t)))
    vad = np.clip(lfilter([0.3], [1.0, -0.7], voiced) + 0.05 * rng.normal(size=t), 0.0, 1.0)
    prosody = np.stack([log_pitch, voicing, jitter, shimmer, vad], axis=1)

    tilt = 1.7 - 0.28 * trait_a
    bands = -8.0 - tilt * np.log1p(np.arange(40.0))
    fbank = bands[None, :] + 2.0 * voiced[:, None] + 0.5 * rng.normal(size=(t, 40))
    return prosody, fbank


def write_component_corpus(seed, counts, out_dir):
    """Feature records + manifest for {split: n_utterances}; returns the manifest path."""
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    utts = []
    for i, (split, label) in enumerate(split_labels(counts)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _COMPONENT_TAG, i]))
        uid = f"utt{i:06d}"
        prosody, fbank = component_features(rng, label == "directed")
        paths = {
            "prosody": os.path.join("features", f"{uid}.prosody.rec"),
            "acoustic": os.path.join("features", f"{uid}.fbank.rec"),
        }
        write_records(
            os.path.join(out_dir, paths["prosody"]),
            [Record(uid, "prosody", "features", True, prosody.astype(np.float32))],
        )
        write_records(
            os.path.join(out_dir, paths["acoustic"]),
            [Record(uid, "acoustic", "features", True, fbank.astype(np.float32))],
        )
        utts.append(Utterance(uid, label, split, speaker_id=f"spk{i % 97:03d}", feature_paths=paths))
    manifest = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(manifest, utts)
    return manifest


def directedness_records(rng, uid, directed, directions):
    """Score + embedding records of every modality for one utterance.

    Each modality has a latent trait (class offset plus noise correlated
    across modalities) and a quality that scales how clearly the score and
    the embedding show it.
    """
    sign = 1.0 if directed else -1.0
    shared = rng.normal()
    records = []
    for m in MODALITIES:
        trait = 0.5 * SEPARABILITY[m] * sign + np.sqrt(RHO) * shared + np.sqrt(1.0 - RHO) * rng.normal()
        quality = rng.uniform(0.25, 1.0)
        score = 1.0 / (1.0 + np.exp(-(1.5 * quality * trait + 0.5 * rng.normal())))
        noise = rng.normal(size=EMBEDDING_DIMS[m])
        embedding = np.tanh(quality * trait * directions[m] + (1.2 - quality) * noise)
        records.append(Record(uid, m, "score", True, np.array([score])))
        records.append(Record(uid, m, "embedding", True, embedding))
    return records


def write_fusion_corpus(seed, counts, out_dir):
    """Directedness records + manifest for {split: n_utterances}; returns the manifest path."""
    os.makedirs(os.path.join(out_dir, "directedness"), exist_ok=True)
    dir_rng = np.random.default_rng(np.random.SeedSequence([seed, _FUSION_TAG]))
    directions = {
        m: dir_rng.normal(size=EMBEDDING_DIMS[m]) / np.sqrt(EMBEDDING_DIMS[m]) * 4.0
        for m in MODALITIES
    }
    utts = []
    for i, (split, label) in enumerate(split_labels(counts)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _FUSION_TAG, i]))
        uid = f"utt{i:06d}"
        rel = os.path.join("directedness", f"{uid}.dir.rec")
        write_records(
            os.path.join(out_dir, rel),
            directedness_records(rng, uid, label == "directed", directions),
        )
        utts.append(
            Utterance(uid, label, split, speaker_id=f"spk{i % 97:03d}", feature_paths={"directedness": rel})
        )
    manifest = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(manifest, utts)
    return manifest
