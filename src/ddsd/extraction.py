"""Corpus-level feature extraction: audio -> prosody + filterbank records."""

import os

import numpy as np

from .data.manifest import read_manifest, write_manifest
from .data.records import Record, write_records
from .dsp.audio import read_wav
from .dsp.melbank import extract_filterbank
from .dsp.prosody import assemble_prosody_track
from .errors import DataError


def extract_utterance(buf):
    """(prosody (T,5), filterbank (T,40)) for one audio buffer."""
    prosody = assemble_prosody_track(buf)
    fbank = extract_filterbank(buf)
    if fbank.shape[0] != prosody.shape[0]:
        raise DataError("prosody and filterbank tracks disagree on frame count")
    return prosody, fbank


def extract_features(manifest_path, out_manifest=None):
    """Extract prosody/acoustic feature records for every utterance with audio.

    Record files land next to the corpus under features/; the manifest is
    rewritten with the new feature paths. Returns the output manifest path.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    utts = read_manifest(manifest_path)
    feat_dir = os.path.join(base, "features")
    os.makedirs(feat_dir, exist_ok=True)

    for u in utts:
        if u.audio_path is None:
            raise DataError(f"{u.utterance_id}: no audio to extract from")
        buf = read_wav(os.path.join(base, u.audio_path))
        prosody, fbank = extract_utterance(buf)

        prosody_rel = os.path.join("features", f"{u.utterance_id}.prosody.rec")
        fbank_rel = os.path.join("features", f"{u.utterance_id}.fbank.rec")
        write_records(
            os.path.join(base, prosody_rel),
            [Record(u.utterance_id, "prosody", "features", True, prosody.astype(np.float32))],
        )
        write_records(
            os.path.join(base, fbank_rel),
            [Record(u.utterance_id, "acoustic", "features", True, fbank.astype(np.float32))],
        )
        u.feature_paths = dict(u.feature_paths)
        u.feature_paths["prosody"] = prosody_rel
        u.feature_paths["acoustic"] = fbank_rel

    out_path = out_manifest or manifest_path
    write_manifest(out_path, utts)
    return out_path
