"""Assembly of the five-column prosody track on the shared 100 Hz grid."""

import numpy as np

from .pitch import extract_pitch_voicing
from .vad import extract_vad
from .voicequality import extract_jitter_shimmer


def assemble_prosody_track(buf):
    """(T, 5) frames: log-pitch (ln Hz, 0 unvoiced), voicing, jitter, shimmer, vad."""
    pitch_hz, voicing = extract_pitch_voicing(buf)
    jitter, shimmer = extract_jitter_shimmer(buf, pitch_hz)
    vad = extract_vad(buf)

    log_pitch = np.where(pitch_hz > 0, np.log(np.where(pitch_hz > 0, pitch_hz, 1.0)), 0.0)
    return np.stack([log_pitch, voicing, jitter, shimmer, vad], axis=1)
