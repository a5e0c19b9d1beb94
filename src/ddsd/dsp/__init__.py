"""Prosody and filterbank feature extraction at 100 Hz.

Input is 16 kHz mono 16-bit PCM audio; ``read_wav`` raises ``DataError`` for
any other file.
"""

from .audio import AudioBuffer, frame_centers, frame_count, read_wav, write_wav
from .melbank import extract_filterbank, mel_filterbank_matrix
from .pitch import extract_pitch_voicing
from .prosody import assemble_prosody_track
from .vad import extract_vad, frame_speech_probability
from .voicequality import extract_jitter_shimmer

__all__ = [
    "AudioBuffer",
    "assemble_prosody_track",
    "extract_filterbank",
    "extract_jitter_shimmer",
    "extract_pitch_voicing",
    "extract_vad",
    "frame_centers",
    "frame_count",
    "frame_speech_probability",
    "mel_filterbank_matrix",
    "read_wav",
    "write_wav",
]
