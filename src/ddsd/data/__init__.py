"""Manifests, record files, split discipline, and the synthetic corpus."""

from .manifest import LABELS, SPLITS, Utterance, by_split, read_manifest, write_manifest
from .records import Record, read_records, read_single, write_records

__all__ = [
    "LABELS",
    "Record",
    "SPLITS",
    "Utterance",
    "by_split",
    "read_manifest",
    "read_records",
    "read_single",
    "write_manifest",
]
