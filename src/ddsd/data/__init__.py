"""Manifests, record files, split discipline, and the synthetic corpus."""

from .manifest import LABELS, SPLITS, Utterance, by_split, read_manifest, write_manifest
from .records import Record, read_records, read_single, write_records
from .splits import DEFAULT_RATIOS, split_manifest

__all__ = [
    "DEFAULT_RATIOS",
    "LABELS",
    "Record",
    "SPLITS",
    "Utterance",
    "by_split",
    "read_manifest",
    "read_records",
    "read_single",
    "split_manifest",
    "write_manifest",
]
