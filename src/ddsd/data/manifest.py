"""Dataset manifests: one JSON object per line, one line per utterance."""

import json
from dataclasses import dataclass, field, fields

from ..errors import DataError

LABELS = ("directed", "not-directed")
SPLITS = ("train-comp", "train-fus", "val-comp", "val-fus", "test")


@dataclass
class Utterance:
    utterance_id: str
    label: str
    split: str
    speaker_id: str = None
    audio_path: str = None
    text: str = None
    feature_paths: dict = field(default_factory=dict)

    def label_int(self):
        return 1 if self.label == "directed" else 0


def validate_utterances(utts):
    seen = {}
    for u in utts:
        if u.label not in LABELS:
            raise DataError(f"{u.utterance_id}: bad label {u.label!r}")
        if u.split not in SPLITS:
            raise DataError(f"{u.utterance_id}: bad split {u.split!r}")
        if u.utterance_id in seen:
            raise DataError(f"duplicate utterance id {u.utterance_id!r}")
        seen[u.utterance_id] = u.split
    return utts


def write_manifest(path, utts):
    validate_utterances(utts)
    names = [f.name for f in fields(Utterance)]
    with open(path, "w") as f:
        for u in utts:
            row = {name: value for name in names if (value := getattr(u, name)) not in (None, {})}
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _type_error(u):
    """What is wrong with the field types of a decoded utterance, or None."""
    required = ("utterance_id", "label", "split")
    for name in required + ("speaker_id", "audio_path", "text"):
        value = getattr(u, name)
        if not (isinstance(value, str) or (value is None and name not in required)):
            return f"{name} must be a string, got {value!r}"
    paths = u.feature_paths
    if not isinstance(paths, dict) or not all(isinstance(v, str) for v in paths.values()):
        return f"feature_paths must map names to path strings, got {paths!r}"
    return None


def read_manifest(path):
    utts = []
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
                raise DataError(f"{path}:{line_no}: not valid JSON ({e})") from None
            try:
                u = Utterance(**row)
            except TypeError as e:
                raise DataError(f"{path}:{line_no}: bad manifest record ({e})") from None
            problem = _type_error(u)
            if problem:
                raise DataError(f"{path}:{line_no}: bad manifest record ({problem})")
            utts.append(u)
    return validate_utterances(utts)


def by_split(utts, split):
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}")
    return [u for u in utts if u.split == split]
