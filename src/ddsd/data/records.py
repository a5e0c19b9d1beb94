"""Versioned binary containers for per-utterance feature/score/embedding arrays.

One record = magic, version, utterance id, modality tag, kind tag, presence
flag, shape, then a row-major little-endian float32 payload. A file may hold
any number of records back to back. Absent modalities keep their sentinel
payloads verbatim (-1 scores, -99999 embedding fills).
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..modalities import MODALITY_CODES, MODALITY_NAMES

MAGIC = b"DDSDREC1"
VERSION = 1

KINDS = ("features", "score", "embedding")
KIND_CODES = {name: i for i, name in enumerate(KINDS)}


@dataclass
class Record:
    utterance_id: str
    modality: str
    kind: str
    present: bool
    payload: np.ndarray  # float32, shape preserved on round-trip

    def __post_init__(self):
        self.payload = np.asarray(self.payload, dtype="<f4")
        if self.modality not in MODALITY_CODES:
            raise DataError(f"unknown modality {self.modality!r}")
        if self.kind not in KIND_CODES:
            raise DataError(f"unknown record kind {self.kind!r}")


def _pack_record(rec):
    ident = rec.utterance_id.encode("utf-8")
    shape = rec.payload.shape
    parts = [
        MAGIC,
        struct.pack("<HH", VERSION, len(ident)),
        ident,
        struct.pack(
            "<BBBB",
            MODALITY_CODES[rec.modality],
            KIND_CODES[rec.kind],
            1 if rec.present else 0,
            len(shape),
        ),
        struct.pack(f"<{len(shape)}I", *shape) if shape else b"",
        np.ascontiguousarray(rec.payload, dtype="<f4").tobytes(),
    ]
    return b"".join(parts)


def write_records(path, records):
    with open(path, "wb") as f:
        for rec in records:
            f.write(_pack_record(rec))


def _need(raw, offset, size, path, what):
    if offset + size > len(raw):
        raise DataError(f"{path}: truncated at byte {len(raw)} while reading {what} (need {offset + size})")
    return offset + size


def read_records(path):
    with open(path, "rb") as f:
        raw = f.read()
    records = []
    offset = 0
    while offset < len(raw):
        end = _need(raw, offset, 8, path, "magic")
        if raw[offset:end] != MAGIC:
            raise DataError(f"{path}: bad magic bytes at byte {offset}")
        offset = end
        end = _need(raw, offset, 4, path, "version/id length")
        version, id_len = struct.unpack_from("<HH", raw, offset)
        if version != VERSION:
            raise DataError(f"{path}: unsupported record version {version} at byte {offset}")
        offset = end
        end = _need(raw, offset, id_len, path, "utterance id")
        try:
            ident = raw[offset:end].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: utterance id at byte {offset} is not valid UTF-8") from None
        offset = end
        end = _need(raw, offset, 4, path, "tags")
        mod_code, kind_code, present, ndim = struct.unpack_from("<BBBB", raw, offset)
        if mod_code not in MODALITY_NAMES:
            raise DataError(f"{path}: unknown modality code {mod_code} at byte {offset}")
        if kind_code >= len(KINDS):
            raise DataError(f"{path}: unknown kind code {kind_code} at byte {offset}")
        offset = end
        end = _need(raw, offset, 4 * ndim, path, "shape")
        shape = struct.unpack_from(f"<{ndim}I", raw, offset) if ndim else ()
        offset = end
        size = math.prod(shape)
        end = _need(raw, offset, 4 * size, path, f"payload of {ident}")
        payload = np.frombuffer(raw, dtype="<f4", count=size, offset=offset).reshape(shape).copy()
        offset = end
        records.append(
            Record(
                utterance_id=ident,
                modality=MODALITY_NAMES[mod_code],
                kind=KINDS[kind_code],
                present=bool(present),
                payload=payload,
            )
        )
    return records


def read_single(path, modality, kind):
    """The one record matching (modality, kind) in a file."""
    matches = [r for r in read_records(path) if r.modality == modality and r.kind == kind]
    if len(matches) != 1:
        raise DataError(f"{path}: expected exactly one {modality}/{kind} record, found {len(matches)}")
    return matches[0]
