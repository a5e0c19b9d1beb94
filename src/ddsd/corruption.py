"""Missing-modality corruption protocol for robustness evaluation.

For every utterance and modality independently, with the given probability,
a modality the sample holds is marked absent: its score and its embedding
become None in memory. The directedness file that stores a corrupted set,
with the sentinel payloads of absent modalities, belongs to ``components``.
"""

import numpy as np

from .components import write_directedness_records  # re-exported: perfbench/workloads.py imports it here
from .data.records import write_records  # not called here; perfbench/probes.py wraps corruption.write_records
from .errors import DataError
from .fusion import EmbeddingSet, FusionSample, ScoreSet
from .modalities import MODALITIES


def corrupt_missing(samples, rate=0.30, seed=0):
    """(corrupted samples, realized per-modality drop rates).

    Deterministic per seed: one Bernoulli draw per (utterance, modality) in
    canonical order. A modality a sample does not hold is never dropped from
    it and does not count towards its realized rate. The input samples are
    left as they were.
    """
    if not 0.0 <= rate < 1.0:
        raise DataError("corruption rate must be in [0, 1)")
    draws = np.random.default_rng(seed).random((len(samples), len(MODALITIES))) < rate
    held = [[m in s.scores.scores or m in s.embeddings.embeddings for m in MODALITIES] for s in samples]
    known = np.array(held, dtype=bool).reshape(draws.shape)
    drop = draws & known
    out = []
    for s, row in zip(samples, drop.tolist()):
        gone = {m for m, d in zip(MODALITIES, row) if d}
        scores = {m: None if m in gone else v for m, v in s.scores.scores.items()}
        embeddings = {m: None if m in gone else v for m, v in s.embeddings.embeddings.items()}
        out.append(FusionSample(s.utterance_id, s.label, ScoreSet(scores), EmbeddingSet(embeddings)))
    dropped, eligible = drop.sum(axis=0), known.sum(axis=0)
    realized = {m: float(dropped[j] / eligible[j]) if eligible[j] else 0.0 for j, m in enumerate(MODALITIES)}
    return out, realized
