"""Score and embedding fusion with modality dropout.

Three schemes over the component models' directedness outputs:

* AVG - arithmetic mean of the available scores (no parameters).
* SL  - per-modality branch: inverse softmax -> dense(1->128, tanh); the
  branch outputs are concatenated into dense(128M->128, ReLU) -> layer norm
  -> dense sigmoid. A missing score bypasses the inverse softmax and feeds
  the branch the sentinel -1 directly.
* EL  - same trunk, but branches consume the raw embeddings (no inverse
  softmax); a missing embedding is a dimension-matched fill of -99999.

Modality dropout replaces a branch's training input with the same sentinel
encoding used for missing data at inference time (default), or zeroes it
with classic 1/(1-p) rescaling in "zero" mode.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .metrics import compute_eer
from .modalities import EMBEDDING_DIMS, MODALITIES, check_modalities
from .nn import Branches, Dense, LayerNorm, ModelGraph, TrainConfig, fit

SCORE_SENTINEL = -1.0
EMBEDDING_SENTINEL = -99999.0
SCORE_CLAMP = 1e-6

FUSION_KINDS = ("AVG", "SL", "EL")


@dataclass
class ScoreSet:
    """Per-modality probabilities; None marks an absent modality in memory.

    The -1 sentinel exists only at serialized/encoded boundaries.
    """

    scores: dict

    def present(self, modality):
        return self.scores.get(modality) is not None

    def present_modalities(self):
        return tuple(m for m, v in self.scores.items() if v is not None)


@dataclass
class EmbeddingSet:
    embeddings: dict

    def present(self, modality):
        return self.embeddings.get(modality) is not None


@dataclass
class FusionSample:
    utterance_id: str
    label: int
    scores: ScoreSet
    embeddings: EmbeddingSet


@dataclass
class ModalityDropoutConfig:
    probs: dict = field(default_factory=dict)  # per-modality drop probability
    seed: int = 0
    mode: str = "sentinel"  # or "zero"

    def prob(self, modality):
        return self.probs.get(modality, 0.3)

    def validate(self):
        for m, p in self.probs.items():
            if not 0.0 <= p < 1.0:
                raise DataError(f"dropout probability for {m} must be in [0, 1)")
        if self.mode not in ("sentinel", "zero"):
            raise DataError(f"unknown modality dropout mode {self.mode!r}")
        return self


def fuse_avg(scores, modalities=None):
    """Arithmetic mean over the present scores, pooled in MODALITIES order by default."""
    pool = modalities or MODALITIES
    vals = [scores.scores[m] for m in pool if scores.present(m)]
    if not vals:
        raise DataError("AVG fusion needs at least one present modality")
    return float(np.mean(vals))


def inverse_softmax(score):
    """Two-class logit of a probability: ln(s / (1 - s)), input clamped."""
    s = np.clip(score, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    return np.log(s / (1.0 - s))


@dataclass
class FusionModel:
    kind: str
    modalities: tuple
    graph: ModelGraph = None  # None for AVG

    def save(self, path):
        graph = self.graph if self.graph is not None else ModelGraph([], rng_seed=0)
        graph.meta = {"type": "fusion", "kind": self.kind, "modalities": list(self.modalities)}
        graph.save(path)

    @classmethod
    def load(cls, path):
        graph = ModelGraph.load(path)
        if graph.meta.get("type") != "fusion":
            raise DataError(f"{path}: not a fusion model file")
        kind = graph.meta["kind"]
        return cls(
            kind=kind,
            modalities=tuple(graph.meta["modalities"]),
            graph=None if kind == "AVG" else graph,
        )


def _trunk(width, rng):
    return [
        Dense(width, 128, "relu", rng=rng),
        LayerNorm(128),
        Dense(128, 1, "sigmoid", rng=rng),
    ]


def build_avg_model(modalities):
    return FusionModel(kind="AVG", modalities=check_modalities(modalities))


def build_sl_model(modalities, seed=0):
    modalities = check_modalities(modalities)
    rng = np.random.default_rng(seed)
    branches = Branches(
        [1] * len(modalities),
        [[Dense(1, 128, "tanh", rng=rng)] for _ in modalities],
    )
    graph = ModelGraph([branches] + _trunk(128 * len(modalities), rng), rng_seed=seed)
    return FusionModel(kind="SL", modalities=modalities, graph=graph)


def build_el_model(modalities, seed=0):
    modalities = check_modalities(modalities)
    rng = np.random.default_rng(seed)
    dims = [EMBEDDING_DIMS[m] for m in modalities]
    branches = Branches(dims, [[Dense(d, 128, "tanh", rng=rng)] for d in dims])
    graph = ModelGraph([branches] + _trunk(128 * len(modalities), rng), rng_seed=seed)
    return FusionModel(kind="EL", modalities=modalities, graph=graph)


def build_fusion(kind, modalities, seed=0):
    if kind == "AVG":
        return build_avg_model(modalities)
    if kind == "SL":
        return build_sl_model(modalities, seed)
    if kind == "EL":
        return build_el_model(modalities, seed)
    raise DataError(f"unknown fusion kind {kind!r}")


def input_width(model):
    if model.kind == "SL":
        return len(model.modalities)
    return sum(EMBEDDING_DIMS[m] for m in model.modalities)


def encode_inputs(model, samples, dropped=None):
    """(N, width) network input matrix with sentinel encoding of absences.

    dropped: optional (N, M) boolean mask of modalities to treat as absent
    on top of genuinely missing ones (training-time modality dropout).
    """
    n = len(samples)
    mods = model.modalities
    x = np.empty((n, input_width(model)))
    for i, sample in enumerate(samples):
        col = 0
        for j, m in enumerate(mods):
            force_absent = dropped is not None and dropped[i, j]
            if model.kind == "SL":
                s = sample.scores.scores.get(m)
                if s is None or force_absent:
                    x[i, col] = SCORE_SENTINEL
                else:
                    x[i, col] = inverse_softmax(s)
                col += 1
            else:
                d = EMBEDDING_DIMS[m]
                e = sample.embeddings.embeddings.get(m)
                if e is None or force_absent:
                    x[i, col : col + d] = EMBEDDING_SENTINEL
                else:
                    if e.shape != (d,):
                        raise DataError(
                            f"{sample.utterance_id}: {m} embedding has shape "
                            f"{tuple(e.shape)}, expected ({d},)"
                        )
                    x[i, col : col + d] = e
                col += d
    return x


def apply_modality_dropout(sample, config, train_mode, rng):
    """Per-sample sentinel-mode modality dropout: dropped modalities become
    absent, exactly like inference-time missing data. No-op when not training."""
    if not train_mode:
        return sample
    config.validate()
    scores = dict(sample.scores.scores)
    embeddings = dict(sample.embeddings.embeddings)
    for m in set(scores) | set(embeddings):
        if rng.random() < config.prob(m):
            if m in scores:
                scores[m] = None
            if m in embeddings:
                embeddings[m] = None
    return FusionSample(
        utterance_id=sample.utterance_id,
        label=sample.label,
        scores=ScoreSet(scores),
        embeddings=EmbeddingSet(embeddings),
    )


def train_fusion(model, train_samples, val_samples, config=None, md=None, log=None):
    """Train SL/EL on directedness features; AVG has nothing to fit.

    With a ModalityDropoutConfig, each epoch independently redraws which
    branch inputs are replaced (sentinel mode) or zeroed with 1/(1-p)
    rescaling (zero mode).
    """
    if model.kind == "AVG":
        return [], -1
    if not train_samples:
        raise DataError("empty fusion training set")
    config = config or TrainConfig()
    labels = np.array([s.label for s in train_samples], dtype=np.float64)
    val_x = encode_inputs(model, val_samples)
    val_y = np.array([s.label for s in val_samples], dtype=np.float64)

    if config.class_weights == (1.0, 1.0):
        from .nn import balanced_class_weights

        config.class_weights = balanced_class_weights(labels)

    if md is None:
        train_x = encode_inputs(model, train_samples)
        return fit(model.graph, train_x, labels, val_x, val_y, config, compute_eer, log=log)

    md.validate()
    md_rng = np.random.default_rng(md.seed)
    probs = np.array([md.prob(m) for m in model.modalities])

    def make_epoch_data(epoch, rng):
        drop = md_rng.random((len(train_samples), len(model.modalities))) < probs
        if md.mode == "sentinel":
            return encode_inputs(model, train_samples, dropped=drop), labels
        x = encode_inputs(model, train_samples)
        col = 0
        for j, m in enumerate(model.modalities):
            width = 1 if model.kind == "SL" else EMBEDDING_DIMS[m]
            sl = slice(col, col + width)
            x[drop[:, j], sl] = 0.0
            x[~drop[:, j], sl] /= 1.0 - probs[j]
            col += width
        return x, labels

    initial = encode_inputs(model, train_samples)
    return fit(
        model.graph, initial, labels, val_x, val_y, config, compute_eer,
        log=log, make_epoch_data=make_epoch_data,
    )


def infer_fusion(model, sample):
    """Fused directedness probability for one sample."""
    return float(infer_fusion_batch(model, [sample])[0])


def infer_fusion_batch(model, samples):
    if model.kind == "AVG":
        return np.array([fuse_avg(s.scores, model.modalities) for s in samples])
    out = model.graph.forward(encode_inputs(model, samples))
    return out.ravel()
