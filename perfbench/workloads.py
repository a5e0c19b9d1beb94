"""The benchmark's three workloads: set-up, timed part and output checks.

Each workload has ``setup(seed, in_dir, sizes)``, which writes its inputs,
and ``run(in_dir, seed, sizes, tracer)``, which runs the timed part once and
checks its outputs. ``run`` returns a ``Rep``: the timed part's ``wall_s``
and ``cpu_s``, the operations ``attempted`` and ``failed``, ``problems``
(failed output checks), a ``digest`` of the outputs, ``quality`` numbers,
per-stage seconds and stage throughputs (``rates``).
"""

import hashlib
import os
import time
from contextlib import contextmanager

import numpy as np

from ddsd.components import build_component, export_directedness, ingest_precomputed, train_component
from ddsd.corruption import corrupt_missing, write_directedness_records
from ddsd.data.manifest import by_split, read_manifest
from ddsd.data.records import read_records
from ddsd.data.synth import SynthConfig, generate_corpus
from ddsd.dsp.audio import frame_count, read_wav
from ddsd.errors import DataError
from ddsd.extraction import extract_features
from ddsd.fusion import ModalityDropoutConfig, build_fusion, infer_fusion, infer_fusion_batch, train_fusion
from ddsd.metrics import compute_eer, compute_fa_at_fr
from ddsd.modalities import EMBEDDING_DIMS, MODALITIES
from ddsd.nn import TrainConfig

import inputs
from probes import instrument

# sizes of one repetition; TINY is for the harness's own tests
FULL = {
    "extract_scale": 0.01,  # of the reference corpus: 100 utterances
    "comp_counts": {"train-comp": 150, "val-comp": 60, "test": 150},
    "comp_epochs": 2,
    "fusion_counts": {"train-fus": 2000, "val-fus": 500, "test": 1500},
    "fusion_epochs": 5,
}
TINY = {
    "extract_scale": 0.001,
    "comp_counts": {"train-comp": 12, "val-comp": 8, "test": 8},
    "comp_epochs": 1,
    "fusion_counts": {"train-fus": 60, "val-fus": 30, "test": 60},
    "fusion_epochs": 1,
}

# the workload-specific numbers each run reports beside its metrics line
REPORTED_UNITS = {
    "extract_audio_s_per_s": "s/s",
    "train_utt_per_s": "1/s",
    "infer_utt_per_s": "1/s",
    "prosody_train_loss": "loss",
    "acoustic_train_loss": "loss",
    "prosody_test_eer_pct": "%",
    "acoustic_test_eer_pct": "%",
    "ingest_utt_per_s": "1/s",
    "fusion_train_samples_per_s": "1/s",
    "fusion_infer_samples_per_s": "1/s",
    "el_md_eer_pct": "%",
    "el_md_eer_missing30_pct": "%",
    "el_md_fa_at_fr10_missing30_pct": "%",
}

MISSING_RATE = 0.30
DROP_RATE_TOLERANCE = 0.03
CHANCE_EER_PCT = 50.0
FUSION_MODELS = (("SL", "SL", False), ("SL_MD", "SL", True), ("EL", "EL", False), ("EL_MD", "EL", True))


class Rep:
    """Result of one repetition of a workload's timed part."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.wall_s = self.cpu_s = 0.0
        self.attempted = self.failed = 0
        self.problems = []
        self.stages = {}
        self.rates = {}
        self.quality = {}
        self.extra = {}
        self.digest = None

    @contextmanager
    def timed(self):
        """The timed part: probes are installed only while it runs."""
        patches = instrument(self.tracer) if self.tracer.enabled else None
        saved = patches.originals() if patches else []
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall_s = time.perf_counter() - t0
            self.cpu_s = time.process_time() - c0
            if patches:
                patches.restore()
                left = [attr for owner, attr, orig in saved if owner.__dict__[attr] is not orig]
                if left:
                    self.problems.append(f"patched attributes survived the traced run: {left}")

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        with self.tracer.span(name):
            yield
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0

    def rate(self, items, *prefixes):
        """items per second of the stages whose names start with a prefix."""
        return items / sum(t for s, t in self.stages.items() if s.startswith(prefixes))

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def as_dict(self):
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "digest": self.digest,
            "quality": self.quality,
            "stages": self.stages,
            "rates": self.rates,
            **self.extra,
        }


def _hash_files(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def input_digest(in_dir):
    """sha256 over every input file, in sorted path order."""
    paths = sorted(os.path.join(root, name) for root, _, names in os.walk(in_dir) for name in names)
    return _hash_files(paths)


def _finite(a):
    return bool(np.all(np.isfinite(a)))


# -- extract -----------------------------------------------------------------


def setup_extract(seed, in_dir, sizes):
    generate_corpus(SynthConfig(scale=sizes["extract_scale"], seed=seed), in_dir)


def run_extract(in_dir, seed, sizes, tracer):
    rep = Rep(tracer)
    out_manifest = os.path.join(in_dir, "extracted.jsonl")
    with rep.timed():
        with rep.stage("extraction.extract_features"):
            extract_features(os.path.join(in_dir, "manifest.jsonl"), out_manifest=out_manifest)

    utts = read_manifest(out_manifest)
    rep.attempted = len(utts)
    audio_s, outputs = 0.0, []
    for u in utts:
        buf = read_wav(os.path.join(in_dir, u.audio_path))
        audio_s += buf.duration
        frames = frame_count(buf.samples.shape[0], buf.sample_rate)
        paths = [os.path.join(in_dir, u.feature_paths[m]) for m in ("prosody", "acoustic")]
        outputs += paths
        recs = [read_records(p) for p in paths]
        ok = rep.check(
            all(len(r) == 1 for r in recs), f"{u.utterance_id}: expected one record per feature file"
        )
        if ok:
            prosody, fbank = recs[0][0].payload, recs[1][0].payload
            ok = rep.check(
                prosody.shape == (frames, 5) and fbank.shape == (frames, 40),
                f"{u.utterance_id}: feature shapes {prosody.shape}, {fbank.shape}, want ({frames}, 5|40)",
            ) and rep.check(_finite(prosody) and _finite(fbank), f"{u.utterance_id}: non-finite features")
        rep.failed += not ok
    rep.digest = _hash_files(outputs)
    rep.rates = {"extract_audio_s_per_s": rep.rate(audio_s, "extraction.extract_features")}
    return rep


# -- components --------------------------------------------------------------


def setup_components(seed, in_dir, sizes):
    inputs.write_component_corpus(seed, sizes["comp_counts"], in_dir)


def run_components(in_dir, seed, sizes, tracer):
    rep = Rep(tracer)
    epochs = sizes["comp_epochs"]
    models, histories, weights = {}, {}, {}
    with rep.timed():
        utts = read_manifest(os.path.join(in_dir, "manifest.jsonl"))
        for modality in ("prosody", "acoustic"):
            # a fresh config per call: train_component writes class weights into it
            config = TrainConfig(epochs=epochs, batch_size=150, seed=seed)
            models[modality] = build_component(modality, seed=seed)
            with rep.stage(f"components.train_component.{modality}"):
                histories[modality], _ = train_component(models[modality], utts, in_dir, config=config)
            weights[modality] = list(config.class_weights)
        test = by_split(utts, "test")
        with rep.stage("components.export_directedness"):
            export_directedness(models, test, in_dir, "exported")

    rep.attempted = 2 + len(models) * len(test)
    for modality, hist in histories.items():
        loss = hist[-1].train_loss
        rep.quality[f"{modality}_train_loss"] = loss
        rep.failed += not rep.check(np.isfinite(loss), f"{modality}: non-finite training loss")

    labels = np.array([u.label_int() for u in test])
    scores = {m: np.full(len(test), np.nan) for m in models}
    outputs = []
    for i, u in enumerate(test):
        path = os.path.join(in_dir, u.feature_paths["directedness"])
        outputs.append(path)
        recs = {(r.modality, r.kind): r.payload for r in read_records(path)}
        for m in models:
            score, emb = recs.get((m, "score")), recs.get((m, "embedding"))
            ok = rep.check(
                score is not None and emb is not None, f"{u.utterance_id}: missing {m} records"
            ) and rep.check(
                score.shape == (1,) and 0.0 <= score[0] <= 1.0, f"{u.utterance_id}: {m} score {score}"
            ) and rep.check(
                emb.shape == (EMBEDDING_DIMS[m],) and _finite(emb),
                f"{u.utterance_id}: {m} embedding shape {emb.shape} or non-finite",
            )
            rep.failed += not ok
            if ok:
                scores[m][i] = score[0]
    for m in models:
        rep.quality[f"{m}_test_eer_pct"] = compute_eer(scores[m], labels) if _finite(scores[m]) else None
    rep.digest = _hash_files(outputs)
    n_train = len(by_split(utts, "train-comp"))
    rep.rates = {
        "train_utt_per_s": rep.rate(len(models) * n_train * epochs, "components.train_component."),
        "infer_utt_per_s": rep.rate(len(models) * len(test), "components.export_directedness"),
    }
    rep.extra["class_weights"] = weights
    return rep


# -- fusion ------------------------------------------------------------------


def setup_fusion(seed, in_dir, sizes):
    inputs.write_fusion_corpus(seed, sizes["fusion_counts"], in_dir)


def _same_samples(a, b):
    for x, y in zip(a, b):
        if x.scores.scores != y.scores.scores:
            return False
        for m in MODALITIES:
            ex, ey = x.embeddings.embeddings.get(m), y.embeddings.embeddings.get(m)
            if (ex is None) != (ey is None) or (ex is not None and not np.array_equal(ex, ey)):
                return False
    return len(a) == len(b)


def run_fusion(in_dir, seed, sizes, tracer):
    rep = Rep(tracer)
    epochs = sizes["fusion_epochs"]
    models, weights, fused, quality = {}, {}, {}, {}
    avg_failed = []
    with rep.timed():
        utts = read_manifest(os.path.join(in_dir, "manifest.jsonl"))
        with rep.stage("components.ingest_precomputed"):
            samples = ingest_precomputed(utts, in_dir)
        by = {s: [x for u, x in zip(utts, samples) if u.split == s] for s in ("train-fus", "val-fus", "test")}
        test_utts = by_split(utts, "test")
        with rep.stage("corruption.corrupt_missing"):
            missing_mem, realised = corrupt_missing(by["test"], rate=MISSING_RATE, seed=seed)
        with rep.stage("corruption.write_directedness_records"):
            write_directedness_records(missing_mem, {u.utterance_id: u for u in test_utts}, in_dir, "missing30")
        with rep.stage("components.ingest_precomputed"):
            missing = ingest_precomputed(test_utts, in_dir)
        sets = {"clean": by["test"], "missing30": missing}

        for name, kind, md in FUSION_MODELS:
            config = TrainConfig(epochs=epochs, batch_size=150, seed=seed)
            models[name] = build_fusion(kind, MODALITIES, seed=seed)
            dropout = ModalityDropoutConfig(seed=seed) if md else None
            with rep.stage(f"fusion.train_fusion.{name}"):
                train_fusion(models[name], by["train-fus"], by["val-fus"], config=config, md=dropout)
            weights[name] = list(config.class_weights)

        avg = build_fusion("AVG", MODALITIES)
        with rep.stage("fusion.infer_fusion_batch.AVG"):
            fused["AVG", "clean"] = infer_fusion_batch(avg, sets["clean"])
            # one all-missing sample makes the batch call raise, so score one by one
            out = np.full(len(missing), np.nan)
            for i, sample in enumerate(missing):
                try:
                    out[i] = infer_fusion(avg, sample)
                except DataError:
                    avg_failed.append(i)
            fused["AVG", "missing30"] = out
        for kind in ("SL", "EL"):
            with rep.stage(f"fusion.infer_fusion_batch.{kind}"):
                for name in (kind, f"{kind}_MD"):
                    for set_name, batch in sets.items():
                        fused[name, set_name] = infer_fusion_batch(models[name], batch)

        labels = np.array([s.label for s in by["test"]])
        with rep.stage("metrics"):
            for (name, set_name), scores in fused.items():
                ok = np.isfinite(scores)
                eer = compute_eer(scores[ok], labels[ok])
                fa, _ = compute_fa_at_fr(scores[ok], labels[ok])
                quality[f"{name}_{set_name}"] = {"eer_pct": eer, "fa_at_fr10_pct": fa, "scored": int(ok.sum())}

    n_test = len(by["test"])
    rep.attempted = len(fused) * n_test
    rep.failed = len(avg_failed)
    drop_rate = float(np.mean(list(realised.values())))
    rep.check(_same_samples(missing, missing_mem), "re-ingested missing30 records differ from corrupt_missing output")
    rep.check(
        abs(drop_rate - MISSING_RATE) <= DROP_RATE_TOLERANCE,
        f"realised drop rate {drop_rate:.4f} is not near {MISSING_RATE}",
    )
    for i in avg_failed:
        rep.check(
            not missing[i].scores.present_modalities(),
            f"AVG failed on {missing[i].utterance_id}, which has a present modality",
        )
    h = hashlib.sha256()
    for (name, set_name), scores in fused.items():
        expected_nan = len(avg_failed) if (name, set_name) == ("AVG", "missing30") else 0
        finite = scores[np.isfinite(scores)]
        n_bad = int(np.sum((finite < 0.0) | (finite > 1.0))) + scores.size - finite.size - expected_nan
        rep.failed += n_bad
        rep.check(n_bad == 0, f"{name}/{set_name}: {n_bad} fused scores not finite or outside [0, 1]")
        h.update(scores.tobytes())
    rep.digest = h.hexdigest()
    el = quality["EL_MD_clean"]["eer_pct"]
    rep.check(el < CHANCE_EER_PCT, f"EL_MD clean EER {el} is not better than chance")
    rep.quality = {
        "el_md_eer_pct": el,
        "el_md_eer_missing30_pct": quality["EL_MD_missing30"]["eer_pct"],
        "el_md_fa_at_fr10_missing30_pct": quality["EL_MD_missing30"]["fa_at_fr10_pct"],
        "table": quality,
    }
    n_train = len(by["train-fus"])
    rep.rates = {
        "ingest_utt_per_s": rep.rate(len(utts) + n_test, "components.ingest_precomputed"),
        "fusion_train_samples_per_s": rep.rate(len(FUSION_MODELS) * n_train * epochs, "fusion.train_fusion."),
        "fusion_infer_samples_per_s": rep.rate(len(fused) * n_test, "fusion.infer_fusion_batch."),
    }
    rep.extra["class_weights"] = weights
    rep.extra["realised_drop_rate"] = drop_rate
    rep.extra["avg_all_missing"] = len(avg_failed)
    return rep


WORKLOADS = {
    "extract": (setup_extract, run_extract),
    "components": (setup_components, run_components),
    "fusion": (setup_fusion, run_fusion),
}
