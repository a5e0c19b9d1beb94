"""Binary-classification evaluation: DET sweep, EER, FA at a fixed FR.

Conventions: the positive class is "directed". A score >= threshold is
accepted, so FA(t) is the fraction of not-directed entries at or above t
and FR(t) the fraction of directed entries below t. All reported rates are
percentages.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError

FR_TARGET_DEFAULT = 0.10


def _split_scores(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be matching 1-D arrays")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("both classes must be present to compute metrics")
    return pos, neg


def det_curve(scores, labels):
    """(thresholds, fr, fa) over all distinct score thresholds, ascending.

    A final operating point just above the maximum score (FA=0, FR=1) closes
    the sweep. fr is non-decreasing and fa non-increasing in the threshold.
    """
    pos, neg = _split_scores(scores, labels)
    uniq = np.unique(np.concatenate([pos, neg]))
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    # at threshold t: accepted iff score >= t
    fa = (len(neg) - np.searchsorted(neg_sorted, uniq, side="left")) / len(neg)
    fr = np.searchsorted(pos_sorted, uniq, side="left") / len(pos)
    top = np.nextafter(uniq[-1], np.inf)
    thresholds = np.concatenate([uniq, [top]])
    fa = np.concatenate([fa, [0.0]])
    fr = np.concatenate([fr, [1.0]])
    return thresholds, fr, fa


def compute_eer(scores, labels):
    """Equal error rate in percent, linearly interpolated at the crossing."""
    _, fr, fa = det_curve(scores, labels)
    diff = fa - fr  # starts at +1 (t=min), ends at -1; non-increasing
    i = int(np.argmax(diff <= 0.0))
    if diff[i] == 0.0:
        return 100.0 * fa[i]
    lam = diff[i - 1] / (diff[i - 1] - diff[i])
    return 100.0 * (fa[i - 1] + lam * (fa[i] - fa[i - 1]))


def compute_fa_at_fr(scores, labels, fr_target=FR_TARGET_DEFAULT):
    """FA (percent) and operating threshold at the given false-reject rate.

    Interpolates linearly on the DET trade-off at the highest threshold
    whose FR does not exceed the target.
    """
    thresholds, fr, fa = det_curve(scores, labels)
    i = int(np.searchsorted(fr, fr_target, side="right")) - 1  # last fr[i] <= target
    if i >= len(fr) - 1:  # fr ends at 1.0, so every target of 1 or more lands here
        return 100.0 * fa[-1], float(thresholds[-1])
    lam = (fr_target - fr[i]) / (fr[i + 1] - fr[i])
    fa_val = fa[i] + lam * (fa[i + 1] - fa[i])
    thr = thresholds[i] + lam * (thresholds[i + 1] - thresholds[i])
    return 100.0 * fa_val, float(thr)


@dataclass
class EvalReport:
    eer: float
    fa_at_fr10: float
    threshold_at_fr10: float
    det_points: list  # (threshold, FR%, FA%)
    n_directed: int
    n_not_directed: int

    def to_text(self):
        lines = [
            f"entries: directed={self.n_directed} not-directed={self.n_not_directed}",
            f"EER: {self.eer:.2f} %",
            f"FA@10%FR: {self.fa_at_fr10:.2f} %",
            f"threshold@10%FR: {self.threshold_at_fr10:.6g}",
            f"DET points: {len(self.det_points)}",
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "eer": self.eer,
            "fa_at_fr10": self.fa_at_fr10,
            "threshold_at_fr10": self.threshold_at_fr10,
            "n_directed": self.n_directed,
            "n_not_directed": self.n_not_directed,
            "det_points": [[float(t), float(r), float(a)] for t, r, a in self.det_points],
        }

    def write(self, base_path):
        """Write <base>.txt, <base>.json and <base>.det.csv."""
        base = str(base_path)
        with open(base + ".txt", "w") as f:
            f.write(self.to_text())
        with open(base + ".json", "w") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True)
            f.write("\n")
        with open(base + ".det.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["threshold", "FR%", "FA%"])
            for t, r, a in self.det_points:
                writer.writerow([f"{t:.9g}", f"{r:.6f}", f"{a:.6f}"])


def evaluate_scores(scores, labels, fr_target=FR_TARGET_DEFAULT):
    thresholds, fr, fa = det_curve(scores, labels)
    eer = compute_eer(scores, labels)
    fa10, thr10 = compute_fa_at_fr(scores, labels, fr_target)
    labels = np.asarray(labels)
    points = list(zip(thresholds.tolist(), (100.0 * fr).tolist(), (100.0 * fa).tolist()))
    return EvalReport(
        eer=eer,
        fa_at_fr10=fa10,
        threshold_at_fr10=thr10,
        det_points=points,
        n_directed=int((labels == 1).sum()),
        n_not_directed=int((labels == 0).sum()),
    )
