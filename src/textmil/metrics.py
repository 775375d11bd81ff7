"""Evaluation metrics: ROC-AUC (rank form with tie credit) and dice overlap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .hierpool import BagBatch, SlideBag, attention_records, batch_bags, instance_saliency


class UndefinedMetricError(DataError):
    """Metric has no value on this input (e.g. single-class AUC)."""


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the average of their rank range (an
    exact half-integer: the mean of the first and last rank of the scores
    equal to it, found by binary search in the sorted scores)."""
    ordered = np.sort(scores)
    return (np.searchsorted(ordered, scores, "left")
            + np.searchsorted(ordered, scores, "right") + 1) / 2


def auc(scores, labels) -> float:
    """Binary ROC-AUC via the rank (Mann-Whitney) statistic; tied score
    pairs contribute half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError(f"scores {scores.shape} and labels {labels.shape} differ in length")
    if not ((labels == 0) | (labels == 1)).all():
        raise DataError("labels must be 0/1 indicators")
    if not np.isfinite(scores).all():
        raise NumericError(f"cannot rank a non-finite score {scores[~np.isfinite(scores)][0]}")
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both a positive and a negative example")
    ranks = _average_ranks(scores)
    u = float(ranks[labels == 1].sum()) - 0.5 * n_pos * (n_pos + 1)
    return u / (n_pos * n_neg)


def macro_auc(prob_matrix, labels, n_classes: int) -> float:
    """Macro one-vs-rest AUC for multi-class probabilities."""
    prob_matrix = np.asarray(prob_matrix, dtype=np.float64)
    labels = np.asarray(labels)
    if n_classes == 2:
        return auc(prob_matrix[:, 1], (labels == 1).astype(int))
    per_class = []
    for c in range(n_classes):
        per_class.append(auc(prob_matrix[:, c], (labels == c).astype(int)))
    return float(np.mean(per_class))


def dice(predicted, truth) -> float:
    """2|A n B| / (|A| + |B|); two empty masks agree perfectly (1.0)."""
    predicted = np.asarray(predicted).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if predicted.shape != truth.shape:
        raise DataError(f"mask lengths differ: {predicted.shape} vs {truth.shape}")
    total = int(predicted.sum()) + int(truth.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((predicted & truth).sum()) / total


# ---------------------------------------------------------------------------
# model evaluation


@dataclass
class EvalResult:
    auc: float
    per_slide: list[dict]
    dice_mean: float | None = None
    dice_per_slide: list[dict] | None = None
    attention: list[dict] | None = None  # per-slide attention records, if asked for

    def to_dict(self) -> dict:
        out = {"auc": self.auc, "per_slide": self.per_slide}
        if self.dice_mean is not None:
            out["dice_mean"] = self.dice_mean
            out["dice_per_slide"] = self.dice_per_slide
        return out


def evaluate(model, bags: list[SlideBag], *, with_localization: bool = False,
             attention: bool = False, text: tuple | None = None,
             batches: list[BagBatch] | None = None) -> EvalResult:
    """Deterministic metrics for a trained model on a bag set.

    AUC uses the positive-class probability for binary tasks and the
    macro one-vs-rest average otherwise. Dice (optional) compares
    thresholded saliency with the planted masks, over slides whose
    ground truth marks at least one instance. The saliency mode and the
    threshold are the model config's `localization` section; saliency
    is predicted positive strictly above the threshold, so an all-tied slide
    (saliency 0.5 everywhere) predicts nothing. With `attention`, the
    result also carries each slide's attention record, taken from the
    same pooling pass. Slides pool in batches, in slide-id order, and a
    batch is released before the next one is built.

    A caller that already holds them may pass the values of the model's
    `text()` (`fit` takes them from its next training step's tape) and
    `bags` already cut by `batch_bags` in slide-id order; the result is
    the same as without them.
    """
    if not bags:
        raise DataError("cannot evaluate an empty bag set")
    if batches is None:
        batches = batch_bags(sorted(bags, key=lambda b: b.slide_id))
    text = model.text() if text is None else text
    loc = model.config.localization
    probs, per_slide, dice_rows, records = [], [], [], []
    for batch in batches:
        p, out = model.forward(batch, text)
        probs.append(p)
        per_slide += [{"slide_id": bag.slide_id, "label": bag.label,
                       "probabilities": row, "predicted": top}
                      for bag, row, top in zip(batch.bags, p.tolist(), p.argmax(axis=1).tolist())]
        if attention:
            records += attention_records(out, loc.saliency)
        if with_localization:
            sal = instance_saliency(out, loc.saliency)
            starts = batch.slide_row_offsets()
            for s, bag in enumerate(batch.bags):
                truth = bag.flat_mask() if bag.has_mask() else np.zeros(0)
                if truth.sum() > 0:
                    predicted = sal[starts[s]:starts[s + 1]] > loc.threshold
                    dice_rows.append({"slide_id": bag.slide_id, "dice": dice(predicted, truth),
                                      "n_truth": int(truth.sum()),
                                      "n_predicted": int(predicted.sum())})
        # release this batch before `batch_bags` builds the next one, so
        # only one batch's rows and pooling values are alive at a time
        del batch, out
    score = macro_auc(np.concatenate(probs), np.array([r["label"] for r in per_slide]),
                      model.prompts.n_classes)
    result = EvalResult(auc=score, per_slide=per_slide, attention=records if attention else None)
    if with_localization and dice_rows:
        result.dice_mean = float(np.mean([r["dice"] for r in dice_rows]))
        result.dice_per_slide = dice_rows
    return result
