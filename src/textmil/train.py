"""Adam training of the adapter + attention parameters with early stopping.

One epoch is one full-batch gradient step over the k-shot training
bags (loss averaged per slide in slide-id order) on one fresh tape,
followed by a validation AUC; the returned parameters are the ones from
the best validation epoch. A fit pools its training slides as one
`BagBatch`, so the pooling and head add about fifteen nodes to the
epoch's tape, and cuts its validation slides by `hierpool.batch_bags`;
it builds both once. Each epoch runs the adapted encoder blocks once: the
forward pass of step t+1 is taped right after the Adam update of step
t, its text scores step t's validation, and the next epoch
backpropagates that same tape. Everything is deterministic given the
config seed. `run_kshot` is the one split -> build -> fit path of a
k-shot run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
from .config import RunConfig
from .data import Dataset, kshot_split
from .errors import DataError, NumericError
from .hierpool import BagBatch, BagOutput, batch_bags
from .metrics import evaluate
from .model import SlideClassifier, TrainableLayout, build_model


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray, *,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> np.ndarray:
    """Bias-corrected Adam update; returns the new parameter vector."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match theta {theta.shape}")
    if not np.isfinite(grad).all():
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericError(f"non-finite gradient at coordinate {bad}")
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1 ** state.t)
    v_hat = state.v / (1.0 - beta2 ** state.t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class FitResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0  # 0, with best_val_auc -inf, until an epoch scores an AUC
    best_val_auc: float = -np.inf


def _check_split(model: SlideClassifier, train_bags, val_bags):
    k = model.config.train.shots
    if not train_bags or not val_bags:
        raise DataError("training and validation sets must be nonempty")
    counts: dict[int, int] = {}
    for b in train_bags:
        counts[b.label] = counts.get(b.label, 0) + 1
    expected = {c: k for c in range(model.prompts.n_classes)}
    if counts != expected:
        raise DataError(f"train set must have exactly {k} bags per class, got {counts}")
    present = sorted({b.label for b in val_bags})
    if present != list(range(model.prompts.n_classes)):
        raise DataError(f"validation set must hold every one of the {model.prompts.n_classes} "
                        f"classes to score an AUC; it holds classes {present}")
    overlap = {b.slide_id for b in train_bags} & {b.slide_id for b in val_bags}
    if overlap:
        raise DataError(f"train/val splits overlap: {sorted(overlap)[:3]}")


def mean_loss(model: SlideClassifier, batch: BagBatch, frozen: BagOutput | None = None):
    """(mean cross-entropy over the slides of `batch`, the model's text):
    the one loss path of training and of the gradient check's oracle, at
    parameters that are tape nodes or arrays. `frozen`, an earlier pass
    over the batch, holds its refinement scores fixed."""
    text = model.text()
    probs, _ = model.forward(batch, text, frozen=frozen)
    return tp.mean_nll(probs, batch.labels), text


def epoch_loss(batch: BagBatch, layout: TrainableLayout, theta: np.ndarray):
    """Mean cross-entropy over the slides of `batch` on a fresh tape, at
    `theta` on the layout's model; returns the loss node, the tape, its
    leaf nodes by parameter name and the model's text
    (`SlideClassifier.text`) as tape nodes. The tape holds the whole
    step: the adapted blocks of each class prompt and the batched pooling
    and head of every training slide."""
    tape, leaves = layout.bind(theta)
    loss, text = mean_loss(layout.model(leaves), batch)
    if not np.isfinite(tp.value(loss)):
        raise NumericError(f"non-finite training loss {tp.value(loss)}")
    return loss, tape, leaves, text


def fit(model: SlideClassifier, train_bags, val_bags) -> FitResult:
    """Train in place; leaves the model at the best-validation parameters.

    Validation after step t reuses the text values of step t+1's taped
    forward pass, which runs at the same parameters, so each epoch
    encodes the class prompts once. A fit of E epochs runs E + 1 forward
    passes; the last one only scores validation, yet a non-finite loss
    there raises NumericError as at any other step. Only the returned
    FitResult keeps the best epoch and its AUC beyond the call."""
    cfg = model.config.train
    train_bags = sorted(train_bags, key=lambda b: b.slide_id)
    val_bags = sorted(val_bags, key=lambda b: b.slide_id)
    _check_split(model, train_bags, val_bags)
    batch, val_batches = BagBatch.of(train_bags), list(batch_bags(val_bags))

    layout = TrainableLayout(model)
    theta = layout.pack()
    adam = AdamState.zeros(layout.size)
    best_theta, since_best = theta.copy(), 0
    result = FitResult()

    step = epoch_loss(batch, layout, theta)
    for epoch in range(1, cfg.max_epochs + 1):
        loss, tape, nodes, _ = step
        grad = layout.flatten_grads(tape.backward(loss), nodes)
        theta = adam_step(adam, theta, grad, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                          eps=cfg.adam_eps)
        layout.apply(theta)
        step = epoch_loss(batch, layout, theta)
        val_auc = evaluate(model, val_bags, batches=val_batches,
                           text=([tp.value(e) for e in step[3][0]], tp.value(step[3][1]))).auc
        result.history.append({"epoch": epoch,
                               "train_loss": float(tp.value(loss)),
                               "val_auc": float(val_auc)})
        # equal-metric epochs keep the later, more converged parameters;
        # a tie still counts against the patience
        since_best = 0 if val_auc > result.best_val_auc else since_best + 1
        if val_auc >= result.best_val_auc:
            best_theta = theta.copy()
            result.best_epoch, result.best_val_auc = epoch, float(val_auc)
        if since_best > cfg.patience:
            break

    layout.apply(best_theta)
    return result


def run_kshot(cfg: RunConfig, dataset: Dataset, fold_seed: int | None = None):
    """One k-shot run: draw the split (k = cfg.train.shots; the fold seed
    defaults to the training seed), build the model and fit it. Returns
    (model, FitResult, SplitPlan); scoring the test slides is the caller's."""
    spec = dataset.spec
    plan = kshot_split(dataset.labels(), cfg.train.shots,
                       cfg.train.seed if fold_seed is None else fold_seed,
                       dataset_seed=spec.seed, test_per_class=spec.test_per_class,
                       val_per_class=spec.val_per_class)
    model = build_model(cfg, dataset.prompts)
    train_bags, val_bags = (model.check_bags(dataset.select(ids)) for ids in (plan.train, plan.val))
    return model, fit(model, train_bags, val_bags), plan
