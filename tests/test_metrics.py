import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textmil.errors import DataError, NumericError
from textmil.metrics import UndefinedMetricError, _average_ranks, auc, dice, macro_auc


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_ranking():
    assert auc([0.9, 0.8], [1, 0]) == 1.0


def test_auc_reversed_ranking():
    assert auc([0.9, 0.8], [0, 1]) == 0.0


def test_auc_all_ties_half():
    assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5


def test_auc_partial_ties():
    # pairs: (0.5,1)v(0.5,0) tie -> 0.5; (0.5,1)v(0.2,0) win -> 1
    assert auc([0.5, 0.5, 0.2], [1, 0, 0]) == pytest.approx(0.75)


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auc([0.1, 0.2], [1, 1])


def test_auc_rejects_non_binary_labels():
    with pytest.raises(DataError):
        auc([0.1, 0.2], [1, 2])


def test_auc_reads_labels_equal_to_0_or_1():
    """Labels are checked by comparison: booleans and the floats 0.0 and
    1.0 are 0/1 indicators; any other value, or text, is not."""
    scores = [0.1, 0.4, 0.35, 0.8]
    expected = auc(scores, [0, 0, 1, 1])
    for labels in ([False, False, True, True], [0.0, 0.0, 1.0, 1.0]):
        assert auc(scores, labels) == expected
    for labels in ([0, 0, 1, -1], [0, 0, 1, 0.5], ["0", "0", "1", "1"]):
        with pytest.raises(DataError, match="labels must be 0/1 indicators"):
            auc(scores, labels)


def test_auc_rejects_non_finite_scores():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            auc([bad, 0.5, 0.2], [1, 0, 1])


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.standard_normal(n), 1)  # rounding forces ties
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)


@given(st.lists(st.tuples(st.floats(-100, 100, allow_nan=False), st.integers(0, 1)),
                min_size=3, max_size=40).filter(
                    lambda rows: 0 < sum(l for _, l in rows) < len(rows)))
def test_auc_invariant_under_monotone_transform(rows):
    # quantize so distinct scores stay distinct through the float transforms
    scores = np.round(np.array([s for s, _ in rows]), 3)
    labels = np.array([l for _, l in rows])
    base = auc(scores, labels)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert auc(np.tanh(scores / 50.0), labels) == pytest.approx(base, abs=1e-12)


def loop_average_ranks(scores):
    """Reference ranks: walk the stable sort and give each run of equal
    scores the mean of its 1-based positions."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.shape[0])
    i = 0
    while i < scores.shape[0]:
        j = i
        while j + 1 < scores.shape[0] and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# few distinct values, so most draws hold long runs of ties, and both zeros
TIED_SCORES = [-0.0, 0.0, 0.25, -0.25, 1.0, 1e-300, 5e-324, 0.1, 0.7]


@settings(max_examples=300, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(TIED_SCORES), st.integers(0, 1)),
                min_size=2, max_size=60))
def test_average_ranks_match_loop_reference(rows):
    scores = np.array([s for s, _ in rows])
    labels = np.array([l for _, l in rows])
    labels[0], labels[-1] = 0, 1
    ref = loop_average_ranks(scores)
    assert _average_ranks(scores).tobytes() == ref.tobytes()
    # so the AUC is the one the reference ranks give, to the last bit
    n_pos = int(labels.sum())
    u = float(ref[labels == 1].sum()) - 0.5 * n_pos * (n_pos + 1)
    assert auc(scores, labels) == u / (n_pos * (labels.shape[0] - n_pos))


def test_macro_auc_multiclass():
    probs = np.array([
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.2, 0.2, 0.6],
        [0.6, 0.3, 0.1],
    ])
    labels = np.array([0, 1, 2, 0])
    expected = np.mean([
        auc(probs[:, 0], (labels == 0).astype(int)),
        auc(probs[:, 1], (labels == 1).astype(int)),
        auc(probs[:, 2], (labels == 2).astype(int)),
    ])
    assert macro_auc(probs, labels, 3) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# dice


def test_dice_identical_masks():
    assert dice([1, 0, 1], [1, 0, 1]) == 1.0


def test_dice_disjoint_masks():
    assert dice([1, 0, 0], [0, 1, 1]) == 0.0


def test_dice_half_overlap():
    assert dice([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5


def test_dice_both_empty_is_one():
    assert dice([0, 0], [0, 0]) == 1.0


def test_dice_length_mismatch():
    with pytest.raises(DataError):
        dice([1, 0], [1, 0, 1])


def test_dice_of_uniform_saliency_is_predict_none_convention():
    # all-tied saliency collapses to 0.5 everywhere; a strict 0.5 threshold
    # then predicts nothing: dice is 0 against any nonempty truth and 1
    # against an empty one
    saliency = np.full(6, 0.5)
    predicted = saliency > 0.5
    assert dice(predicted, [1, 0, 1, 0, 0, 0]) == 0.0
    assert dice(predicted, np.zeros(6)) == 1.0


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=50))
def test_dice_symmetric(pairs):
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    assert dice(a, b) == dice(b, a)
    assert 0.0 <= dice(a, b) <= 1.0
