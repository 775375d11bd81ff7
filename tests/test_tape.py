import ast
import gc
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textmil import tape as tp
from textmil.errors import NumericError
from textmil.tape import DegenerateVectorError


def finite_vectors(min_size=2, max_size=8):
    return st.lists(st.floats(-50, 50, allow_nan=False, allow_infinity=False),
                    min_size=min_size, max_size=max_size).map(lambda v: np.array(v, dtype=np.float64))


# ---------------------------------------------------------------------------
# forward values


def test_matvec_direct_arithmetic():
    out = tp.matvec(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([3.0, 7.0]))


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        tp.matvec(np.ones((2, 3)), np.ones(2))


def test_elementwise_values():
    assert tp.tanh(np.array([0.0]))[0] == 0.0
    assert np.array_equal(tp.hadamard(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
                          np.array([3.0, 8.0]))


def test_elementwise_shape_mismatch():
    with pytest.raises(ValueError):
        tp.add(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        tp.hadamard(np.ones(3), np.ones(2))


def test_tanh_vjp_closed_form():
    t = tp.Tape()
    x = t.param(np.array([0.5]))
    y = tp.tanh(x)
    g = t.backward(tp.pick(y, 0))[x]
    assert g[0] == pytest.approx(0.7864477329659274, abs=1e-15)


def test_softmax_constant_vector():
    for c in (0.0, -3.5, 41.0):
        out = tp.softmax(np.full(3, c))
        assert np.abs(out - 1.0 / 3).max() <= 1e-12


def test_softmax_shift_invariance_concrete():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(6)
    assert np.abs(tp.softmax(x) - tp.softmax(x + 10.0)).max() <= 1e-12


def test_softmax_matches_naive_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5)
    naive = np.exp(x) / np.exp(x).sum()
    assert np.abs(tp.softmax(x) - naive).max() <= 1e-12


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        tp.softmax(np.array([]))


def test_cosine_identities():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(6)
    assert tp.cosine(u, u) == pytest.approx(1.0, abs=1e-12)
    assert tp.cosine(u, -u) == pytest.approx(-1.0, abs=1e-12)
    assert tp.cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
        0.7071067811865475, abs=1e-12)


def test_cosine_near_zero_norm_degenerate():
    with pytest.raises(DegenerateVectorError):
        tp.cosine(np.zeros(3), np.ones(3))
    with pytest.raises(DegenerateVectorError):
        tp.l2_normalize(np.full(4, 1e-12))


def test_l2_normalize_unit():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(9)
    assert np.linalg.norm(tp.l2_normalize(u)) == pytest.approx(1.0, abs=1e-12)


def test_layernorm_constant_input_gives_bias():
    bias = np.array([0.3, -1.0, 2.0])
    out = tp.layernorm(np.full(3, 7.7), np.array([2.0, 2.0, 2.0]), bias)
    assert np.array_equal(out, bias)


def test_layernorm_output_mean_near_bias_mean():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(8)
    bias = rng.standard_normal(8)
    out = tp.layernorm(x, np.full(8, 1.7), bias)
    # normalized part is zero-mean, so the output mean is the bias mean
    assert out.mean() == pytest.approx(bias.mean(), abs=1e-9)


def test_layernorm_rejects_dim_one():
    with pytest.raises(ValueError):
        tp.layernorm(np.array([1.0]), np.array([1.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# VJPs vs central differences (>= 100 random points across the op set)

CASES = []
_rng = np.random.default_rng(20240810)
for i in range(10):
    v = _rng.standard_normal(6)
    w = _rng.standard_normal(6)
    A = _rng.standard_normal((4, 6))
    p4 = _rng.standard_normal(4)
    CASES += [
        (f"tanh-{i}", lambda x, w=w: tp.dot(w, tp.tanh(x)), v + 0.1),
        # the sigmoid gate of gate_logits: unit instances, so row j's gate is sigmoid(x_j)
        (f"sigmoid-{i}", lambda x, w=w: tp.dot(w, tp.gate_logits(
            np.eye(6), np.ones(1), np.full((1, 6), 0.5), tp.rows([x]))), v - 0.2),
        (f"hadamard-{i}", lambda x, w=w: tp.dot(w, tp.hadamard(x, w)), v),
        (f"matvec-{i}", lambda x, A=A, p=p4: tp.dot(p, tp.matvec(A, x)), v),
        (f"softmax-{i}", lambda x, w=w: tp.dot(w, tp.softmax(x)), v),
        (f"cosine-{i}", lambda x, w=w: tp.cosine(x, w), v + 0.5),
        (f"l2norm-{i}", lambda x, w=w: tp.dot(w, tp.l2_normalize(x)), v + 0.3),
        (f"layernorm-{i}", lambda x, w=w: tp.dot(w, tp.layernorm(x, w, w)), v),
        (f"add-scale-{i}", lambda x, w=w: tp.scale(tp.dot(w, tp.add(x, w)), 1.7), v),
        (f"wsum-{i}", lambda x, w=w, v=v: tp.dot(w, tp.pool(
            tp.softmax(x), np.stack([w, v, w + 1, v - 1, w * 2, v * 0.5]))), v),
    ]


@pytest.mark.parametrize("name,build,x0", CASES, ids=[c[0] for c in CASES])
def test_vjp_matches_central_differences(name, build, x0):
    def f(flat):
        return float(tp.value(build(flat.reshape(x0.shape))))

    t = tp.Tape()
    node = t.param(x0)
    out = build(node)
    g = t.backward(out)[node]
    err = tp.grad_check(f, x0.copy(), np.asarray(g).ravel(), h=1e-6)
    assert err <= 1e-4, f"{name}: rel err {err}"


def test_matrix_param_vjp():
    rng = np.random.default_rng(42)
    A0 = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    p = rng.standard_normal(3)

    def f(flat):
        return float(tp.value(tp.dot(p, tp.matvec(flat.reshape(3, 4), x))))

    t = tp.Tape()
    node = t.param(A0)
    g = t.backward(tp.dot(p, tp.matvec(node, x)))[node]
    assert tp.grad_check(f, A0.ravel(), g.ravel(), h=1e-6) <= 1e-4


# ---------------------------------------------------------------------------
# matrix primitives: forward values and every differentiable argument


def test_matrix_primitives_match_row_loops():
    rng = np.random.default_rng(21)
    H = rng.standard_normal((5, 6))
    w = rng.standard_normal(4)
    M1 = rng.standard_normal((4, 6))
    M2 = rng.standard_normal((4, 6))
    p = rng.standard_normal(5)
    expected = [w @ (np.tanh(M1 @ h) * (1.0 / (1.0 + np.exp(-(M2 @ h))))) for h in H]
    assert np.abs(tp.gate_logits(H, w, M1, M2) - expected).max() <= 1e-12
    assert np.abs(tp.pool(p, H) - sum(p[j] * H[j] for j in range(5))).max() <= 1e-12
    assert np.array_equal(tp.rows(list(H)), H)


def test_matrix_primitives_shape_checks():
    with pytest.raises(ValueError):
        tp.rows([])
    with pytest.raises(ValueError):
        tp.rows([np.ones(3), np.ones(4)])
    with pytest.raises(ValueError):
        tp.gate_logits(np.ones((2, 3)), np.ones(4), np.ones((4, 2)), np.ones((4, 3)))
    with pytest.raises(ValueError):
        tp.pool(np.ones(3), np.ones((2, 3)))
    with pytest.raises(ValueError):
        tp.refine_scores(np.ones((2, 3)), np.ones(4), 3.0, 0.2)
    with pytest.raises(DegenerateVectorError):
        tp.refine_scores(np.ones((2, 3)), np.zeros(3), 3.0, 0.2)


def rows_at_cosines(rng, t, cosines):
    """Rows of random norm whose cosine with `t` is exactly as given."""
    t_hat = t / np.linalg.norm(t)
    out = []
    for c in cosines:
        r = rng.standard_normal(t.shape[0])
        r -= (r @ t_hat) * t_hat
        out.append(rng.uniform(0.5, 2.0) * (c * t_hat + math.sqrt(1 - c * c) * r / np.linalg.norm(r)))
    return np.array(out)


FACTOR, THRESHOLD = 3.0, 0.2
# amplified, pass-through and zero rows, each >= 0.04 from a branch boundary
COSINES = (0.62, 0.11, -0.45, 0.31, 0.05, 0.16)


def reduce_scalar(out, u, v):
    """A scalar tape function of a float, vector or matrix output."""
    val = tp.value(out)
    if np.ndim(val) == 0:
        return out
    if np.ndim(val) == 2:
        out = tp.pool(v[:val.shape[0]], out)
        val = tp.value(out)
    return tp.dot(u[:val.shape[0]], out)


def refine(x, t):
    return tp.refine_scores(x, t, FACTOR, THRESHOLD)


PRIMITIVE_CASES = []
_prng = np.random.default_rng(20261018)
for i in range(3):
    H = _prng.standard_normal((5, 6))
    gate = [H, _prng.standard_normal(4), 0.5 * _prng.standard_normal((4, 6)),
            0.5 * _prng.standard_normal((4, 6))]
    t = _prng.standard_normal(6)
    X = rows_at_cosines(_prng, t, COSINES)
    vecs = [_prng.standard_normal(6) for _ in range(3)]
    p = _prng.standard_normal(5)
    PRIMITIVE_CASES += [(f"rows-{j}-{i}", lambda *a: tp.rows(list(a)), vecs, j) for j in range(3)]
    PRIMITIVE_CASES += [(f"gate_logits-{n}-{i}", tp.gate_logits, gate, j)
                        for j, n in enumerate(("H", "w", "M1", "M2"))]
    PRIMITIVE_CASES += [(f"pool-p-{i}", tp.pool, [p, H], 0), (f"pool-H-{i}", tp.pool, [p, H], 1)]
    PRIMITIVE_CASES += [(f"refine_scores-rows-{i}", refine, [X, t], 0),
                        (f"refine_scores-guidance-{i}", refine, [X, t], 1),
                        (f"refine_scores-amplified-vector-{i}", refine, [X[0], t], 0),
                        (f"refine_scores-pass-vector-{i}", refine, [X[1], t], 0),
                        (f"refine_scores-vector-guidance-{i}", refine, [X[3], t], 1)]


@pytest.mark.parametrize("name,fn,args,k", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_argument_vjp(name, fn, args, k):
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal(8), rng.standard_normal(8)
    x0 = np.asarray(args[k], dtype=np.float64)

    def call(xk):
        return reduce_scalar(fn(*args[:k], xk, *args[k + 1:]), u, v)

    t = tp.Tape()
    node = t.param(x0)
    g = t.backward(call(node))[node]
    err = tp.grad_check(lambda flat: float(tp.value(call(flat.reshape(x0.shape)))),
                        x0.ravel(), np.asarray(g).ravel(), h=1e-6)
    assert err <= 1e-4, f"{name}: rel err {err}"


def test_refine_scores_branch_values():
    rng = np.random.default_rng(22)
    t = rng.standard_normal(5)
    X = rows_at_cosines(rng, t, (0.6, 0.15, -0.3))
    s = tp.refine_scores(X, t, FACTOR, THRESHOLD)
    assert np.abs(s - [FACTOR * 0.6, 0.15, 0.0]).max() <= 1e-12
    assert s[2] == 0.0 and math.copysign(1.0, s[2]) == 1.0
    for j in range(3):
        assert tp.refine_scores(X[j], t, FACTOR, THRESHOLD) == pytest.approx(s[j], abs=1e-12)


def test_refine_scores_near_zero_row_scores_zero_without_gradient():
    rng = np.random.default_rng(23)
    t = rng.standard_normal(4)
    X = np.vstack([rows_at_cosines(rng, t, (0.5,)), np.full((1, 4), 1e-12)])
    tape = tp.Tape()
    node = tape.param(X)
    s = tp.refine_scores(node, t, FACTOR, THRESHOLD)
    assert tp.value(s)[1] == 0.0
    g = tape.backward(tp.dot(np.ones(2), s))[node]
    assert not g[1].any() and g[0].any()


def test_refine_scores_all_zero_records_nothing():
    t = np.array([1.0, 0.0, 0.0])
    tape = tp.Tape()
    node = tape.param(np.array([[-1.0, 0.5, 0.0], [0.0, 1.0, 0.0]]))
    out = tp.refine_scores(node, t, FACTOR, THRESHOLD)
    assert not isinstance(out, tp.Node) and not out.any()


# ---------------------------------------------------------------------------
# properties


@given(finite_vectors())
def test_softmax_sums_to_one(v):
    assert abs(float(tp.softmax(v).sum()) - 1.0) <= 1e-12


@given(finite_vectors(), st.floats(-30, 30, allow_nan=False))
def test_softmax_shift_invariance(v, c):
    assert np.abs(tp.softmax(v) - tp.softmax(v + c)).max() <= 1e-12


@given(finite_vectors(3, 6).filter(lambda v: np.linalg.norm(v) > 1e-3),
       finite_vectors(3, 6).filter(lambda v: np.linalg.norm(v) > 1e-3),
       st.floats(0.01, 100.0))
def test_cosine_symmetry_and_rescale_invariance(u, v, s):
    if u.shape != v.shape:
        v = np.resize(v, u.shape)
        if np.linalg.norm(v) <= 1e-3:
            return
    c1 = tp.cosine(u, v)
    assert c1 == pytest.approx(tp.cosine(v, u), abs=1e-12)
    assert c1 == pytest.approx(tp.cosine(u * s, v), abs=1e-12)
    assert -1.0 - 1e-12 <= c1 <= 1.0 + 1e-12


@given(finite_vectors(2, 8), st.floats(-20, 20, allow_nan=False))
def test_layernorm_shift_invariance(x, c):
    gain = np.full(x.shape, 1.3)
    bias = np.full(x.shape, -0.4)
    a = tp.layernorm(x, gain, bias)
    b = tp.layernorm(x + c, gain, bias)
    assert np.abs(a - b).max() <= 1e-9


# ---------------------------------------------------------------------------
# tape mechanics and the finite-difference oracle


def test_backward_visits_reverse_order_once():
    t = tp.Tape()
    x = t.param(np.array([1.0, 2.0]))
    y = tp.add(x, x)          # fan-in of the same node twice
    z = tp.dot(y, np.array([1.0, 1.0]))
    g = t.backward(z)[x]
    assert np.array_equal(g, np.array([2.0, 2.0]))


def test_constant_only_ops_stay_off_tape():
    t = tp.Tape()
    before = len(t)
    tp.add(np.ones(3), np.ones(3))
    tp.matvec(np.ones((2, 3)), np.ones(3))
    assert len(t) == before == 0


def test_dropped_graph_freed_without_cycle_collection():
    gc.collect()
    gc.disable()
    try:
        t = tp.Tape()
        x = t.param(np.array([0.3, -0.2]))
        root = tp.dot(tp.tanh(x), tp.hadamard(x, x))
        t.backward(root)
        assert len(t) == 4
        del t, x, root
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_backward_ignores_nodes_off_the_root_path():
    t = tp.Tape()
    x = t.param(np.array([1.0, 2.0]))
    y = t.param(np.array([3.0, 4.0]))
    unused = tp.hadamard(x, y)
    root = tp.dot(x, np.array([1.0, -1.0]))
    g = t.backward(root)
    assert np.array_equal(g[x], [1.0, -1.0])
    assert np.array_equal(g[y], [0.0, 0.0])
    assert np.array_equal(g[unused], [0.0, 0.0])


def test_only_tape_records_primitives():
    """The op set is closed: no module but tape.py calls `record`."""
    offenders = []
    for path in sorted(Path(tp.__file__).parent.glob("*.py")):
        if path.name == "tape.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "record":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_mixing_tapes_rejected():
    t1, t2 = tp.Tape(), tp.Tape()
    a = t1.param(np.ones(2))
    b = t2.param(np.ones(2))
    with pytest.raises(ValueError):
        tp.add(a, b)


def test_grad_check_quadratic():
    f = lambda x: float(x[0] ** 2)
    fd = tp.central_difference(f, np.array([3.0]), h=1e-6)
    assert fd[0] == pytest.approx(6.0, abs=1e-8)
    assert tp.grad_check(f, np.array([3.0]), np.array([6.0])) <= 1e-10


def test_grad_check_linear_exact():
    w = np.array([2.0, -3.0, 0.5])
    f = lambda x: float(w @ x)
    err = tp.grad_check(f, np.array([1.0, 1.0, 1.0]), w)
    assert err <= 1e-9


def test_grad_check_rejects_nonfinite():
    def f(x):
        with np.errstate(invalid="ignore"):
            return float(np.log(x[0]))
    with pytest.raises(NumericError):
        tp.central_difference(f, np.array([1e-9]), h=1e-6)


def test_log_of_nonpositive_rejected():
    with pytest.raises(NumericError):
        tp.log(0.0)
