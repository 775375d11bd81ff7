import ast
import gc
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textmil import tape as tp
from textmil.config import RefinementConfig
from textmil.errors import NumericError
from textmil.hierpool import refinement_score
from textmil.tape import DegenerateVectorError


def finite_vectors(min_size=2, max_size=8):
    return st.lists(st.floats(-50, 50, allow_nan=False, allow_infinity=False),
                    min_size=min_size, max_size=max_size).map(lambda v: np.array(v, dtype=np.float64))


def dot(u, v):
    """The tests' scalar reducer: the sum of the elementwise product of two
    values of one shape, recorded through the public `tp.record`."""
    uv, vv = tp.value(u), tp.value(v)
    assert np.shape(uv) == np.shape(vv)
    return tp.record(float(np.sum(uv * vv)), [(u, lambda g: g * vv), (v, lambda g: g * uv)])


# ---------------------------------------------------------------------------
# forward values


def test_matvec_direct_arithmetic():
    out = tp.matvec(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([3.0, 7.0]))


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        tp.matvec(np.ones((2, 3)), np.ones(2))


def tanh_mlp(x):
    """tanh of each row of X as the MLP with identity weights and zero biases."""
    n = np.shape(tp.value(x))[1]
    eye, zero = np.eye(n), np.zeros(n)
    return tp.mlp(x, eye, zero, eye, zero)


def test_elementwise_values():
    assert tanh_mlp(np.array([[0.0]]))[0, 0] == 0.0
    assert np.array_equal(tp.scale_shift(np.array([[1.0, 2.0], [0.0, -2.0]]), np.array([3.0, 4.0]),
                                         np.array([0.5, -1.0])), [[3.5, 7.0], [0.5, -9.0]])


def test_elementwise_shape_mismatch():
    with pytest.raises(ValueError):
        tp.add(np.ones(3), np.ones(4))
    for x, gamma, beta in [(np.ones((2, 3)), np.ones(2), np.ones(3)),
                           (np.ones((2, 3)), np.ones(3), np.ones(2)),
                           (np.ones((2, 3)), np.ones((2, 3)), np.ones(3)),
                           (np.ones(3), np.ones(3), np.ones(3))]:
        with pytest.raises(ValueError):
            tp.scale_shift(x, gamma, beta)


def test_mlp_matches_composed_arithmetic_bitwise():
    """Each row's output and input cotangent are the vector arithmetic on
    that row alone, to the last bit."""
    rng = np.random.default_rng(3)
    X, w1, b1, w2, b2, G = (rng.standard_normal(s)
                            for s in ((4, 5), (7, 5), 7, (5, 7), 5, (4, 5)))
    t = tp.Tape()
    node = t.param(X)
    out = tp.mlp(node, w1, b1, w2, b2)
    grad = t.backward(dot(G, out))[node]
    for x, y, g, dx in zip(X, out.value, G, grad):
        h = np.tanh(w1 @ x + b1)
        assert np.array_equal(y, w2 @ h + b2)
        assert np.array_equal(dx, w1.T @ ((w2.T @ g) * (1.0 - h * h)))


def test_layernorm_matches_vector_arithmetic_bitwise():
    """Each row's output and input cotangent are the vector arithmetic on
    that row alone, to the last bit (`mean` as numpy's, one row at a time)."""
    rng = np.random.default_rng(4)
    X, gain, bias, G = (rng.standard_normal(s) for s in ((5, 6), 6, 6, (5, 6)))
    t = tp.Tape()
    node = t.param(X)
    out = tp.layernorm(node, gain, bias)
    grad = t.backward(dot(G, out))[node]
    for x, y, g, dx in zip(X, out.value, G, grad):
        xc = x - x.mean()
        inv = 1.0 / np.sqrt(float((xc * xc).mean()) + tp.EPS_LN)
        xhat = xc * inv
        assert np.array_equal(y, gain * xhat + bias)
        dxhat = g * gain
        assert np.array_equal(dx, inv * (dxhat - dxhat.mean() - xhat * (dxhat * xhat).mean()))


def test_mlp_shape_checks():
    x, w1, b1, w2, b2 = np.ones((2, 3)), np.ones((4, 3)), np.ones(4), np.ones((3, 4)), np.ones(3)
    for k, bad in [(0, np.ones(3)), (0, np.ones((1, 2))), (1, np.ones(4)), (1, np.ones((4, 2))),
                   (2, np.ones(3)), (3, np.ones(4)), (3, np.ones((3, 5))), (4, np.ones(4))]:
        args = [x, w1, b1, w2, b2]
        args[k] = bad
        with pytest.raises(ValueError):
            tp.mlp(*args)


def test_tanh_vjp_closed_form():
    t = tp.Tape()
    x = t.param(np.array([[0.5]]))
    y = tanh_mlp(x)
    g = t.backward(dot(np.ones((1, 1)), y))[x]
    assert g[0, 0] == pytest.approx(0.7864477329659274, abs=1e-15)


def test_softmax_constant_vector():
    for c in (0.0, -3.5, 41.0):
        out = tp.softmax(np.full((1, 3), c))
        assert np.abs(out - 1.0 / 3).max() <= 1e-12


def test_softmax_shift_invariance_concrete():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(6)[None]
    assert np.abs(tp.softmax(x) - tp.softmax(x + 10.0)).max() <= 1e-12


def test_softmax_matches_naive_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5)
    naive = np.exp(x) / np.exp(x).sum()
    assert np.abs(tp.softmax(x[None])[0] - naive).max() <= 1e-12


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        tp.softmax(np.empty((2, 0)))


def test_cosine_identities():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(6)[None]
    assert tp.cosine(u, u)[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert tp.cosine(u, -u)[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert tp.cosine(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))[0, 0] == pytest.approx(
        0.7071067811865475, abs=1e-12)


def test_cosine_near_zero_norm_degenerate():
    with pytest.raises(DegenerateVectorError):
        tp.cosine(np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(DegenerateVectorError):
        tp.l2_normalize(np.full(4, 1e-12))


def test_l2_normalize_unit():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(9)
    assert np.linalg.norm(tp.l2_normalize(u)) == pytest.approx(1.0, abs=1e-12)


def test_layernorm_constant_input_gives_bias():
    bias = np.array([0.3, -1.0, 2.0])
    out = tp.layernorm(np.full((2, 3), 7.7), np.array([2.0, 2.0, 2.0]), bias)
    assert np.array_equal(out, [bias, bias])


def test_layernorm_output_mean_near_bias_mean():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 8))
    bias = rng.standard_normal(8)
    out = tp.layernorm(x, np.full(8, 1.7), bias)
    # normalized part is zero-mean, so each row's output mean is the bias mean
    assert np.abs(out.mean(axis=1) - bias.mean()).max() <= 1e-9


def test_layernorm_rejects_dim_one():
    with pytest.raises(ValueError):
        tp.layernorm(np.array([[1.0]]), np.array([1.0]), np.array([0.0]))


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
        (f"tanh-{i}", lambda x, w=w: dot(w[None], tanh_mlp(x)), (v + 0.1)[None]),
        # the sigmoid gate of gate_logits: unit instances, so row j's gate is sigmoid(x_j)
        (f"sigmoid-{i}", lambda x, w=w: dot(w, tp.gate_logits(
            np.eye(6), np.ones(1), np.full((1, 6), 0.5), tp.rows([x]))), v - 0.2),
        (f"hadamard-{i}", lambda x, w=w: dot(w[None], tp.scale_shift(x, w, 0.0 * w)), v[None]),
        (f"matvec-{i}", lambda x, A=A, p=p4: dot(p, tp.matvec(A, x)), v),
        (f"softmax-{i}", lambda x, w=w: dot(w[None], tp.softmax(x)), v[None]),
        (f"cosine-{i}", lambda x, w=w: dot(np.ones((1, 1)), tp.cosine(x, w[None])),
         (v + 0.5)[None]),
        (f"l2norm-{i}", lambda x, w=w: dot(w, tp.l2_normalize(x)), v + 0.3),
        (f"layernorm-{i}", lambda x, w=w: dot(w[None], tp.layernorm(x, w, w)), v[None]),
        (f"add-scale-{i}", lambda x, w=w: tp.scale(dot(w, tp.add(x, w)), 1.7), v),
        (f"wsum-{i}", lambda x, w=w, v=v: dot(w, tp.pool(
            tp.segment_softmax(x, [0, 6]), np.stack([w, v, w + 1, v - 1, w * 2, v * 0.5]))), v),
    ]


@pytest.mark.parametrize("name,build,x0", CASES, ids=[c[0] for c in CASES])
def test_vjp_matches_central_differences(name, build, x0):
    def f(flat):
        return float(tp.value(build(flat.reshape(x0.shape))))

    t = tp.Tape()
    node = t.param(x0)
    out = build(node)
    g = t.backward(out)[node]
    err = tp.grad_check(f, x0.ravel(), np.asarray(g).ravel(), h=1e-6)
    assert err <= 1e-4, f"{name}: rel err {err}"


def test_matrix_param_vjp():
    rng = np.random.default_rng(42)
    A0 = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    p = rng.standard_normal(3)

    def f(flat):
        return float(tp.value(dot(p, tp.matvec(flat.reshape(3, 4), x))))

    t = tp.Tape()
    node = t.param(A0)
    g = t.backward(dot(p, tp.matvec(node, x)))[node]
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
    return dot(u[:val.shape[0]], out)


def refine(x, t):
    return tp.refine_scores(x, t, FACTOR, THRESHOLD)


# The finite-difference table: one case per (primitive, differentiable
# argument, random draw), as (id, fn, args, k, op). `fn(*args)` calls the
# primitive `op` with its constant arguments bound, and args[k] is the
# argument checked; `test_table_covers_every_public_op` keeps the table
# complete. The `vector` cases of the row ops take one row, a (1, dim) matrix.
PRIMITIVE_CASES = []
OFFSETS = np.array([0, 1, 4, 7])  # a one-row segment and two of three rows
LABELS = np.array([2, 0, 3])
_prng = np.random.default_rng(20261018)
for i in range(3):
    H = _prng.standard_normal((5, 6))
    gate = [H, _prng.standard_normal(4), 0.5 * _prng.standard_normal((4, 6)),
            0.5 * _prng.standard_normal((4, 6))]
    t = _prng.standard_normal(6)
    X = rows_at_cosines(_prng, t, COSINES)
    vecs = [_prng.standard_normal(6) for _ in range(3)]
    p = _prng.standard_normal(5)
    PRIMITIVE_CASES += [(f"rows-{j}-{i}", lambda *a: tp.rows(list(a)), vecs, j, tp.rows)
                        for j in range(3)]
    PRIMITIVE_CASES += [(f"gate_logits-{n}-{i}", tp.gate_logits, gate, j, tp.gate_logits)
                        for j, n in enumerate(("H", "w", "M1", "M2"))]
    PRIMITIVE_CASES += [(f"pool-p-{i}", tp.pool, [p, H], 0, tp.pool),
                        (f"pool-H-{i}", tp.pool, [p, H], 1, tp.pool)]
    PRIMITIVE_CASES += [(f"refine_scores-rows-{i}", refine, [X, t], 0, tp.refine_scores),
                        (f"refine_scores-guidance-{i}", refine, [X, t], 1, tp.refine_scores),
                        (f"refine_scores-amplified-vector-{i}", refine, [X[:1], t], 0,
                         tp.refine_scores),
                        (f"refine_scores-pass-vector-{i}", refine, [X[1:2], t], 0,
                         tp.refine_scores),
                        (f"refine_scores-vector-guidance-{i}", refine, [X[3:4], t], 1,
                         tp.refine_scores)]

    def draw(*shape):
        return _prng.standard_normal(shape)

    def both(op, fn, args, names, tag=""):
        return [(f"{op.__name__}-{tag}{n}-{i}", fn, args, j, op) for j, n in enumerate(names)]

    v6, w6, M = draw(6), draw(6), draw(4, 6)
    PRIMITIVE_CASES += both(tp.add, tp.add, [v6, w6], "ab")
    PRIMITIVE_CASES += both(tp.add, tp.add, [M, draw(4, 6)], "ab", "rows-")
    PRIMITIVE_CASES += [(f"scale-a-{i}", lambda a: tp.scale(a, -1.7), [M], 0, tp.scale)]
    # the elementwise product is scale_shift with a zero shift, and tanh the
    # mlp with identity weights and zero biases
    PRIMITIVE_CASES += [(f"hadamard-{n}-{i}",
                         lambda x, gamma, z=0.0 * w6: tp.scale_shift(x, gamma, z),
                         [v6[None], w6], j, tp.scale_shift) for j, n in enumerate("ab")]
    PRIMITIVE_CASES += [(f"tanh-a-{i}", tanh_mlp, [v6[None]], 0, tp.mlp)]
    PRIMITIVE_CASES += both(tp.matvec, tp.matvec, [M, v6], "ax")
    PRIMITIVE_CASES += [(f"softmax-x-{i}", tp.softmax, [v6[None]], 0, tp.softmax),
                        (f"softmax-rows-x-{i}", tp.softmax, [M], 0, tp.softmax)]
    PRIMITIVE_CASES += [(f"l2_normalize-u-{i}", tp.l2_normalize, [v6], 0, tp.l2_normalize)]
    for tag, n in (("", 1), ("rows-", 3)):  # one row, as the gradient oracle runs, and three
        PRIMITIVE_CASES += both(tp.layernorm, tp.layernorm,
                                [draw(n, 6), 1.0 + 0.3 * draw(6), draw(6)], ("x", "gain", "bias"), tag)
        PRIMITIVE_CASES += both(tp.scale_shift, tp.scale_shift,
                                [draw(n, 6), 1.0 + 0.3 * draw(6), draw(6)], ("x", "gamma", "beta"), tag)
        PRIMITIVE_CASES += both(tp.mlp, tp.mlp, [draw(n, 6), 0.5 * draw(5, 6), draw(5),
                                                 0.5 * draw(6, 5), draw(6)],
                                ("x", "w1", "b1", "w2", "b2"), tag)
    PRIMITIVE_CASES += [(f"take_rows-x-{i}", lambda x: tp.take_rows(x, 1, 3), [draw(4, 6)], 0,
                         tp.take_rows)]
    PRIMITIVE_CASES += both(tp.cosine, tp.cosine, [v6[None], w6[None]], "uv")
    PRIMITIVE_CASES += both(tp.cosine, tp.cosine, [draw(3, 6), M], "uv", "rows-")
    PRIMITIVE_CASES += both(tp.cosine, tp.cosine, [v6[None], M], "uv", "vector-rows-")
    PRIMITIVE_CASES += [(f"segment_softmax-z-{i}", lambda z: tp.segment_softmax(z, OFFSETS),
                         [draw(7)], 0, tp.segment_softmax)]
    PRIMITIVE_CASES += both(tp.segment_pool, lambda p, h: tp.segment_pool(p, h, OFFSETS),
                            [draw(7), draw(7, 5)], ("p", "H"))
    PRIMITIVE_CASES += [(f"mean_nll-p-{i}", lambda p: tp.mean_nll(p, LABELS),
                         [_prng.uniform(0.1, 1.0, (3, 4))], 0, tp.mean_nll)]


@pytest.mark.parametrize("name,fn,args,k,op", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_argument_vjp(name, fn, args, k, op):
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


# functions of tape.py that are not differentiable ops, and the arguments
# of ops that are constants by contract
NOT_OPS = {"value", "record", "central_difference", "grad_check", "refine_value"}
CONSTANT_ARGS = {"k", "offsets", "labels", "factor", "threshold", "lo", "hi"}
PUBLIC_OPS = {name: f for name, f in vars(tp).items()
              if inspect.isfunction(f) and f.__module__ == tp.__name__
              and not name.startswith("_") and name not in NOT_OPS}


def test_table_covers_every_public_op():
    """Every public op of tape.py has a table case for each argument it
    differentiates; an op added without cases fails here."""
    covered = {}
    for _, _, _, k, op in PRIMITIVE_CASES:
        params = list(inspect.signature(op).parameters)
        covered.setdefault(op.__name__, set()).add(params[0] if op is tp.rows else params[k])
    assert set(covered) == set(PUBLIC_OPS)
    for name, f in PUBLIC_OPS.items():
        wanted = set(inspect.signature(f).parameters) - CONSTANT_ARGS
        assert wanted <= covered[name], f"{name}: no table case for {wanted - covered[name]}"


def test_ops_used_outside_tape():
    """Every public op of tape.py is used as `tp.<name>` (called, or passed
    as a function) by some other module of the package, each of which
    imports tape as `tp`: an op only the tests call fails here."""
    used = set()
    for path in Path(tp.__file__).parent.glob("*.py"):
        if path.name != "tape.py":
            used |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "tp"}
    assert set(PUBLIC_OPS) - used == set()


def test_every_definition_used_inside_the_package():
    """Every class, function and method defined in the package (dunder
    methods aside) is named, as a name or an attribute, somewhere in the
    package beyond its own definition: one that only the tests name fails
    here, and belongs in the tests."""
    defined, named = set(), set()
    for path in Path(tp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    dunders = {n for n in defined if n.startswith("__") and n.endswith("__")}
    assert defined - dunders - named == set()


def test_every_parameter_read_in_its_function():
    """Every parameter of every function and method defined in the package
    (`self` and `cls` aside) is read somewhere in that function's body: a
    parameter that nothing reads is an argument each caller passes for
    nothing."""
    unread = []
    for path in Path(tp.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = fn.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                          *(p for p in (a.vararg, a.kwarg) if p is not None)]
                body = fn.body if isinstance(fn.body, list) else [fn.body]
                read = {node.id for stmt in body for node in ast.walk(stmt)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                unread += [f"{path.name}:{getattr(fn, 'name', 'lambda')}({p.arg})"
                           for p in params if p.arg not in read | {"self", "cls"}]
    assert unread == []


def test_row_ops_reject_a_vector():
    """The pooling, head and refinement ops take row matrices only."""
    u, t = np.array([0.6, 0.8]), np.array([1.0, 0.0])
    calls = [lambda: tp.softmax(u), lambda: tp.cosine(u, t[None]),
             lambda: tp.cosine(u[None], t), lambda: tp.refine_scores(u, t, FACTOR, THRESHOLD),
             lambda: refinement_score(u, t, RefinementConfig()),
             lambda: refinement_score(u, None, RefinementConfig())]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_refine_scores_branch_values():
    rng = np.random.default_rng(22)
    t = rng.standard_normal(5)
    X = rows_at_cosines(rng, t, (0.6, 0.15, -0.3))
    s = tp.refine_scores(X, t, FACTOR, THRESHOLD)
    assert np.abs(s - [FACTOR * 0.6, 0.15, 0.0]).max() <= 1e-12
    assert s[2] == 0.0 and math.copysign(1.0, s[2]) == 1.0
    for j in range(3):
        assert tp.refine_scores(X[j][None], t, FACTOR, THRESHOLD)[0] == pytest.approx(s[j], abs=1e-12)


def test_refine_scores_near_zero_row_scores_zero_without_gradient():
    rng = np.random.default_rng(23)
    t = rng.standard_normal(4)
    X = np.vstack([rows_at_cosines(rng, t, (0.5,)), np.full((1, 4), 1e-12)])
    tape = tp.Tape()
    node = tape.param(X)
    s = tp.refine_scores(node, t, FACTOR, THRESHOLD)
    assert tp.value(s)[1] == 0.0
    g = tape.backward(dot(np.ones(2), s))[node]
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
    assert abs(float(tp.softmax(v[None]).sum()) - 1.0) <= 1e-12


@given(finite_vectors(), st.floats(-30, 30, allow_nan=False))
def test_softmax_shift_invariance(v, c):
    assert np.abs(tp.softmax(v[None]) - tp.softmax(v[None] + c)).max() <= 1e-12


@given(finite_vectors(3, 6).filter(lambda v: np.linalg.norm(v) > 1e-3),
       finite_vectors(3, 6).filter(lambda v: np.linalg.norm(v) > 1e-3),
       st.floats(0.01, 100.0))
def test_cosine_symmetry_and_rescale_invariance(u, v, s):
    if u.shape != v.shape:
        v = np.resize(v, u.shape)
        if np.linalg.norm(v) <= 1e-3:
            return
    u, v = u[None], v[None]
    c1 = tp.cosine(u, v)[0, 0]
    assert c1 == pytest.approx(tp.cosine(v, u)[0, 0], abs=1e-12)
    assert c1 == pytest.approx(tp.cosine(u * s, v)[0, 0], abs=1e-12)
    assert -1.0 - 1e-12 <= c1 <= 1.0 + 1e-12


@given(finite_vectors(2, 8), st.floats(-20, 20, allow_nan=False))
def test_layernorm_shift_invariance(x, c):
    gain = np.full(x.shape, 1.3)
    bias = np.full(x.shape, -0.4)
    a = tp.layernorm(x[None], gain, bias)
    b = tp.layernorm(x[None] + c, gain, bias)
    assert np.abs(a - b).max() <= 1e-9


# ---------------------------------------------------------------------------
# tape mechanics and the finite-difference oracle


def test_backward_visits_reverse_order_once():
    t = tp.Tape()
    x = t.param(np.array([1.0, 2.0]))
    y = tp.add(x, x)          # fan-in of the same node twice
    z = dot(y, np.array([1.0, 1.0]))
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
        x = t.param(np.array([[0.3, -0.2]]))
        y = t.param(np.array([0.5, 1.5]))
        root = dot(tanh_mlp(x), tp.scale_shift(x, y, y))
        t.backward(root)
        assert len(t) == 5
        del t, x, y, root
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_backward_ignores_nodes_off_the_root_path():
    t = tp.Tape()
    x = t.param(np.array([[1.0, 2.0]]))
    y = t.param(np.array([3.0, 4.0]))
    unused = tp.scale_shift(x, y, y)
    root = dot(x, np.array([[1.0, -1.0]]))
    g = t.backward(root)
    assert np.array_equal(g[x], [[1.0, -1.0]])
    assert np.array_equal(g[y], [0.0, 0.0])
    assert np.array_equal(g[unused], [[0.0, 0.0]])


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
    c = t1.param(np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError):
        tp.add(a, b)
    # the foreign node in the second or the third argument, after a node
    # of the first tape or a constant
    for args in [(c, b, a), (c, a, b), (np.array([[1.0, -1.0]]), a, b)]:
        with pytest.raises(ValueError, match="different tapes"):
            tp.layernorm(*args)
    with pytest.raises(ValueError, match="different tapes"):
        tp.pool(a, tp.rows([b, b]))
    assert len(t1) == 2 and len(t2) == 2


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
        tp.mean_nll(np.array([[0.0, 1.0]]), [0])
