"""Dense numeric kernels with hand-derived VJPs on a reverse-mode tape.

The op set is closed on purpose: every primitive used by the slide
classifier lives here with its backward rule next to it, so the whole
reverse pass can be audited function by function. Values are either
python floats (scalars) or float64 numpy arrays (vectors / matrices).

Ops are module-level functions. Arguments may be plain arrays/floats
(constants) or `Node`s created via `Tape.param`. An op records itself
on the tape only when at least one argument is a Node; a call on plain
values is just numpy and costs nothing at backward time. That rule is
what keeps frozen weights structurally outside the gradient: they are
never wrapped in a Node, so no backward rule ever touches them.

Attention pooling works on whole matrices (`rows`, `gate_logits`,
`refine_scores`, `pool`), a few records per pooled group rather than
several per instance. Their sums run through numpy/BLAS, so reordering
inputs changes results only through float rounding.

A tape only counts its nodes; each node holds its parents, not the
other way round. The record graph is therefore acyclic and is freed by
reference counting as soon as its root is dropped.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

# Conventional stabilizers, fixed package-wide (see module docs).
EPS_LN = 1e-5    # layernorm variance stabilizer
EPS_NORM = 1e-8  # minimum norm for cosine / l2_normalize
REL_GUARD = 1e-12  # denominator guard for relative errors

Value = "float | np.ndarray"


class DegenerateVectorError(ValueError):
    """Vector norm below EPS_NORM where a direction is required."""


class Node:
    """A recorded value plus pulls that route a cotangent to its parents."""

    __slots__ = ("tape", "value", "index", "pulls")

    def __init__(self, tape: "Tape", value, pulls: tuple):
        self.tape = tape
        self.value = value
        self.index = tape._count
        self.pulls = pulls
        tape._count += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node(#{self.index}, value={self.value!r})"


class Gradients:
    """Backward results, indexable by the Node the gradient belongs to."""

    def __init__(self, grads: dict):
        self._grads = grads

    def __getitem__(self, node: Node):
        g = self._grads.get(node.index)
        if g is None:
            if isinstance(node.value, np.ndarray):
                return np.zeros_like(node.value)
            return 0.0
        return g


class Tape:
    """Numbering of the recorded ops of one reverse pass."""

    def __init__(self):
        self._count = 0

    def param(self, value) -> Node:
        """Wrap a trainable array (copied) as a leaf node."""
        arr = np.array(value, dtype=np.float64)
        return Node(self, arr, ())

    def __len__(self) -> int:
        return self._count

    def backward(self, root: Node) -> Gradients:
        """Reverse sweep from `root` (a scalar node): every node it depends
        on is visited once, in descending record order."""
        if not isinstance(root, Node) or root.tape is not self:
            raise ValueError("backward root must be a Node on this tape")
        seen = {root.index}
        order = [root]
        todo = [root]
        while todo:
            for parent, _ in todo.pop().pulls:
                if parent.index not in seen:
                    seen.add(parent.index)
                    order.append(parent)
                    todo.append(parent)
        order.sort(key=lambda n: n.index, reverse=True)
        grads = {root.index: 1.0}
        for node in order:
            g = grads[node.index]
            for parent, pull in node.pulls:
                contrib = pull(g)
                prev = grads.get(parent.index)
                grads[parent.index] = contrib if prev is None else prev + contrib
        return Gradients(grads)


def value(x):
    """Underlying float/array of a Node, or the argument itself."""
    return x.value if isinstance(x, Node) else x


def _tape_of(*args) -> Tape | None:
    t = None
    for a in args:
        if isinstance(a, Node):
            if t is None:
                t = a.tape
            elif a.tape is not t:
                raise ValueError("cannot mix nodes from different tapes")
    return t


def record(out_value, pulls: Sequence[tuple[Node, Callable]]):
    """Record a custom primitive. `pulls` maps the output cotangent to each
    Node parent; constants simply do not appear. Returns the plain value when
    there is nothing to record."""
    pulls = tuple(p for p in pulls if isinstance(p[0], Node))
    if not pulls:
        return out_value
    tape = _tape_of(*(n for n, _ in pulls))
    return Node(tape, out_value, pulls)


# ---------------------------------------------------------------------------
# shape checks


def _check_vector(x, name: str):
    if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.size > 0):
        raise ValueError(f"{name} must be a nonempty 1-d array, got {getattr(x, 'shape', type(x))}")


def _check_matrix(x, name: str):
    if not (isinstance(x, np.ndarray) and x.ndim == 2):
        raise ValueError(f"{name} must be a 2-d array, got {getattr(x, 'shape', type(x))}")


def _same_shape(a, b):
    av, bv = value(a), value(b)
    sa = av.shape if isinstance(av, np.ndarray) else ()
    sb = bv.shape if isinstance(bv, np.ndarray) else ()
    if sa != sb:
        raise ValueError(f"shape mismatch: {sa} vs {sb}")


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    _same_shape(a, b)
    out = value(a) + value(b)
    return record(out, [(a, lambda g: g), (b, lambda g: g)])


def scale(a, k: float):
    """Multiply by a python-float constant."""
    k = float(k)
    out = value(a) * k
    return record(out, [(a, lambda g: g * k)])


def hadamard(a, b):
    _same_shape(a, b)
    av, bv = value(a), value(b)
    return record(av * bv, [(a, lambda g: g * bv), (b, lambda g: g * av)])


def tanh(a):
    y = np.tanh(value(a))
    return record(y, [(a, lambda g: g * (1.0 - y * y))])


def matvec(a, x):
    av, xv = value(a), value(x)
    _check_matrix(av, "A")
    _check_vector(xv, "x")
    if av.shape[1] != xv.shape[0]:
        raise ValueError(f"inner dimensions disagree: {av.shape} x {xv.shape}")
    return record(av @ xv, [(a, lambda g: np.outer(g, xv)), (x, lambda g: av.T @ g)])


def dot(u, v):
    uv, vv = value(u), value(v)
    _check_vector(uv, "u")
    _check_vector(vv, "v")
    _same_shape(u, v)
    out = float(uv @ vv)
    return record(out, [(u, lambda g: g * vv), (v, lambda g: g * uv)])


def stack(items: Sequence):
    """Assemble scalars into a vector."""
    vals = np.array([value(s) for s in items], dtype=np.float64)
    pulls = [(s, (lambda i: lambda g: float(g[i]))(i)) for i, s in enumerate(items)]
    return record(vals, pulls)


def pick(v, i: int):
    vv = value(v)
    _check_vector(vv, "v")
    if not 0 <= i < vv.shape[0]:
        raise ValueError(f"index {i} out of range for vector of length {vv.shape[0]}")
    out = float(vv[i])

    def pull(g):
        c = np.zeros_like(vv)
        c[i] = g
        return c

    return record(out, [(v, pull)])


def log(s):
    sv = value(s)
    if sv <= 0:
        raise NumericError(f"log of non-positive value {sv}")
    return record(float(np.log(sv)), [(s, lambda g: g / sv)])


def softmax(x):
    """Stable softmax over a nonempty vector of logits."""
    xv = value(x)
    _check_vector(xv, "logits")
    e = np.exp(xv - xv.max())
    y = e / e.sum()
    return record(y, [(x, lambda g: y * (g - float(g @ y)))])


def mean(vectors: Sequence):
    """Mean of equal-length vectors, summed left-to-right."""
    if len(vectors) == 0:
        raise ValueError("mean of empty sequence")
    acc = np.array(value(vectors[0]), dtype=np.float64, copy=True)
    for v in vectors[1:]:
        _same_shape(vectors[0], v)
        acc = acc + value(v)
    k = 1.0 / len(vectors)
    out = acc * k
    return record(out, [(v, lambda g: g * k) for v in vectors])


def rows(vectors: Sequence):
    """Stack equal-length vectors into the rows of a matrix."""
    if len(vectors) == 0:
        raise ValueError("rows of empty sequence")
    vals = [value(v) for v in vectors]
    for v in vals:
        _check_vector(v, "row")
        if v.shape != vals[0].shape:
            raise ValueError(f"shape mismatch: {vals[0].shape} vs {v.shape}")
    pulls = [(v, (lambda j: lambda g: g[j])(j)) for j, v in enumerate(vectors)]
    return record(np.stack(vals), pulls)


def gate_logits(h, w, m1, m2):
    """Gated-attention logit w . (tanh(M1 h_i) * sigmoid(M2 h_i)) of every
    row h_i of the (n, dim) matrix H; M1 and M2 are (hidden, dim)."""
    hv, wv, m1v, m2v = value(h), value(w), value(m1), value(m2)
    _check_matrix(hv, "H")
    _check_vector(wv, "w")
    for m in (m1v, m2v):
        _check_matrix(m, "M")
        if m.shape != (wv.shape[0], hv.shape[1]):
            raise ValueError(f"gate matrix {m.shape} does not fit w {wv.shape} and H {hv.shape}")
    a = np.tanh(hv @ m1v.T)
    b = 1.0 / (1.0 + np.exp(-(hv @ m2v.T)))
    ab = a * b
    memo = [None, None]

    def pre(g):
        """Cotangents of the two pre-activations H M1^T and H M2^T."""
        if memo[0] is not g:
            gw = np.outer(g, wv)
            memo[0] = g
            memo[1] = (gw * b * (1.0 - a * a), gw * a * b * (1.0 - b))
        return memo[1]

    def pull_h(g):
        d1, d2 = pre(g)
        return d1 @ m1v + d2 @ m2v

    return record(ab @ wv, [(h, pull_h), (w, lambda g: g @ ab),
                            (m1, lambda g: pre(g)[0].T @ hv),
                            (m2, lambda g: pre(g)[1].T @ hv)])


def pool(p, h):
    """Weighted sum p @ H of the rows of H."""
    pv, hv = value(p), value(h)
    _check_vector(pv, "p")
    _check_matrix(hv, "H")
    if pv.shape[0] != hv.shape[0]:
        raise ValueError(f"{pv.shape[0]} weights for {hv.shape[0]} rows")
    return record(pv @ hv, [(p, lambda g: hv @ g), (h, lambda g: np.outer(pv, g))])


def refine_scores(x, t, factor: float, threshold: float):
    """Three-branch score of the cosine c between `t` and each row of the
    matrix `x` (one score per row) or the vector `x` (a float): factor*c
    strictly above the threshold, c on (0, threshold] (the threshold stays
    on the continuous-from-below branch), 0 for c <= 0. A row with norm
    below EPS_NORM scores 0. The gradient is the branch slope times the
    cosine's gradient, so a zero score gets none."""
    xv, tv = value(x), value(t)
    _check_vector(tv, "t")
    vector = np.ndim(xv) == 1
    xm = xv[None, :] if vector else xv
    _check_matrix(xm, "x")
    if xm.shape[1] != tv.shape[0]:
        raise ValueError(f"rows of length {xm.shape[1]} for a guidance of length {tv.shape[0]}")
    nt = float(np.linalg.norm(tv))
    if nt < EPS_NORM:
        raise DegenerateVectorError(f"cannot score against a guidance with norm {nt:g}")
    nx = np.linalg.norm(xm, axis=1)
    live = nx >= EPS_NORM
    nx = np.where(live, nx, 1.0)
    c = (xm @ tv) / (nx * nt)
    slope = np.where(live & (c > threshold), float(factor), np.where(live & (c > 0.0), 1.0, 0.0))
    s = np.where(slope > 0.0, slope * c, 0.0)

    def pull_x(g):
        k = np.reshape(g, -1) * slope / (nx * nt)
        return (k[:, None] * (tv - (c * nt / nx)[:, None] * xm)).reshape(xv.shape)

    def pull_t(g):
        gs = np.reshape(g, -1) * slope
        return (gs / (nx * nt)) @ xm - float(gs @ c) / (nt * nt) * tv

    pulls = [(x, pull_x), (t, pull_t)] if slope.any() else []
    return record(float(s[0]) if vector else s, pulls)


def cosine(u, v):
    """Cosine similarity; both arguments must have norm >= EPS_NORM."""
    uv, vv = value(u), value(v)
    _check_vector(uv, "u")
    _check_vector(vv, "v")
    _same_shape(u, v)
    nu = float(np.linalg.norm(uv))
    nv = float(np.linalg.norm(vv))
    if nu < EPS_NORM or nv < EPS_NORM:
        raise DegenerateVectorError(f"cosine of near-zero vector (norms {nu:g}, {nv:g})")
    c = float(uv @ vv) / (nu * nv)

    def pull_u(g):
        return g * (vv / (nu * nv) - c * uv / (nu * nu))

    def pull_v(g):
        return g * (uv / (nu * nv) - c * vv / (nv * nv))

    return record(c, [(u, pull_u), (v, pull_v)])


def l2_normalize(u):
    uv = value(u)
    _check_vector(uv, "u")
    n = float(np.linalg.norm(uv))
    if n < EPS_NORM:
        raise DegenerateVectorError(f"cannot normalize vector with norm {n:g}")
    y = uv / n
    return record(y, [(u, lambda g: (g - float(g @ y) * y) / n)])


def layernorm(x, gain, bias):
    """Zero-mean/unit-variance normalization with affine gain and bias."""
    xv, gv, bv = value(x), value(gain), value(bias)
    _check_vector(xv, "x")
    if xv.shape[0] < 2:
        raise ValueError("layernorm needs dim >= 2")
    _same_shape(x, gain)
    _same_shape(x, bias)
    mu = xv.mean()
    xc = xv - mu
    inv = 1.0 / np.sqrt(float((xc * xc).mean()) + EPS_LN)
    xhat = xc * inv
    out = gv * xhat + bv

    def pull_x(g):
        dxhat = g * gv
        return inv * (dxhat - dxhat.mean() - xhat * (dxhat * xhat).mean())

    return record(out, [(x, pull_x), (gain, lambda g: g * xhat), (bias, lambda g: g)])


# ---------------------------------------------------------------------------
# finite-difference oracle


def central_difference(f: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    params = np.asarray(params, dtype=np.float64)
    fd = np.zeros_like(params)
    for i in range(params.size):
        step = np.zeros_like(params)
        step[i] = h
        fp = f(params + step)
        fm = f(params - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite evaluation while differentiating coordinate {i}")
        fd[i] = (fp - fm) / (2.0 * h)
    return fd


def grad_check(f: Callable[[np.ndarray], float], params: np.ndarray, grad: np.ndarray, h: float = 1e-6) -> float:
    """Max relative error between `grad` and central differences of `f`.

    Relative error per coordinate is |g_fd - g| / (|g_fd| + |g| + 1e-12).
    """
    grad = np.asarray(grad, dtype=np.float64)
    fd = central_difference(f, params, h)
    err = np.abs(fd - grad) / (np.abs(fd) + np.abs(grad) + REL_GUARD)
    return float(err.max())
