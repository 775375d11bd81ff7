"""Dense numeric kernels with hand-derived VJPs on a reverse-mode tape.

The op set is closed on purpose: every primitive used by the slide
classifier lives here with its backward rule next to it, so the whole
reverse pass can be audited function by function. Values are python
floats (scalars) or float64 numpy arrays, and each op takes one shape.
The encoder block ops (`layernorm`, `scale_shift`, `mlp`) take token
rows, and so do `take_rows` and the pooling, head and refinement ops
(`gate_logits`, `segment_pool`, `cosine`, `softmax`, `refine_scores`,
`mean_nll`), which take their items (instances, regions, slides or
classes) as the rows of a matrix; a vector in its place is a
ValueError. The class-embedding tail (`pool`, `matvec`, `l2_normalize`)
takes vectors.

Ops are module-level functions. Arguments may be plain arrays/floats
(constants) or `Node`s created via `Tape.param`. An op records itself
on the tape only when at least one argument is a Node; a call on plain
values is just numpy and costs nothing at backward time. That rule is
what keeps frozen weights structurally outside the gradient: they are
never wrapped in a Node, so no backward rule ever touches them.

Prefer few, large primitives: each recorded node costs bookkeeping at
record and backward time, whatever its size. The text encoder runs each
block once over the token rows of every class prompt: `layernorm`,
`scale_shift` at each adapter site (ssf.py), the two-layer tanh `mlp`
and the residual `add` each take the whole (rows, dim) matrix, so an
adapted block records five nodes however many tokens the prompts hold.
Each row comes out as the same op on that row alone would give it, bit
for bit: matrix products run as one matrix-vector product per row
(`_rows_times`; one matrix-matrix product sums in another order), and
layernorm reduces each row on its own. Pulls into a vector that every
row shares (a gain, a scale or a shift) add the rows' contributions
from the last row to the first (`_row_sum`), the order in which one
node per row would reach it, so gradients too are those of a
row-by-row tape, bit for bit. A fused op's pulls take the steps of its
arithmetic in reverse, in a fixed order, so its gradients are those of
the chain of small ops it stands for.

Attention pooling and the classification head work on whole batches of
slides. A batch lays out its rows in CSR form: one (n_rows, dim) matrix
plus integer `offsets` rising strictly from 0 to n_rows, so that
consecutive offsets bound each segment (the instances of one region, or
the regions of one slide). `gate_logits` and `refine_scores` score every
row, `segment_softmax` normalises the scores within each segment and
`segment_pool` sums each segment's weighted rows into one output row.
The head is `cosine` of the slide rows against the class-embedding
rows, a row-wise `softmax` and `mean_nll`, the mean cross-entropy. The
pooling and head of a batch therefore record about fifteen nodes,
however many slides and instances it holds. Sums run through numpy/BLAS,
so reordering inputs changes results only through float rounding.

A tape only counts its nodes; each node holds its parents, not the
other way round. The record graph is therefore acyclic and is freed by
reference counting as soon as its root is dropped.

Gradients are reproducible bit for bit because their float sums run in
one fixed order. `Tape.backward` sweeps the nodes the root depends on in
descending record order; each node runs its pulls in the order its op
passed them to `record`, and each parent's gradient adds the incoming
contributions in that arrival order. A change to the bookkeeping that
keeps those two orders keeps every gradient, training history and
checkpoint byte-identical.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, NumericError

# Conventional stabilizers, fixed package-wide (see module docs).
EPS_LN = 1e-5    # layernorm variance stabilizer
EPS_NORM = 1e-8  # minimum norm for cosine / l2_normalize
REL_GUARD = 1e-12  # denominator guard for relative errors


class DegenerateVectorError(NumericError):
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
        """Reverse sweep from `root` (a scalar node). Every recorded node it
        depends on is visited once, in descending record order; leaves are
        not visited, as they have no pulls. A node's pulls run in the order
        it recorded them, and a parent's gradient is the sum of its
        contributions in the order they arrive, so the sweep's floating-
        point result is fixed by the record order alone."""
        if not isinstance(root, Node) or root.tape is not self:
            raise ValueError("backward root must be a Node on this tape")
        nodes = {root.index: root}
        todo = [root]
        while todo:
            for parent, _ in todo.pop().pulls:
                if parent.pulls and parent.index not in nodes:
                    nodes[parent.index] = parent
                    todo.append(parent)
        grads = {root.index: 1.0}
        for i in sorted(nodes, reverse=True):
            g = grads[i]
            for parent, pull in nodes[i].pulls:
                contrib = pull(g)
                prev = grads.get(parent.index)
                grads[parent.index] = contrib if prev is None else prev + contrib
        return Gradients(grads)


def value(x):
    """Underlying float/array of a Node, or the argument itself."""
    return x.value if isinstance(x, Node) else x


def record(out_value, pulls: Sequence[tuple[Node, Callable]]):
    """Record a custom primitive. `pulls` maps the output cotangent to each
    Node parent; constants simply do not appear. Returns the plain value when
    there is nothing to record. The node keeps the pulls of its Node parents
    in the order given, which is the order `Tape.backward` runs them in."""
    pulls = [p for p in pulls if isinstance(p[0], Node)]
    if not pulls:
        return out_value
    tape = pulls[0][0].tape
    for parent, _ in pulls:
        if parent.tape is not tape:
            raise ValueError("cannot mix nodes from different tapes")
    return Node(tape, out_value, pulls)


# ---------------------------------------------------------------------------
# shape checks


def _check_vector(x, name: str):
    if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.size > 0):
        raise ValueError(f"{name} must be a nonempty 1-d array, got {getattr(x, 'shape', type(x))}")


def _check_matrix(x, name: str, width: int | None = None):
    """`x` must be a 2-d array of nonempty rows, of `width` entries each if given."""
    if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.shape[1] > 0):
        raise ValueError(f"{name} must be a 2-d array of nonempty rows, got {getattr(x, 'shape', type(x))}")
    if width is not None and x.shape[1] != width:
        raise ValueError(f"{name} has rows of length {x.shape[1]}, expected {width}")


def _check_matvec(a, x):
    """`a` must be a matrix and `x` a nonempty vector of its row length."""
    _check_vector(x, "x")
    _check_matrix(a, "A", x.shape[0])


def _same_shape(a, b):
    av, bv = value(a), value(b)
    sa = av.shape if isinstance(av, np.ndarray) else ()
    sb = bv.shape if isinstance(bv, np.ndarray) else ()
    if sa != sb:
        raise ValueError(f"shape mismatch: {sa} vs {sb}")


def _check_rows(x, *vectors):
    """`x` must be a matrix of nonempty rows and each of `vectors` a vector as long as a row."""
    _check_matrix(x, "X")
    for v in vectors:
        if not (isinstance(v, np.ndarray) and v.shape == x.shape[1:]):
            raise ValueError(f"shape mismatch: {getattr(v, 'shape', ())} vs rows of {x.shape}")


def _rows_times(a, x):
    """A x_i for each row x_i of X: one matrix-vector product per row, so
    each row comes out bitwise as `a @ x_i` would (`x @ a.T` does not)."""
    return (a @ x[..., None])[..., 0]


def _row_sum(m):
    """Sum of the rows of m from the last to the first, one at a time: the
    order in which one node per row would reach a shared parent."""
    return functools.reduce(np.add, m[::-1])


# ---------------------------------------------------------------------------
# primitives


def _check_offsets(offsets, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(segment starts, segment lengths) of CSR `offsets`: integers rising
    strictly from 0 to `n_rows`, so every segment is nonempty."""
    off = np.asarray(offsets)
    if not (off.ndim == 1 and off.size >= 2 and np.issubdtype(off.dtype, np.integer)
            and off[0] == 0 and off[-1] == n_rows):
        raise ValueError(f"offsets must run from 0 to {n_rows}, got {off!r}")
    counts = np.diff(off)
    if not (counts > 0).all():
        raise ValueError("offsets must rise strictly: every segment needs a row")
    return off[:-1], counts


def add(a, b):
    _same_shape(a, b)
    out = value(a) + value(b)
    return record(out, [(a, lambda g: g), (b, lambda g: g)])


def scale(a, k: float):
    """Multiply by a python-float constant."""
    k = float(k)
    out = value(a) * k
    return record(out, [(a, lambda g: g * k)])


def scale_shift(x, gamma, beta):
    """gamma * x_i + beta for each row x_i of the matrix X: the
    scale-and-shift adapter of ssf.py, with gamma and beta as long as a row."""
    xv, gv, bv = value(x), value(gamma), value(beta)
    _check_rows(xv, gv, bv)
    return record(gv * xv + bv,
                  [(beta, _row_sum), (gamma, lambda g: _row_sum(g * xv)),
                   (x, lambda g: g * gv)])


def mlp(x, w1, b1, w2, b2):
    """Two-layer MLP w2 tanh(w1 x_i + b1) + b2 of each row x_i of the
    matrix X, with w1 (hidden, dim) and w2 (dim, hidden)."""
    xv, w1v, b1v, w2v, b2v = value(x), value(w1), value(b1), value(w2), value(b2)
    _check_matrix(xv, "X")
    _check_matrix(w1v, "w1", xv.shape[1])
    z = _rows_times(w1v, xv)
    _check_rows(z, b1v)
    h = np.tanh(z + b1v)
    _check_matrix(w2v, "w2", h.shape[1])
    y = _rows_times(w2v, h)
    _check_rows(y, b2v)
    memo = [None, None]

    def pre(g):
        """Cotangent of the pre-activations w1 x_i + b1."""
        if memo[0] is not g:
            memo[0] = g
            memo[1] = _rows_times(w2v.T, g) * (1.0 - h * h)
        return memo[1]

    return record(y + b2v, [(b2, _row_sum), (w2, lambda g: _row_sum(g[:, :, None] * h[:, None])),
                            (b1, lambda g: _row_sum(pre(g))),
                            (w1, lambda g: _row_sum(pre(g)[:, :, None] * xv[:, None])),
                            (x, lambda g: _rows_times(w1v.T, pre(g)))])


def take_rows(x, lo: int, hi: int):
    """Rows lo..hi-1 of the matrix X, a nonempty range of them."""
    xv = value(x)
    _check_matrix(xv, "X")
    if not 0 <= lo < hi <= xv.shape[0]:
        raise ValueError(f"rows {lo}..{hi - 1} are not a nonempty range of {xv.shape[0]} rows")

    def pull(g):
        d = np.zeros_like(xv)
        d[lo:hi] = g
        return d

    return record(xv[lo:hi], [(x, pull)])


def matvec(a, x):
    av, xv = value(a), value(x)
    _check_matvec(av, xv)
    return record(av @ xv, [(a, lambda g: np.outer(g, xv)), (x, lambda g: av.T @ g)])


def softmax(x):
    """Stable softmax of each row of a matrix of logits."""
    xv = value(x)
    _check_matrix(xv, "logits")
    e = np.exp(xv - xv.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return record(y, [(x, lambda g: y * (g - (g * y).sum(axis=1, keepdims=True)))])


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


def segment_softmax(z, offsets):
    """Stable softmax of the vector z within each segment
    z[offsets[k]:offsets[k+1]] (the CSR layout of the module docs)."""
    zv = value(z)
    _check_vector(zv, "z")
    starts, counts = _check_offsets(offsets, zv.shape[0])
    e = np.exp(zv - np.repeat(np.maximum.reduceat(zv, starts), counts))
    y = e / np.repeat(np.add.reduceat(e, starts), counts)

    def pull(g):
        return y * (g - np.repeat(np.add.reduceat(g * y, starts), counts))

    return record(y, [(z, pull)])


def segment_pool(p, h, offsets):
    """Weighted sum of the rows of H in each segment: row k of the result is
    the sum of p_i H_i over offsets[k] <= i < offsets[k+1]."""
    pv, hv = value(p), value(h)
    _check_vector(pv, "p")
    _check_matrix(hv, "H")
    if pv.shape[0] != hv.shape[0]:
        raise ValueError(f"{pv.shape[0]} weights for {hv.shape[0]} rows")
    starts, counts = _check_offsets(offsets, hv.shape[0])
    out = np.add.reduceat(pv[:, None] * hv, starts, axis=0)

    def spread(g):
        """Each segment's cotangent row, repeated for the rows it pools."""
        return np.repeat(g, counts, axis=0)

    return record(out, [(p, lambda g: (hv * spread(g)).sum(axis=1)),
                        (h, lambda g: pv[:, None] * spread(g))])


def refine_value(c, factor: float, threshold: float):
    """The refinement rule on a cosine c, a float or elementwise on an array:
    (score, branch slope) is (factor*c, factor) strictly above the
    threshold, (c, 1) on (0, threshold] (the threshold stays on the
    continuous-from-below branch) and (0, 0) for c <= 0."""
    slope = np.where(c > threshold, float(factor), np.where(c > 0.0, 1.0, 0.0))
    score = np.where(slope > 0.0, slope * c, 0.0)
    if np.ndim(c) == 0:
        return float(score), float(slope)
    return score, slope


def refine_scores(x, t, factor: float, threshold: float):
    """`refine_value` of the cosine between the vector `t` and each row of
    the matrix `x`, one score per row. A row with norm below EPS_NORM
    scores 0. The gradient is the branch slope times the cosine's
    gradient, so a zero score gets none."""
    xv, tv = value(x), value(t)
    _check_vector(tv, "t")
    _check_matrix(xv, "x", tv.shape[0])
    nt = float(np.linalg.norm(tv))
    if nt < EPS_NORM:
        raise DegenerateVectorError(f"cannot score against a guidance with norm {nt:g}")
    nx = np.linalg.norm(xv, axis=1)
    live = nx >= EPS_NORM
    nx = np.where(live, nx, 1.0)
    c = (xv @ tv) / (nx * nt)
    s, slope = refine_value(c, factor, threshold)
    slope = np.where(live, slope, 0.0)
    s = np.where(live, s, 0.0)

    def pull_x(g):
        k = g * slope / (nx * nt)
        return k[:, None] * (tv - (c * nt / nx)[:, None] * xv)

    def pull_t(g):
        gs = g * slope
        return (gs / (nx * nt)) @ xv - float(gs @ c) / (nt * nt) * tv

    pulls = [(x, pull_x), (t, pull_t)] if slope.any() else []
    return record(s, pulls)


def cosine(u, v):
    """Cosine similarity of every row of the matrix u with every row of the
    matrix v, as a (rows of u, rows of v) matrix. Every row needs norm >=
    EPS_NORM."""
    uv, vv = value(u), value(v)
    _check_matrix(uv, "u")
    _check_matrix(vv, "v", uv.shape[1])
    nu = np.linalg.norm(uv, axis=1)
    nv = np.linalg.norm(vv, axis=1)
    if nu.min() < EPS_NORM or nv.min() < EPS_NORM:
        raise DegenerateVectorError(f"cosine of near-zero vector (norms {nu.min():g}, {nv.min():g})")
    c = (uv @ vv.T) / np.outer(nu, nv)

    def pull_u(g):
        return (g / nv) @ vv / nu[:, None] - ((g * c).sum(axis=1) / (nu * nu))[:, None] * uv

    def pull_v(g):
        return (g / nu[:, None]).T @ uv / nv[:, None] - ((g * c).sum(axis=0) / (nv * nv))[:, None] * vv

    return record(c, [(u, pull_u), (v, pull_v)])


def mean_nll(p, labels):
    """Mean over the rows s of -log P[s, labels[s]]: the cross-entropy of
    row-wise class probabilities P against integer labels."""
    pv = value(p)
    _check_matrix(pv, "P")
    lab = np.asarray(labels)
    if not (pv.shape[0] > 0 and lab.shape == (pv.shape[0],)
            and np.issubdtype(lab.dtype, np.integer)):
        raise ValueError(f"need one integer label per row of P {pv.shape}, got {lab!r}")
    if lab.min() < 0 or lab.max() >= pv.shape[1]:
        raise DataError(f"label {lab.min() if lab.min() < 0 else lab.max()} out of range "
                        f"for {pv.shape[1]} classes")
    at = (np.arange(pv.shape[0]), lab)
    picked = pv[at]
    if not (picked > 0.0).all():
        raise NumericError(f"log of non-positive probability {picked.min()}")
    n = pv.shape[0]

    def pull(g):
        d = np.zeros_like(pv)
        d[at] = -g / (n * picked)
        return d

    return record(float(-np.log(picked).sum() / n), [(p, pull)])


def l2_normalize(u):
    uv = value(u)
    _check_vector(uv, "u")
    n = float(np.linalg.norm(uv))
    if n < EPS_NORM:
        raise DegenerateVectorError(f"cannot normalize vector with norm {n:g}")
    y = uv / n
    return record(y, [(u, lambda g: (g - float(g @ y) * y) / n)])


def layernorm(x, gain, bias):
    """Zero-mean/unit-variance normalization of each row of the matrix X,
    with affine gain and bias vectors as long as a row."""
    xv, gv, bv = value(x), value(gain), value(bias)
    _check_rows(xv, gv, bv)
    n = xv.shape[1]
    if n < 2:
        raise ValueError("layernorm needs dim >= 2")
    # np.add.reduce(., axis=1) / n is each row's ndarray.mean, bit for bit
    xc = xv - np.add.reduce(xv, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=1, keepdims=True) / n + EPS_LN)
    xhat = xc * inv
    out = gv * xhat + bv

    def pull_x(g):
        dxhat = g * gv
        mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / n
        return inv * (dxhat - np.add.reduce(dxhat, axis=1, keepdims=True) / n
                      - xhat * mean_dxhat_xhat)

    return record(out, [(x, pull_x), (gain, lambda g: _row_sum(g * xhat)), (bias, _row_sum)])


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
