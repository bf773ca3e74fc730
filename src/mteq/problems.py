"""Seeded benchmark problem generators.

All randomness comes from numpy's Philox bit generator (Philox4x64-10, a
counter-based 64-bit generator) keyed directly by the seed, with uniforms
drawn through the standard 53-bit mantissa path.  Together with a fixed
draw order per generator this makes every instance bit-reproducible.

Generators 1, 2, 4 and 5 return problems scaled by their largest magnitude
(see :func:`mteq.model.scale_problem`); generator 3 keeps its natural units
because its runs are judged by the relative residual.
"""

from __future__ import annotations

import itertools
import json
import os
from functools import lru_cache

import numpy as np

from .model import MTeqProblem, make_problem, scale_problem
from .tensor import Tensor, check_dense_size, write_tensor, write_vector

__all__ = [
    "gen_problem1",
    "gen_problem2",
    "gen_problem3",
    "gen_problem4",
    "gen_problem5",
    "zero_out_rhs",
    "write_problem",
    "symmetrize_full",
    "problem1_parts",
    "problem2_tensor",
    "GRAVITATIONAL_CONSTANT",
    "CENTRAL_MASS",
]

GRAVITATIONAL_CONSTANT = 6.67e-11
CENTRAL_MASS = 5.98e24


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _uniform_open(rng, size) -> np.ndarray:
    """U(0,1) draws with exact zeros redrawn (they would flip the index
    partition of a right-hand side)."""
    out = rng.random(size)
    while np.any(out == 0.0):
        zeros = out == 0.0
        out[zeros] = rng.random(int(zeros.sum()))
    return out


def _slab_axis(perm):
    """First output axis ``q < m-1`` that ``perm`` takes from an input axis
    other than the last, or ``None`` when there is none (only at m <= 2)."""
    last = len(perm) - 1
    return next((q for q in range(last) if perm[q] < last), None)


def symmetrize_full(array) -> np.ndarray:
    """Average an array over all permutations of all its axes.

    Every entry is the sum, from zero and in ``itertools.permutations``
    order, of the entries it meets under each permutation, divided by
    their number.  The sums run slab by slab: consecutive permutations
    that share a slab axis ``q`` (see :func:`_slab_axis`) are added one
    output slab ``acc[.., j, ..]`` at a time, so both the slab and its
    source slice keep the input's contiguous last axis and the transposed
    reads stay within one slab.  Each entry sees the same additions in the
    same order as whole-array sums, so the result is the same to the bit;
    starting from zeros keeps ``0.0 + (-0.0) = +0.0``.
    """
    a = np.asarray(array, dtype=float)
    perms = list(itertools.permutations(range(a.ndim)))
    acc = np.zeros_like(a)
    for q, group in itertools.groupby(perms, key=_slab_axis):
        views = [np.transpose(a, p) for p in group]
        if q is None:
            for view in views:
                acc += view
            continue
        for j in range(a.shape[q]):
            where = (slice(None),) * q + (j,)
            slab = acc[where]
            for view in views:
                slab += view[where]
    acc /= len(perms)
    return acc


def _shifted_identity(s, B: Tensor) -> Tensor:
    """Dense tensor ``s * I - B`` for a dense ``B``.

    Negates ``B``'s read-only entries straight into the one new buffer the
    result keeps, then adds ``s`` on its diagonal.
    """
    a = np.negative(B.dense_values)
    diag = tuple([np.arange(B.dim)] * B.order)
    a[diag] += s
    return Tensor.from_dense(a)


def problem1_parts(m, n, seed):
    """Raw ingredients of generator 1: ``(B, s, b)`` before scaling.

    Draw order: the ``n**m`` tensor uniforms first, then the ``n``
    right-hand side uniforms.
    """
    check_dense_size(m, n)
    rng = _rng(seed)
    B = Tensor.from_dense(symmetrize_full(rng.random((n,) * m)))
    s = 1.01 * float(B.apply(np.ones(n)).max())
    b = _uniform_open(rng, n)
    return B, s, b


def gen_problem1(m, n, seed) -> MTeqProblem:
    """Random fully symmetric nonnegative part.

    ``B`` is a uniform tensor averaged over all index permutations and
    ``A = s I - B`` with ``s = 1.01 * max_i (B e^{m-1})_i``, which makes
    ``A`` diagonally dominant by a one-percent margin.
    """
    B, s, b = problem1_parts(m, n, seed)
    A = _shifted_identity(s, B)
    return scale_problem(A, b)


@lru_cache(maxsize=8)
def problem2_tensor(m, n) -> Tensor:
    """Deterministic tensor ``n^{m-1} I - B`` with ``B = |sin(i1+..+im)|``
    (1-based index sums)."""
    check_dense_size(m, n)
    ones_based = np.arange(1, n + 1, dtype=np.int64)
    total = ones_based
    for _ in range(m - 1):
        total = np.add.outer(total, ones_based)
    entries = np.sin(total)
    del total  # free the index sums before _shifted_identity's buffer
    np.abs(entries, out=entries)
    return _shifted_identity(float(n) ** (m - 1), Tensor.from_dense(entries))


def gen_problem2(m, n, seed=0) -> MTeqProblem:
    """Deterministic sine tensor with a seeded right-hand side.

    The tensor does not depend on the seed; only the ``n`` uniforms of the
    right-hand side are drawn.
    """
    A = problem2_tensor(m, n)
    b = _uniform_open(_rng(seed), n)
    return scale_problem(A, b)


def gen_problem3(n, c0=1e7, c1=1e7) -> MTeqProblem:
    """Two-point boundary value stencil (order 4, sparse).

    Discretizes an inverse-square attraction law on ``n`` grid points with
    boundary values ``c0`` and ``c1``: row 1 and row ``n`` pin the cubes of
    the boundary values, interior rows couple each point to its neighbours
    through six ``-1/3`` entries.  Deterministic; kept in natural units.
    """
    n = int(n)
    if n < 3:
        raise ValueError("the boundary stencil needs n >= 3")
    rows = [(0, 0, 0, 0, 1.0), (n - 1, n - 1, n - 1, n - 1, 1.0)]
    for i in range(1, n - 1):
        rows.append((i, i, i, i, 2.0))
        for tup in ((i, i - 1, i, i), (i, i, i - 1, i), (i, i, i, i - 1),
                    (i, i + 1, i, i), (i, i, i + 1, i), (i, i, i, i + 1)):
            rows.append(tup + (-1.0 / 3.0,))
    idx = np.array([r[:4] for r in rows], dtype=np.int64)
    vals = np.array([r[4] for r in rows])
    A = Tensor.from_coo(4, n, idx, vals)
    b = np.full(n, GRAVITATIONAL_CONSTANT * CENTRAL_MASS / (n - 1) ** 2)
    b[0] = float(c0) ** 3
    b[-1] = float(c1) ** 3
    return make_problem(A, b, omega=1.0)


def gen_problem4(m, n, seed) -> MTeqProblem:
    """Random nonnegative part with no symmetrization.

    Same construction as generator 1 but the uniform tensor is used raw, so
    the coefficient tensor has no index symmetry at all.  Draw order:
    tensor uniforms, then right-hand side uniforms.
    """
    check_dense_size(m, n)
    rng = _rng(seed)
    B = Tensor.from_dense(rng.random((n,) * m))
    s = 1.01 * float(B.apply(np.ones(n)).max())
    b = _uniform_open(rng, n)
    return scale_problem(_shifted_identity(s, B), b)


def gen_problem5(m, n, seed) -> MTeqProblem:
    """Strictly triangular nonnegative part with a sub-dominant shift.

    ``B`` keeps a uniform entry only where every trailing index is strictly
    below the leading one, and ``A = s I - B`` with the deliberately small
    shift ``s = 0.5 * max_i (B e^{m-1})_i``, so the all-ones dominance test
    fails even though the strictly triangular ``B`` is nilpotent and any
    positive shift would do.  Draw order: the full ``n**m`` uniform block
    (then masked), then the right-hand side uniforms.
    """
    if n < 2:
        raise ValueError("the triangular generator needs n >= 2")
    check_dense_size(m, n)
    rng = _rng(seed)
    raw = rng.random((n,) * m)
    # zero raw[i] wherever some trailing index reaches i: the k-th slice
    # holds the tuples whose first such index is the k-th
    for i in range(n):
        for k in range(m - 1):
            raw[(i,) + (slice(0, i),) * k + (slice(i, None),)] = 0.0
    B = Tensor.from_dense(raw)
    s = 0.5 * float(B.apply(np.ones(n)).max())
    b = _uniform_open(rng, n)
    return scale_problem(_shifted_identity(s, B), b)


def zero_out_rhs(b, seed, keep=(), fraction=0.5) -> np.ndarray:
    """Zero a random strict subset of the entries of a positive vector.

    Roughly ``fraction * n`` entries are zeroed, never touching the 0-based
    indices in ``keep`` and always leaving at least one zero and at least
    one positive survivor.  Deterministic in the seed.
    """
    b = np.asarray(b, dtype=float).copy()
    n = b.size
    if np.any(b <= 0.0):
        raise ValueError("expected a strictly positive vector")
    keep = np.array(sorted({int(i) for i in keep}), dtype=np.int64)
    if keep.size and (keep.min() < 0 or keep.max() >= n):
        raise ValueError(f"keep index out of range 0..{n - 1}")
    candidates = np.setdiff1d(np.arange(n), keep)
    limit = candidates.size if keep.size else n - 1
    count = min(max(1, int(round(fraction * n))), limit)
    if candidates.size == 0 or count < 1:
        raise ValueError("no entries left to zero (vector too small or keep too large)")
    chosen = _rng(seed).choice(candidates, size=count, replace=False)
    b[chosen] = 0.0
    return b


def write_problem(outdir, p: MTeqProblem, manifest: dict) -> None:
    """Write ``tensor.mt``, ``rhs.vec`` and ``manifest.json`` into a directory."""
    os.makedirs(outdir, exist_ok=True)
    write_tensor(os.path.join(outdir, "tensor.mt"), p.A)
    write_vector(os.path.join(outdir, "rhs.vec"), p.b)
    payload = dict(manifest)
    payload.setdefault("m", p.m)
    payload.setdefault("n", p.n)
    payload.setdefault("omega", p.omega)
    payload.setdefault("rng", "philox4x64-10")
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
