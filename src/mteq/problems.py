"""Seeded benchmark problem generators.

All randomness comes from numpy's Philox bit generator (Philox4x64-10, a
counter-based 64-bit generator) keyed directly by the seed, with uniforms
drawn through the standard 53-bit mantissa path.  Together with a fixed
draw order per generator this makes every instance bit-reproducible.

Generators 1, 2, 4 and 5 return problems scaled by their largest magnitude
(see :func:`mteq.model.scale_problem`); generator 3 keeps its natural units
because its runs are judged by the relative residual.  Each dense
generator builds ``A = s I - B`` and scales it in the one buffer it drew
``B`` into (:func:`_shifted_scaled`), with the same bits as
``scale_problem(m_splitting(B, s)[1], b)``.

The tensor draw and every full pass over a dense buffer run over spans of
its leading axis on up to ``_WORKERS`` threads
(:func:`~mteq.tensor._over_spans`), with the same bits for any number of
threads.  The draw can be cut because Philox is counter-based: each span
draws with its own generator, started at the span's counter
(:func:`_draw`).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from functools import lru_cache

import numpy as np

from .model import MTeqProblem, _scale_factor, make_problem
from .tensor import (_FUSED_BLOCK_BYTES, Tensor, _diag_index, _max_abs,
                     _over_spans, _slot_terms, check_dense_size, write_tensor,
                     write_vector)

__all__ = [
    "gen_problem1",
    "gen_problem2",
    "gen_problem3",
    "gen_problem4",
    "gen_problem5",
    "zero_out_rhs",
    "write_problem",
    "symmetrize_full",
    "GRAVITATIONAL_CONSTANT",
    "CENTRAL_MASS",
]

GRAVITATIONAL_CONSTANT = 6.67e-11
CENTRAL_MASS = 5.98e24
# uint64 outputs per Philox4x64 counter step; one per uniform
_PHILOX_BLOCK = 4


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _draw(seed, shape):
    """``(_rng(seed).random(shape), rng)`` with ``rng`` positioned after
    the draw, which is made over spans of the flat buffer.

    Philox is counter-based, so each span's generator is a fresh
    ``Philox(key=seed)`` advanced to the span's first counter step, and
    spans start at multiples of ``_PHILOX_BLOCK`` uniforms.  The
    generator of the last span is returned, so what it draws next has
    the bits it would have after one serial draw.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)

    def span(start, stop):
        bits = np.random.Philox(key=int(seed))
        bits.advance(start // _PHILOX_BLOCK)
        rng = np.random.Generator(bits)
        rng.random(out=flat[start:stop])
        return rng
    return out, _over_spans(span, flat.size, out.nbytes, _PHILOX_BLOCK)[-1]


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

    Every entry is the sum, in ``itertools.permutations`` order, of the
    entries it meets under each permutation, divided by their number.
    The sums run slab by slab: consecutive permutations that share a slab
    axis ``q`` (see :func:`_slab_axis`) are added one output slab
    ``acc[.., j, ..]`` at a time, so both the slab and its source slice
    keep the input's contiguous last axis and the transposed reads stay
    within one slab.  The ``j`` loop of each group runs over spans
    (:func:`~mteq.tensor._over_spans`).  The first group starts each slab
    as ``first_view + 0.0``, which is ``0.0 + first_view`` bit for bit
    and so keeps ``0.0 + (-0.0) = +0.0``, and the last group divides each
    slab while it is still in cache.  Each entry sees the same additions
    in the same order as whole-array sums from zeros, so the result is
    the same to the bit.
    """
    a = np.asarray(array, dtype=float)
    perms = list(itertools.permutations(range(a.ndim)))
    groups = [(q, [np.transpose(a, p) for p in group])
              for q, group in itertools.groupby(perms, key=_slab_axis)]
    acc = np.empty_like(a)

    def add(views, where, first, last):
        slab = acc[where]
        rest = views
        if first:
            np.add(views[0][where], 0.0, out=slab)
            rest = views[1:]
        for view in rest:
            slab += view[where]
        if last:
            slab /= len(perms)

    for g, (q, views) in enumerate(groups):
        first, last = g == 0, g == len(groups) - 1
        if q is None:
            add(views, ..., first, last)
            continue

        def slabs(start, stop):
            for j in range(start, stop):
                add(views, (slice(None),) * q + (j,), first, last)
        _over_spans(slabs, a.shape[q], a.nbytes)
    return acc


def _shifted_scaled(s, buf, b):
    """The tensor and ``omega`` of ``scale_problem(m_splitting(B, s)[1],
    b)``, made in ``buf``, a writable buffer holding the entries of ``B``.

    Sets the diagonal ``d`` aside and reads the smallest and the largest
    off-diagonal entry of ``B`` in one pass over blocks of ``buf``.  A
    maximum does no rounding, so ``max_abs`` of ``s I - B`` is
    :func:`~mteq.tensor._max_abs` of those two and the new diagonal
    ``(-d) + s``; a NaN entry makes it NaN.  The Z sign follows too: every
    off-diagonal entry of ``s I - B`` is ``<= 0`` exactly when the
    smallest one of ``B`` is ``>= 0``, a test that fails on NaN.  ``omega``
    is taken as :func:`~mteq.model.scale_problem` does, and a second pass
    multiplies ``buf`` by ``-1/omega`` in place, which is ``(-B) / omega``
    bit for bit because rounding is sign-symmetric; the diagonal becomes
    ``((-d) + s) / omega``.  Both passes run over spans
    (:func:`~mteq.tensor._over_spans`).  Only then is the buffer, which
    the caller gives up, wrapped.  The Z sign and the unscaled
    ``max_abs`` carry to the scaled tensor by the rule of
    :meth:`~mteq.tensor.Tensor.scaled`, so nothing reads the entries
    again to check them.  With an empty ``b`` the scale is ``max_abs``
    alone.
    """
    diag = _diag_index(buf.ndim, buf.shape[0])
    shifted = -buf[diag] + s
    if buf.size > 1:
        # an off-diagonal entry stands in for the diagonal
        buf[diag] = buf.flat[1]
        lo, hi = _extremes(buf)
    else:
        lo = hi = 0.0  # no off-diagonal entry; 0 changes neither test
    max_abs = _max_abs(np.concatenate(([lo, hi], shifted)))
    omega = _scale_factor(max_abs, b)
    f = 1.0 / omega

    def scale(start, stop):
        buf[start:stop] *= -f
    _over_spans(scale, buf.shape[0], buf.nbytes)
    buf[diag] = shifted * f
    facts = {"max_abs": max_abs, "is_z_tensor": bool(lo >= 0.0)}
    return Tensor._from_scaled_buffer(buf, f, facts), omega


def _extremes(buf):
    """``(buf.min(), buf.max())``, NaN when an entry is NaN, from one pass
    over blocks of slabs small enough that ``max`` finds them in cache."""
    rows = max(1, _FUSED_BLOCK_BYTES // buf[0].nbytes)

    def span(start, stop):
        found = []
        for i in range(start, stop, rows):
            block = buf[i:min(i + rows, stop)]
            found.append((block.min(), block.max()))
        return found
    found = np.array([e for part in _over_spans(span, buf.shape[0], buf.nbytes)
                      for e in part])
    return float(found[:, 0].min()), float(found[:, 1].max())


def _shifted_problem(s, buf, b) -> MTeqProblem:
    """``scale_problem(m_splitting(B, s)[1], b)`` built in ``buf``."""
    A, omega = _shifted_scaled(s, buf, b)
    return make_problem(A, b / omega, omega=omega)


def _dominance_shift(factor, buf) -> float:
    """``factor * max_i (B e^{m-1})_i`` for the entries ``buf`` of ``B``,
    by the kernel of :meth:`~mteq.tensor.Tensor.apply`."""
    ones = np.ones(buf.shape[0])
    return factor * float((_slot_terms(buf, ones, False)[0] @ ones).max())


def gen_problem1(m, n, seed) -> MTeqProblem:
    """Random fully symmetric nonnegative part.

    ``B`` is a uniform tensor averaged over all index permutations and
    ``A = s I - B`` with ``s = 1.01 * max_i (B e^{m-1})_i``, which makes
    ``A`` diagonally dominant by a one-percent margin.  Draw order: the
    ``n**m`` tensor uniforms first, then the ``n`` right-hand side
    uniforms.  ``A`` is built in the buffer :func:`symmetrize_full`
    returns, so two tensor-sized buffers are live only while it runs.
    """
    check_dense_size(m, n)
    raw, rng = _draw(seed, (n,) * m)
    buf = symmetrize_full(raw)
    del raw  # free the draw before the next buffer
    s = _dominance_shift(1.01, buf)
    b = _uniform_open(rng, n)
    return _shifted_problem(s, buf, b)


def _sine_entries(m, n) -> np.ndarray:
    """The entries ``|sin(i1+..+im)|`` (1-based index sums) of P2's ``B``."""
    check_dense_size(m, n)
    ones_based = np.arange(1, n + 1, dtype=np.int64)
    total = ones_based
    for _ in range(m - 1):
        total = np.add.outer(total, ones_based)
    entries = np.sin(total)
    del total  # free the index sums before the caller's next buffer
    np.abs(entries, out=entries)
    return entries


@lru_cache(maxsize=8)
def _problem2_scaled(m, n):
    """``(A, omega)``: P2's tensor ``n^{m-1} I - B`` scaled by its own
    largest magnitude ``omega``, built in one buffer
    (:func:`_shifted_scaled`).  Cached, so there is one tensor per
    ``(m, n)``, and its facts are computed once."""
    return _shifted_scaled(float(n) ** (m - 1), _sine_entries(m, n),
                           np.zeros(0))


def gen_problem2(m, n, seed=0) -> MTeqProblem:
    """Deterministic sine tensor with a seeded right-hand side.

    The tensor is ``n^{m-1} I - B`` with ``B = |sin(i1+..+im)|`` (1-based
    index sums) and does not depend on the seed; only the ``n`` uniforms
    of the right-hand side are drawn.  Whenever ``max|b|`` does not
    exceed the tensor's largest magnitude, which holds for every
    ``n >= 2``, the problem shares the cached scaled tensor and no pass
    over the tensor is made; otherwise (``n = 1``) it is built afresh.
    """
    A, tensor_omega = _problem2_scaled(m, n)
    b = _uniform_open(_rng(seed), n)
    omega = _scale_factor(tensor_omega, b)
    if omega != tensor_omega:
        return _shifted_problem(float(n) ** (m - 1), _sine_entries(m, n), b)
    return make_problem(A, b / omega, omega=omega)


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
    tensor uniforms, then right-hand side uniforms.  ``A`` is built in the
    buffer of the draw.
    """
    check_dense_size(m, n)
    buf, rng = _draw(seed, (n,) * m)
    s = _dominance_shift(1.01, buf)
    b = _uniform_open(rng, n)
    return _shifted_problem(s, buf, b)


def gen_problem5(m, n, seed) -> MTeqProblem:
    """Strictly triangular nonnegative part with a sub-dominant shift.

    ``B`` keeps a uniform entry only where every trailing index is strictly
    below the leading one, and ``A = s I - B`` with the deliberately small
    shift ``s = 0.5 * max_i (B e^{m-1})_i``, so the all-ones dominance test
    fails even though the strictly triangular ``B`` is nilpotent and any
    positive shift would do.  Draw order: the full ``n**m`` uniform block
    (then masked), then the right-hand side uniforms.  ``A`` is built in
    the buffer of the draw.
    """
    if n < 2:
        raise ValueError("the triangular generator needs n >= 2")
    check_dense_size(m, n)
    buf, rng = _draw(seed, (n,) * m)

    def mask(start, stop):
        # zero buf[i] wherever some trailing index reaches i: the k-th
        # slice holds the tuples whose first such index is the k-th
        for i in range(start, stop):
            for k in range(m - 1):
                buf[(i,) + (slice(0, i),) * k + (slice(i, None),)] = 0.0
    _over_spans(mask, n, buf.nbytes)
    s = _dominance_shift(0.5, buf)
    b = _uniform_open(rng, n)
    return _shifted_problem(s, buf, b)


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


# File name of the tensor that write_problem writes, per format.
TENSOR_FILES = {"text": "tensor.mt", "npy": "tensor.npy"}


def write_problem(outdir, p: MTeqProblem, manifest: dict, fmt="text") -> None:
    """Write the tensor, ``rhs.vec`` and ``manifest.json`` into a directory.

    The tensor goes to ``TENSOR_FILES[fmt]``: ``tensor.mt`` text, or
    ``tensor.npy`` for ``fmt="npy"``, which holds dense tensors only
    (:func:`~mteq.tensor.write_tensor` raises ``ValueError`` for COO).
    Once it is written, the tensor file of any other format is removed,
    so the directory never pairs ``rhs.vec`` with an older tensor.
    """
    os.makedirs(outdir, exist_ok=True)
    write_tensor(os.path.join(outdir, TENSOR_FILES[fmt]), p.A)
    for stale in set(TENSOR_FILES.values()) - {TENSOR_FILES[fmt]}:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(outdir, stale))
    write_vector(os.path.join(outdir, "rhs.vec"), p.b)
    payload = dict(manifest)
    payload.setdefault("m", p.m)
    payload.setdefault("n", p.n)
    payload.setdefault("omega", p.omega)
    payload.setdefault("rng", "philox4x64-10")
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
