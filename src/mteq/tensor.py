"""Order-m tensor storage and the contraction kernels used by the solvers.

A tensor here is a real array ``a[i1, ..., im]`` with all indices ranging
over ``0 .. n-1``.  Two storage layouts are supported: dense (a numpy array
of shape ``(n,)*m``) and sparse COO (sorted unique index tuples with their
values).  Indices are 0-based in memory and 1-based in the ``.mt`` text
format; the conversion happens exactly once, at the file boundary.

The central operation is ``apply``, the multilinear map

    (A x^{m-1})_i = sum over i2..im of a[i, i2, .., im] * x[i2] * ... * x[im],

together with its derivative matrix, computed position by position so that
it is exact for tensors with no symmetry at all.  On dense storage every
contraction is one pass of :func:`_slot_terms` over the slabs ``a[i]`` of
the leading index.  It gives ``M = A x^{m-2}``, with ``A x^{m-1} = M x``,
and, when asked, the derivative matrix: the sum of ``M`` and the other
one-slot contractions.

Facts read from the entries (the largest magnitude, the Z sign, the
dominance test with its image ``A e^{m-1}``, and the diagonal) are
computed on first use and kept on the tensor, which is immutable: dense
storage is marked read-only, so the cached facts cannot go stale.  :meth:`Tensor.scaled` hands on the facts
that scale exactly, so a scaled problem is not checked twice, and a
generator that scales its own buffer in place hands on the same facts by
the same rule.

Every full pass over a dense tensor of at least ``_PARALLEL_MIN_BYTES``
(the contraction kernels here, and the generators' passes in
:mod:`mteq.problems`) runs through :func:`_over_spans`.  It cuts the
leading axis into contiguous spans of about ``_SPAN_BYTES``, which up to
``_WORKERS`` threads of one process, one per CPU this process may run on,
take one at a time.  Each output entry is computed by one thread, with
the same operations in the same order as on one thread, so results do not
depend on the number of threads or on which thread ran which span.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import stat
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

__all__ = [
    "Tensor",
    "hadamard_power",
    "nqz_spectral_radius",
    "m_splitting",
    "dense_cap",
    "check_dense_size",
    "read_tensor",
    "write_tensor",
    "read_vector",
    "write_vector",
    "FormatError",
]

DEFAULT_DENSE_CAP = 200_000_000
SEMI_SYMMETRY_TOL = 1e-13  # of max(1, max|a|); see Tensor.is_semi_symmetric
# Slabs per step of a pass that builds the derivative matrix: about this
# many bytes, so that at small n the loop costs little next to the
# arithmetic, while at large n a block read for the first slot is still in
# a core's cache for the later ones.
_FUSED_BLOCK_BYTES = 1 << 20
# Passes over fewer bytes than this stay on the calling thread, where
# handing them to other threads would cost more than it saves.
_PARALLEL_MIN_BYTES = 4 << 20
# Bytes per span of a parallel pass: small enough that threads finish
# within a span of each other, large enough that taking a span costs
# little next to running it.
_SPAN_BYTES = 4 << 20
# Threads per pass: the CPUs this process may run on, up to a cap.
_MAX_WORKERS = 8
_WORKERS = min(_MAX_WORKERS, (len(os.sched_getaffinity(0))
                              if hasattr(os, "sched_getaffinity")
                              else os.cpu_count() or 1))
_pool = None


def dense_cap() -> int:
    """Entry-count limit for dense storage; override via MTEQ_DENSE_CAP."""
    return int(os.environ.get("MTEQ_DENSE_CAP", DEFAULT_DENSE_CAP))


def check_dense_size(order, dim) -> None:
    """Raise ``ValueError`` when ``dim**order`` entries exceed :func:`dense_cap`."""
    cap = dense_cap()
    if dim ** order > cap:
        raise ValueError(
            f"dense tensor of order {order}, dimension {dim} needs {dim ** order} "
            f"entries, above the cap {cap} (set MTEQ_DENSE_CAP to raise it)")


class FormatError(ValueError):
    """A ``.mt``, ``.npy`` or ``.vec`` file could not be parsed."""


def _executor() -> ThreadPoolExecutor:
    """The module's thread pool, created on first use."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=_MAX_WORKERS,
                                   thread_name_prefix="mteq-pass")
    return _pool


def _drop_pool() -> None:
    # a forked child has none of its parent's threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _over_spans(task, length, nbytes, step=1) -> list:
    """``[task(start, stop), ...]`` over contiguous spans of
    ``range(length)``, in order.

    A pass over at least ``_PARALLEL_MIN_BYTES`` (``nbytes``) is cut into
    spans of about ``_SPAN_BYTES``, at least one per thread and each but
    the last a multiple of ``step`` long, so that no span is shorter than
    ``step``.  The calling thread and ``_WORKERS - 1`` threads of the
    module's pool take the spans one at a time, in order, until none is
    left, so a thread that runs slowly holds the pass up by one span at
    most, and one that has not started when the spans run out is not
    waited for; which thread runs a span changes no result.  A
    smaller pass is one span on the calling thread.  Tasks must write
    disjoint parts of their outputs and must not call this function.
    """
    units = length // step
    parts = min(_WORKERS, units) if nbytes >= _PARALLEL_MIN_BYTES else 1
    if parts <= 1:
        return [task(0, length)]
    count = min(units, max(parts, nbytes // _SPAN_BYTES))
    cuts = [step * (units * k // count) for k in range(count)] + [length]
    spans = list(zip(cuts, cuts[1:]))
    results = [None] * count
    lock = threading.Lock()
    claims = iter(range(count))

    def drain():
        while True:
            with lock:
                k = next(claims, None)
            if k is None:
                return
            results[k] = task(*spans[k])

    pool = _executor()
    helpers = [pool.submit(drain) for _ in range(parts - 1)]
    try:
        drain()
    finally:
        # a helper that has not started would find no span left
        started = [helper for helper in helpers if not helper.cancel()]
        wait(started)
    for helper in started:
        helper.result()
    return results


def _fact(method):
    """Compute a no-argument query once per tensor.

    The result is kept in the tensor's private fact store under the
    method's name, so only the first call reads the entries.
    """
    name = method.__name__

    @functools.wraps(method)
    def cached(self):
        facts = self._facts
        if name not in facts:
            facts[name] = method(self)
        return facts[name]
    return cached


class Tensor:
    """Real tensor of order ``m >= 2`` and dimension ``n >= 1``.

    Instances are immutable: every operation returns a new object or a
    plain numpy array, and the stored entries are read-only.
    :meth:`from_dense` marks the array it stores as read-only; when no copy
    is needed, that is the caller's own array.  Use :meth:`from_dense`,
    :meth:`from_coo` or :meth:`identity` to construct one.

    :meth:`max_abs`, :meth:`is_z_tensor`, :meth:`is_diag_dominant` (with
    the image ``A e^{m-1}`` it tests) and :meth:`diagonal` read the
    entries on the first call only; the results are kept in one private
    per-instance store, and :meth:`diagonal` still returns a copy.
    :meth:`is_semi_symmetric` reads the entries on every call, one slab at
    a time.
    """

    def __init__(self, order, dim, dense=None, indices=None, values=None):
        self.order = int(order)
        self.dim = int(dim)
        if self.order < 2:
            raise ValueError("tensor order must be at least 2")
        if self.dim < 1:
            raise ValueError("tensor dimension must be at least 1")
        self._dense = dense
        self._idx = indices
        self._vals = values
        self._facts = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_dense(cls, array) -> "Tensor":
        """Dense tensor over ``array``, which is stored read-only.

        A C-contiguous float64 array is stored as it is, without a copy,
        and writing to it afterwards raises.
        """
        a = np.ascontiguousarray(array, dtype=float)
        if a.ndim < 2:
            raise ValueError("dense tensor must have at least 2 axes")
        n = a.shape[0]
        if any(s != n for s in a.shape):
            raise ValueError(f"all axes must have equal length, got {a.shape}")
        a.flags.writeable = False
        return cls(a.ndim, n, dense=a)

    @classmethod
    def _from_scaled_buffer(cls, array, factor, facts) -> "Tensor":
        """Dense tensor over ``array``, which holds the entries of a tensor
        with the given ``facts``, already multiplied by ``factor`` in place.

        The new tensor starts with the facts that :meth:`scaled` would
        carry from a tensor with ``facts``, by the same rule.  The caller
        gives up ``array``, which is stored read-only like any other.
        """
        out = cls.from_dense(array)
        out._facts.update(_scaled_facts(facts, float(factor)))
        return out

    @classmethod
    def from_coo(cls, order, dim, indices, values) -> "Tensor":
        order = int(order)
        dim = int(dim)
        idx = np.asarray(indices, dtype=np.int64)
        idx = idx.reshape(-1, order) if idx.size else np.zeros((0, order), dtype=np.int64)
        vals = np.asarray(values, dtype=float).ravel()
        if idx.shape[0] != vals.shape[0]:
            raise ValueError("index and value counts differ")
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            raise ValueError("tensor index out of range")
        if idx.shape[0] > 1:
            key = np.lexsort(idx.T[::-1])
            idx = idx[key]
            vals = vals[key]
            dup = np.all(idx[1:] == idx[:-1], axis=1)
            if dup.any():
                where = idx[1:][dup][0]
                raise ValueError(f"duplicate index tuple {tuple(int(i) for i in where)}")
        idx.setflags(write=False)
        vals.setflags(write=False)
        return cls(order, dim, indices=idx, values=vals)

    @classmethod
    def identity(cls, order, dim, storage="coo") -> "Tensor":
        """Diagonal tensor with ones at every ``(i, i, .., i)``."""
        if storage == "coo":
            idx = np.tile(np.arange(dim, dtype=np.int64)[:, None], (1, order))
            return cls.from_coo(order, dim, idx, np.ones(dim))
        a = np.zeros((dim,) * order)
        a[_diag_index(order, dim)] = 1.0
        return cls.from_dense(a)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_dense(self) -> bool:
        return self._dense is not None

    @property
    def storage(self) -> str:
        return "dense" if self.is_dense else "coo"

    @property
    def nnz(self) -> int:
        if self.is_dense:
            return int(np.count_nonzero(self._dense))
        return self._vals.shape[0]

    @property
    def coo_indices(self) -> np.ndarray:
        if self.is_dense:
            raise ValueError("dense tensor has no COO index array")
        return self._idx

    @property
    def coo_values(self) -> np.ndarray:
        if self.is_dense:
            raise ValueError("dense tensor has no COO value array")
        return self._vals

    @property
    def dense_values(self) -> np.ndarray:
        """Read-only view of the stored dense entries (no copy)."""
        if not self.is_dense:
            raise ValueError("COO tensor has no dense value array")
        view = self._dense.view()
        view.flags.writeable = False
        return view

    def __repr__(self):
        return (f"Tensor(order={self.order}, dim={self.dim}, "
                f"storage={self.storage!r}, nnz={self.nnz})")

    def to_dense_array(self) -> np.ndarray:
        """Entries as a numpy array of shape ``(n,)*m`` (always a copy)."""
        if self.is_dense:
            return self._dense.copy()
        check_dense_size(self.order, self.dim)
        a = np.zeros((self.dim,) * self.order)
        if self._vals.size:
            a[tuple(self._idx.T)] = self._vals
        return a

    def to_dense(self) -> "Tensor":
        return Tensor.from_dense(self.to_dense_array())

    def to_coo(self) -> "Tensor":
        if not self.is_dense:
            return self
        # argwhere walks the array in C order, which is already the sorted
        # lexicographic order from_coo expects
        idx = np.argwhere(self._dense != 0.0).astype(np.int64)
        vals = self._dense[tuple(idx.T)] if idx.size else np.zeros(0)
        return Tensor.from_coo(self.order, self.dim, idx, vals)

    @_fact
    def max_abs(self) -> float:
        """Largest entry magnitude; NaN when an entry is NaN.

        Reads the largest and the smallest entry instead of building an
        ``np.abs`` copy of the stored values.
        """
        return _max_abs(self._dense if self.is_dense else self._vals)

    def min_entry(self) -> float:
        """Smallest entry, counting implicit zeros of COO storage."""
        if self.is_dense:
            return float(self._dense.min())
        stored = float(self._vals.min()) if self._vals.size else 0.0
        if self._vals.shape[0] < self.dim ** self.order:
            return min(stored, 0.0)
        return stored

    def scaled(self, factor) -> "Tensor":
        """The tensor with every entry multiplied by ``factor``.

        For a finite ``factor > 0`` the new tensor starts with the facts
        this one has already computed, where they scale exactly (see
        :func:`_scaled_facts`).
        """
        f = float(factor)
        if self.is_dense:
            out = Tensor.from_dense(self._dense * f)
        else:
            out = Tensor.from_coo(self.order, self.dim, self._idx, self._vals * f)
        out._facts.update(_scaled_facts(self._facts, f))
        return out

    def diagonal(self) -> np.ndarray:
        """Vector of the entries ``a[i, i, .., i]`` (a copy)."""
        return self._diagonal().copy()

    @_fact
    def _diagonal(self) -> np.ndarray:
        if self.is_dense:
            d = self._dense[_diag_index(self.order, self.dim)]
        else:
            d = np.zeros(self.dim)
            if self._vals.size:
                mask = np.all(self._idx == self._idx[:, :1], axis=1)
                d[self._idx[mask, 0]] = self._vals[mask]
        d.flags.writeable = False
        return d

    # ------------------------------------------------------------------
    # contraction kernels

    def apply(self, x) -> np.ndarray:
        """Evaluate ``A x^{m-1}`` for a vector ``x`` of length ``n``.

        Dense storage computes ``partial_contraction(x) @ x``.
        """
        x = _check_vector(x, self.dim)
        if self.is_dense:
            return self.partial_contraction(x) @ x
        if not self._vals.size:
            return np.zeros(self.dim)
        terms = self._vals * np.prod(x[self._idx[:, 1:]], axis=1)
        return np.bincount(self._idx[:, 0], weights=terms, minlength=self.dim)

    def partial_contraction(self, x) -> np.ndarray:
        """The ``n x n`` matrix ``M = A x^{m-2}`` of a dense tensor.

        The trailing ``m-2`` slots are contracted with ``x``, last slot
        first, by :func:`_slot_terms`.  ``M @ x`` is ``apply(x)``, and ``M``
        is the first-slot term of ``jacobian_matrix(x)``.  Read-only when
        ``m = 2``, where ``M`` is the stored matrix itself.
        """
        if not self.is_dense:
            raise ValueError("COO tensor has no partial contraction kernel")
        return _slot_terms(self._dense, _check_vector(x, self.dim), False)[0]

    def jacobian_matrix(self, x) -> np.ndarray:
        """Derivative matrix of ``x -> A x^{m-1}``.

        Differentiates position by position, so the result is exact for
        tensors with no index symmetry: on dense storage it is the sum,
        from zeros, of the ``m-1`` one-slot contractions, slot by slot,
        from one pass of :func:`_slot_terms`.  Tensors carry no symmetry
        flag, and the sum is formed for every tensor: for a
        semi-symmetric one it equals ``(m-1)`` times the first term in
        exact arithmetic, but not always in floating point.
        """
        x = _check_vector(x, self.dim)
        if self.is_dense:
            return _slot_terms(self._dense, x, True)[1]
        n, m = self.dim, self.order
        jac = np.zeros((n, n))
        if not self._vals.size:
            return jac
        cols = self._idx[:, 1:]
        xs = x[cols]
        for p in range(m - 1):
            others = self._vals * np.prod(np.delete(xs, p, axis=1), axis=1)
            np.add.at(jac, (self._idx[:, 0], cols[:, p]), others)
        return jac

    def partial_and_jacobian(self, x):
        """``(partial_contraction(x), jacobian_matrix(x))`` of a dense
        tensor from one pass of :func:`_slot_terms`."""
        if not self.is_dense:
            raise ValueError("COO tensor has no fused contraction kernel")
        return _slot_terms(self._dense, _check_vector(x, self.dim), True)

    def semi_symmetrize(self) -> "Tensor":
        """Average over all permutations of the trailing ``m-1`` indices.

        Leaves ``apply`` unchanged while making the trailing block of the
        tensor fully symmetric.  Always a new tensor, even when the
        entries are already symmetric.  Dense storage averages one slab
        ``a[i]`` at a time (:func:`_semi_symmetrize_slab`).
        """
        m = self.order
        if self.is_dense:
            acc = np.empty_like(self._dense)
            for slab, out in zip(self._dense, acc):
                _semi_symmetrize_slab(slab, out)
            return Tensor.from_dense(acc)
        perms = list(itertools.permutations(range(1, m)))
        if not self._vals.size:
            return Tensor.from_coo(m, self.dim, self._idx, self._vals)
        stacked = np.vstack([self._idx[:, (0,) + p] for p in perms])
        weights = np.tile(self._vals / len(perms), len(perms))
        uniq, inv = np.unique(stacked, axis=0, return_inverse=True)
        vals = np.bincount(inv.ravel(), weights=weights)
        keep = vals != 0.0
        return Tensor.from_coo(m, self.dim, uniq[keep], vals[keep])

    def is_semi_symmetric(self) -> bool:
        """Whether the trailing indices can be permuted freely.

        Compares the entries with those of :meth:`semi_symmetrize` on every
        call, up to ``SEMI_SYMMETRY_TOL`` times ``max(1, max|a|)``.  Dense
        storage compares one slab at a time in one slab-sized buffer and
        stops at the first slab that differs.
        """
        tol = SEMI_SYMMETRY_TOL * max(1.0, self.max_abs())
        if self.is_dense:
            sym = np.empty_like(self._dense[0])
            for slab in self._dense:
                _semi_symmetrize_slab(slab, sym)
                np.subtract(slab, sym, out=sym)
                np.abs(sym, out=sym)
                # written so that a NaN difference fails the test
                if not sym.max() <= tol:
                    return False
            return True
        sym = self.semi_symmetrize()
        merged_idx = np.vstack([self._idx, sym.coo_indices])
        merged_val = np.concatenate([self._vals, -sym.coo_values])
        uniq, inv = np.unique(merged_idx, axis=0, return_inverse=True)
        diff = np.bincount(inv.ravel(), weights=merged_val,
                           minlength=uniq.shape[0])
        return bool(np.max(np.abs(diff), initial=0.0) <= tol)

    # ------------------------------------------------------------------
    # structural predicates

    @_fact
    def is_z_tensor(self) -> bool:
        """True when every off-diagonal entry is <= 0."""
        if self.is_dense:
            # entries that are not <= 0 (positive or NaN) must all sit on
            # the diagonal; counting them needs no copy of the tensor
            diag = self._dense[_diag_index(self.order, self.dim)]
            loose = self._dense.size - np.count_nonzero(self._dense <= 0.0)
            return bool(loose == diag.size - np.count_nonzero(diag <= 0.0))
        if not self._vals.size:
            return True
        diag = np.all(self._idx == self._idx[:, :1], axis=1)
        return bool(np.all(self._vals[~diag] <= 0.0))

    @_fact
    def is_diag_dominant(self) -> bool:
        """Operational dominance test: ``A e^{m-1} > 0`` componentwise.

        The all-ones vector then certifies the splitting constant exceeds
        the spectral radius of the nonnegative part.  Comparison uses a
        small scale-relative margin so that rows whose coefficients sum to
        zero in exact arithmetic are not misclassified by rounding.
        """
        ax = self._ones_image()
        margin = 1e-12 * max(1.0, self.max_abs())
        return bool(np.all(ax > margin))

    @_fact
    def _ones_image(self) -> np.ndarray:
        """``A e^{m-1}`` (read-only): the image of the all-ones vector,
        which the dominance test reads and
        :func:`~mteq.initializer.initial_point` reuses."""
        ax = self.apply(np.ones(self.dim))
        ax.flags.writeable = False
        return ax


def _diag_index(order, dim):
    return tuple([np.arange(dim)] * order)


def _max_abs(a) -> float:
    """Largest magnitude in ``a`` (0 when empty, NaN when an entry is NaN)
    from its largest and smallest entry, without an ``np.abs`` copy."""
    if not a.size:
        return 0.0
    # abs turns the -0.0 of an all-zero tensor into 0.0
    return abs(float(max(a.max(), -a.min())))


def _contract(a, x, times) -> np.ndarray:
    """Contract the last axis of ``a`` with ``x``, ``times`` times."""
    for _ in range(times):
        a = a @ x
    return a


def _slot_terms(a, x, jacobian):
    """``(M, J)`` for the entries ``a`` of a dense tensor: ``M = A x^{m-2}``
    and the derivative matrix ``J`` of ``x -> A x^{m-1}``, or ``None``
    unless ``jacobian`` is set.  At ``m = 2`` ``M`` alone is ``a`` itself.

    The one pass over the slabs ``a[i]`` that every dense contraction
    makes, over the spans of :func:`_over_spans`: each span whole for ``M``
    alone, in blocks of about ``_FUSED_BLOCK_BYTES`` for ``J``.  Slot
    ``p`` contracts slab ``a[i]`` with its axis ``p`` moved to the front,
    and row ``i`` of ``J`` adds these terms from zero, slot by slot, so no
    row's bits depend on how the slabs are grouped.
    """
    n, m = a.shape[0], a.ndim
    if m == 2 and not jacobian:
        return a, None
    rows = max(1, _FUSED_BLOCK_BYTES // a[0].nbytes) if jacobian else n
    slots = [(0, p) + tuple(q for q in range(1, m) if q != p)
             for p in range(2, m)]
    M = np.empty((n, n))
    jac = np.zeros((n, n)) if jacobian else None

    def span(start, stop):
        for i in range(start, stop, rows):
            end = min(i + rows, stop)
            block = a[i:end]
            part = _contract(block, x, m - 2)
            M[i:end] = part
            if jacobian:
                acc = jac[i:end]
                acc += part
                for axes in slots:
                    acc += _contract(block.transpose(axes), x, m - 2)
    _over_spans(span, n, a.nbytes)
    return M, jac


def _semi_symmetrize_slab(slab, out) -> None:
    """Write into ``out`` the average of ``slab`` over all permutations of
    its axes, summed from zero in ``itertools.permutations`` order: slab
    ``i`` of :meth:`Tensor.semi_symmetrize`, to the bit."""
    perms = list(itertools.permutations(range(slab.ndim)))
    out.fill(0.0)
    for p in perms:
        out += slab.transpose(p)
    out /= len(perms)


def _scaled_facts(facts, f) -> dict:
    """The facts in ``facts`` that carry to the entries times ``f``.

    Only a finite ``f > 0`` carries any.  Rounding is monotone, so
    ``max_abs`` becomes ``abs(max_abs * f)``; the diagonal becomes
    ``d * f``, the same products as the new entries; and a Z-tensor stays
    one.  A failed Z test does not carry, because a positive off-diagonal
    entry can underflow to +0, and neither do the dominance test and the
    image ``A e^{m-1}`` it reads, because scaled row sums round
    differently.
    """
    if not (f > 0.0 and math.isfinite(f)):
        return {}
    carried = {}
    if "max_abs" in facts:
        carried["max_abs"] = abs(facts["max_abs"] * f)
    if "_diagonal" in facts:
        d = facts["_diagonal"] * f
        d.flags.writeable = False
        carried["_diagonal"] = d
    if facts.get("is_z_tensor"):
        carried["is_z_tensor"] = True
    return carried


def _check_vector(x, n) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}, got shape {x.shape}")
    return x


def hadamard_power(x, alpha) -> np.ndarray:
    """Componentwise power ``x_i ** alpha``.

    Fractional exponents require a nonnegative base; callers that need
    negative exponents must pass strictly positive vectors.
    """
    x = np.asarray(x, dtype=float)
    a = float(alpha)
    if not a.is_integer() and np.any(x < 0.0):
        raise ValueError("fractional power of a negative component")
    return x ** a


def m_splitting(t: Tensor, s=None):
    """Split ``t = s*I - B`` and return ``(s, B)``.

    By default ``s`` is the largest diagonal entry, which makes the
    diagonal of ``B`` nonnegative; for a Z-tensor the whole of ``B`` is
    then nonnegative.
    """
    d = t.diagonal()
    if s is None:
        s = float(d.max()) if d.size else 0.0
    s = float(s)
    if t.is_dense:
        b = np.negative(t.dense_values)
        b[_diag_index(t.order, t.dim)] += s
        return s, Tensor.from_dense(b)
    idx = t.coo_indices
    vals = t.coo_values
    if vals.size:
        diag_mask = np.all(idx == idx[:, :1], axis=1)
        off_idx = idx[~diag_mask]
        off_vals = -vals[~diag_mask]
        diag_vals = np.zeros(t.dim)
        diag_vals[idx[diag_mask, 0]] = vals[diag_mask]
    else:
        off_idx = np.zeros((0, t.order), dtype=np.int64)
        off_vals = np.zeros(0)
        diag_vals = np.zeros(t.dim)
    new_diag = s - diag_vals
    keep = new_diag != 0.0
    di = np.tile(np.flatnonzero(keep)[:, None], (1, t.order))
    all_idx = np.vstack([off_idx, di])
    all_vals = np.concatenate([off_vals, new_diag[keep]])
    return s, Tensor.from_coo(t.order, t.dim, all_idx, all_vals)


def nqz_spectral_radius(t: Tensor, tol=1e-10, max_iter=5000):
    """Bracket the spectral radius of a nonnegative tensor by power iteration.

    Iterates ``x <- (B x^{m-1})^{1/(m-1)}`` (max-normalized) and returns the
    final ``(lower, upper)`` Collatz-Wielandt bounds from the componentwise
    ratios ``(B x^{m-1})_i / x_i^{m-1}``.  If an iterate component collapses
    to zero (a reducible tensor), every entry is implicitly perturbed by
    ``1e-12`` to restore coupling; the returned bracket then bounds the
    radius of the perturbed tensor, which is an upper bound for the
    original one.
    """
    if t.min_entry() < 0.0:
        raise ValueError("spectral-radius bracket needs a nonnegative tensor")
    m, n = t.order, t.dim
    delta = 0.0

    def contract(x):
        v = t.apply(x)
        if delta:
            v = v + delta * float(np.sum(x)) ** (m - 1)
        return v

    x = np.ones(n)
    v = contract(x)
    if not np.any(v > 0.0):
        return 0.0, 0.0
    lower, upper = 0.0, math.inf
    for _ in range(int(max_iter)):
        if np.any(v <= 0.0):
            delta = 1e-12
            v = contract(x)
        y = v ** (1.0 / (m - 1))
        x = y / y.max()
        v = contract(x)
        ratios = v / x ** (m - 1)
        lower = float(ratios.min())
        upper = float(ratios.max())
        if upper - lower <= tol * upper:
            break
    return lower, upper


# ----------------------------------------------------------------------
# file formats
#
# ``.mt``  line 1:  MT1 <m> <n> <dense|coo> <count>
#          dense:   n**m values, lexicographic order, first index slowest
#          coo:     <count> lines of "i1 .. im value" with 1-based indices
# ``.vec`` line 1:  <n>
#          then:    n values
# ``.npy``          numpy's own format (NEP 1) for dense tensors only: a
#                   header giving dtype '<f8', C order and shape (n,)*m,
#                   then the n**m values as raw little-endian float64 in
#                   the order of the dense text body.
# Text writers emit 17 significant digits, which round-trips IEEE doubles.
#
# No file body is held as one Python object per value.  Dense and vector
# text bodies are parsed in chunks of about _TEXT_CHUNK_BYTES straight into
# the result, a COO body by one ``np.loadtxt`` call; both take numpy's
# number parsing, so ``1_000`` is malformed.  Text writers format about
# _TEXT_CHUNK_VALUES values per ``%`` call.
# read_tensor tells a .npy file from text by its magic bytes, whatever its
# name, and reads its body into private memory.  It does not memory-map
# the file: the finiteness test reads every page anyway, and a map would
# break (SIGBUS) when the same path is rewritten while the tensor lives.

_TEXT_CHUNK_BYTES = 1 << 20
_TEXT_CHUNK_VALUES = 1 << 16
_WHITESPACE = (b" ", b"\n", b"\t", b"\r", b"\v", b"\f")
_NOT_WHITESPACE = re.compile(rb"\S")
_NPY_MAGIC = b"\x93NUMPY"
_NPY_DTYPE = np.dtype("<f8")


def write_tensor(path, t: Tensor) -> None:
    """Write ``t`` to ``path``: as ``.npy`` when the path ends in
    ``.npy`` (dense tensors only), otherwise as ``.mt`` text."""
    if os.fspath(path).endswith(".npy"):
        if not t.is_dense:
            raise ValueError(f"{path}: .npy files hold dense tensors only; "
                             f"write a COO tensor as .mt text")
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, t.dense_values, version=(1, 0),
                                      allow_pickle=False)
        return
    with open(path, "w") as fh:
        if t.is_dense:
            count = t.dim ** t.order
            fh.write(f"MT1 {t.order} {t.dim} dense {count}\n")
            # one line per row of the last index, as np.savetxt wrote them
            line = " ".join(["%.17g"] * t.dim) + "\n"
            _write_chunks(fh, t.dense_values.reshape(-1, t.dim), line)
        else:
            m, count = t.order, t.coo_values.shape[0]
            fh.write(f"MT1 {m} {t.dim} coo {count}\n")
            # 1-based indices as floats, which "%d" prints as integers
            line = "%d " * m + "%.17g\n"
            step = max(1, _TEXT_CHUNK_VALUES // (m + 1))
            for start in range(0, count, step):
                entries = np.column_stack([t.coo_indices[start:start + step] + 1,
                                           t.coo_values[start:start + step]])
                _write_chunks(fh, entries, line)


def _write_chunks(fh, rows, line) -> None:
    """Write each row of the 2-D array ``rows`` with the ``%`` template
    ``line``, one ``%`` call per chunk of rows."""
    step = max(1, _TEXT_CHUNK_VALUES // max(1, rows.shape[1]))
    for start in range(0, rows.shape[0], step):
        chunk = rows[start:start + step]
        fh.write(line * chunk.shape[0] % tuple(chunk.ravel().tolist()))


def read_tensor(path) -> Tensor:
    """Read a tensor from ``.mt`` text or, told apart by its magic bytes,
    a dense ``.npy`` file.

    Raises :class:`FormatError` naming the file for any malformed header
    or body, a dense size above :func:`dense_cap`, or a non-finite entry.
    """
    with open(path, "rb") as fh:
        if fh.peek(len(_NPY_MAGIC))[:len(_NPY_MAGIC)] == _NPY_MAGIC:
            return Tensor.from_dense(_read_npy(fh, path))
        header = fh.readline().decode(errors="replace")
        parts = header.split()
        if len(parts) != 5 or parts[0] != "MT1":
            raise FormatError(
                f"{path}:1: expected header 'MT1 <m> <n> <dense|coo> <count>', "
                f"got {header.strip()!r}")
        try:
            m, n, count = int(parts[1]), int(parts[2]), int(parts[4])
        except ValueError:
            raise FormatError(f"{path}:1: non-integer field in header") from None
        storage = parts[3]
        if storage not in ("dense", "coo"):
            raise FormatError(f"{path}:1: unknown storage {storage!r}")
        if m < 2 or n < 1 or count < 0:
            raise FormatError(f"{path}:1: header values out of range")
        if storage == "dense":
            expected = n ** m
            if count != expected:
                raise FormatError(
                    f"{path}:1: dense count {count} does not match n**m = {expected}")
            _check_dense_cap(path, m, n)
            values = _read_text_values(fh, path, expected, "dense body")
            _check_finite_body(path, values, (n,) * m)
            return Tensor.from_dense(values.reshape((n,) * m))
        return _read_coo_body(fh, path, m, n, count)


def _read_coo_body(fh, path, m, n, count) -> Tensor:
    """The ``count`` entries of a COO body, one line of ``m`` 1-based
    indices and a value each, parsed by numpy's reader in one call."""
    entry = np.dtype([("index", np.int64, (m,)), ("value", float)])
    try:
        with warnings.catch_warnings():
            # numpy warns on a body without lines; the count test decides
            warnings.simplefilter("ignore", UserWarning)
            body = np.loadtxt(fh, dtype=entry, comments=None, ndmin=1)
    except ValueError as exc:
        # numpy's text ends in advice on ``usecols``, which is not ours
        raise FormatError(
            f"{path}: malformed COO body: {str(exc).split(';')[0]}") from None
    if body.size != count:
        raise FormatError(
            f"{path}: header promised {count} entries, found {body.size}")
    idx, vals = body["index"], body["value"]
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.argmax(bad))
        raise FormatError(f"{path}: non-finite entry {float(vals[k])} at "
                          f"index {tuple(idx[k].tolist())}")
    bad = ((idx < 1) | (idx > n)).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise FormatError(f"{path}: index out of range 1..{n}: "
                          f"{tuple(idx[k].tolist())}")
    idx -= 1
    try:
        return Tensor.from_coo(m, n, idx, vals)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _check_dense_cap(path, m, n) -> None:
    """:func:`check_dense_size` for a file, as a :class:`FormatError`."""
    try:
        check_dense_size(m, n)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_npy(fh, path) -> np.ndarray:
    """The array of a dense ``.npy`` file, checked before it is allocated.

    The header must give dtype ``'<f8'``, C order and a shape ``(n,)*m``
    with ``m >= 2``, ``n >= 1`` and ``n**m`` within :func:`dense_cap`, and
    the file must hold exactly ``n**m`` values after it.  The body is read
    into a new array, not mapped.
    """
    fmt = np.lib.format
    try:
        version = fmt.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = fmt.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = fmt.read_array_header_2_0(fh)
        else:
            raise ValueError(f"unsupported version {version}")
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: malformed .npy header: {exc}") from None
    if dtype.hasobject:
        raise FormatError(f"{path}: .npy body holds pickled Python objects; "
                          f"only float64 values are read")
    if dtype != _NPY_DTYPE:
        raise FormatError(f"{path}: .npy dtype {dtype.str!r} is not "
                          f"little-endian float64 ('<f8')")
    if fortran:
        raise FormatError(f"{path}: .npy body is in Fortran order; "
                          f"only C order is read")
    if len(shape) < 2 or shape[0] < 1 or any(s != shape[0] for s in shape):
        raise FormatError(f"{path}: .npy shape {shape} is not (n,)*m "
                          f"with m >= 2 and n >= 1")
    _check_dense_cap(path, len(shape), shape[0])
    body = math.prod(shape) * _NPY_DTYPE.itemsize
    left = _bytes_left(fh)
    if left is not None and left != body:
        raise FormatError(f"{path}: .npy file has {left} bytes after its "
                          f"header, expected {body} for shape {shape}")
    values = np.empty(shape)
    view = memoryview(values).cast("B")
    done = 0
    while done < body:
        got = fh.readinto(view[done:])
        if not got:
            raise FormatError(
                f"{path}: .npy body ended after {done} of {body} bytes")
        done += got
    if fh.read(1):
        raise FormatError(f"{path}: .npy file has bytes after its body")
    _check_finite_body(path, values, shape)
    return values


def write_vector(path, x) -> None:
    """Write ``x`` as ``.vec`` text: its length, then one value per line."""
    x = np.asarray(x, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write(f"{x.size}\n")
        _write_chunks(fh, x.reshape(-1, 1), "%.17g\n")


def read_vector(path) -> np.ndarray:
    """Read a ``.vec`` text file; raises :class:`FormatError` naming the
    file for a malformed header or body or a non-finite entry."""
    with open(path, "rb") as fh:
        header = fh.readline().decode(errors="replace")
        try:
            n = int(header.split()[0])
        except (IndexError, ValueError):
            raise FormatError(
                f"{path}:1: expected the vector length, got {header.strip()!r}") from None
        if n < 0:
            raise FormatError(f"{path}:1: negative length")
        values = _read_text_values(fh, path, n, "vector body")
        _check_finite_body(path, values, (n,))
        return values


def _read_text_values(fh, path, count, what) -> np.ndarray:
    """The ``count`` whitespace-separated values that remain in the binary
    file ``fh``, parsed in chunks of about ``_TEXT_CHUNK_BYTES``.

    Each chunk is cut after its last whitespace byte, and the token it cuts
    through is carried into the next chunk.  A chunk of whitespace only
    holds no value (``np.fromstring`` would read one).  A token numpy
    cannot parse raises :class:`FormatError` "malformed value"; so does
    one that Python's ``float`` takes but numpy does not, such as
    ``1_000``.
    """
    left = _bytes_left(fh)
    # k values take at least 2k - 1 bytes, so a short file allocates less
    out = np.empty(count if left is None else min(count, left // 2 + 1))
    found = 0
    tail = b""
    while True:
        block = fh.read(_TEXT_CHUNK_BYTES)
        chunk = tail + block
        if block:
            cut = max(chunk.rfind(c) for c in _WHITESPACE) + 1
            chunk, tail = chunk[:cut], chunk[cut:]
        if _NOT_WHITESPACE.search(chunk):
            try:
                values = np.fromstring(chunk, sep=" ")
            except ValueError:
                raise FormatError(f"{path}: malformed value in {what}") from None
            if found + values.size <= out.size:
                out[found:found + values.size] = values
            found += values.size
        if not block:
            break
    if found != count:
        raise FormatError(f"{path}: expected {count} values, found {found}")
    return out


def _bytes_left(fh):
    """Bytes after the position of ``fh``; ``None`` unless it is a
    regular file (a pipe, say)."""
    st = os.fstat(fh.fileno())
    return st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else None


def _check_finite_body(path, values, shape) -> None:
    """Raise :class:`FormatError` naming the first non-finite entry of a
    file body read in C order into ``values``, by its 1-based index.

    Tests ``_TEXT_CHUNK_VALUES`` values at a time, so no mask the size of
    the body is allocated.
    """
    flat = values.reshape(-1)
    for start in range(0, flat.size, _TEXT_CHUNK_VALUES):
        part = flat[start:start + _TEXT_CHUNK_VALUES]
        if np.isfinite(part).all():
            continue
        first = start + int(np.flatnonzero(~np.isfinite(part))[0])
        where = np.unravel_index(first, shape)
        index = ", ".join(str(int(i) + 1) for i in where)
        raise FormatError(
            f"{path}: non-finite entry {float(flat[first])} at index ({index})")
