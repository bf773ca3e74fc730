"""Order-m tensor storage and the contraction kernels used by the solvers.

A tensor here is a real array ``a[i1, ..., im]`` with all indices ranging
over ``0 .. n-1``.  Two storage layouts are supported, each by its own
class: dense (a numpy array of shape ``(n,)*m``) and sparse COO (sorted
unique index tuples with their values).  :meth:`Tensor.from_dense` and
:meth:`Tensor.from_coo` pick the class once, and every method that depends
on the layout lives on it; no method of :class:`Tensor` asks which one it
has.  Indices are 0-based in memory and 1-based in the ``.mt`` text
format; the conversion happens exactly once, at the file boundary.

The central operation is ``apply``, the multilinear map

    (A x^{m-1})_i = sum over i2..im of a[i, i2, .., im] * x[i2] * ... * x[im],

together with its derivative matrix, computed position by position so that
it is exact for tensors with no symmetry at all.  Where every permutation
of the trailing ``m-1`` indices leaves every entry equal, the derivative
is ``(m-1) A x^{m-2}`` (Ding & Wei, J. Sci. Comput. 68:689, 2016), and the
kernels take that form, which needs one slot term instead of ``m-1``.

Facts read from the entries (the largest magnitude, the Z sign, that
exact trailing symmetry, the dominance test with the record of the
all-ones vector it reads, and the diagonal) are computed on first use and
kept on the tensor, which is immutable: dense storage is marked
read-only, so the cached facts cannot go stale.  A fact depends on the
entries alone, so a tensor read from a file has the facts, and the
kernels the bits, of the tensor that was written.  :meth:`Tensor.scaled`
hands on the facts that scale exactly, so a scaled problem is not checked
twice, and a generator that scales its own buffer in place, or knows a
fact from its construction, hands it on by the same rule.

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
import math
import os
import re
import stat
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .textcodec import _text_values, _write_rows

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
    """Raise ``ValueError`` unless ``order >= 2`` and ``dim >= 1``, or when
    ``dim**order`` entries exceed :func:`dense_cap`."""
    if order < 2 or dim < 1:
        raise ValueError(f"a tensor needs order >= 2 and dimension >= 1, "
                         f"got order {order}, dimension {dim}")
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
    :meth:`from_coo` or :meth:`identity` to construct one; each returns a
    dense or a COO storage class, with ``is_dense`` and ``storage`` as
    class attributes.  Only dense storage has ``dense_values``, and only
    COO storage ``coo_indices`` and ``coo_values``.
    """

    def __init__(self, order, dim, values):
        self.order = int(order)
        self.dim = int(dim)
        if self.order < 2:
            raise ValueError("tensor order must be at least 2")
        if self.dim < 1:
            raise ValueError("tensor dimension must be at least 1")
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
        return _DenseTensor(a.ndim, n, a)

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
        """COO tensor over 0-based index tuples, one row each, and values."""
        order = int(order)
        idx = np.asarray(indices, dtype=np.int64).reshape(-1, order)
        vals = np.asarray(values, dtype=float).ravel()
        if idx.shape[0] != vals.shape[0]:
            raise ValueError("index and value counts differ")
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            raise ValueError("tensor index out of range")
        key = np.lexsort(idx.T[::-1])
        idx = idx[key]
        vals = vals[key]
        dup = np.all(idx[1:] == idx[:-1], axis=1)
        if dup.any():
            raise _RepeatedIndex(tuple(int(i) for i in idx[1:][dup][0]))
        idx.setflags(write=False)
        vals.setflags(write=False)
        return _CooTensor(order, dim, vals, idx)

    @classmethod
    def identity(cls, order, dim) -> "Tensor":
        """COO tensor with ones at every ``(i, i, .., i)``."""
        idx = np.tile(np.arange(dim, dtype=np.int64)[:, None], (1, order))
        return cls.from_coo(order, dim, idx, np.ones(dim))

    def __repr__(self):
        return (f"Tensor(order={self.order}, dim={self.dim}, "
                f"storage={self.storage!r}, nnz={self.nnz})")

    def to_dense(self) -> "Tensor":
        return Tensor.from_dense(self.to_dense_array())

    @_fact
    def max_abs(self) -> float:
        """Largest entry magnitude; NaN when an entry is NaN.

        Reads the largest and the smallest entry instead of building an
        ``np.abs`` copy of the stored values.
        """
        return _max_abs(self._vals)

    def scaled(self, factor) -> "Tensor":
        """The tensor with every entry multiplied by ``factor``.

        For a finite ``factor > 0`` the new tensor starts with the facts
        this one has already computed, where they scale exactly (see
        :func:`_scaled_facts`).
        """
        f = float(factor)
        out = self._times(f)
        out._facts.update(_scaled_facts(self._facts, f))
        return out

    # the kernels below each call a hook of the storage class, so that a
    # wrapper set on Tensor sees every call

    def diagonal(self) -> np.ndarray:
        """Vector of the entries ``a[i, i, .., i]`` (a copy)."""
        return self._diagonal().copy()

    def apply(self, x) -> np.ndarray:
        """Evaluate ``A x^{m-1}`` for a vector ``x`` of length ``n``."""
        return self._apply(_check_vector(x, self.dim))

    def jacobian_matrix(self, x) -> np.ndarray:
        """Derivative matrix of ``x -> A x^{m-1}``.

        Differentiates position by position, so the result is exact for
        tensors with no index symmetry: it is the sum, from zeros, of the
        ``m-1`` one-slot contractions, slot by slot.  Where
        :meth:`is_exactly_semi_symmetric` holds, every slot term equals
        the first, and the result is ``(m-1)`` times that term.
        """
        return self._jacobian(_check_vector(x, self.dim))

    def image_and_jacobian(self, x):
        """``(apply(x), J)``, with ``J`` the :meth:`jacobian_matrix` when
        the storage gets it from the same pass over the entries, or
        ``None`` when it is built only on request."""
        return self._image_and_jacobian(_check_vector(x, self.dim))

    @_fact
    def is_diag_dominant(self) -> bool:
        """Operational dominance test: ``A e^{m-1} > 0`` componentwise.

        The all-ones vector then certifies the splitting constant exceeds
        the spectral radius of the nonnegative part.  Comparison uses a
        small scale-relative margin so that rows whose coefficients sum to
        zero in exact arithmetic are not misclassified by rounding.
        """
        ax = self._ones_record()[0]
        return bool(np.all(ax > self._noise_floor()))

    def _noise_floor(self) -> float:
        """Least value an entry of ``A x^{m-1}`` must exceed to count as positive."""
        return 1e-12 * max(1.0, self.max_abs())

    @_fact
    def _ones_record(self):
        """``image_and_jacobian`` of the all-ones vector ``e``, both parts
        read-only: ``A e^{m-1}``, which the dominance test reads and
        :func:`~mteq.initializer.initial_point` reuses, and ``J(e)`` or
        ``None``.  A record at a constant vector scales both instead of
        contracting the tensor (see :mod:`mteq.model`)."""
        image, jac = self.image_and_jacobian(np.ones(self.dim))
        for part in (image, jac):
            if part is not None:
                part.flags.writeable = False
        return image, jac


class _DenseTensor(Tensor):
    """Dense storage: one read-only C-contiguous array of shape ``(n,)*m``.
    Every contraction is one pass of :func:`_slot_terms` over the slabs
    ``a[i]``, which gives ``M = A x^{m-2}``, with ``A x^{m-1} = M x``, and,
    when asked, the derivative matrix: ``(m-1) M`` from a pass without
    slot terms where the trailing indices permute exactly."""

    is_dense = True
    storage = "dense"

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._vals))

    @property
    def dense_values(self) -> np.ndarray:
        """Read-only view of the stored dense entries (no copy)."""
        view = self._vals.view()
        view.flags.writeable = False
        return view

    def to_dense_array(self) -> np.ndarray:
        """Entries as a numpy array of shape ``(n,)*m`` (always a copy)."""
        return self._vals.copy()

    def to_coo(self) -> Tensor:
        # argwhere walks the array in C order, which is already the sorted
        # lexicographic order from_coo expects
        idx = np.argwhere(self._vals != 0.0).astype(np.int64)
        return Tensor.from_coo(self.order, self.dim, idx, self._vals[tuple(idx.T)])

    def min_entry(self) -> float:
        return float(self._vals.min())

    def _times(self, f) -> Tensor:
        return Tensor.from_dense(self._vals * f)

    def _negated_shift(self, s) -> Tensor:
        """``s*I - A``."""
        b = np.negative(self._vals)
        b[_diag_index(self.order, self.dim)] += s
        return Tensor.from_dense(b)

    @_fact
    def _diagonal(self) -> np.ndarray:
        d = self._vals[_diag_index(self.order, self.dim)]
        d.flags.writeable = False
        return d

    @_fact
    def is_z_tensor(self) -> bool:
        """True when every off-diagonal entry is <= 0."""
        # entries that are not <= 0 (positive or NaN) must all sit on the
        # diagonal; counting them needs no copy of the tensor
        diag = self._vals[_diag_index(self.order, self.dim)]
        loose = self._vals.size - np.count_nonzero(self._vals <= 0.0)
        return bool(loose == diag.size - np.count_nonzero(diag <= 0.0))

    @_fact
    def is_exactly_semi_symmetric(self) -> bool:
        """Whether every permutation of the trailing indices leaves every
        entry equal (``==``, so a NaN entry fails at ``m > 2``; at
        ``m = 2`` no permutation moves an index, and the fact holds).

        Compares each slab with its transposes under the permutations of
        :func:`_generating_perms`, over spans (:func:`_over_spans`), and
        each span stops at its first slab that differs.
        """
        perms = _generating_perms(self.order - 1)

        def span(start, stop):
            return all(np.array_equal(slab, slab.transpose(p))
                       for slab in self._vals[start:stop] for p in perms)
        return all(_over_spans(span, self.dim, self._vals.nbytes))

    def _apply(self, x) -> np.ndarray:
        return _slot_terms(self._vals, x, False)[0] @ x

    def _terms(self, x):
        """``(M, J)`` from one pass over the slabs.  At ``m = 2`` the one
        slot term is added to zeros, as in every sum of slot terms."""
        if self.order > 2 and self.is_exactly_semi_symmetric():
            partial = _slot_terms(self._vals, x, False)[0]
            return partial, (self.order - 1) * partial
        return _slot_terms(self._vals, x, True)

    def _jacobian(self, x) -> np.ndarray:
        return self._terms(x)[1]

    def _image_and_jacobian(self, x):
        # M @ x has the bits of _apply's
        partial, jac = self._terms(x)
        return partial @ x, jac

    def uncoupled_rows(self, rows, cols) -> list:
        """The rows ``i`` in ``rows`` with no nonzero ``a[i, i2, .., im]``
        whose trailing indices all lie in ``cols``.

        Reads the rows of slab ``a[i]`` along its last index whose other
        indices lie in ``cols``, in blocks that double in size, until one
        has a nonzero entry in the ``cols`` columns.
        """
        n = self.dim
        # flat row numbers of the index tuples in cols^{m-2}, in C order
        flat = np.zeros(1, dtype=np.int64)
        for _ in range(self.order - 2):
            flat = (flat[:, None] * n + cols).ravel()
        return [int(i) for i in rows
                if not _couples(self._vals[int(i)].reshape(-1, n), flat, cols)]


class _CooTensor(Tensor):
    """COO storage: sorted unique 0-based index tuples, one row each, and
    their values, both read-only.  Which entries lie on the diagonal is
    computed once and kept with the facts."""

    is_dense = False
    storage = "coo"

    def __init__(self, order, dim, values, indices):
        super().__init__(order, dim, values)
        self._idx = indices

    @property
    def nnz(self) -> int:
        return self._vals.shape[0]

    @property
    def coo_indices(self) -> np.ndarray:
        return self._idx

    @property
    def coo_values(self) -> np.ndarray:
        return self._vals

    def to_dense_array(self) -> np.ndarray:
        check_dense_size(self.order, self.dim)
        a = np.zeros((self.dim,) * self.order)
        a[tuple(self._idx.T)] = self._vals
        return a

    def to_coo(self) -> Tensor:
        return self

    def min_entry(self) -> float:
        """Smallest entry, counting the implicit zeros."""
        stored = float(self._vals.min(initial=math.inf))
        return min(stored, 0.0) if self.nnz < self.dim ** self.order else stored

    def _times(self, f) -> Tensor:
        return Tensor.from_coo(self.order, self.dim, self._idx, self._vals * f)

    def _negated_shift(self, s) -> Tensor:
        """``s*I - A``, without the diagonal entries that are zero."""
        off = ~self._on_diagonal()
        diag = s - self._diagonal()
        keep = diag != 0.0
        di = np.tile(np.flatnonzero(keep)[:, None], (1, self.order))
        return Tensor.from_coo(self.order, self.dim, np.vstack([self._idx[off], di]),
                               np.concatenate([-self._vals[off], diag[keep]]))

    @_fact
    def _on_diagonal(self) -> np.ndarray:
        mask = np.all(self._idx == self._idx[:, :1], axis=1)
        mask.flags.writeable = False
        return mask

    @_fact
    def _diagonal(self) -> np.ndarray:
        on = self._on_diagonal()
        d = np.zeros(self.dim)
        d[self._idx[on, 0]] = self._vals[on]
        d.flags.writeable = False
        return d

    @_fact
    def is_z_tensor(self) -> bool:
        """True when every off-diagonal entry is <= 0."""
        return bool(np.all(self._vals[~self._on_diagonal()] <= 0.0))

    @_fact
    def _columns(self) -> tuple:
        """The index columns, each as its own contiguous read-only array,
        so that a kernel gathers ``x`` by a column without a strided
        copy."""
        cols = tuple(np.ascontiguousarray(c) for c in self._idx.T)
        for c in cols:
            c.flags.writeable = False
        return cols

    def _products(self, x, cols) -> np.ndarray:
        """``vals * (x[c1] * x[c2] * ...)`` over the index columns
        ``cols``, multiplied left to right: the bits of ``np.prod`` along
        the gathered columns, then times the values."""
        if not cols:
            # the product over no columns is 1
            return self._vals * 1.0
        prod = x.take(cols[0])
        for c in cols[1:]:
            prod *= x.take(c)
        return np.multiply(self._vals, prod, out=prod)

    def _apply(self, x) -> np.ndarray:
        if not self._vals.size:
            # np.bincount over no entries returns integer zeros
            return np.zeros(self.dim)
        rows, *cols = self._columns()
        return np.bincount(rows, weights=self._products(x, cols),
                           minlength=self.dim)

    @_fact
    def is_exactly_semi_symmetric(self) -> bool:
        """As on dense storage: the nonzero entries, sorted, equal those
        moved by each permutation of :func:`_generating_perms` and sorted
        again, index for index and value for value."""
        nonzero = self._vals != 0.0
        idx, vals = self._idx[nonzero], self._vals[nonzero]
        for p in _generating_perms(self.order - 1):
            moved = idx[:, (0,) + tuple(q + 1 for q in p)]
            key = np.lexsort(moved.T[::-1])
            if not (np.array_equal(moved[key], idx)
                    and np.array_equal(vals[key], vals)):
                return False
        return True

    def _jacobian(self, x) -> np.ndarray:
        # one slot term, times m-1, where the trailing indices permute
        # exactly
        symmetric = self.is_exactly_semi_symmetric()
        n = self.dim
        if not self._vals.size:
            # as in _apply: np.bincount would return integer zeros
            return np.zeros((n, n))
        rows, *cols = self._columns()
        slots = range(1 if symmetric else self.order - 1)
        # slot-major entries of J, summed from zero in that order: the
        # bits of adding the slot terms one slot after the other
        at = np.concatenate([rows * n + cols[p] for p in slots])
        terms = np.concatenate([self._products(x, cols[:p] + cols[p + 1:])
                                for p in slots])
        jac = np.bincount(at, weights=terms, minlength=n * n).reshape(n, n)
        if symmetric:
            jac *= self.order - 1
        return jac

    def _image_and_jacobian(self, x):
        # through apply, so that a wrapper on it counts the record; the
        # Jacobian is built when asked for
        return self.apply(x), None

    def uncoupled_rows(self, rows, cols) -> list:
        """As on dense storage, from the stored entries."""
        usable = (np.all(np.isin(self._idx[:, 1:], cols), axis=1)
                  & (self._vals != 0.0))
        return rows[~np.isin(rows, self._idx[usable, 0])].tolist()


class _RepeatedIndex(ValueError):
    """A repeated index tuple, kept 0-based in ``index``."""

    def __init__(self, index):
        super().__init__(f"duplicate index tuple {index}")
        self.index = index


def _diag_index(order, dim):
    return tuple([np.arange(dim)] * order)


def _max_abs(a) -> float:
    """Largest magnitude in ``a`` (0 when empty, NaN when an entry is NaN)
    from its largest and smallest entry, without an ``np.abs`` copy."""
    if not a.size:
        return 0.0
    # abs turns the -0.0 of an all-zero tensor into 0.0
    return abs(float(max(a.max(), -a.min())))


def _generating_perms(k) -> list:
    """Axis permutations that generate every permutation of ``k`` axes:
    the swap of the first two and, for ``k >= 3``, the cycle.  An array
    equal to its transposes under these equals all its transposes."""
    if k < 2:
        return []
    swap = (1, 0) + tuple(range(2, k))
    cycle = tuple(range(1, k)) + (0,)
    return [swap] if k == 2 else [swap, cycle]


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


def _couples(slab, rows, cols) -> bool:
    """Whether some row ``slab[r]``, ``r`` in ``rows``, has a nonzero entry
    in ``cols``; rows are read in blocks of 1, 2, 4, ... until one does."""
    start, size = 0, 1
    while start < rows.size:
        block = slab[rows[start:start + size]]
        if np.any(block[:, cols]):
            return True
        start += size
        size *= 2
    return False


def _scaled_facts(facts, f) -> dict:
    """The facts in ``facts`` that carry to the entries times ``f``.

    Only a finite ``f > 0`` carries any.  Rounding is monotone, so
    ``max_abs`` becomes ``abs(max_abs * f)``; the diagonal becomes
    ``d * f``, the same products as the new entries; a Z-tensor stays
    one; and equal entries stay equal, so exact trailing symmetry carries.
    A failed Z or symmetry test does not carry, because a positive
    off-diagonal entry can underflow to +0 and two entries that differ can
    round to one value, and neither do the dominance test and the record
    of ``e`` it reads, because scaled row sums round differently.
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
    for name in ("is_z_tensor", "is_exactly_semi_symmetric"):
        if facts.get(name):
            carried[name] = True
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
    s = float(t.diagonal().max() if s is None else s)
    return s, t._negated_shift(s)


# nqz_spectral_radius stops at a bracket this narrow relative to its upper
# end, or after this many steps
_RADIUS_TOL = 1e-10
_RADIUS_MAX_ITER = 5000


def nqz_spectral_radius(t: Tensor):
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
    for _ in range(_RADIUS_MAX_ITER):
        if np.any(v <= 0.0):
            delta = 1e-12
            v = contract(x)
        y = v ** (1.0 / (m - 1))
        x = y / y.max()
        v = contract(x)
        ratios = v / x ** (m - 1)
        lower = float(ratios.min())
        upper = float(ratios.max())
        if upper - lower <= _RADIUS_TOL * upper:
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
# No file body is held as one Python object per value.  A COO body is
# parsed by one ``np.loadtxt`` call.  Dense and vector text bodies are
# read, and every text body is written, by mteq.textcodec.
# read_tensor tells a .npy file from text by its magic bytes, whatever its
# name, and reads its body into private memory.  It does not memory-map
# the file: the finiteness test reads every page anyway, and a map would
# break (SIGBUS) when the same path is rewritten while the tensor lives.

_TEXT_CHUNK_VALUES = 1 << 16
# a header integer; ``int`` would also take "1_0" and non-ASCII digits
_DECIMAL = re.compile(r"[+-]?[0-9]+")
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
    m, n = t.order, t.dim
    with open(path, "wb") as fh:
        if t.is_dense:
            fh.write(f"MT1 {m} {n} dense {n ** m}\n".encode())
            # one line per row of the last index
            _write_rows(fh, t.dense_values.reshape(-1, n))
        else:
            fh.write(f"MT1 {m} {n} coo {t.nnz}\n".encode())
            # 1-based indices as floats, which print as integers
            _write_rows(fh, np.column_stack([t.coo_indices + 1, t.coo_values]))


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
        if not all(_DECIMAL.fullmatch(parts[k]) for k in (1, 2, 4)):
            raise FormatError(f"{path}:1: non-integer field in header")
        m, n, count = int(parts[1]), int(parts[2]), int(parts[4])
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
    except _RepeatedIndex as exc:
        where = tuple(i + 1 for i in exc.index)
        raise FormatError(f"{path}: duplicate index tuple {where}") from None


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
    # a buffered reader reads until the view is full or the stream ends
    got = fh.readinto(memoryview(values).cast("B"))
    if got != body:
        raise FormatError(f"{path}: .npy body ended after {got} of {body} bytes")
    if fh.read(1):
        raise FormatError(f"{path}: .npy file has bytes after its body")
    _check_finite_body(path, values, shape)
    return values


def write_vector(path, x) -> None:
    """Write ``x`` as ``.vec`` text: its length, then one value per line."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    with open(path, "wb") as fh:
        fh.write(f"{x.shape[0]}\n".encode())
        _write_rows(fh, x)


def read_vector(path) -> np.ndarray:
    """Read a ``.vec`` text file; raises :class:`FormatError` naming the
    file for a malformed header or body or a non-finite entry."""
    with open(path, "rb") as fh:
        header = fh.readline().decode(errors="replace")
        parts = header.split()
        if len(parts) != 1 or not _DECIMAL.fullmatch(parts[0]):
            raise FormatError(
                f"{path}:1: expected the vector length, got {header.strip()!r}")
        n = int(parts[0])
        if n < 0:
            raise FormatError(f"{path}:1: negative length")
        values = _read_text_values(fh, path, n, "vector body")
        _check_finite_body(path, values, (n,))
        return values


def _read_text_values(fh, path, count, what) -> np.ndarray:
    """The ``count`` whitespace-separated values that remain in the binary
    file ``fh``.

    Every body, from a file or a pipe, goes through :func:`_text_values`.
    A token numpy cannot parse raises :class:`FormatError` "malformed
    value"; so does one that Python's ``float`` takes but numpy does not,
    such as ``1_000``.  Without a size to bound it, the result grows as
    values arrive, so that a header alone allocates nothing.
    """
    left = _bytes_left(fh)
    # k values take at least 2k - 1 bytes, so a short file allocates less
    out = np.empty(min(count, _TEXT_CHUNK_VALUES if left is None else left // 2 + 1))
    found = 0
    for values in _text_values(fh, left):
        if values is None:
            raise FormatError(f"{path}: malformed value in {what}")
        end = found + values.size
        if end <= count:
            if end > out.size:
                grown = np.empty(min(count, max(end, 2 * out.size)))
                grown[:found] = out[:found]
                out = grown
            out[found:end] = values
        found = end
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
