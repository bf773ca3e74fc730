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
# No file body is held as one Python object per value.  A COO body is
# parsed by one ``np.loadtxt`` call.  Dense and vector text bodies are read
# in chunks of about _TEXT_CHUNK_BYTES, each cut after a whitespace byte,
# straight into the result; a body below _TEXT_FAST_MIN_BYTES, where
# numpy's fixed cost per call outweighs the gain, goes to np.fromstring
# whole.  Either way ``1_000`` is malformed.  Text writers format about
# _WRITE_CHUNK_VALUES values per _format_rows call, in numpy; a body below
# _WRITE_FAST_MIN_VALUES values, where the 30 or so numpy calls of one
# _format_rows cost more than '%.17g' of each value, goes through one
# ``%`` call, which spells the same bytes.  On a 2-vCPU Xeon the two took
# the same time at about 200 values of 17 digits.
# read_tensor tells a .npy file from text by its magic bytes, whatever its
# name, and reads its body into private memory.  It does not memory-map
# the file: the finiteness test reads every page anyway, and a map would
# break (SIGBUS) when the same path is rewritten while the tensor lives.
#
# The chunks of a larger body go to _parse_text, whose values have the
# bits of np.fromstring's, by these steps:
#   - The grammar.  A token is [+-]? (D+ (. D*)? | . D+) ([eE] [+-]? D+)?,
#     with D an ASCII digit.  _scan_tokens proves that every token of a
#     chunk is in it from one count of the bytes that are neither
#     whitespace nor digits; else the chunk goes to np.fromstring whole,
#     which raises the same errors, and reads nan and inf, as before.
#   - A token's digits make one integer D and its value is D * 10**e.  The
#     digits are read 8 at a time from little-endian words gathered at the
#     ends of its digit runs (Lemire, Softw. Pract. Exp. 51:1700, 2021).
#   - Clinger's exact case (PLDI 1990): where D < 2**53 and |e| <= 22, D
#     and 10**|e| are exact doubles, so one IEEE multiply or divide rounds
#     D * 10**e correctly.
#   - The round-trip check.  Otherwise, for D of 16 or 17 digits, the
#     candidate c, fl(D) times or over 10**|e|, or else its neighbour, is
#     kept only where _digits17, the writer's kernel, maps c to the
#     token's own 17 digits and decimal exponent X in _LOW_X.._HIGH_X - 1
#     (the digits of 10**X itself excluded, for a c just below 10**X
#     rounds up to them).  Then '%.17g' % c spells the token's number;
#     17 significant digits round-trip a double, so float(token) is c.
#   - Any other token in the grammar, with more digits or an exponent out
#     of these ranges, goes to Python's float, which rounds as numpy's
#     parser does (both call PyOS_string_to_double).
# The chunks are parsed on the calling thread.  On a 2-vCPU Xeon, two
# threads took longer on 256 KiB chunks than one, as every numpy call
# hands the GIL over; 1 MiB chunks, on which two threads did gain, were
# slower per byte than 256 KiB ones on one thread and broke the reader's
# memory bound.  Above 48 KiB of P1(3,60) text the parser beat
# np.fromstring on that machine.

_TEXT_CHUNK_BYTES = 1 << 18
_TEXT_FAST_MIN_BYTES = 48 << 10
_TEXT_CHUNK_VALUES = 1 << 16
_WRITE_CHUNK_VALUES = 1 << 12
_WRITE_FAST_MIN_VALUES = 200
_WHITESPACE = (b" ", b"\n", b"\t", b"\r", b"\v", b"\f")
_NOT_WHITESPACE = re.compile(rb"\S")
# a header integer; ``int`` would also take "1_0" and non-ASCII digits
_DECIMAL = re.compile(r"[+-]?[0-9]+")
_NPY_MAGIC = b"\x93NUMPY"
_U8, _U64 = np.uint8, np.uint64
# spaces before a chunk, so that every window of 8 bytes the parser reads
# starts inside its buffer
_PAD = 24
# an exponent of more than 3 digits, which the numpy path leaves to float
_NO_EXPONENT = 1 << 20
# the low nibbles of the top k bytes of a little-endian word, k = 0..8
_DIGIT_MASKS = np.array([(0x0F0F0F0F0F0F0F0F << 8 * (8 - k)) % 2 ** 64
                         for k in range(9)], np.uint64)
_POW10_U64 = np.array([10 ** k % 2 ** 64 for k in range(25)], np.uint64)
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


def _write_rows(fh, rows) -> None:
    """Write the 2-D float64 array ``rows`` as :func:`_format_rows` does,
    in chunks of about ``_WRITE_CHUNK_VALUES`` values, or below
    ``_WRITE_FAST_MIN_VALUES`` values by one ``'%.17g'`` template."""
    if rows.size < _WRITE_FAST_MIN_VALUES:
        line = b" ".join([b"%.17g"] * rows.shape[1]) + b"\n"
        fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))
        return
    step = max(1, _WRITE_CHUNK_VALUES // rows.shape[1])
    for start in range(0, rows.shape[0], step):
        fh.write(_format_rows(rows[start:start + step]))


# ``'%.17g'`` of a finite x != 0 is D, the 17-digit integer nearest to
# |x| * 10**(16 - X) for the decimal exponent X of x (10**X <= |x| <
# 10**(X+1)), in fixed form for -4 <= X < 17, else as d.ddde-XX, with the
# trailing zeros of D and then a bare point dropped.  For X in -6..16,
# 10**(16 - X) is an exact double, so Dekker's product (Numer. Math.
# 18:224, 1971) gives |x| * 10**(16 - X) exactly as hi + lo, and D is
# hi + rint(lo): hi >= 10**16 > 2**53 is an even integer, so rint's ties
# to even are D's.  No rounding in that range carries to 10**17: the
# largest double below each 10**k, k = -5..17, lies more than half a unit
# of the 17th digit below it.  Other nonzero values go through ``%``.
_LOW_X, _HIGH_X = -6, 17
# the least double >= 10**X for each X (the one nearest 10**-6 is below)
_DECADES = np.array([1.0000000000000002e-06, 1e-05, 1e-04, 1e-03, 1e-02, 1e-01]
                    + [float(10 ** k) for k in range(_HIGH_X + 1)])
_POW10 = np.array([float(10 ** p) for p in range(16 - _LOW_X + 1)])


def _split(a):
    """Veltkamp's split of ``a`` into halves of 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


def _digits17(a, X) -> np.ndarray:
    """D, the 17-digit integer nearest ``a * 10**(16 - X)``, ties to even,
    for each ``a >= 0`` of decimal exponent ``X`` in ``_LOW_X.._HIGH_X - 1``
    (or 0): ``hi + rint(lo)`` from Dekker's exact product ``hi + lo``.  The
    writer's digits and the reader's round-trip check, one copy."""
    b = _POW10.take(16 - X)
    hi = a * b
    (a_high, a_low), (b_high, b_low) = _split(a), _split(b)
    # ((a_high b_high - hi) + a_high b_low + a_low b_high) + a_low b_low,
    # in place
    lo = a_high * b_high
    lo -= hi
    term = a_high * b_low
    lo += term
    lo += np.multiply(a_low, b_high, out=term)
    lo += np.multiply(a_low, b_low, out=term)
    D = hi.astype(np.int64)
    D += np.rint(lo, out=lo).astype(np.int64)
    return D


def _divmod(a, b):
    """``np.divmod(a, b)`` for ``a >= 0`` and ``b > 0``, in less time."""
    q = a // b
    return q, a - q * b


# One value takes 45 bytes of a layout from which a mask keeps its text
# in a few runs: 0 the sign "-"; 1-5 "0.000", the start of fixed form for
# X < 0; 6-22 the 17 digits of D; 23 the point; 24-39 the digits of D but
# the first, again, for after the point; 40-43 "e-0" and the exponent
# digit; 44 the separator, " " or "\n".
_LAYOUT = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e-0  ",
                        np.uint8)


def _layout_mask(X, s, negative) -> np.ndarray:
    """What ``%.17g`` keeps of the layout for X, D's digits up to its last
    nonzero one (``s``, 0 for zero) and the sign."""
    keep = np.zeros(_LAYOUT.size, dtype=bool)
    keep[[0, 44]] = negative, True
    if s == 0:  # zero
        keep[6] = True
    elif X < -4:  # d.ddde-0X
        keep[[6, 23]] = True, s > 1
        keep[24:23 + s] = keep[40:44] = True
    elif X < 0:  # 0.000ddd
        keep[1:2 - X] = keep[6:6 + s] = True
    else:  # ddd.ddd
        keep[6:7 + X] = True
        keep[23] = s > X + 1
        keep[24 + X:23 + s] = True
    return keep


@functools.cache
def _format_tables():
    """Built on first use: q = 0..9999 as 4 ASCII digits in one uint32; how
    many of them run to its last nonzero one; and the layout masks, row
    ((X - _LOW_X) * 18 + s) * 2 + negative for X, s and the sign."""
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
    tails = ((digits != 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    masks = np.array([_layout_mask(X, s, negative) for X in range(_LOW_X, _HIGH_X)
                      for s in range(18) for negative in (False, True)])
    return (digits + 48).view(np.uint32).ravel(), tails, masks


def _format_rows(rows) -> np.ndarray:
    """``'%.17g'`` of each value of the 2-D float64 array ``rows`` as uint8
    text, with " " between the values of a row and "\n" after it."""
    quad_text, quad_tails, masks = _format_tables()
    x = rows.ravel()
    a = np.abs(x)
    slow = ~((a >= _DECADES[0]) & (a < _DECADES[-1])) & (a != 0.0)
    a[slow] = 0.0
    # a lies in [2**(e-1), 2**e) for frexp's exponent e, so X is
    # floor((e-1) log10(2)) or one more; zero takes X = -1
    X = np.floor((np.frexp(a)[1] - 1) * math.log10(2.0)).astype(np.intp)
    X += a >= _DECADES[X + (1 - _LOW_X)]
    first, rest = _divmod(_digits17(a, X), 10 ** 16)
    quads = np.empty((4, x.size), dtype=np.int64)
    for j, half in enumerate(_divmod(rest, 10 ** 8)):
        quads[2 * j], quads[2 * j + 1] = _divmod(half, 10 ** 4)
    tails = quad_tails.take(quads)
    s = np.where(tails, tails + np.arange(1, 17, 4)[:, None], first != 0).max(axis=0)
    buf = np.tile(_LAYOUT, (x.size, 1))
    buf[:, 6] = first + 48
    buf[:, 7:23].view(np.uint32)[:] = buf[:, 24:40].view(np.uint32)[:] = \
        quad_text.take(quads).T
    buf[:, 43] = 48 - X
    buf.reshape(rows.shape[0], -1, _LAYOUT.size)[:, -1, 44] = ord("\n")
    keep = masks.take(((X - _LOW_X) * 18 + s) * 2 + np.signbit(x), axis=0)
    for k in np.flatnonzero(slow):
        text = b"%.17g" % float(x[k])
        buf[k, :len(text)] = np.frombuffer(text, np.uint8)
        keep[k, :-1] = np.arange(_LAYOUT.size - 1) < len(text)
    return buf.ravel()[keep.ravel()]


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

    A body below ``_TEXT_FAST_MIN_BYTES`` goes to :func:`_fromstring`
    whole; a larger one, or one of unknown size (a pipe), to
    :func:`_parse_text` in chunks (:func:`_text_chunks`).  A token numpy
    cannot parse raises :class:`FormatError` "malformed value"; so does one
    that Python's ``float`` takes but numpy does not, such as ``1_000``.
    Without a size to bound it, the result grows as values arrive, so that
    a header alone allocates nothing.
    """
    left = _bytes_left(fh)
    if left is not None and left < _TEXT_FAST_MIN_BYTES:
        parsed = [_fromstring(fh.read())]
    else:
        parsed = (_parse_text(buf, size) for buf, size in _text_chunks(fh))
    # k values take at least 2k - 1 bytes, so a short file allocates less
    out = np.empty(min(count, _TEXT_CHUNK_VALUES if left is None else left // 2 + 1))
    found = 0
    for values in parsed:
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


def _text_chunks(fh):
    """The chunks ``(buf, size)`` of what remains of ``fh``: the text
    ``buf[_PAD:_PAD + size]`` of about ``_TEXT_CHUNK_BYTES``, with spaces
    before and after it.  Each chunk is cut after its last whitespace
    byte, and the token it cuts through is carried into the next chunk."""
    tail = b""
    while True:
        carried = len(tail)
        buf = np.empty(-(-(_PAD + carried + _TEXT_CHUNK_BYTES + 16) // 8) * 8, np.uint8)
        buf[_PAD:_PAD + carried] = np.frombuffer(tail, np.uint8)
        text = memoryview(buf)[_PAD:_PAD + carried + _TEXT_CHUNK_BYTES]
        got = fh.readinto(text[carried:])
        size = carried + got
        if got:
            cut = _after_last_space(text[:size])
            tail, size = text[cut:size].tobytes(), cut
        if size:
            buf[:_PAD] = buf[_PAD + size:] = ord(" ")
            yield buf, size
        if not got:
            return


def _after_last_space(text) -> int:
    """The offset after the last whitespace byte of ``text``, 0 if none."""
    span = 64
    while True:
        piece = text[-span:].tobytes()
        cut = max(piece.rfind(c) for c in _WHITESPACE)
        if cut >= 0:
            return len(text) - len(piece) + cut + 1
        if span >= len(text):
            return 0
        span *= 8


def _fromstring(text):
    """``np.fromstring``'s values of ``text``, or ``None`` when it rejects
    a token.  Whitespace alone holds no value (``np.fromstring`` would
    read one)."""
    if not _NOT_WHITESPACE.search(text):
        return np.empty(0)
    try:
        return np.fromstring(text, sep=" ")
    except ValueError:
        return None


def _parse_text(buf, size):
    """The values of the text ``buf[_PAD:_PAD + size]``, with the bits of
    :func:`_fromstring`'s, or ``None`` where it returns ``None``.

    Tokens in the grammar are parsed in numpy, or by Python's ``float``
    where the numpy path cannot prove its value; a chunk with a token
    outside the grammar goes to :func:`_fromstring` whole.
    """
    tokens = _scan_tokens(buf, size)
    if tokens is None:
        return _fromstring(buf[_PAD:_PAD + size].tobytes())
    values, slow = _token_values(buf, *tokens)
    starts, ends = tokens[:2]
    for k in slow:
        values[k] = float(buf[starts[k]:ends[k]].tobytes())
    return values


def _scan_tokens(buf, size):
    """``(starts, ends, neg, mstart, point, me, exp)`` for the tokens of the
    text ``buf[_PAD:_PAD + size]``, one entry per token in each: its first
    byte and the byte after it, its sign, the first byte of its mantissa,
    its point (``mstart - 1`` where it has none), the end of its mantissa
    and its exponent (``_NO_EXPONENT`` where it has more than 3 digits);
    ``None`` when a token is outside the grammar.

    Every byte that is neither whitespace nor a digit must be a leading
    sign, the one point of a mantissa, the one ``e`` or ``E`` after it, or
    a sign right after that ``e``; their count proves it.  They are sought
    where the writer puts them, which holds for a value of one integer
    digit and for an exponent of two digits, and in the whole chunk only
    when that misses one.  Every chunk of P1, P2, P4 and P5 at (3,60) as
    written hits, and the search alone parses them in 1.2 to 1.4 times the
    time.
    """
    text = buf[_PAD - 1:_PAD + size + 1]
    mask = text <= 32
    gaps = np.flatnonzero(mask) + (_PAD - 1)
    gap = buf.take(gaps)
    if not np.all((gap == 32) | (gap - _U8(9) < 5)):
        return None  # a control byte that is not whitespace
    np.less(np.subtract(text, _U8(48), out=mask.view(np.uint8)), 10, out=mask)
    specials = text.size - gaps.size - np.count_nonzero(mask)
    del mask
    starts, ends = gaps[:-1] + 1, gaps[1:]
    if not np.all(ends > starts):
        keep = ends > starts
        starts, ends = starts[keep], ends[keep]
    first = buf.take(starts)
    neg = first == 45
    mstart = starts + (neg | (first == 43))
    point, e = mstart + 1, ends - 4
    is_point = (point < ends) & (buf.take(point) == 46)
    is_e = (e >= mstart) & (buf.take(e) | _U8(32) == 101)
    e_sign = _is_sign(buf.take(e + 1)) & is_e
    if _count(mstart - starts, is_point, is_e, e_sign) != specials:
        found = [_one_per_token(hit, ends) for hit in (text == 46, text | _U8(32) == 101)]
        if found[0] is None or found[1] is None:
            return None
        (is_point, point), (is_e, e) = found
        e_sign = _is_sign(buf.take(e + 1)) & is_e
        if _count(mstart - starts, is_point, is_e, e_sign) != specials:
            return None
    me = np.where(is_e, e, ends)
    point = np.where(is_point, point, mstart - 1)
    digits = e + 1 + e_sign
    if (np.any(point >= me) or np.any(me - mstart - is_point < 1)
            or np.any(is_e & (digits >= ends))):
        return None
    exp = np.zeros(starts.size, np.int64)
    if is_e.any():
        k = np.flatnonzero(is_e)
        last, count = ends[k], ends[k] - digits[k]
        x = np.zeros(k.size, np.int64)
        for j in range(3):
            digit = buf.take(last - 1 - j).astype(np.int64) - 48
            x += np.where(j < count, digit, 0) * 10 ** j
        x[count > 3] = _NO_EXPONENT
        exp[k] = np.where(buf.take(e[k] + 1) == 45, -x, x)
    return starts, ends, neg, mstart, point, me, exp


def _count(*masks) -> int:
    return sum(np.count_nonzero(m) for m in masks)


def _is_sign(byte) -> np.ndarray:
    return (byte == 43) | (byte == 45)


def _one_per_token(hit, ends):
    """``(has, where)`` for the bytes of the text where ``hit`` is set:
    whether each token holds one and where; ``None`` when one holds two."""
    hits = np.flatnonzero(hit) + (_PAD - 1)
    tok = np.searchsorted(ends, hits, "right")
    if np.any(tok[1:] == tok[:-1]):
        return None
    has = np.zeros(ends.size, bool)
    where = np.zeros(ends.size, np.intp)
    has[tok], where[tok] = True, hits
    return has, where


def _token_values(buf, starts, ends, neg, mstart, point, me, exp):
    """The values of the tokens :func:`_scan_tokens` found, and the indices
    of those the numpy path leaves to Python's ``float``."""
    frac_len = me - point - 1
    int_len = point - mstart  # -1 where there is no point
    frac, top = _digit_runs(buf, me, frac_len, 3)
    whole = np.where(int_len == 1, buf.take(point - 1) - _U8(48), _U8(0)).astype(np.uint64)
    wide = np.flatnonzero(int_len > 1)
    if wide.size:
        whole[wide] = _digit_runs(buf, point[wide], int_len[wide], 3)[0]
    # D, the mantissa's digits as one integer, does not wrap where it fits
    fits = ((frac_len <= 24) & (int_len <= 19) & (top < 10)
            & ((whole == 0) | (int_len + frac_len <= 18)))
    D = whole * _POW10_U64.take(np.minimum(frac_len, 24))
    D += frac
    exp -= np.where(int_len >= 0, frac_len, 0)
    # each array goes as soon as it is used: they make most of the
    # reader's peak memory
    del frac, top, whole, frac_len, int_len
    # Clinger's exact case: one IEEE operation on exact operands
    size = np.abs(exp)
    exact = fits & (D < _U64(2 ** 53)) & (size <= 22)
    power = _POW10.take(np.minimum(size, 22))
    del size
    value = D.astype(float)
    up = exp > 0
    np.multiply(value, power, out=value, where=up)
    np.divide(value, power, out=value, where=~up)
    del power, up
    # otherwise the round-trip check: D of 16 or 17 digits, where D >= 2**53
    # here, read as %.17g writes a value, 17 digits D17 and the decimal
    # exponent X; the value stands where the writer's kernel gives it D17
    short = D < _U64(10 ** 16)
    D17 = np.where(short, D * _U64(10), D).view(np.int64)
    X = exp + 16 - short
    checked = (fits & ~exact & (D < _U64(10 ** 17)) & (X >= _LOW_X) & (X < _HIGH_X)
               & (D17 != 10 ** 16))
    del short, D, fits
    X[~checked] = 0
    got = _digits17(np.where(checked, value, 1.0), X)
    good = exact | (checked & (got == D17))
    # a candidate one unit in the last place off gives way to its neighbour
    miss = np.flatnonzero(checked & ~good)
    if miss.size:
        near = np.nextafter(value[miss], np.where(got[miss] < D17[miss], np.inf, 0.0))
        hit = _digits17(near, X[miss]) == D17[miss]
        value[miss[hit]] = near[hit]
        good[miss[hit]] = True
    np.negative(value, out=value, where=neg)
    return value, np.flatnonzero(~good)


def _digit_runs(buf, end, length, rows):
    """``(value, top)``: the integer of the ``length`` ASCII digits that end
    at each byte offset ``end``, for up to ``8 * rows`` digits, and that of
    the leftmost 8 places; ``value`` wraps where it has over 19 digits.

    Each row of 8 places is the little-endian word of ``buf`` at its
    offset, from the two aligned words that hold it; a mask keeps the
    token's own digits, each in its low nibble, and :func:`_swar_digits`
    adds them up.
    """
    at = end - 8 * rows
    words = buf[:buf.size // 8 * 8].view("<u8").take(
        (at >> 3) + np.arange(rows + 1)[:, None])
    low = (at & 7).astype(np.uint64) << _U64(3)
    high = _U64(56) - low  # two shifts, so that none reaches 64 bits
    runs = words[:-1] >> low
    part = words[1:] << high
    part <<= _U64(8)
    runs |= part
    del words, part
    runs &= _run_masks(rows).take(np.minimum(length, 8 * rows), axis=1)
    _swar_digits(runs)
    value = runs[0].copy()
    for run in runs[1:]:
        value *= _U64(10 ** 8)
        value += run
    return value, runs[0]


@functools.cache
def _run_masks(rows) -> np.ndarray:
    """Built on first use: the mask of each row of :func:`_digit_runs` for
    each length 0..8 * rows, which keeps the row's share of the last
    ``length`` places."""
    kept = np.arange(8 * rows + 1) - 8 * np.arange(rows - 1, -1, -1)[:, None]
    return _DIGIT_MASKS.take(np.clip(kept, 0, 8))


def _swar_digits(words) -> None:
    """Turn each word of 8 digit values (0-9), the first in its lowest
    byte, into their 8-digit integer, in place (Lemire 2021, section 5)."""
    words *= _U64(10 * 256 + 1)
    words >>= _U64(8)
    words &= _U64(0x00FF00FF00FF00FF)
    words *= _U64(100 * 65536 + 1)
    words >>= _U64(16)
    words &= _U64(0x0000FFFF0000FFFF)
    words *= _U64(10000 * 2 ** 32 + 1)
    words >>= _U64(32)


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
