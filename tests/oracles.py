"""Independent reference implementations used to pin expected values.

Everything here is deliberately slow and direct: nested index loops,
central differences, and bisection.  None of it shares code with the
package under test, so agreement is meaningful.  :class:`CountingTensor`
is the one exception: it delegates to a tensor of the package and counts
the calls that reach its kernels.
"""

import types
from itertools import permutations, product

import numpy as np

# the tensor methods that CountingTensor records
KERNELS = ("apply", "jacobian_matrix", "image_and_jacobian", "diagonal")
# the kernels that contract the tensor with their vector
CONTRACTIONS = ("apply", "image_and_jacobian")


class CountingTensor:
    """Delegates to a tensor and records every call of a method in
    ``KERNELS`` by its argument (``None`` for ``diagonal``).  The tensor's
    other methods run with the counter as ``self``, so the kernels they
    call (the dominance test's ``apply``) are counted too."""

    def __init__(self, tensor):
        self._tensor = tensor
        self.calls = {k: [] for k in KERNELS}

    def __getattr__(self, name):
        attr = getattr(self._tensor, name)
        if name not in KERNELS:
            method = getattr(type(self._tensor), name, None)
            if isinstance(method, types.FunctionType):
                return types.MethodType(method, self)
            return attr

        def counted(*args, **kwargs):
            self.calls[name].append(np.array(args[0]) if args else None)
            return attr(*args, **kwargs)
        return counted

    def reset(self):
        for calls in self.calls.values():
            calls.clear()

    def at(self, x):
        """Number of contractions of the tensor with ``x``."""
        return sum(np.array_equal(v, x) for k in CONTRACTIONS
                   for v in self.calls[k])

    def applied_at_records(self):
        """Number of ``apply`` calls at a point that a record contracted."""
        return sum(np.array_equal(v, x) for v in self.calls["apply"]
                   for x in self.calls["image_and_jacobian"])


def apply_loops(dense, x):
    """Contraction (A x^{m-1})_i by explicit summation over all indices."""
    dense = np.asarray(dense, dtype=float)
    x = np.asarray(x, dtype=float)
    m = dense.ndim
    n = dense.shape[0]
    out = np.zeros(n)
    for idx in product(range(n), repeat=m):
        v = dense[idx]
        if v == 0.0:
            continue
        prod = 1.0
        for j in idx[1:]:
            prod *= x[j]
        out[idx[0]] += v * prod
    return out


def jacobian_loops(dense, x):
    """d/dx_j of (A x^{m-1})_i by the product rule, one slot at a time."""
    dense = np.asarray(dense, dtype=float)
    x = np.asarray(x, dtype=float)
    m = dense.ndim
    n = dense.shape[0]
    jac = np.zeros((n, n))
    for idx in product(range(n), repeat=m):
        v = dense[idx]
        if v == 0.0:
            continue
        trailing = idx[1:]
        for slot in range(m - 1):
            prod = 1.0
            for q, j in enumerate(trailing):
                if q != slot:
                    prod *= x[j]
            jac[idx[0], trailing[slot]] += v * prod
    return jac


def fd_jacobian(func, y, h=1e-6):
    """Central-difference Jacobian of a vector-valued func at y."""
    y = np.asarray(y, dtype=float)
    n = y.size
    f0 = np.asarray(func(y))
    jac = np.zeros((f0.size, n))
    for j in range(n):
        step = h * max(1.0, abs(y[j]))
        yp = y.copy()
        ym = y.copy()
        yp[j] += step
        ym[j] -= step
        jac[:, j] = (np.asarray(func(yp)) - np.asarray(func(ym))) / (2.0 * step)
    return jac


def _bisect(func, lo, hi, tol=1e-13, max_iter=300):
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        if fm == 0.0 or hi - lo < tol * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def two_var_bisection(dense, b, hi=100.0):
    """Positive root of (A x^{m-1}) = b for n = 2 by nested bisection.

    The inner solve finds x2 > 0 from row 2 at fixed x1 (one positive
    root for the tensors used in the tests: row value is negative at
    x2 = 0 and grows without bound), the outer solve then drives row 1.
    """
    dense = np.asarray(dense, dtype=float)
    b = np.asarray(b, dtype=float)

    def inner(x1):
        def row2(x2):
            return apply_loops(dense, np.array([x1, x2]))[1] - b[1]
        return _bisect(row2, 0.0, hi)

    def outer(x1):
        x2 = inner(x1)
        return apply_loops(dense, np.array([x1, x2]))[0] - b[0]

    x1 = _bisect(outer, 0.0, hi)
    return np.array([x1, inner(x1)])


def missing_rows_blocks(dense, i_plus, i_zero):
    """Zero rows without a coupling entry, by copying each row's whole
    ``I+`` block: the dense test of ``check_assumption`` before it scanned
    rows."""
    dense = np.asarray(dense)
    i_plus = np.asarray(i_plus, dtype=np.int64)
    block = tuple([i_plus] * (dense.ndim - 1))
    missing = []
    for i in i_zero:
        sub = dense[int(i)][np.ix_(*block)] if i_plus.size else np.zeros(0)
        if not np.any(sub != 0.0):
            missing.append(int(i))
    return tuple(missing)


def symmetrize_whole_array(dense):
    """The average over all permutations of the axes, as whole-array sums
    from zeros in ``itertools.permutations`` order, divided by their
    number; then every entry takes the value at its sorted index tuple."""
    a = np.asarray(dense, dtype=float)
    perms = list(permutations(range(a.ndim)))
    sums = np.zeros_like(a)
    for p in perms:
        sums += a.transpose(p)
    sums /= len(perms)
    at_sorted = np.sort(np.indices(a.shape).reshape(a.ndim, -1), axis=0)
    return sums[tuple(at_sorted)].reshape(a.shape)


def coo_apply_prod(idx, vals, n, x):
    """COO contraction as one ``np.prod`` over the gathered trailing
    columns, then ``np.bincount`` by the leading index."""
    if not vals.size:
        return np.zeros(n)
    terms = vals * np.prod(x[idx[:, 1:]], axis=1)
    return np.bincount(idx[:, 0], weights=terms, minlength=n)


def coo_jacobian_add_at(idx, vals, n, x, symmetric):
    """COO derivative matrix slot by slot: ``np.delete`` the slot's column,
    ``np.prod`` the others, ``np.add.at`` into zeros; with ``symmetric``
    the first slot term alone, times ``m-1``."""
    m = idx.shape[1]
    jac = np.zeros((n, n))
    cols = idx[:, 1:]
    xs = x[cols]
    for p in range(1 if symmetric else m - 1):
        others = vals * np.prod(np.delete(xs, p, axis=1), axis=1)
        np.add.at(jac, (idx[:, 0], cols[:, p]), others)
    if symmetric:
        jac *= m - 1
    return jac


def stencil_coo(n):
    """P3's COO input, row by row: the two boundary entries, then for each
    interior row i its diagonal entry and six ``-1/3`` neighbour tuples."""
    rows = [(0, 0, 0, 0, 1.0), (n - 1, n - 1, n - 1, n - 1, 1.0)]
    for i in range(1, n - 1):
        rows.append((i, i, i, i, 2.0))
        for tup in ((i, i - 1, i, i), (i, i, i - 1, i), (i, i, i, i - 1),
                    (i, i + 1, i, i), (i, i, i + 1, i), (i, i, i, i + 1)):
            rows.append(tup + (-1.0 / 3.0,))
    return (np.array([r[:4] for r in rows], dtype=np.int64),
            np.array([r[4] for r in rows]))


def certificate_sweeps(apply, diag, max_abs, m, rhs=None, depth=5,
                       max_sweeps=100_000):
    """``(u, sweeps, A u^{m-1})`` of the Anderson-accelerated splitting
    sweeps, written out step by step: sweep 0 applies ``apply`` at the
    all-ones vector, each later sweep at the new iterate.  Returns ``None``
    where the sweeps fail or the cap runs out."""
    n = diag.size
    e = np.ones(n)
    target = e if rhs is None else np.asarray(rhs, dtype=float)
    floor = np.maximum(1e-12 * max(1.0, max_abs), 0.1 * target)
    x = xm = e
    z = np.zeros(n)
    d_res = np.empty((n, depth))
    d_val = np.empty((n, depth))
    stored = 0
    last = None
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(max_sweeps + 1):
            ax = apply(x)
            if not np.all(np.isfinite(ax)):
                return None
            if np.all(ax > floor):
                return x, sweep, ax
            if sweep == max_sweeps:
                return None
            num = target + diag * xm - ax
            if np.any(num <= 0.0):
                return None
            w = num / diag
            g = np.log(w)
            if not np.all(np.isfinite(g)):
                return None
            res = g - z
            if last is not None:
                slot = stored % depth
                d_res[:, slot] = res - last[0]
                d_val[:, slot] = g - last[1]
                stored += 1
            last = res, g
            z, xm = g, w
            if stored:
                cols = min(stored, depth)
                mixed = None
                try:
                    gamma = np.linalg.lstsq(d_res[:, :cols], res, rcond=None)[0]
                except np.linalg.LinAlgError:
                    gamma = None
                if gamma is not None:
                    zm = g - d_val[:, :cols] @ gamma
                    em = np.exp(zm)
                    if np.all(np.isfinite(em) & (em > 0.0)):
                        mixed = zm, em
                if mixed is None:
                    stored = 0
                else:
                    z, xm = mixed
            x = xm ** (1.0 / (m - 1))
    return None


def percent_tensor_text(t):
    """The ``.mt`` text of tensor ``t`` from one ``%`` template per row:
    ``'%.17g'`` per dense value, one line per row of the last index, and
    for COO one line of ``'%d'`` indices plus 1 and a ``'%.17g'`` value."""
    if t.is_dense:
        n = t.dim
        line = " ".join(["%.17g"] * n) + "\n"
        rows = t.dense_values.reshape(-1, n).tolist()
        head = f"MT1 {t.order} {n} dense {n ** t.order}\n"
    else:
        m = t.order
        line = "%d " * m + "%.17g\n"
        rows = np.column_stack([t.coo_indices + 1, t.coo_values]).tolist()
        head = f"MT1 {m} {t.dim} coo {len(rows)}\n"
    return (head + "".join(line % tuple(row) for row in rows)).encode()


def percent_vector_text(x):
    """The ``.vec`` text of ``x``: its length, then ``'%.17g'`` per line."""
    x = np.asarray(x, dtype=float).ravel().tolist()
    return (f"{len(x)}\n" + "".join("%.17g\n" % v for v in x)).encode()
