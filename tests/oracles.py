"""Independent reference implementations used to pin expected values.

Everything here is deliberately slow and direct: nested index loops,
central differences, and bisection.  None of it shares code with the
package under test, so agreement is meaningful.
"""

from itertools import permutations, product

import numpy as np


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
