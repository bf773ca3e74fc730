"""Storage, contraction, and structure checks against brute-force oracles."""

import itertools

import numpy as np
import pytest

from mteq import (FormatError, Tensor, dense_cap, hadamard_power, m_splitting,
                  nqz_spectral_radius, read_tensor, read_vector, write_tensor,
                  write_vector)
from mteq import tensor
from mteq.problems import gen_problem1, gen_problem4, gen_problem5, symmetrize_full

from oracles import (apply_loops, coo_apply_prod, coo_jacobian_add_at,
                     jacobian_loops)
from test_evaluation import (reference_apply, reference_jacobian,
                             reference_partial)


def random_dense(m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n,) * m)


@pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (5, 3)])
def test_apply_matches_loops(m, n):
    arr = random_dense(m, n, seed=m * 10 + n)
    x = np.random.default_rng(7).uniform(0.5, 2.0, size=n)
    t = Tensor.from_dense(arr)
    expect = apply_loops(arr, x)
    assert np.allclose(t.apply(x), expect, rtol=1e-13, atol=0)
    assert np.allclose(t.to_coo().apply(x), expect, rtol=1e-13, atol=0)


@pytest.mark.parametrize("m,n", [(3, 4), (4, 3)])
def test_jacobian_matches_loops(m, n):
    arr = random_dense(m, n, seed=m * 100 + n)
    x = np.random.default_rng(11).uniform(0.5, 2.0, size=n)
    expect = jacobian_loops(arr, x)
    t = Tensor.from_dense(arr)
    assert np.allclose(t.jacobian_matrix(x), expect, rtol=1e-12, atol=1e-14)
    assert np.allclose(t.to_coo().jacobian_matrix(x), expect, rtol=1e-12, atol=1e-14)


def test_dense_values_is_a_read_only_view():
    arr = random_dense(3, 4, seed=5)
    t = Tensor.from_dense(arr)
    view = t.dense_values
    assert np.shares_memory(view, arr)
    assert np.array_equal(view, arr)
    with pytest.raises(ValueError):
        view[0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        t.to_coo().dense_values


def test_identity_apply_and_diagonal():
    t = Tensor.identity(4, 3)
    x = np.array([1.0, 2.0, 0.5])
    assert np.array_equal(t.apply(x), x ** 3)
    assert np.array_equal(t.diagonal(), np.ones(3))
    assert t.is_z_tensor()
    assert t.is_diag_dominant()
    # dense storage of the same tensor behaves identically
    td = Tensor.identity(4, 3).to_dense()
    assert np.array_equal(td.apply(x), x ** 3)


def test_identity_small_values():
    # m=4: (2, 3) -> (8, 27)
    t = Tensor.identity(4, 2)
    assert np.array_equal(t.apply(np.array([2.0, 3.0])), np.array([8.0, 27.0]))


def test_semi_symmetry_is_read_from_the_entries():
    entries = gen_problem4(3, 6, 0).A.to_dense_array()
    raw = Tensor.from_dense(entries)
    assert raw.is_exactly_semi_symmetric() is False
    sym = Tensor.from_dense(symmetrize_full(entries.copy()))
    assert sym.is_exactly_semi_symmetric() is True
    assert sym.to_coo().is_exactly_semi_symmetric() is True


SHAPES = [(2, 5), (3, 1), (3, 7), (4, 5), (5, 4)]


def signed_dense(m, n, seed):
    """Random entries of both signs, with some exact zeros of both signs."""
    arr = random_dense(m, n, seed)
    arr[arr > 0.8] = 0.0
    arr[arr < -0.8] = -0.0
    return arr


@pytest.mark.parametrize("slabs", [1, 2, 3, None])
@pytest.mark.parametrize("m,n", SHAPES)
def test_partial_and_jacobian_matches_stand_alone_kernels_bitwise(
        monkeypatch, m, n, slabs):
    arr = signed_dense(m, n, seed=m * 7 + n)
    if slabs is not None:  # else one block holds every slab
        monkeypatch.setattr(tensor, "_FUSED_BLOCK_BYTES", slabs * arr[0].nbytes)
    t = Tensor.from_dense(arr)
    x = np.random.default_rng(n).uniform(0.5, 2.0, size=n)
    image, jac = t.image_and_jacobian(x)
    assert image.tobytes() == reference_apply(arr, x).tobytes()
    assert jac.tobytes() == reference_jacobian(arr, x).tobytes()
    assert image.tobytes() == t.apply(x).tobytes()
    assert jac.tobytes() == t.jacobian_matrix(x).tobytes()
    coo = t.to_coo()
    image, jac = coo.image_and_jacobian(x)
    assert jac is None
    assert image.tobytes() == coo.apply(x).tobytes()


def exactly_symmetric(a):
    """``a`` with each entry replaced by the one at its sorted trailing
    indices: every trailing permutation leaves every entry equal."""
    idx = np.indices(a.shape)
    return a[(idx[0],) + tuple(np.sort(idx[1:], axis=0))]


def all_permutations_equal(a):
    """Whether every trailing permutation but the identity leaves every
    entry equal (``==``)."""
    perms = list(itertools.permutations(range(a.ndim - 1)))[1:]
    return all(np.array_equal(a, a.transpose((0,) + tuple(q + 1 for q in p)))
               for p in perms)


@pytest.mark.parametrize("m,n", SHAPES)
def test_exact_semi_symmetry_is_read_from_the_entries(m, n):
    raw = signed_dense(m, n, seed=m * 3 + n)
    sym = exactly_symmetric(raw)
    last = (n - 1,) * (m - 1) + (0,)
    ulp = sym.copy()
    ulp[last] = np.nextafter(ulp[last], 1.0)  # one entry of an orbit moves
    # 0.0 == -0.0: an orbit of zeros of both signs is symmetric
    zeros = raw.copy()
    zeros[(n - 1, 0) + (n - 1,) * (m - 2)] = 0.0
    signed_zero = exactly_symmetric(zeros)
    signed_zero[last] = -0.0
    nan = sym.copy()
    nan[(0,) * m] = np.nan
    for arr in (raw, sym, ulp, signed_zero, nan):
        want = all_permutations_equal(arr)
        dense = Tensor.from_dense(arr)
        assert dense.is_exactly_semi_symmetric() is want
        assert dense.to_coo().is_exactly_semi_symmetric() is want
    assert all_permutations_equal(sym) and all_permutations_equal(signed_zero)
    if m > 2:
        assert not all_permutations_equal(nan)
        assert not all_permutations_equal(ulp) or n == 1


@pytest.mark.parametrize("m,n", [(3, 7), (4, 5), (5, 4)])
def test_exact_symmetry_gives_the_jacobian_from_one_slot_term(m, n):
    arr = exactly_symmetric(signed_dense(m, n, seed=m + 2 * n))
    x = np.random.default_rng(n).uniform(0.5, 2.0, size=n)
    dense = Tensor.from_dense(arr)
    coo = dense.to_coo()
    # dense: (m-1) M with M = A x^{m-2}
    first = reference_partial(arr, x)
    assert dense.jacobian_matrix(x).tobytes() == ((m - 1) * first).tobytes()
    image, jac = dense.image_and_jacobian(x)
    assert image.tobytes() == dense.apply(x).tobytes()
    assert jac.tobytes() == ((m - 1) * first).tobytes()
    # COO: one np.add.at of the first slot term, then times m-1
    one = coo_jacobian_add_at(coo.coo_indices, coo.coo_values, n, x, True)
    assert coo.jacobian_matrix(x).tobytes() == one.tobytes()
    # both equal the slot sum to rounding
    for t in (dense, coo):
        assert np.allclose(t.jacobian_matrix(x), reference_jacobian(arr, x),
                           rtol=1e-13, atol=1e-15)


def _coo_kernel_cases():
    """COO tensors of order 2 to 5 whose values span many magnitudes: a
    random index set (no symmetry at m >= 3), the same made exactly
    symmetric in the trailing indices, and one with no entries."""
    rng = np.random.default_rng(2024)
    for m, n in [(2, 6), (3, 5), (4, 4), (5, 3)]:
        arr = np.zeros((n,) * m)
        flat = rng.choice(arr.size, size=arr.size // 2, replace=False)
        arr.flat[flat] = rng.uniform(-1, 1, flat.size) * 10.0 ** rng.integers(
            -6, 6, flat.size)
        for dense in (arr, exactly_symmetric(arr)):
            t = Tensor.from_dense(dense).to_coo()
            yield f"{m}-{n}-{t.is_exactly_semi_symmetric()}", t
        yield f"{m}-{n}-empty", Tensor.from_coo(m, n, np.zeros((0, m)), [])


def _coo_kernel_points(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-2, 2, n) * 10.0 ** rng.integers(-3, 3, n)
    special = x.copy()
    special[: min(n, 3)] = [-0.0, np.inf, np.nan][: min(n, 3)]
    return [x, special]


def _nan_free_bits(a):
    # where the inputs hold inf or nan, np.add.at on a 2-D index and
    # np.bincount keep the NaN of different terms, which may differ in
    # sign; every other bit is pinned
    return np.where(np.isnan(a), np.nan, a).tobytes()


def test_coo_kernels_match_prod_and_add_at_bitwise():
    seen = set()
    for label, t in _coo_kernel_cases():
        idx, vals = t.coo_indices, t.coo_values
        seen.add(t.is_exactly_semi_symmetric())
        for x in _coo_kernel_points(t.dim):
            with np.errstate(invalid="ignore", over="ignore"):
                image = coo_apply_prod(idx, vals, t.dim, x)
                jac = coo_jacobian_add_at(idx, vals, t.dim, x,
                                          t.is_exactly_semi_symmetric())
                got_image, got_jac = t.apply(x), t.jacobian_matrix(x)
            assert got_image.dtype == jac.dtype == float, label
            assert got_image.tobytes() == image.tobytes(), label
            if np.isfinite(x).all():
                assert got_jac.tobytes() == jac.tobytes(), label
            assert _nan_free_bits(got_jac) == _nan_free_bits(jac), label
    assert seen == {True, False}


def test_coo_index_columns_are_read_only_and_built_once():
    t = Tensor.from_dense(signed_dense(4, 5, seed=3)).to_coo()
    assert "_columns" not in t._facts
    x = np.linspace(0.5, 2.0, 5)
    t.apply(x)
    cols = t._facts["_columns"]
    t.apply(x)
    t.jacobian_matrix(x)
    t.scaled(2.0).apply(x)
    assert t._columns() is cols
    assert len(cols) == t.order
    for k, c in enumerate(cols):
        assert c.dtype == np.int64 and c.flags.c_contiguous
        assert not c.flags.writeable
        assert np.array_equal(c, t.coo_indices[:, k])
        with pytest.raises(ValueError):
            c[0] = 0


def test_from_coo_rejects_duplicates_and_accepts_unsorted():
    idx = np.array([[1, 0, 0], [0, 1, 1]])
    vals = np.array([2.0, 3.0])
    t = Tensor.from_coo(3, 2, idx, vals)
    assert t.apply(np.array([1.0, 1.0]))[0] == 3.0
    with pytest.raises(ValueError):
        Tensor.from_coo(3, 2, np.array([[0, 1, 1], [0, 1, 1]]), vals)


def test_from_coo_range_check():
    with pytest.raises(ValueError):
        Tensor.from_coo(3, 2, np.array([[0, 2, 0]]), np.array([1.0]))


def test_z_tensor_and_dominance_checks():
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 4.04
    dense[1, 1, 1] += 4.04
    t = Tensor.from_dense(dense)
    assert t.is_z_tensor()
    assert t.is_diag_dominant()  # 3.04 > 3 = off-diagonal row sum
    loose = Tensor.from_dense(np.ones((2, 2, 2)))
    assert not loose.is_z_tensor()


def _old_max_abs(a):
    """The previous definition: the largest entry of an ``np.abs`` copy."""
    return float(np.abs(a).max()) if a.size else 0.0


def _old_is_z_tensor(a):
    """The previous definition: blank the diagonal of a copy, test the rest."""
    off = a.copy()
    off[tuple([np.arange(a.shape[0])] * a.ndim)] = 0.0
    return bool(np.all(off <= 0.0))


def _same_float(a, b):
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return a.hex() == b.hex()


def _generated_tensors():
    from mteq.problems import (gen_problem1, gen_problem2, gen_problem3,
                               gen_problem4, gen_problem5)
    yield "P1", gen_problem1(3, 12, 0).A
    yield "P2", gen_problem2(4, 6, 0).A
    yield "P3", gen_problem3(12).A
    yield "P4", gen_problem4(3, 12, 1).A
    yield "P5", gen_problem5(4, 6, 2).A


def _nonfinite_tensors():
    base = random_dense(3, 4, seed=3)
    base[tuple([np.arange(4)] * 3)] = np.abs(base[tuple([np.arange(4)] * 3)]) + 1.0
    z = -np.abs(base)
    z[tuple([np.arange(4)] * 3)] *= -1.0
    for where, value in (((0, 1, 2), np.nan), ((1, 1, 1), np.nan),
                         ((0, 1, 2), np.inf), ((0, 1, 2), -np.inf),
                         ((2, 2, 2), np.inf), ((3, 0, 0), 0.5)):
        a = z.copy()
        a[where] = value
        yield f"{value} at {where}", a
    yield "all -0.0", np.full((3, 3, 3), -0.0)


def test_max_abs_and_z_sign_match_copying_definitions():
    cases = [(label, t.to_dense_array()) for label, t in _generated_tensors()]
    cases += list(_nonfinite_tensors())
    for label, a in cases:
        dense = Tensor.from_dense(a)
        coo = dense.to_coo()
        for t in (dense, coo):
            assert _same_float(t.max_abs(), _old_max_abs(a)), (label, t.storage)
            assert t.is_z_tensor() == _old_is_z_tensor(a), (label, t.storage)
        # equal values: the implicit zeros of COO storage are +0.0
        assert np.array_equal(coo.diagonal(), dense.diagonal(),
                              equal_nan=True), label
        lows = (coo.min_entry(), dense.min_entry())
        assert lows[0] == lows[1] or np.isnan(lows).all(), label
        assert coo.nnz == dense.nnz, label
    # the generated tensors are Z-tensors; the NaN and inf off the
    # diagonal and the positive entry break the sign pattern
    signs = {label: Tensor.from_dense(a).is_z_tensor() for label, a in cases}
    assert all(signs[f"P{k}"] for k in range(1, 6))
    assert not signs["nan at (0, 1, 2)"] and signs["nan at (1, 1, 1)"]
    assert not signs["inf at (0, 1, 2)"] and signs["-inf at (0, 1, 2)"]
    assert not signs["0.5 at (3, 0, 0)"]


FACTORS = (0.37, 3.0, 1e-300, 1e300)


def _facts(t):
    return (t.max_abs(), t.is_z_tensor(), t.is_diag_dominant(),
            t.is_exactly_semi_symmetric(), t.diagonal())


def _same_facts(got, want):
    return (_same_float(got[0], want[0]) and got[1:4] == want[1:4]
            and got[4].tobytes() == want[4].tobytes())


def _fresh(t):
    """The same entries in a new tensor, with no facts computed yet."""
    if t.is_dense:
        return Tensor.from_dense(t.to_dense_array())
    return Tensor.from_coo(t.order, t.dim, t.coo_indices, t.coo_values)


def test_scaled_carries_facts_equal_to_fresh_ones():
    cases = [(label, t.to_dense_array()) for label, t in _generated_tensors()]
    cases += list(_nonfinite_tensors())
    cases += [("all zeros", np.zeros((3, 3, 3)))]
    for label, a in cases:
        dense = Tensor.from_dense(a)
        for t in (dense, dense.to_coo()):
            _facts(t)
            assert "_ones_record" in t._facts
            for f in FACTORS:
                with np.errstate(over="ignore", invalid="ignore"):
                    s = t.scaled(f)
                    carried = set(s._facts)
                    got, want = _facts(s), _facts(_fresh(s))
                assert _same_facts(got, want), (label, t.storage, f)
                # Z = False, symmetry = False, the dominance test and the
                # record of e it reads are read from the entries
                expect = {"max_abs", "_diagonal"} | {
                    name for name in ("is_z_tensor", "is_exactly_semi_symmetric")
                    if getattr(t, name)()}
                assert carried == expect, (label, t.storage, f)


def test_underflow_makes_a_scaled_tensor_z_from_its_entries():
    a = -np.ones((2, 2, 2))
    a[0, 0, 0] = a[1, 1, 1] = 4.0
    a[0, 1, 0] = 1e-300
    for t in (Tensor.from_dense(a), Tensor.from_dense(a).to_coo()):
        assert not t.is_z_tensor()
        s = t.scaled(1e-300)
        assert s.to_dense_array()[0, 1, 0] == 0.0
        assert s.is_z_tensor()


@pytest.mark.parametrize("factor", [0.0, -0.5, -np.inf, np.inf, np.nan])
def test_scaled_by_zero_negative_or_non_finite_carries_nothing(factor):
    a = random_dense(3, 3, seed=4)
    for t in (Tensor.from_dense(a), Tensor.from_dense(a).to_coo()):
        _facts(t)
        with np.errstate(invalid="ignore"):
            s = t.scaled(factor)
            assert s._facts == {}
            assert _same_facts(_facts(s), _facts(_fresh(s)))


def test_facts_are_computed_once(monkeypatch):
    t = Tensor.from_dense(gen_problem4(3, 6, 0).A.to_dense_array())
    first = _facts(t)
    calls = []
    original = Tensor.apply
    monkeypatch.setattr(Tensor, "apply",
                        lambda self, x: calls.append(x) or original(self, x))
    assert _same_facts(_facts(t), first)
    assert not calls  # the dominance test is not run again
    # the diagonal is handed out as a copy of the cached one
    d = t.diagonal()
    d[:] = 0.0
    assert t.diagonal().tobytes() == first[4].tobytes()


def test_ones_image_is_the_read_only_apply_of_all_ones():
    # the record of e: its image, and on dense storage its Jacobian
    for t in (Tensor.from_dense(random_dense(3, 5, seed=2)),
              Tensor.from_dense(random_dense(4, 3, seed=3)).to_coo()):
        e = np.ones(t.dim)
        record = t._ones_record()
        image, jac = record
        assert image.tobytes() == t.apply(e).tobytes()
        assert not image.flags.writeable
        if t.is_dense:
            assert jac.tobytes() == t.jacobian_matrix(e).tobytes()
            assert not jac.flags.writeable
        else:
            assert jac is None
        assert t._ones_record() is record


def test_from_dense_stores_the_array_read_only():
    arr = random_dense(3, 4, seed=6)
    t = Tensor.from_dense(arr)
    with pytest.raises(ValueError):
        arr[0, 0, 0] = 1.0
    assert t.max_abs() == np.abs(arr).max()
    # an array that needs a conversion is copied; the caller's stays writable
    ints = np.ones((2, 2, 2), dtype=np.int64)
    Tensor.from_dense(ints)
    ints[0, 0, 0] = 2


def test_hadamard_power():
    x = np.array([4.0, 9.0])
    assert np.array_equal(hadamard_power(x, 0.5), np.array([2.0, 3.0]))
    with pytest.raises(ValueError):
        hadamard_power(np.array([-1.0, 1.0]), 0.5)
    # integer powers of negative entries are fine
    assert np.array_equal(hadamard_power(np.array([-2.0]), 2), np.array([4.0]))


def test_m_splitting_reconstructs():
    arr = random_dense(3, 3, seed=9)
    arr = -np.abs(arr)
    for i, d in enumerate((5.0, 3.0, 5.0)):
        arr[i, i, i] = d
    parts = []
    for t in (Tensor.from_dense(arr), Tensor.from_dense(arr).to_coo()):
        s, B = m_splitting(t)
        assert s == 5.0
        assert B.min_entry() >= 0.0
        x = np.array([1.0, 0.5, 2.0])
        assert np.allclose(s * x ** 2 - B.apply(x), t.apply(x), rtol=1e-13, atol=1e-15)
        parts.append(B)
    # the diagonal entries equal to s split to zeros, which COO storage
    # does not store
    assert parts[0].nnz == parts[1].nnz == 25
    assert parts[1].storage == "coo"
    assert parts[0].to_dense_array().tobytes() == parts[1].to_dense_array().tobytes()


@pytest.mark.parametrize("case", ["z", "minus-zero", "positive-off", "signed-diagonal"])
@pytest.mark.parametrize("storage", ["dense", "coo", "coo-sparse"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_splitting_is_nonnegative_exactly_for_a_z_tensor(m, storage, case):
    # mteq verify brackets the spectral radius of the nonnegative part only
    # for a Z-tensor, on this equivalence.  "coo" stores every nonzero
    # entry, "coo-sparse" leaves half of the off-diagonal ones as implicit
    # zeros; both store an off-diagonal -0.0.  The signs of the diagonal
    # do not matter, s is the largest of it, and its zero is implicit in
    # COO storage.
    n = 3
    rng = np.random.default_rng(m)
    arr = -rng.uniform(0.0, 1.0, size=(n,) * m)
    diag = (np.arange(n),) * m
    arr[diag] = rng.uniform(1.0, 2.0, size=n)
    off = (0,) + (1,) * (m - 1)
    if case == "minus-zero":
        arr[off] = -0.0
    elif case == "positive-off":
        arr[off] = 0.5
    elif case == "signed-diagonal":
        arr[diag] = (-1.0, 0.0, 2.0)
    if storage == "dense":
        t = Tensor.from_dense(arr)
    else:
        if storage == "coo-sparse":
            drop = rng.random(arr.shape) < 0.5
            drop[diag] = False
            drop[off] = False
            arr[drop] = 0.0
        keep = (arr != 0.0) | np.signbit(arr)
        idx = np.argwhere(keep)
        t = Tensor.from_coo(m, n, idx, arr[tuple(idx.T)])
        assert t.nnz < n ** m or storage == "coo"
    assert t.is_z_tensor() == (case != "positive-off")
    assert (m_splitting(t)[1].min_entry() >= 0.0) == t.is_z_tensor()


def test_nqz_known_values():
    # all-ones, m=3 n=2: A e^2 = 4 e so rho = 4 with eigenvector e
    lo, hi = nqz_spectral_radius(Tensor.from_dense(np.ones((2, 2, 2))))
    assert lo <= hi
    assert abs(lo - 4.0) < 1e-8 and abs(hi - 4.0) < 1e-8
    # identity: x^{[m-1]} = lambda x^{[m-1]} forces rho = 1
    lo, hi = nqz_spectral_radius(Tensor.identity(3, 4))
    assert abs(lo - 1.0) < 1e-8 and abs(hi - 1.0) < 1e-8
    # zero tensor is a degenerate but legal input
    assert nqz_spectral_radius(Tensor.from_dense(np.zeros((2, 2, 2)))) == (0.0, 0.0)


@pytest.mark.parametrize("m, n", [(3, 8), (4, 6), (5, 4)])
def test_nqz_bracket_scales_with_the_tensor(m, n):
    # the perturbation of a reducible tensor is relative to its largest
    # entry, so scaling the tensor by a power of two scales the bracket
    B = m_splitting(gen_problem5(m, n, seed=0).A)[1]
    lo, hi = nqz_spectral_radius(B)
    for k in (-60, -20, 20, 60):
        f = 2.0 ** k
        slo, shi = nqz_spectral_radius(B.scaled(f))
        assert slo / f == pytest.approx(lo, rel=1e-12, abs=0.0)
        assert shi / f == pytest.approx(hi, rel=1e-12, abs=0.0)


def test_nqz_rejects_negative_entries():
    dense = np.ones((2, 2, 2))
    dense[0, 1, 1] = -1.0
    with pytest.raises(ValueError):
        nqz_spectral_radius(Tensor.from_dense(dense))


def test_tensor_io_round_trip(tmp_path):
    arr = random_dense(3, 4, seed=13)
    t = Tensor.from_dense(arr)
    for variant in (t, t.to_coo()):
        path = tmp_path / f"{variant.storage}.mt"
        write_tensor(path, variant)
        back = read_tensor(path)
        assert back.order == 3 and back.dim == 4
        assert np.array_equal(back.to_dense_array(), variant.to_dense_array())


def test_vector_io_round_trip(tmp_path):
    x = np.array([1.0, -2.5, 3.0e-17, 1.0e100])
    path = tmp_path / "x.vec"
    write_vector(path, x)
    assert np.array_equal(read_vector(path), x)


def test_reader_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.mt"
    bad.write_text("MT9 3 2 dense 8\n" + "0\n" * 8)
    with pytest.raises(FormatError):
        read_tensor(bad)
    short = tmp_path / "short.mt"
    short.write_text("MT1 3 2 dense 8\n1 2 3\n")
    with pytest.raises(FormatError):
        read_tensor(short)
    badvec = tmp_path / "bad.vec"
    badvec.write_text("3\n1.0 2.0\n")
    with pytest.raises(FormatError):
        read_vector(badvec)


def test_dense_cap_env_override(tmp_path, monkeypatch):
    path = tmp_path / "t.mt"
    write_tensor(path, Tensor.from_dense(random_dense(3, 3, seed=2)))
    monkeypatch.setenv("MTEQ_DENSE_CAP", "10")
    assert dense_cap() == 10
    t = Tensor.from_dense(random_dense(3, 3, seed=1)).to_coo()
    with pytest.raises(ValueError):
        t.to_dense()  # 27 entries > cap of 10
    with pytest.raises(FormatError, match="27 entries, above the cap 10"):
        read_tensor(path)
    with pytest.raises(ValueError, match="27 entries, above the cap 10"):
        gen_problem1(3, 3, 0)
    monkeypatch.delenv("MTEQ_DENSE_CAP")
    assert t.to_dense().storage == "dense"
