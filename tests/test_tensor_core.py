"""Storage, contraction, and structure checks against brute-force oracles."""

import itertools

import numpy as np
import pytest

from mteq import (FormatError, Tensor, dense_cap, hadamard_power, m_splitting,
                  nqz_spectral_radius, read_tensor, read_vector, write_tensor,
                  write_vector)
from mteq import tensor
from mteq.problems import gen_problem1, gen_problem4
from mteq.tensor import SEMI_SYMMETRY_TOL

from oracles import apply_loops, jacobian_loops
from test_evaluation import reference_jacobian, reference_partial


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
    with pytest.raises(ValueError):
        t.to_coo().dense_values


def test_identity_apply_and_diagonal():
    t = Tensor.identity(4, 3)
    x = np.array([1.0, 2.0, 0.5])
    assert np.array_equal(t.apply(x), x ** 3)
    assert np.array_equal(t.diagonal(), np.ones(3))
    assert t.is_z_tensor()
    assert t.is_diag_dominant()
    # dense storage of the same tensor behaves identically
    td = Tensor.identity(4, 3, storage="dense")
    assert np.array_equal(td.apply(x), x ** 3)


def test_identity_small_values():
    # m=4: (2, 3) -> (8, 27)
    t = Tensor.identity(4, 2)
    assert np.array_equal(t.apply(np.array([2.0, 3.0])), np.array([8.0, 27.0]))


def test_semi_symmetrize_preserves_apply_and_jacobian():
    arr = random_dense(3, 4, seed=42)
    t = Tensor.from_dense(arr)
    s = t.semi_symmetrize()
    assert s.is_semi_symmetric()
    x = np.random.default_rng(3).uniform(0.5, 1.5, size=4)
    # averaging over trailing-index permutations changes entries but not
    # the contraction, hence not its gradient either
    assert np.allclose(s.apply(x), t.apply(x), rtol=1e-13, atol=0)
    assert np.allclose(s.jacobian_matrix(x), t.jacobian_matrix(x),
                       rtol=1e-12, atol=1e-14)


def test_semi_symmetry_is_read_from_the_entries():
    raw = Tensor.from_dense(gen_problem4(3, 6, 0).A.to_dense_array())
    assert raw.is_semi_symmetric() is False
    sym = raw.semi_symmetrize()
    assert sym is not raw
    assert sym.is_semi_symmetric() is True
    assert raw.is_semi_symmetric() is False
    # symmetric entries still give a new tensor, equal to the old one
    again = sym.semi_symmetrize()
    assert again is not sym
    assert np.allclose(again.to_dense_array(), sym.to_dense_array(),
                       rtol=1e-15, atol=0)


def test_semi_symmetrize_coo_matches_dense():
    arr = random_dense(3, 3, seed=5)
    dense_sym = Tensor.from_dense(arr).semi_symmetrize().to_dense_array()
    coo_sym = Tensor.from_dense(arr).to_coo().semi_symmetrize().to_dense_array()
    assert np.allclose(dense_sym, coo_sym, rtol=1e-13, atol=1e-16)


SHAPES = [(2, 5), (3, 1), (3, 7), (4, 5), (5, 4)]


def signed_dense(m, n, seed):
    """Random entries of both signs, with some exact zeros of both signs."""
    arr = random_dense(m, n, seed)
    arr[arr > 0.8] = 0.0
    arr[arr < -0.8] = -0.0
    return arr


def whole_array_semi_symmetrize(a):
    """Sum of whole transposed views from zeros, then one division."""
    perms = list(itertools.permutations(range(1, a.ndim)))
    acc = np.zeros_like(a)
    for p in perms:
        acc += np.transpose(a, (0,) + p)
    return acc / len(perms)


@pytest.mark.parametrize("slabs", [1, 2, 3, None])
@pytest.mark.parametrize("m,n", SHAPES)
def test_partial_and_jacobian_matches_stand_alone_kernels_bitwise(
        monkeypatch, m, n, slabs):
    arr = signed_dense(m, n, seed=m * 7 + n)
    if slabs is not None:  # else one block holds every slab
        monkeypatch.setattr(tensor, "_FUSED_BLOCK_BYTES", slabs * arr[0].nbytes)
    t = Tensor.from_dense(arr)
    x = np.random.default_rng(n).uniform(0.5, 2.0, size=n)
    M, jac = t.partial_and_jacobian(x)
    assert M.tobytes() == reference_partial(arr, x).tobytes()
    assert jac.tobytes() == reference_jacobian(arr, x).tobytes()
    assert M.tobytes() == t.partial_contraction(x).tobytes()
    assert jac.tobytes() == t.jacobian_matrix(x).tobytes()
    assert (M @ x).tobytes() == t.apply(x).tobytes()
    with pytest.raises(ValueError):
        t.to_coo().partial_and_jacobian(x)


@pytest.mark.parametrize("m,n", SHAPES)
def test_semi_symmetrize_by_slabs_matches_whole_array_sums_bitwise(m, n):
    arr = signed_dense(m, n, seed=m * 5 + n)
    sym = Tensor.from_dense(arr).semi_symmetrize().dense_values
    assert sym.tobytes() == whole_array_semi_symmetrize(arr).tobytes()


@pytest.mark.parametrize("m,n", [(3, 6), (4, 4)])
def test_is_semi_symmetric_by_slabs_matches_whole_array_comparison(m, n):
    def whole_array(a):
        tol = SEMI_SYMMETRY_TOL * max(1.0, float(np.max(np.abs(a))))
        return bool(np.max(np.abs(a - whole_array_semi_symmetrize(a))) <= tol)

    raw = signed_dense(m, n, seed=m + n)
    sym = whole_array_semi_symmetrize(raw)
    last = (n - 1,) * m
    near = sym.copy()
    near[last[:-2] + (0, n - 1)] += 0.5 * SEMI_SYMMETRY_TOL
    far = sym.copy()
    far[last[:-2] + (0, n - 1)] += 4.0 * SEMI_SYMMETRY_TOL
    cases = {"raw": (raw, False), "sym": (sym, True), "near": (near, True),
             "far": (far, False)}
    for name, (arr, want) in cases.items():
        assert whole_array(arr) is want, name
        assert Tensor.from_dense(arr).is_semi_symmetric() is want, name
    bad = sym.copy()
    bad[last] = np.nan
    assert Tensor.from_dense(bad).is_semi_symmetric() is False


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
        for t in (dense, dense.to_coo()):
            assert _same_float(t.max_abs(), _old_max_abs(a)), (label, t.storage)
            assert t.is_z_tensor() == _old_is_z_tensor(a), (label, t.storage)
    # the generated tensors are Z-tensors; the NaN and inf off the
    # diagonal and the positive entry break the sign pattern
    signs = {label: Tensor.from_dense(a).is_z_tensor() for label, a in cases}
    assert all(signs[f"P{k}"] for k in range(1, 6))
    assert not signs["nan at (0, 1, 2)"] and signs["nan at (1, 1, 1)"]
    assert not signs["inf at (0, 1, 2)"] and signs["-inf at (0, 1, 2)"]
    assert not signs["0.5 at (3, 0, 0)"]


FACTORS = (0.37, 3.0, 1e-300, 1e300)


def _facts(t):
    return (t.max_abs(), t.is_z_tensor(), t.is_diag_dominant(), t.diagonal())


def _same_facts(got, want):
    return (_same_float(got[0], want[0]) and got[1:3] == want[1:3]
            and got[3].tobytes() == want[3].tobytes())


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
            assert "_ones_image" in t._facts
            for f in FACTORS:
                with np.errstate(over="ignore", invalid="ignore"):
                    s = t.scaled(f)
                    carried = set(s._facts)
                    got, want = _facts(s), _facts(_fresh(s))
                assert _same_facts(got, want), (label, t.storage, f)
                # Z = False, the dominance test and the image A e^{m-1} it
                # reads are read from the entries
                expect = {"max_abs", "_diagonal"} | (
                    {"is_z_tensor"} if t.is_z_tensor() else set())
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
    assert t.diagonal().tobytes() == first[3].tobytes()


def test_ones_image_is_the_read_only_apply_of_all_ones():
    for t in (Tensor.from_dense(random_dense(3, 5, seed=2)),
              Tensor.from_dense(random_dense(4, 3, seed=3)).to_coo()):
        image = t._ones_image()
        assert image.tobytes() == t.apply(np.ones(t.dim)).tobytes()
        assert not image.flags.writeable
        assert t._ones_image() is image


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
    for i in range(3):
        arr[i, i, i] = 5.0
    t = Tensor.from_dense(arr)
    s, B = m_splitting(t)
    assert s == 5.0
    assert B.min_entry() >= 0.0
    x = np.array([1.0, 0.5, 2.0])
    assert np.allclose(s * x ** 2 - B.apply(x), t.apply(x), rtol=1e-13, atol=1e-15)


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
