"""Seeded benchmark generators: structure, determinism, and exact values."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from mteq import (SolverConfig, Tensor, initial_point, m_splitting,
                  make_problem, problems, read_tensor, read_vector,
                  scale_problem, solve_nonnegative, solve_positive, tensor)
from mteq.model import _scale_factor
from mteq.problems import (CENTRAL_MASS, GRAVITATIONAL_CONSTANT,
                           _problem2_scaled, _rng, _shifted_scaled,
                           _uniform_open, gen_problem1, gen_problem2,
                           gen_problem3, gen_problem4, gen_problem5,
                           symmetrize_full, write_problem, zero_out_rhs)
from oracles import stencil_coo, symmetrize_whole_array


def test_problem1_structure():
    p = gen_problem1(3, 8, seed=0)
    assert p.A.is_z_tensor()
    assert p.A.is_exactly_semi_symmetric()
    assert p.A.is_diag_dominant()
    assert p.certificate is not None
    assert p.omega > 0.0
    assert p.b.min() > 0.0
    # sizes that make no tensor: one message, naming both values
    for gen, args in ((gen_problem1, (3, 0, 0)), (gen_problem2, (3, 0)),
                      (gen_problem4, (1, 3, 0))):
        order, dim = args[:2]
        with pytest.raises(ValueError, match=f"got order {order}, "
                                             f"dimension {dim}$"):
            gen(*args)


def test_problem1_determinism():
    a = gen_problem1(3, 8, seed=3)
    b = gen_problem1(3, 8, seed=3)
    assert np.array_equal(a.A.to_dense_array(), b.A.to_dense_array())
    assert np.array_equal(a.b, b.b)
    other = gen_problem1(3, 8, seed=4)
    assert not np.array_equal(a.b, other.b)


def test_problem1_order_five():
    p = gen_problem1(5, 6, seed=0)
    assert p.A.order == 5
    assert p.A.is_diag_dominant() and p.A.is_exactly_semi_symmetric()


def test_symmetrize_full_is_permutation_invariant():
    rng = np.random.default_rng(2)
    arr = rng.uniform(size=(3, 3, 3))
    sym = symmetrize_full(arr)
    assert sym is arr
    assert sym.tobytes() == sym.transpose(1, 0, 2).tobytes()
    assert sym.tobytes() == sym.transpose(2, 1, 0).tobytes()


def no_symmetry_test(k):
    raise AssertionError("a symmetry test of the entries")


# (m, n, tile bytes): tiles of unequal sizes at odd n, at n that is not a
# multiple of the tile, and in repeated orbits; None keeps the default
TILINGS = [(3, 53, None), (3, 9, 8 * 2 ** 3), (4, 23, None),
           (4, 7, 8 * 2 ** 4), (5, 9, None), (5, 7, 8 * 2 ** 5)]


@pytest.mark.parametrize("m,n,tile_bytes", TILINGS)
def test_problem1_is_exactly_symmetric_with_whole_array_bits(monkeypatch, m,
                                                             n, tile_bytes):
    if tile_bytes is not None:
        monkeypatch.setattr(problems, "_TILE_BYTES", tile_bytes)
    raw = _rng(1).random((n,) * m)
    want = symmetrize_whole_array(raw)
    assert symmetrize_full(raw.copy()).tobytes() == want.tobytes()
    with monkeypatch.context() as patch:
        # the fact comes from the construction, not from a test
        patch.setattr(tensor, "_generating_perms", no_symmetry_test)
        p = gen_problem1(m, n, 1)
        assert p.A.is_exactly_semi_symmetric() is True
    a = p.A.dense_values
    for perm in itertools.permutations(range(m)):
        assert a.transpose(perm).tobytes() == a.tobytes()
    fresh = Tensor.from_dense(p.A.to_dense_array())
    assert fresh.is_exactly_semi_symmetric() is True
    assert (p.A.dense_values.tobytes()
            == reference_problem(1, m, n, 1).A.dense_values.tobytes())


def test_problem2_entries():
    B, s, _ = reference_parts(2, 3, 4, 0)
    raw = m_splitting(B, s)[1].to_dense_array()
    # s = n^{m-1} on the diagonal minus |sin| of the 1-based index sum
    assert raw[0, 0, 0] == pytest.approx(16.0 - abs(np.sin(3.0)), rel=1e-15)
    assert raw[0, 1, 2] == pytest.approx(-abs(np.sin(6.0)), rel=1e-15)
    p = gen_problem2(3, 4, seed=0)
    assert np.allclose(p.A.to_dense_array() * p.omega, raw, rtol=1e-15, atol=0)
    # only the right-hand side is seeded
    q = gen_problem2(3, 4, seed=1)
    assert np.array_equal(p.A.to_dense_array(), q.A.to_dense_array())
    assert not np.array_equal(p.b, q.b)


def test_problem3_stencil():
    n = 6
    p = gen_problem3(n, c0=2.0, c1=3.0)
    assert p.A.storage == "coo"
    assert p.omega == 1.0
    assert p.A.is_exactly_semi_symmetric()
    dense = p.A.to_dense_array()
    assert dense[0, 0, 0, 0] == 1.0
    assert dense[n - 1, n - 1, n - 1, n - 1] == 1.0
    for i in range(1, n - 1):
        assert dense[i, i, i, i] == 2.0
        for pos in ((i - 1, i, i), (i, i - 1, i), (i, i, i - 1),
                    (i + 1, i, i), (i, i + 1, i), (i, i, i + 1)):
            assert dense[(i,) + pos] == pytest.approx(-1.0 / 3.0, rel=1e-15)
    # boundary rows pin x to the endpoint values; interior rows carry the
    # gravitational source term
    assert p.b[0] == 8.0 and p.b[-1] == 27.0
    interior = GRAVITATIONAL_CONSTANT * CENTRAL_MASS / (n - 1) ** 2
    assert np.allclose(p.b[1:-1], interior, rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        gen_problem3(2)


@pytest.mark.parametrize("n", [3, 4, 24, 40])
def test_problem3_builds_the_stencil_rows_in_order(monkeypatch, n):
    # from_coo sees the arrays of the row-by-row loop, so the tensor and
    # everything cached from it keep their bits
    seen = []
    real = Tensor.from_coo

    def recording(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(Tensor, "from_coo", recording)
    gen_problem3(n)
    (m, dim, idx, vals), = seen
    want_idx, want_vals = stencil_coo(n)
    assert (m, dim) == (4, n)
    assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes()
    assert vals.dtype == want_vals.dtype and vals.tobytes() == want_vals.tobytes()
    assert idx.shape == want_idx.shape and vals.shape == want_vals.shape


def test_problem4_raw_draw():
    p = gen_problem4(3, 6, seed=0)
    assert p.A.is_z_tensor()
    assert p.A.is_diag_dominant()
    # no symmetrization on this family
    d = p.A.to_dense_array()
    assert not p.A.is_exactly_semi_symmetric()
    assert d[0, 1, 2] != d[0, 2, 1]


def test_problem5_strictly_lower_support():
    p = gen_problem5(3, 6, seed=0)
    d = p.A.to_dense_array()
    for i in range(6):
        for j in range(6):
            for k in range(6):
                if i == j == k:
                    assert d[i, j, k] > 0.0
                elif not (j < i and k < i):
                    assert d[i, j, k] == 0.0
    assert not p.A.is_diag_dominant()
    with pytest.raises(ValueError):
        gen_problem5(3, 1, seed=0)


def test_zero_out_rhs():
    b = np.linspace(1.0, 2.0, 10)
    z = zero_out_rhs(b, seed=7)
    assert int((z == 0.0).sum()) == 5
    assert np.array_equal(z, zero_out_rhs(b, seed=7))
    assert not np.array_equal(z, zero_out_rhs(b, seed=8))
    # kept indices survive zeroing
    z = zero_out_rhs(b, seed=7, keep=(0, 3))
    assert z[0] > 0.0 and z[3] > 0.0
    # odd length rounds up, but at least one component survives
    z2 = zero_out_rhs(np.ones(3), seed=0)
    assert int((z2 == 0.0).sum()) == 2
    assert z2.max() > 0.0


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0, np.nan, np.inf])
def test_zero_out_rhs_refuses_a_fraction_outside_the_open_unit_interval(
        fraction):
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        zero_out_rhs(np.ones(6), seed=0, fraction=fraction)


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_generators_refuse_a_seed_that_is_no_philox_key(seed):
    for draw in (lambda: gen_problem1(3, 4, seed), lambda: gen_problem2(3, 4, seed),
                 lambda: zero_out_rhs(np.ones(4), seed)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw()


# (generator, arguments, exact trailing symmetry); P4 at n = 1 and
# P5(3, 2) are symmetric by accident
SYMMETRY_CASES = [
    (gen_problem1, (3, 8, 0), True), (gen_problem1, (4, 5, 1), True),
    (gen_problem1, (3, 1, 0), True), (gen_problem2, (3, 8, 0), True),
    (gen_problem2, (4, 5, 0), True), (gen_problem2, (3, 1, 3), True),
    (gen_problem3, (8,), True), (gen_problem4, (3, 8, 0), False),
    (gen_problem4, (3, 1, 0), True), (gen_problem5, (3, 8, 0), False),
    (gen_problem5, (3, 2, 0), True)]


@pytest.mark.parametrize("gen,args,exact", SYMMETRY_CASES,
                         ids=[f"P{g.__name__[-1]}{a}" for g, a, _ in
                              SYMMETRY_CASES])
def test_generator_symmetry_fact_matches_a_fresh_test(gen, args, exact):
    A = gen(*args).A
    fresh = Tensor.from_dense(A.to_dense_array())
    assert A.is_exactly_semi_symmetric() is exact
    assert fresh.is_exactly_semi_symmetric() is exact
    assert fresh.to_coo().is_exactly_semi_symmetric() is exact


def test_problems_2_and_3_know_their_symmetry_from_construction(monkeypatch):
    monkeypatch.setattr(tensor, "_generating_perms", no_symmetry_test)
    _problem2_scaled.cache_clear()
    cfg = SolverConfig(relative_stop=True)
    try:
        p3 = gen_problem3(12)
        for p in (gen_problem2(3, 12, 0), gen_problem2(3, 1, 3),
                  scale_problem(p3.A, p3.b)):
            assert solve_positive(p, initial_point(p, cfg).x0, cfg).converged
        p = gen_problem2(3, 12, 1)
        q = make_problem(p.A, zero_out_rhs(p.b, 1), omega=p.omega)
        assert solve_nonnegative(q, initial_point(q, cfg).y0, cfg).converged
    finally:
        _problem2_scaled.cache_clear()


def test_write_problem_round_trip(tmp_path):
    p = gen_problem1(3, 5, seed=9)
    write_problem(tmp_path, p, {"problem": 1, "m": 3, "n": 5, "seed": 9})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["problem"] == 1
    assert manifest["rng"] == "philox4x64-10"
    A = read_tensor(tmp_path / "tensor.mt")
    b = read_vector(tmp_path / "rhs.vec")
    assert np.array_equal(A.to_dense_array(), p.A.to_dense_array())
    assert np.array_equal(b, p.b)


# ----------------------------------------------------------------------
# each dense generator builds its problem in the buffer it drew; the
# reference below builds it the long way, from the same draws

def reference_parts(problem, m, n, seed):
    """``(B, s, b)`` from the generator's own draws, rebuilt here."""
    rng = _rng(seed)
    ones = np.ones(n)
    if problem == 2:
        index_sum = np.indices((n,) * m).sum(axis=0) + m  # 1-based
        B = Tensor.from_dense(np.abs(np.sin(index_sum)))
        return B, float(n) ** (m - 1), _uniform_open(rng, n)
    raw = rng.random((n,) * m)
    if problem == 1:
        raw = symmetrize_whole_array(raw)
    if problem == 5:
        idx = np.indices((n,) * m)
        raw = np.where(np.all(idx[1:] < idx[0], axis=0), raw, 0.0)
    B = Tensor.from_dense(raw)
    s = (0.5 if problem == 5 else 1.01) * float(B.apply(ones).max())
    return B, s, _uniform_open(rng, n)


def reference_problem(problem, m, n, seed):
    """``scale_problem(s I - B, b)`` from the generator's own draws, with
    ``B`` and ``s`` rebuilt here and ``s I - B`` built by ``m_splitting``."""
    B, s, b = reference_parts(problem, m, n, seed)
    return scale_problem(m_splitting(B, s)[1], b)


GENERATORS = {1: gen_problem1, 2: gen_problem2, 4: gen_problem4,
              5: gen_problem5}


def check_shifted_scaled(monkeypatch, B, s, b):
    """``_shifted_scaled(s, B, b)`` against ``s I - B`` from
    ``m_splitting`` scaled the long way, with the facts it hands on read
    afresh."""
    handed = []
    build = Tensor._from_scaled_buffer.__func__

    def spy(cls, array, factor, facts):
        handed.append(dict(facts))
        return build(cls, array, factor, facts)
    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "_from_scaled_buffer", classmethod(spy))
        A, omega = _shifted_scaled(s, B.to_dense_array(), b)
    shifted = m_splitting(B, s)[1]
    (facts,) = handed
    assert facts["is_z_tensor"] is shifted.is_z_tensor()
    if np.isnan(shifted.max_abs()):
        assert np.isnan(facts["max_abs"]) and np.isnan(omega)
        assert np.isnan(A.dense_values).all()
        return
    assert float(facts["max_abs"]).hex() == float(shifted.max_abs()).hex()
    want_omega = _scale_factor(shifted.max_abs(), b)
    assert float(omega).hex() == float(want_omega).hex()
    want = shifted.scaled(1.0 / want_omega)
    assert A.dense_values.tobytes() == want.dense_values.tobytes()


@pytest.mark.parametrize("m,n", [(3, 30), (4, 8), (5, 6)])
@pytest.mark.parametrize("problem", [1, 2, 4, 5])
def test_generator_matches_the_scaled_shift_bitwise(problem, m, n,
                                                    monkeypatch):
    for seed in (0, 5):
        got = GENERATORS[problem](m, n, seed)
        want = reference_problem(problem, m, n, seed)
        assert got.A.dense_values.tobytes() == want.A.dense_values.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
        assert float(got.omega).hex() == float(want.omega).hex()
        assert (got.certificate is None) == (want.certificate is None)
        # the facts known by construction equal the ones read afresh
        fresh = Tensor.from_dense(got.A.to_dense_array())
        assert float(got.A.max_abs()).hex() == float(fresh.max_abs()).hex()
        assert got.A.is_z_tensor() is fresh.is_z_tensor() is True
        assert (got.A.is_exactly_semi_symmetric()
                is fresh.is_exactly_semi_symmetric())
    # the same build over B with a negative entry or a NaN put in, off and
    # on the diagonal: the Z sign reads only the off-diagonal entries, and
    # a NaN makes max_abs NaN
    B, s, b = reference_parts(problem, m, n, 0)
    for where in ((0,) * (m - 1) + (n - 1,), (n - 1,) * m):
        for value in (-0.25, np.nan):
            entries = B.to_dense_array()
            entries[where] = value
            check_shifted_scaled(monkeypatch, Tensor.from_dense(entries), s, b)


def test_problem2_keeps_scale_problem_when_b_outgrows_the_tensor():
    # at n = 1 the tensor is the scalar 1 - |sin(m)|, which a uniform
    # right-hand side can exceed; then omega is max|b|
    B, s, _ = reference_parts(2, 3, 1, 0)
    A = m_splitting(B, s)[1]
    seeds = {bool(_uniform_open(_rng(seed), 1)[0] > A.max_abs())
             for seed in range(12)}
    assert seeds == {False, True}
    for seed in range(12):
        got = gen_problem2(3, 1, seed)
        want = reference_problem(2, 3, 1, seed)
        assert got.A.dense_values.tobytes() == want.A.dense_values.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
        assert float(got.omega).hex() == float(want.omega).hex()


def peak_tensors(gen, m, n):
    """Peak traced memory of one ``gen(m, n, 0)``, in tensor sizes."""
    tracemalloc.start()
    try:
        gen(m, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n ** m)


@pytest.mark.parametrize("gen", [gen_problem1, gen_problem4, gen_problem5])
def test_generator_holds_one_tensor_buffer(gen):
    assert peak_tensors(gen, 4, 16) < 1.5


def test_second_problem2_makes_no_tensor_pass(monkeypatch):
    first = gen_problem2(3, 30, 0)

    def no_pass(*args, **kwargs):
        raise AssertionError("a pass over the tensor")
    # each name on every class that defines it, so no storage's own
    # method escapes the guard
    for name in ("apply", "image_and_jacobian", "jacobian_matrix", "scaled",
                 "to_dense_array", "min_entry"):
        owners = [cls for cls in (Tensor, *Tensor.__subclasses__())
                  if name in vars(cls)]
        assert owners, name
        for cls in owners:
            monkeypatch.setattr(cls, name, no_pass)
    monkeypatch.setattr(Tensor, "from_dense", no_pass)
    # every fact the problem checks is already on the cached tensor
    assert {"max_abs", "is_z_tensor", "is_diag_dominant"} <= set(first.A._facts)
    second = gen_problem2(3, 30, 1)
    assert second.A is first.A
    assert not np.array_equal(second.b, first.b)
