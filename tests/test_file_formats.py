"""Tensor and vector files: text bodies read in chunks, dense ``.npy``
bodies told apart by their magic bytes, and every malformed file a
``FormatError`` that names it."""

import csv
import io
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mteq import (FormatError, SolverConfig, Tensor, initial_point,
                  read_tensor, read_vector, scale_problem, solve_nonnegative,
                  solve_positive, write_tensor, write_vector)
from mteq import tensor as tensor_module
from mteq.cli import EXIT_CAP, EXIT_IO, EXIT_OK, main
from mteq.problems import gen_problem1, gen_problem5, zero_out_rhs

MAX = np.finfo(float).max
TINY = np.finfo(float).smallest_subnormal
# finite float64 values, with the signed zeros, subnormals and largest
# magnitudes drawn often
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, np.finfo(float).tiny, MAX, -MAX]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def dense_arrays(draw):
    """Finite float64 arrays of shape ``(n,)*m`` with ``m`` from 2 to 4."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6 if m < 4 else 4))
    return draw(arrays(np.float64, (n,) * m, elements=FINITE))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def npy_bytes(array, version=(1, 0)):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(array), version=version,
                              allow_pickle=True)
    return buf.getvalue()


# ----------------------------------------------------------------------
# round trips


@given(a=dense_arrays())
@example(a=np.array([[-0.0, TINY], [MAX, -MAX]]))
def test_dense_tensor_round_trips_bit_for_bit(scratch, a):
    t = Tensor.from_dense(a)
    for name in ("t.mt", "t.npy"):
        write_tensor(scratch / name, t)
        back = read_tensor(scratch / name)
        assert back.storage == "dense"
        assert back.dense_values.tobytes() == a.tobytes()
    coo = t.to_coo()
    write_tensor(scratch / "c.mt", coo)
    back = read_tensor(scratch / "c.mt")
    assert np.array_equal(back.coo_indices, coo.coo_indices)
    assert back.coo_values.tobytes() == coo.coo_values.tobytes()


@given(x=arrays(np.float64, st.integers(0, 40), elements=FINITE))
def test_vector_round_trips_bit_for_bit(scratch, x):
    write_vector(scratch / "x.vec", x)
    assert read_vector(scratch / "x.vec").tobytes() == x.tobytes()


@given(a=dense_arrays(), data=st.data())
def test_non_finite_entry_is_named_by_its_index(scratch, a, data):
    flat = a.reshape(-1).copy()
    k = data.draw(st.integers(0, flat.size - 1))
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    flat[k] = value
    bad = flat.reshape(a.shape)
    index = ", ".join(str(int(i) + 1) for i in np.unravel_index(k, a.shape))
    write_tensor(scratch / "bad.mt", Tensor.from_dense(bad))
    (scratch / "bad.npy").write_bytes(npy_bytes(bad))
    for name in ("bad.mt", "bad.npy"):
        message = f"{name}: non-finite entry {value} at index ({index})"
        with pytest.raises(FormatError, match=re.escape(message)):
            read_tensor(scratch / name)
    write_vector(scratch / "bad.vec", flat)
    message = f"bad.vec: non-finite entry {value} at index ({k + 1})"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_vector(scratch / "bad.vec")


def test_format_is_told_by_magic_bytes_not_by_name(tmp_path):
    a = gen_problem1(3, 5, 0).A
    write_tensor(tmp_path / "binary.npy", a)
    (tmp_path / "binary.mt").write_bytes((tmp_path / "binary.npy").read_bytes())
    write_tensor(tmp_path / "text.mt", a)
    (tmp_path / "text.npy").write_bytes((tmp_path / "text.mt").read_bytes())
    assert (tmp_path / "binary.mt").read_bytes().startswith(b"\x93NUMPY")
    for name in ("binary.mt", "text.npy"):
        assert read_tensor(tmp_path / name).dense_values.tobytes() == \
            a.dense_values.tobytes()


def test_npy_tensor_is_private_memory(tmp_path):
    # rewriting the file the tensor came from leaves the tensor alone; a
    # memory map would change under it or fault
    path = tmp_path / "t.npy"
    first = gen_problem1(3, 6, 0).A
    write_tensor(path, first)
    back = read_tensor(path)
    write_tensor(path, gen_problem1(3, 4, 1).A)
    assert back.dense_values.tobytes() == first.dense_values.tobytes()
    assert not isinstance(back.dense_values.base, np.memmap)


def test_tensor_read_from_a_pipe(tmp_path):
    # a pipe has no length to check ahead: a short or long .npy body is
    # found while it is read
    a = gen_problem1(3, 4, 0).A
    write_tensor(tmp_path / "t.mt", a)
    write_tensor(tmp_path / "c.mt", a.to_coo())
    write_tensor(tmp_path / "t.npy", a)
    npy = (tmp_path / "t.npy").read_bytes()
    cases = [((tmp_path / "t.mt").read_bytes(), None),
             ((tmp_path / "c.mt").read_bytes(), None), (npy, None),
             (npy[:-8], "body ended after 504 of 512 bytes"),
             (npy + b"\0", "bytes after its body")]
    fifo = tmp_path / "fifo"
    for content, message in cases:
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(content,))
        writer.start()
        try:
            if message is None:
                assert read_tensor(fifo).to_dense_array().tobytes() == \
                    a.dense_values.tobytes()
            else:
                with pytest.raises(FormatError, match=message):
                    read_tensor(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


def test_npy_holds_dense_tensors_only(tmp_path):
    with pytest.raises(ValueError, match="dense tensors only"):
        write_tensor(tmp_path / "t.npy", Tensor.identity(3, 4))
    assert not (tmp_path / "t.npy").exists()


# ----------------------------------------------------------------------
# the chunked text parser


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_tokens_cut_by_a_chunk_boundary_parse_whole(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(tensor_module, "_TEXT_CHUNK_BYTES", chunk)
    x = np.array([123456789.125, -1.5e-300, 0.1, -0.0, 7.0, 2.5e+300])
    body = "6\n  123456789.125 -1.5e-300\n\n\n        \t 0.1\n-0 7\r\n2.5e+300  \n\n"
    (tmp_path / "x.vec").write_text(body)
    assert read_vector(tmp_path / "x.vec").tobytes() == x.tobytes()
    a = np.arange(8.0).reshape(2, 2, 2) * 1e-5
    write_tensor(tmp_path / "t.mt", Tensor.from_dense(a))
    assert read_tensor(tmp_path / "t.mt").dense_values.tobytes() == a.tobytes()


def test_blank_body_holds_no_values(tmp_path, monkeypatch):
    # np.fromstring reads a value from whitespace alone
    for chunk in (2, 1 << 20):
        monkeypatch.setattr(tensor_module, "_TEXT_CHUNK_BYTES", chunk)
        (tmp_path / "b.vec").write_text("1\n   \n\n  \n")
        with pytest.raises(FormatError, match="expected 1 values, found 0"):
            read_vector(tmp_path / "b.vec")
        (tmp_path / "e.vec").write_text("0\n  \n")
        assert read_vector(tmp_path / "e.vec").shape == (0,)


@pytest.mark.parametrize("token", ["1_000", "1,5", "0x10", "1.0.5", "abc", "1e"])
def test_tokens_numpy_rejects_are_malformed_values(tmp_path, token):
    (tmp_path / "x.vec").write_text(f"2\n1.0 {token}\n")
    with pytest.raises(FormatError, match="x.vec: malformed value in vector body"):
        read_vector(tmp_path / "x.vec")
    (tmp_path / "t.mt").write_text(f"MT1 2 2 dense 4\n1 2\n3 {token}\n")
    with pytest.raises(FormatError, match="t.mt: malformed value in dense body"):
        read_tensor(tmp_path / "t.mt")


def test_header_errors_quote_the_decoded_line(tmp_path):
    (tmp_path / "t.mt").write_bytes(b"MT9 3 2 dense 8\n" + b"0\n" * 8)
    with pytest.raises(FormatError, match="got 'MT9 3 2 dense 8'$"):
        read_tensor(tmp_path / "t.mt")
    (tmp_path / "x.vec").write_bytes(b"three\n1 2 3\n")
    with pytest.raises(FormatError, match="got 'three'$"):
        read_vector(tmp_path / "x.vec")


def test_count_mismatches_name_both_counts(tmp_path):
    (tmp_path / "x.vec").write_text("1000000000000\n1 2 3\n")
    with pytest.raises(FormatError, match="expected 1000000000000 values, found 3"):
        read_vector(tmp_path / "x.vec")
    (tmp_path / "t.mt").write_text("MT1 2 2 dense 4\n1 2 3 4 5\n")
    with pytest.raises(FormatError, match="expected 4 values, found 5"):
        read_tensor(tmp_path / "t.mt")


def test_dense_text_read_allocates_about_the_tensor(tmp_path):
    a = gen_problem1(3, 60, 0).A
    write_tensor(tmp_path / "t.mt", a)
    nbytes = a.dense_values.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = read_tensor(tmp_path / "t.mt")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert back.dense_values.tobytes() == a.dense_values.tobytes()
    assert peak < 2 * nbytes + (2 << 20), f"peak {peak} for {nbytes} bytes"


# ----------------------------------------------------------------------
# COO text bodies


def test_coo_body_reads_blank_lines_and_crlf(tmp_path):
    (tmp_path / "t.mt").write_bytes(b"MT1 3 4 coo 3\r\n\r\n 4 1 2   -0.5\r\n\n  \t \n"
                                    b"1 1 1 2.5e+300\r\n1 2 3 1e-5")
    t = read_tensor(tmp_path / "t.mt")
    assert t.coo_indices.tolist() == [[0, 0, 0], [0, 1, 2], [3, 0, 1]]
    assert t.coo_values.tolist() == [2.5e+300, 1e-5, -0.5]


def test_empty_coo_body_is_an_all_zero_tensor(tmp_path):
    for body in ("MT1 2 3 coo 0\n", "MT1 2 3 coo 0\n\n   \n"):
        (tmp_path / "t.mt").write_text(body)
        assert read_tensor(tmp_path / "t.mt").nnz == 0


MALFORMED_COO = {
    "m-fields": ("1 1 1 1.0\n2 2 2.0\n", "requires 4 columns but 3 were found"),
    "m+2-fields": ("1 1 1 1.0\n2 2 2 2 2.0\n",
                   "requires 4 columns but 5 were found"),
    "index-1.5": ("1 1 1 1.0\n1.5 2 2 2.0\n", "could not convert string '1.5'"),
    "index-1.0": ("1 1 1 1.0\n1.0 2 2 2.0\n", "could not convert string '1.0'"),
    "index-1_0": ("1 1 1 1.0\n1_0 2 2 2.0\n", "could not convert string '1_0'"),
    "value-1_000": ("1 1 1 1.0\n2 2 2 1_000\n",
                    "could not convert string '1_000'"),
    "index-0": ("1 1 1 1.0\n2 0 2 2.0\n",
                r"index out of range 1..4: \(2, 0, 2\)"),
    "index-n+1": ("1 1 1 1.0\n2 5 2 2.0\n",
                  r"index out of range 1..4: \(2, 5, 2\)"),
    "nan": ("1 1 1 1.0\n2 3 4 nan\n",
            r"non-finite entry nan at index \(2, 3, 4\)"),
    "repeated": ("2 3 4 1.0\n2 3 4 2.0\n", r"duplicate index tuple"),
    "fewer": ("1 1 1 1.0\n", "header promised 2 entries, found 1"),
    "more": ("1 1 1 1.0\n2 2 2 2.0\n3 3 3 3.0\n",
             "header promised 2 entries, found 3"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COO))
def test_malformed_coo_body_is_a_format_error(tmp_path, case):
    body, message = MALFORMED_COO[case]
    (tmp_path / "t.mt").write_text("MT1 3 4 coo 2\n" + body)
    with pytest.raises(FormatError, match=f"t.mt: .*{message}"):
        read_tensor(tmp_path / "t.mt")


def test_coo_text_read_allocates_about_its_arrays(tmp_path):
    a = gen_problem1(3, 60, 0).A.to_coo()
    write_tensor(tmp_path / "t.mt", a)
    nbytes = a.coo_indices.nbytes + a.coo_values.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = read_tensor(tmp_path / "t.mt")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.coo_indices, a.coo_indices)
    assert back.coo_values.tobytes() == a.coo_values.tobytes()
    assert peak < 4 * nbytes + (2 << 20), f"peak {peak} for {nbytes} bytes"


# ----------------------------------------------------------------------
# malformed .npy files


def _malformed_npy():
    good = np.arange(27.0).reshape(3, 3, 3)
    body = npy_bytes(good)
    header = np.lib.format.header_data_from_array_1_0(good)

    def with_header(**fields):
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(buf, {**header, **fields})
        return buf.getvalue()

    return {
        "truncated": (body[:-8], "bytes after its header, expected 216"),
        "trailing": (body + b"\0" * 8, "bytes after its header, expected 216"),
        "float32": (npy_bytes(good.astype("<f4")), "dtype '<f4' is not"),
        "int64": (npy_bytes(good.astype("<i8")), "dtype '<i8' is not"),
        "big-endian": (npy_bytes(good.astype(">f8")), "dtype '>f8' is not"),
        "fortran": (npy_bytes(np.asfortranarray(good)), "Fortran order"),
        "not-cubic": (npy_bytes(np.zeros((3, 3, 2))), r"shape \(3, 3, 2\)"),
        "order-1": (npy_bytes(np.zeros(4)), r"shape \(4,\)"),
        "scalar": (npy_bytes(np.float64(1.0)), r"shape \(\)"),
        "empty": (npy_bytes(np.zeros((0, 0))), r"shape \(0, 0\)"),
        "pickled": (npy_bytes(np.array([[None, 1], [2, 3]], dtype=object)),
                    "pickled Python objects"),
        "above-cap": (with_header(shape=(3000,) * 3), "above the cap"),
        # within the cap, but a gigabyte the file does not hold: the size
        # test comes before any allocation
        "short-of-a-gigabyte": (with_header(shape=(500,) * 3),
                                "expected 1000000000 for shape"),
        "bad-header": (b"\x93NUMPY\x01\x00\x10\x00{'descr': 1}    \n",
                       "malformed .npy header"),
        "magic-only": (b"\x93NUMPY", "malformed .npy header"),
        "version-3": (b"\x93NUMPY\x03\x00" + body[8:], "malformed .npy header"),
        "nan": (npy_bytes(np.where(good == 5.0, np.nan, good)),
                r"non-finite entry nan at index \(1, 2, 3\)"),
    }


MALFORMED = _malformed_npy()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_npy_is_a_format_error(tmp_path, capsys, case):
    content, message = MALFORMED[case]
    path = tmp_path / "t.npy"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=message) as info:
        read_tensor(path)
    assert str(info.value).startswith(f"{path}: ")
    write_vector(tmp_path / "b.vec", np.ones(3))
    assert main(["solve", str(path), str(tmp_path / "b.vec"),
                 "--solution", str(tmp_path / "x.vec")]) == EXIT_IO
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "x.vec").exists()


def test_npy_above_the_cap_set_by_environment(tmp_path, monkeypatch):
    write_tensor(tmp_path / "t.npy", gen_problem1(3, 3, 0).A)
    monkeypatch.setenv("MTEQ_DENSE_CAP", "10")
    with pytest.raises(FormatError, match="27 entries, above the cap 10"):
        read_tensor(tmp_path / "t.npy")


def test_npy_version_2_is_read(tmp_path):
    a = np.arange(16.0).reshape(4, 4)
    (tmp_path / "t.npy").write_bytes(npy_bytes(a, version=(2, 0)))
    assert read_tensor(tmp_path / "t.npy").dense_values.tobytes() == a.tobytes()


# ----------------------------------------------------------------------
# the command line


def _solve_cli(tmp_path, out, name):
    sol, trace = tmp_path / f"{name}.vec", tmp_path / f"{name}.csv"
    code = main(["solve", str(out / name), str(out / "rhs.vec"),
                 "--solution", str(sol), "--trace", str(trace)])
    with open(trace, newline="") as fh:
        # all but the wall-clock column
        rows = [{k: v for k, v in row.items() if k != "elapsed_ms"}
                for row in csv.DictReader(fh)]
    return code, read_vector(sol), rows


@pytest.mark.parametrize("problem,zero", [(1, False), (5, True)])
def test_npy_solve_matches_text_and_in_process(tmp_path, capsys, problem, zero):
    gen = {1: gen_problem1, 5: gen_problem5}[problem]
    args = ["--problem", str(problem), "--m", "3", "--n", "9", "--seed", "4"]
    if zero:
        args += ["--zero-frac", "0.5"]
    for fmt in ("text", "npy"):
        assert main(["gen", *args, "--format", fmt,
                     "--out", str(tmp_path / fmt)]) == EXIT_OK
    assert "wrote tensor.npy, rhs.vec" in capsys.readouterr().out
    reports = {}
    for fmt, name in (("text", "tensor.mt"), ("npy", "tensor.npy")):
        code, x, rows = _solve_cli(tmp_path, tmp_path / fmt, name)
        reports[name] = (code, x.tobytes(), rows, capsys.readouterr().out)
    assert reports["tensor.mt"] == reports["tensor.npy"]
    code, x, rows, _ = reports["tensor.npy"]
    assert code == EXIT_OK

    # the files hold the generated problem, which the CLI scales again
    p = gen(3, 9, 4)
    p = scale_problem(p.A, zero_out_rhs(p.b, 4, keep=(0,)) if zero else p.b)
    cfg = SolverConfig()
    init = initial_point(p, cfg)
    rep = (solve_nonnegative(p, init.y0, cfg) if zero
           else solve_positive(p, init.x0, cfg))
    assert x == rep.x_final.tobytes()
    assert [float(r["residual"]) for r in rows] == \
        [rec.residual_norm for rec in rep.trace]


@pytest.mark.parametrize("first,second", [("text", "npy"), ("npy", "text")])
def test_gen_removes_the_tensor_file_of_the_other_format(tmp_path, first,
                                                         second):
    names = {"text": "tensor.mt", "npy": "tensor.npy"}
    out = tmp_path / "p"
    for fmt, seed in ((first, "1"), (second, "2")):
        assert main(["gen", "--problem", "1", "--m", "3", "--n", "5",
                     "--seed", seed, "--format", fmt,
                     "--out", str(out)]) == EXIT_OK
    # only the second instance is left to solve
    assert not (out / names[first]).exists()
    got = read_tensor(out / names[second])
    want = gen_problem1(3, 5, 2).A
    assert got.dense_values.tobytes() == want.dense_values.tobytes()


def test_gen_npy_refuses_a_coo_problem(tmp_path, capsys):
    out = tmp_path / "p3"
    assert main(["gen", "--problem", "3", "--m", "4", "--n", "8",
                 "--format", "npy", "--out", str(out)]) == EXIT_CAP
    assert "dense tensors only" in capsys.readouterr().err
    assert not out.exists()
