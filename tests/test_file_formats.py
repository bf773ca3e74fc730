"""Tensor and vector files: text bodies read in chunks, dense ``.npy``
bodies told apart by their magic bytes, and every malformed file a
``FormatError`` that names it."""

import csv
import io
import math
import os
import re
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mteq import (FormatError, SolverConfig, Tensor, read_tensor,
                  read_vector, scale_problem, solve, write_tensor,
                  write_vector)
from mteq import textcodec
from mteq.cli import EXIT_CAP, EXIT_IO, EXIT_OK, main
from mteq.problems import (gen_problem1, gen_problem2, gen_problem3,
                           gen_problem4, gen_problem5, zero_out_rhs)
from oracles import percent_tensor_text, percent_vector_text

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


# ----------------------------------------------------------------------
# text bodies, byte for byte as the % templates


def assert_written_as_percent(path, tensor):
    write_tensor(path, tensor)
    assert path.read_bytes() == percent_tensor_text(tensor)


def assert_vector_written_as_percent(path, x):
    write_vector(path, x)
    assert path.read_bytes() == percent_vector_text(x)


def assert_values_written_as_percent(scratch, values):
    """Dense, COO and ``.vec`` bodies of ``values`` hold the bytes of
    ``'%.17g'``: the vector itself, and a square matrix of the values,
    padded with 1.0, stored dense and as COO with every entry."""
    x = np.asarray(values, dtype=float)
    assert_vector_written_as_percent(scratch / "x.vec", x)
    n = math.isqrt(x.size) + 1
    square = np.ones(n * n)
    square[:x.size] = x
    every = np.argwhere(np.ones((n, n)))
    assert_written_as_percent(scratch / "d.mt", Tensor.from_dense(square.reshape(n, n)))
    assert_written_as_percent(scratch / "c.mt", Tensor.from_coo(2, n, every, square))


def decade_neighbours():
    """The double nearest 10**k and its two neighbours, k = -8..18, and
    their negatives."""
    out = []
    for k in range(-8, 19):
        d = float(Fraction(10) ** k)
        out += [math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)]
    return out + [-v for v in out]


def decade_carries():
    """The largest double below 10**k, for each k at which its 17-digit
    rounding is 10**k itself."""
    out = []
    for k in range(-320, 309):
        ten = Fraction(10) ** k
        d = float(ten)
        if Fraction(d) >= ten:
            d = math.nextafter(d, 0.0)
        if Fraction("%.17g" % d) == ten:
            out.append(d)
    return out


@st.composite
def ties(draw):
    """Doubles x for which |x| * 10**(16 - X), X the decimal exponent of
    x, lies halfway between two integers: x = M * 2**(X - 17), M odd."""
    X = draw(st.integers(-6, 15))
    scale = Fraction(2) ** (17 - X)
    low = math.ceil(Fraction(10) ** X * scale)
    high = min(2 ** 53, math.ceil(Fraction(10) ** (X + 1) * scale))
    odd = 2 * draw(st.integers(low // 2, (high - 2) // 2)) + 1
    return draw(st.sampled_from([1.0, -1.0])) * math.ldexp(odd, X - 17)


@given(a=dense_arrays())
@example(a=np.array([[-0.0, TINY], [MAX, -MAX]]))
def test_text_bodies_are_the_percent_templates(scratch, a):
    t = Tensor.from_dense(a)
    every = Tensor.from_coo(a.ndim, a.shape[0], np.argwhere(np.ones(a.shape)),
                            a.ravel())
    for tensor in (t, t.to_coo(), every):
        assert_written_as_percent(scratch / "t.mt", tensor)
    assert_vector_written_as_percent(scratch / "x.vec", a)


@pytest.mark.parametrize("case", ["decade-neighbours", "carries", "specials",
                                  "non-finite"])
def test_edge_values_are_the_percent_templates(scratch, case):
    values = {
        "decade-neighbours": decade_neighbours(),
        "carries": decade_carries(),
        "specials": [0.0, -0.0, TINY, -TINY, 2.5e-320, np.finfo(float).tiny,
                     MAX, -MAX, 1.0, -1.0, 60.0, 1e16, 99999999999999984.0],
        "non-finite": [np.nan, np.inf, -np.inf, -np.nan, 0.5],
    }[case]
    assert_values_written_as_percent(scratch, values)


def test_decades_are_the_least_doubles_at_or_above_each_power():
    # the writer takes a value's decimal exponent from these thresholds
    for k, d in enumerate(textcodec._DECADES.tolist()):
        ten = Fraction(10) ** (k + textcodec._LOW_X)
        assert Fraction(d) >= ten > Fraction(math.nextafter(d, 0.0))


def test_no_carry_falls_in_the_numpy_range():
    # the writer rounds |x| in [_DECADES[0], _DECADES[-1]) to 17 digits
    # with no carry step, because no rounding there reaches the next decade
    carries = decade_carries()
    # the double nearest 10**-14 lies below it and prints as "1e-14"
    assert 1e-14 in carries
    low, high = textcodec._DECADES[0], textcodec._DECADES[-1]
    assert not [d for d in carries if low <= d < high]


@given(x=ties())
@example(x=1e15 + 0.25)
@example(x=-math.ldexp(9, -23))
def test_ties_round_to_even(scratch, x):
    # the decimal exponent of x, exactly; log10 can round across a decade
    X = math.floor(math.log10(abs(x)))
    exact = abs(Fraction(x))
    X += (exact >= Fraction(10) ** (X + 1)) - (exact < Fraction(10) ** X)
    assert (exact * Fraction(10) ** (16 - X)).denominator == 2
    assert_values_written_as_percent(scratch, [x])


@pytest.mark.parametrize("problem", ["P1", "P2", "P3", "P4", "P5"])
def test_generated_problems_are_the_percent_templates(tmp_path, problem):
    p = {"P1": lambda: gen_problem1(3, 12, 0), "P2": lambda: gen_problem2(3, 12),
         "P3": lambda: gen_problem3(8), "P4": lambda: gen_problem4(3, 12, 1),
         "P5": lambda: gen_problem5(3, 12, 2)}[problem]()
    for tensor in (p.A, p.A.to_coo()):
        assert_written_as_percent(tmp_path / "t.mt", tensor)
    for b in (p.b, zero_out_rhs(p.b, 3)):
        assert_vector_written_as_percent(tmp_path / "b.vec", b)


@pytest.mark.parametrize("chunk", [1, 2, 5, 7, 64])
def test_rows_cut_by_a_write_chunk_are_whole(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(textcodec, "_WRITE_CHUNK_VALUES", chunk)
    a = gen_problem4(3, 5, 0).A
    for tensor in (a, a.to_coo()):
        assert_written_as_percent(tmp_path / "t.mt", tensor)
    assert_vector_written_as_percent(tmp_path / "x.vec", np.linspace(-3.0, 7.0, 23))


def test_dense_text_write_allocates_less_than_one_percent_call(tmp_path):
    a = gen_problem1(3, 60, 0).A
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_tensor(tmp_path / "t.mt", a)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.mt").read_bytes() == percent_tensor_text(a)
    # formatting 65,536 values with one % call peaked at 4.17 MiB
    assert peak <= 4.17 * 2 ** 20, f"peak {peak} bytes"


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


def write_in_pieces(path, content, piece=1 << 14):
    """Write ``content`` to ``path`` in pieces 2 ms apart, so that a reader
    of a pipe gets it in short reads."""
    with open(path, "wb", buffering=0) as fh:
        for start in range(0, len(content), piece):
            fh.write(content[start:start + piece])
            time.sleep(0.002)


def test_tensor_read_from_a_pipe(tmp_path):
    # a pipe has no length to check ahead: a short or long .npy body is
    # found while it is read, also from a writer that sends it in pieces
    a, big = gen_problem1(3, 4, 0).A, gen_problem1(3, 30, 0).A
    write_tensor(tmp_path / "t.mt", a)
    write_tensor(tmp_path / "c.mt", a.to_coo())
    write_tensor(tmp_path / "t.npy", a)
    write_tensor(tmp_path / "big.npy", big)
    npy, slow = (tmp_path / "t.npy").read_bytes(), (tmp_path / "big.npy").read_bytes()
    fast = Path.write_bytes
    cases = [((tmp_path / "t.mt").read_bytes(), None, a, fast),
             ((tmp_path / "c.mt").read_bytes(), None, a, fast), (npy, None, a, fast),
             (npy[:-8], "body ended after 504 of 512 bytes", a, fast),
             (npy + b"\0", "bytes after its body", a, fast),
             (slow, None, big, write_in_pieces),
             (slow[:-8], "body ended after 215992 of 216000 bytes", big, write_in_pieces)]
    fifo = tmp_path / "fifo"
    for content, message, want, write in cases:
        os.mkfifo(fifo)
        writer = threading.Thread(target=write, args=(fifo, content))
        writer.start()
        try:
            if message is None:
                assert read_tensor(fifo).to_dense_array().tobytes() == \
                    want.dense_values.tobytes()
            else:
                with pytest.raises(FormatError, match=message):
                    read_tensor(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


def read_from_a_pipe(fifo, content, read):
    """``read(fifo)`` while a thread writes ``content`` into the pipe."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(content,))
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()
        fifo.unlink()


def test_body_from_a_pipe_allocates_as_values_arrive(tmp_path):
    # a pipe has no size to bound the result by: a header alone, which
    # promises 10**14 values here, must not allocate them
    with pytest.raises(FormatError, match="expected 100000000000000 values, found 4"):
        read_from_a_pipe(tmp_path / "x.vec", b"100000000000000\n1 2 3 4\n",
                         read_vector)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="expected 196000000 values, found 3"):
            read_from_a_pipe(tmp_path / "t.mt", b"MT1 2 14000 dense 196000000\n1 2 3\n",
                             read_tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak {peak} bytes"
    x = np.linspace(-1.0, 1.0, 300_001)
    write_vector(tmp_path / "x.vec", x)
    content = (tmp_path / "x.vec").read_bytes()
    assert read_from_a_pipe(tmp_path / "p.vec", content, read_vector).tobytes() == \
        x.tobytes()


def test_short_file_allocates_for_its_own_bytes(tmp_path):
    # a 60-value .vec is about 1.4 KB: its read once took two buffers of
    # a whole chunk, 256 KiB each, one of them for the final empty read
    x = np.linspace(-1.0, 1.0, 60)
    write_vector(tmp_path / "x.vec", x)
    read_vector(tmp_path / "x.vec")  # the parser's tables are built once
    tracemalloc.start()
    try:
        got = read_vector(tmp_path / "x.vec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == x.tobytes()
    assert peak < 64 << 10, f"peak {peak} bytes"


def test_npy_holds_dense_tensors_only(tmp_path):
    with pytest.raises(ValueError, match="dense tensors only"):
        write_tensor(tmp_path / "t.npy", Tensor.identity(3, 4))
    assert not (tmp_path / "t.npy").exists()


# ----------------------------------------------------------------------
# the chunked text parser


def count_parse_text(monkeypatch):
    """The list that collects the results of the :func:`_parse_text`
    calls."""
    parsed = []
    monkeypatch.setattr(textcodec, "_parse_text", counted(textcodec._parse_text, parsed))
    return parsed


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_tokens_cut_by_a_chunk_boundary_parse_whole(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(textcodec, "_TEXT_CHUNK_BYTES", chunk)
    parsed = count_parse_text(monkeypatch)
    x = np.array([123456789.125, -1.5e-300, 0.1, -0.0, 7.0, 2.5e+300])
    body = "6\n  123456789.125 -1.5e-300\n\n\n        \t 0.1\n-0 7\r\n2.5e+300  \n\n"
    (tmp_path / "x.vec").write_text(body)
    a = np.arange(8.0).reshape(2, 2, 2) * 1e-5
    write_tensor(tmp_path / "t.mt", Tensor.from_dense(a))
    assert read_vector(tmp_path / "x.vec").tobytes() == x.tobytes()
    assert read_tensor(tmp_path / "t.mt").dense_values.tobytes() == a.tobytes()
    # every value came out of the chunked parser
    want = np.concatenate([x, a.ravel()])
    assert np.concatenate(parsed).tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 100, 700])
def test_tokens_longer_than_the_search_window_parse_whole(tmp_path, monkeypatch, chunk):
    # a chunk cut inside a token of more than 64 bytes widens the search
    # for its last whitespace byte to 512, then 4096 bytes back
    monkeypatch.setattr(textcodec, "_TEXT_CHUNK_BYTES", chunk)
    long, longer = "1" + "0" * 80, "0." + "0" * 300 + "1" * 290 + "e+5"
    tokens = [long, "2.5", "-" + longer, "7", longer]
    # the body ends inside its last token, with no line end
    (tmp_path / "x.vec").write_text(f"{len(tokens)}\n" + " ".join(tokens))
    (tmp_path / "t.mt").write_text(f"MT1 2 2 dense 4\n{longer} -{long}\n\t0.5 {long}\n")
    want = np.array([float(tok) for tok in tokens])
    assert read_vector(tmp_path / "x.vec").tobytes() == want.tobytes()
    want = np.array([float(tok) for tok in (longer, "-" + long, "0.5", long)])
    assert read_tensor(tmp_path / "t.mt").dense_values.tobytes() == want.tobytes()


def test_blank_body_holds_no_values(tmp_path, monkeypatch):
    # np.fromstring reads a value from whitespace alone
    parsed = count_parse_text(monkeypatch)
    (tmp_path / "b.vec").write_text("1\n   \n\n  \n")
    (tmp_path / "e.vec").write_text("0\n  \n")
    for chunk in (2, 1 << 20):
        monkeypatch.setattr(textcodec, "_TEXT_CHUNK_BYTES", chunk)
        with pytest.raises(FormatError, match="expected 1 values, found 0"):
            read_vector(tmp_path / "b.vec")
        assert read_vector(tmp_path / "e.vec").shape == (0,)
    # the blank bodies reach the chunked parser and give no values
    assert parsed and all(values.size == 0 for values in parsed)


@pytest.mark.parametrize("token", ["1_000", "1,5", "0x10", "1.0.5", "abc", "1e"])
def test_tokens_numpy_rejects_are_malformed_values(tmp_path, token):
    (tmp_path / "x.vec").write_text(f"2\n1.0 {token}\n")
    with pytest.raises(FormatError, match="x.vec: malformed value in vector body"):
        read_vector(tmp_path / "x.vec")
    (tmp_path / "t.mt").write_text(f"MT1 2 2 dense 4\n1 2\n3 {token}\n")
    with pytest.raises(FormatError, match="t.mt: malformed value in dense body"):
        read_tensor(tmp_path / "t.mt")


# ----------------------------------------------------------------------
# the numpy parser, bit for bit as np.fromstring

CHUNKS = [1, 2, 5, 13, 64]
# tokens in the grammar that the writer does not emit: signs, bare and
# leading points, leading zeros, exponents in both cases, and mantissas of
# 18 and 25 digits, which the numpy path leaves to float; and integer parts
# of 9 to 20 digits, the last two past what the numpy path reads (2**64
# itself would wrap to 0)
HAND_TOKENS = ["1", "5.", ".5", "-0", "007.50", "1e5", "1E+05", "+1.5",
               "2.5e+300", "-.25E-3", "123456789012345678", "1234567890123456789012345",
               "0.1234567890123456789012345", "-98765.432109876543210e-310",
               "12345678.5", "1e-400", "4e-324", "1.7976931348623157e308",
               "123456789.12345678", "-00000000000000001.5", "1234567890123456789.5",
               "18446744073709551616.5"]


def fromstring_values(body):
    """The reference: np.fromstring's values of a text body."""
    return np.fromstring(body, sep=" ") if body.strip() else np.empty(0)


def read_values(path):
    """The values of a .vec file, or of a dense .mt file in C order."""
    if path.suffix == ".vec":
        return read_vector(path)
    return read_tensor(path).dense_values.ravel()


def assert_read_as_fromstring(path):
    body = path.read_bytes().split(b"\n", 1)[1]
    assert read_values(path).tobytes() == fromstring_values(body).tobytes()


def write_values(scratch, values):
    """``values`` as a .vec file and as a dense square .mt file, padded
    with 1.0; the two paths."""
    x = np.asarray(values, dtype=float)
    n = math.isqrt(x.size) + 1
    square = np.ones(n * n)
    square[:x.size] = x
    write_vector(scratch / "x.vec", x)
    write_tensor(scratch / "t.mt", Tensor.from_dense(square.reshape(n, n)))
    return scratch / "x.vec", scratch / "t.mt"


def hand_written_bodies():
    """The hand tokens as a .vec and a dense .mt body, apart by spaces,
    tabs, CRLF and blank lines."""
    seps = [" ", "\t", "\r\n", "\n\n", "  \t \r\n\n "]
    text = "".join(tok + seps[k % len(seps)] for k, tok in enumerate(HAND_TOKENS))
    n = math.isqrt(len(HAND_TOKENS))
    square = " ".join(HAND_TOKENS[:n * n])
    return {"x.vec": f"{len(HAND_TOKENS)}\r\n\n{text}\n\n",
            "t.mt": f"MT1 2 {n} dense {n * n}\n\t{square}\r\n"}


@pytest.mark.parametrize("chunk", CHUNKS)
def test_text_bodies_read_as_fromstring(scratch, monkeypatch, chunk):
    monkeypatch.setattr(textcodec, "_TEXT_CHUNK_BYTES", chunk)
    specials = [0.0, -0.0, TINY, -TINY, 2.5e-320, np.finfo(float).tiny,
                MAX, -MAX, 1.0, 60.0, 1e16, 99999999999999984.0]
    for values in (decade_neighbours(), decade_carries(), specials):
        for path in write_values(scratch, values):
            assert_read_as_fromstring(path)
    for name, content in hand_written_bodies().items():
        (scratch / name).write_text(content)
        assert_read_as_fromstring(scratch / name)


@given(x=arrays(np.float64, st.integers(1, 40), elements=FINITE),
       chunk=st.sampled_from(CHUNKS + [1 << 18]))
def test_written_values_read_as_fromstring(scratch, x, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textcodec, "_TEXT_CHUNK_BYTES", chunk)
        for path in write_values(scratch, x):
            assert_read_as_fromstring(path)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_numpy_parser_rejects_what_fromstring_rejects(tmp_path, monkeypatch, chunk):
    # the small bodies of the tests above, through the numpy parser
    monkeypatch.setattr(textcodec, "_TEXT_CHUNK_BYTES", chunk)
    parsed = []
    monkeypatch.setattr(textcodec, "_parse_text", counted(textcodec._parse_text, parsed))
    for token in ["1_000", "1,5", "0x10", "1.0.5", "abc", "1e", "1e+", "--1", "+-1",
                  "1e5.0", "1ee5", ".", "-", ".e5", "e5", "1\x01"]:
        (tmp_path / "x.vec").write_text(f"2\n1.0 {token}\n")
        with pytest.raises(FormatError, match="x.vec: malformed value in vector body"):
            read_vector(tmp_path / "x.vec")
        (tmp_path / "t.mt").write_text(f"MT1 2 2 dense 4\n1 2\n3 {token}\n")
        with pytest.raises(FormatError, match="t.mt: malformed value in dense body"):
            read_tensor(tmp_path / "t.mt")
    (tmp_path / "t.mt").write_bytes(b"MT1 2 2 dense 4\r\n2\t-1.\r\n-.5 2E+00\r\n")
    assert read_tensor(tmp_path / "t.mt").dense_values.tolist() == [[2, -1], [-0.5, 2]]
    (tmp_path / "x.vec").write_text("6\n  123456789.125 -1.5e-300\n\n\n        \t 0.1\n"
                                    "-0 7\r\n2.5e+300  \n\n")
    assert read_vector(tmp_path / "x.vec").tobytes() == np.array(
        [123456789.125, -1.5e-300, 0.1, -0.0, 7.0, 2.5e+300]).tobytes()
    (tmp_path / "b.vec").write_text("1\n   \n\n  \n")
    with pytest.raises(FormatError, match="expected 1 values, found 0"):
        read_vector(tmp_path / "b.vec")
    (tmp_path / "e.vec").write_text("0\n  \n")
    assert read_vector(tmp_path / "e.vec").shape == (0,)
    assert len(parsed) >= 34


def counted(fn, calls):
    """``fn``, appending the return value of each call to ``calls``."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(out)
        return out
    return wrapper


@pytest.mark.parametrize("problem", ["P1", "P2", "P3", "P4", "P5"])
def test_written_tensors_take_the_numpy_path(tmp_path, monkeypatch, problem):
    # a silent fallback, to np.fromstring or to Python's float per token,
    # would lose the parser's speed and fail no other test
    calls, parsed = [], []
    monkeypatch.setattr(np, "fromstring", counted(np.fromstring, calls))
    monkeypatch.setattr(textcodec, "_token_values",
                        counted(textcodec._token_values, parsed))
    p = {"P1": lambda: gen_problem1(3, 30, 0), "P2": lambda: gen_problem2(3, 30),
         "P3": lambda: gen_problem3(30), "P4": lambda: gen_problem4(3, 30, 1),
         "P5": lambda: gen_problem5(3, 30, 2)}[problem]()
    write_tensor(tmp_path / "t.mt", p.A)
    back = read_tensor(tmp_path / "t.mt")
    assert back.to_dense_array().tobytes() == p.A.to_dense_array().tobytes()
    assert calls == []
    if p.A.is_dense:
        # P4 and P5 hold a few values below 10**-6, which go to float
        tokens = sum(values.size for values, _ in parsed)
        slow = sum(indices.size for _, indices in parsed)
        assert tokens == p.A.to_dense_array().size and slow * 1000 < tokens
        # a token outside the grammar sends its chunk to np.fromstring
        head, body = (tmp_path / "t.mt").read_bytes().split(b"\n", 1)
        (tmp_path / "t.mt").write_bytes(head + b"\nnan" + body[body.index(b" "):])
        with pytest.raises(FormatError, match=re.escape("nan at index (1, 1, 1)")):
            read_tensor(tmp_path / "t.mt")
        assert len(calls) == 1


def test_written_values_below_1e17_take_the_numpy_path(tmp_path, monkeypatch):
    # from 10**-6 to 10**17 the writer spells every value in a form that
    # the numpy path proves: fixed with up to 17 integer digits, or with an
    # exponent of two digits
    parsed = []
    monkeypatch.setattr(textcodec, "_token_values",
                        counted(textcodec._token_values, parsed))
    x = np.geomspace(1.0000000000000002e-6, 99999999999999984.0, 4000)
    x[1::2] *= -1
    for path in write_values(tmp_path, x):
        assert_read_as_fromstring(path)
    assert parsed and all(indices.size == 0 for _, indices in parsed)


def test_header_errors_quote_the_decoded_line(tmp_path):
    (tmp_path / "t.mt").write_bytes(b"MT9 3 2 dense 8\n" + b"0\n" * 8)
    with pytest.raises(FormatError, match="got 'MT9 3 2 dense 8'$"):
        read_tensor(tmp_path / "t.mt")
    (tmp_path / "x.vec").write_bytes(b"three\n1 2 3\n")
    with pytest.raises(FormatError, match="got 'three'$"):
        read_vector(tmp_path / "x.vec")


# header fields that Python's int takes but that are not plain ASCII
# decimals, and .vec headers of more than one field
MALFORMED_HEADERS = {
    "vec-two-fields": ("x.vec", "3 4\n1 2 3\n", "expected the vector length"),
    "vec-underscore": ("x.vec", "1_0\n" + "1\n" * 10,
                       "expected the vector length"),
    "vec-arabic-indic": ("x.vec", "\u0663\n1 2 3\n", "expected the vector length"),
    "vec-fullwidth": ("x.vec", "\uff13\n1 2 3\n", "expected the vector length"),
    "mt-underscore-n": ("t.mt", "MT1 2 1_0 dense 100\n" + "1\n" * 100,
                        "non-integer field in header"),
    "mt-underscore-count": ("t.mt", "MT1 2 2 coo 0_1\n1 1 1.0\n",
                            "non-integer field in header"),
    "mt-arabic-indic": ("t.mt", "MT1 \u0662 2 dense 4\n1 2 3 4\n",
                        "non-integer field in header"),
    "mt-fullwidth": ("t.mt", "MT1 2 2 dense \uff14\n1 2 3 4\n",
                     "non-integer field in header"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_header_integers_are_plain_ascii_decimals(tmp_path, case):
    name, content, message = MALFORMED_HEADERS[case]
    (tmp_path / name).write_bytes(content.encode())
    read = read_vector if name.endswith(".vec") else read_tensor
    with pytest.raises(FormatError, match=f"{name}:1: {message}"):
        read(tmp_path / name)


def test_header_integers_may_carry_a_sign(tmp_path):
    (tmp_path / "x.vec").write_text("+2\n1 2\n")
    assert read_vector(tmp_path / "x.vec").tolist() == [1.0, 2.0]
    (tmp_path / "y.vec").write_text("-2\n")
    with pytest.raises(FormatError, match="y.vec:1: negative length"):
        read_vector(tmp_path / "y.vec")
    (tmp_path / "t.mt").write_text("MT1 +2 2 dense 04\n1 2 3 4\n")
    assert read_tensor(tmp_path / "t.mt").dense_values.tolist() == [[1, 2], [3, 4]]
    (tmp_path / "u.mt").write_text("MT1 2 -2 dense 4\n1 2 3 4\n")
    with pytest.raises(FormatError, match="u.mt:1: header values out of range"):
        read_tensor(tmp_path / "u.mt")


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
    "repeated": ("2 3 4 1.0\n2 3 4 2.0\n", r"duplicate index tuple \(2, 3, 4\)"),
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
    # np.loadtxt peaks at 2.6 times the arrays; a reader holding one Python
    # object per value, at 15 times
    a = gen_problem1(3, 20, 0).A.to_coo()
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
    assert peak < 4 * nbytes + (256 << 10), f"peak {peak} for {nbytes} bytes"


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
    rep = solve(p, cfg)
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
