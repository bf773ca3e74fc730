"""The text codec of ``.mt`` and ``.vec`` bodies: ``'%.17g'`` of each
value, formatted in numpy (:func:`_write_rows`), and a parser of chunks
of about ``_TEXT_CHUNK_BYTES``, each cut after whitespace, whose values
have the bits of ``np.fromstring``'s (:func:`_text_values`).  Every text
body, of any size, from a file or a pipe, takes these paths.  Headers,
COO reading, ``.npy`` files and the errors that name a file are in
:mod:`mteq.tensor`, from which this module imports nothing.
"""

import functools
import math

import numpy as np

# The chunks go to _parse_text, whose values have the bits of
# np.fromstring's, by these steps:
#   - The grammar.  A token is [+-]? (D+ (. D*)? | . D+) ([eE] [+-]? D+)?,
#     with D an ASCII digit.  _scan_tokens proves that every token of a
#     chunk is in it from one count of the bytes that are neither
#     whitespace nor digits; else the chunk goes to np.fromstring whole,
#     which raises its own errors and reads nan and inf.
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
# memory bound.

_TEXT_CHUNK_BYTES = 1 << 18
_WRITE_CHUNK_VALUES = 1 << 12
_WHITESPACE = (b" ", b"\n", b"\t", b"\r", b"\v", b"\f")
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


def _write_rows(fh, rows) -> None:
    """Write the 2-D float64 array ``rows`` as :func:`_format_rows` does,
    in chunks of about ``_WRITE_CHUNK_VALUES`` values."""
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


def _text_values(fh, left=None):
    """The values of each chunk of what remains of ``fh``
    (:func:`_text_chunks`), or ``None`` for a chunk that holds a token
    np.fromstring rejects."""
    for buf, size in _text_chunks(fh, left):
        yield _parse_text(buf, size)


def _text_chunks(fh, left=None):
    """The chunks ``(buf, size)`` of what remains of ``fh``, ``left``
    bytes where that is known: the text ``buf[_PAD:_PAD + size]`` of about
    ``_TEXT_CHUNK_BYTES``, or ``left`` if fewer, with ``_PAD`` spaces
    before and after it.  Each chunk is cut after its last whitespace
    byte, and the token it cuts through is carried into the next chunk.
    The chunks of one read share one buffer, with room for a carried
    token of up to ``_PAD`` bytes, as long as any the writer spells; a
    longer one grows it."""
    step = _TEXT_CHUNK_BYTES if left is None else min(left, _TEXT_CHUNK_BYTES)
    room, tail = -1, b""  # no buffer yet
    while True:
        carried = len(tail)
        if carried + step > room:
            room = carried + step + _PAD
            buf = np.empty(-(-(room + 2 * _PAD) // 8) * 8, np.uint8)
            buf[:_PAD] = ord(" ")
        buf[_PAD:_PAD + carried] = np.frombuffer(tail, np.uint8)
        text = memoryview(buf)[_PAD:_PAD + carried + step]
        got = fh.readinto(text[carried:])
        size = carried + got
        cut = _after_last_space(text[:size]) if got else size
        tail = text[cut:size].tobytes()
        if cut:
            buf[_PAD + cut:2 * _PAD + cut] = ord(" ")
            yield buf, cut
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
    """``np.fromstring``'s values of ``text``, which holds a byte that is
    not whitespace, or ``None`` when it rejects a token."""
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
