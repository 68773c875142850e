"""Exact decimal text of double arrays, whole blocks at a time.

``write(fh, block, precision)`` writes the bytes that
``np.savetxt(fh, block, delimiter=",", fmt=f"%.{precision}g")`` writes, for
precision 15 or 17, without calling ``%`` on every value.

Each value a is written from the integer D = a·10^p rounded half to even,
with p = precision - 1 - e and 10^e ≤ |a| < 10^(e+1), e read exactly from a
table of the least double at or above each 10^x. For 0 ≤ p ≤ 22, 10^p is an
exact double, so a·10^p is formed exactly as a double-double (Dekker's
product on Veltkamp halves; numpy contracts no multiply-add into an FMA),
and D is its correctly rounded integer: the digits ``%`` gets from David
Gay's ``dtoa``, carried into e when D rounds up to 10^precision. The text is
then laid out by C's ``%g`` rules from the sign, the exponent and the count
of significant digits: one gather from a table with a row per layout, then
one compaction, a sub-block of values at a time. NaN, ±inf, and values
outside [10^(precision-23), 10^precision) are written by Python's own ``%``
and spliced in.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: values laid out at a time (or one row, if wider): their temporaries,
#: about 160 bytes a value at the gather, stay near 160 KB
_CHUNK_VALUES = 2**10

#: 2^27 + 1: Veltkamp's constant, which splits a double into two 26-bit halves
_SPLIT = 134217729.0


def _split(x):
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


#: 10^p for every p whose power is an exact double, and its Veltkamp halves
_POW10 = 10.0 ** np.arange(23)
_POW10_HI, _POW10_LO = _split(_POW10)

#: the four ASCII digits of every integer below 10^4, one uint32 each
_GROUP4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)), dtype=np.uint32)

#: trailing zero digits of every integer below 10^4, written with four digits
_TRAILING_ZEROS = np.array([4] + [len(str(i)) - len(str(i).rstrip("0")) for i in range(1, 10**4)],
                           dtype=np.int64)


def _rounded(a, p):
    """a·10^p rounded half to even, as int64, for a > 0, 0 ≤ p ≤ 22 and
    a·10^p < 2^62: exact, from the error-free product of a and 10^p."""
    hi = a * _POW10[p]
    a1, a2 = _split(a)
    t1, t2 = _POW10_HI[p], _POW10_LO[p]
    lo = a1 * t1   # Dekker's product: a·10^p = hi + lo exactly
    lo -= hi
    np.multiply(a1, t2, out=a1)
    lo += a1
    np.multiply(a2, t1, out=t1)
    lo += t1
    np.multiply(a2, t2, out=t2)
    lo += t2
    del a1, a2, t1, t2
    k = np.rint(hi)
    hi -= k   # d: exact, |d| ≤ 1/2, and 0 when hi ≥ 2^52
    k = k.astype(np.int64)
    m = np.rint(lo)
    lo -= m   # f: exact, |f| ≤ 1/2, and |f| ≤ ulp(hi)/2 ≤ 1/4 when hi < 2^52
    k += m.astype(np.int64)
    del m
    # a·10^p = k + d + f, and each sum below has the sign of its exact value
    up = hi - 0.5
    up += lo
    hi += 0.5
    hi += lo
    k += up > 0
    k -= hi < 0
    tie = np.flatnonzero((up == 0) | (hi == 0))   # k ± 1/2 exactly: to the even neighbour
    if tie.size:
        k[tie] += np.where(up[tie] == 0, 1, -1) * (k[tie] & 1)
    return k


class _Layout:
    """The source columns of one value's text and the table that lays it out.

    A value's source row holds the 4·groups digit bytes of D (right-aligned,
    so its ``precision`` digits are the last ones), then the constant bytes
    '0'-'9', '-', '.', 'e', '+', its delimiter, and 0. The row of ``table``
    for a sign, an exponent x and a count k of significant digits lists the
    source column of each byte of its text, padded with the 0 column that
    the compaction drops; ``length`` counts the bytes that are not padding.
    """

    def __init__(self, precision: int):
        self.precision = P = precision
        self.groups = G = -(-P // 4)
        digit0 = 4 * G
        self.minus, self.dot, self.exp, self.plus, self.delim, self.pad = range(digit0 + 10, digit0 + 16)
        self.width = self.pad + 1
        self.x_min = P - 23   # the exponents of the exact path: e ∈ [P-23, P-1], then a carry
        self.x_count = P - self.x_min + 1
        # the least double at or above each 10^x (|a| ≥ 10^x exactly when |a| ≥ it), then NaN, which
        # no |a| reaches; ``below[b]`` of them lie at or below the least double of biased exponent b
        tens = [Fraction(10)**x for x in range(self.x_min, P + 1)]
        self.powers = np.array([f if (f := float(t)) >= t else math.nextafter(f, math.inf) for t in tens]
                               + [np.nan])
        self.below = np.searchsorted(self.powers, (np.arange(2048) << 52).view(float), side="right")
        digits = list(range(digit0 - P, digit0))

        def zeros(count):
            return [digit0] * count

        def text(negative, x, k):
            if x < -4 or x >= P:
                power = [digit0 + int(c) for c in f"{abs(x):02d}"]
                body = digits[:1] + ([self.dot] + digits[1:k] if k > 1 else [])
                body += [self.exp, self.minus if x < 0 else self.plus] + power
            elif x < 0:
                body = zeros(1) + [self.dot] + zeros(-x - 1) + digits[:k]
            elif k > x + 1:
                body = digits[:x + 1] + [self.dot] + digits[x + 1:k]
            else:
                body = digits[:k] + zeros(x + 1 - k)
            return ([self.minus] if negative else []) + body

        rows = [text(s, x, k) for s in (False, True)
                for x in range(self.x_min, P + 1) for k in range(1, P + 1)]
        self.zero = len(rows)   # then "-0", then the value spliced in later
        rows += [zeros(1), [self.minus] + zeros(1), []]
        self.table = np.full((len(rows), P + 7), self.pad, dtype=np.int32)
        for i, row in enumerate(rows):
            self.table[i, :len(row) + 1] = row + [self.delim]
        self.length = np.array([len(row) + 1 for row in rows])

    def source(self, values: int, width: int) -> np.ndarray:
        """Source rows for ``values`` numbers laid out in rows of ``width``,
        with every column but the digits of D filled in."""
        src = np.zeros((values, self.width), dtype=np.uint8)
        digit0 = 4 * self.groups
        src[:, digit0:digit0 + 10] = np.frombuffer(b"0123456789", dtype=np.uint8)
        src[:, self.minus:self.pad] = np.frombuffer(b"-.e+,", dtype=np.uint8)
        src[width - 1::width, self.delim] = ord("\n")
        return src


_LAYOUTS = {precision: _Layout(precision) for precision in (15, 17)}


def _text(a: np.ndarray, layout: _Layout, src: np.ndarray, base: np.ndarray) -> bytes:
    """The text of the 1-D array ``a``, each value followed by the delimiter
    of its row of ``src``; ``base[i]`` is the offset of row i in ``src``."""
    P = layout.precision
    src, base = src[:len(a)], base[:len(a)]
    mag = np.abs(a)
    # i powers ≤ |a| (a binade holds one at most): 10^x ≤ |a| < 10^(x+1) at x = x_min+i-1, p = 23-i
    i = layout.below[mag.view(np.int64) >> 52]
    i += mag >= layout.powers[i]
    other = (i == 0) | (i == layout.x_count)   # 0, NaN, ±inf, and the values % writes
    i[other], mag[other] = 23, 1.0   # p = 0 and D = 1: placeholders their rows never read
    D = _rounded(mag, 23 - i)
    carry = D == 10**P   # rounded up to the next power of ten
    D[carry] = 10**(P - 1)
    i += carry

    G = layout.groups
    groups = np.empty((len(a), G), dtype=np.int64)
    for j in range(G - 1, 0, -1):
        np.divmod(D, 10**4, out=(D, groups[:, j]))
    groups[:, 0] = D
    np.take(_GROUP4, groups, out=src.view(np.uint32)[:, :G], mode="clip")
    cls = i * P   # row of the table: sign, exponent, significant digits
    del i, D, mag   # each temporary goes once used: the gather below sets the peak
    zeros = _TRAILING_ZEROS[groups[:, G - 1]]   # trailing zeros of D
    more, j = np.flatnonzero(zeros == 4), G - 2
    while more.size:
        last = _TRAILING_ZEROS[groups[more, j]]
        zeros[more] += last
        more, j = more[last == 4], j - 1
    del groups
    cls -= zeros
    del zeros
    sign = np.signbit(a)
    cls += sign * (layout.x_count * P)
    cls -= 1
    cls[other] = layout.zero + sign[other]
    fallback = np.flatnonzero(other & (a != 0))
    cls[fallback] = layout.zero + 2
    del sign, other
    at = np.take(layout.table, cls, axis=0)
    at += base
    laid = src.ravel()[at]
    del at
    text = laid[laid != 0].tobytes()
    if not fallback.size:
        return text
    length = layout.length[cls]
    starts = np.cumsum(length) - length
    pieces, done = [], 0
    for i in fallback.tolist():
        pieces += [text[done:starts[i]], b"%.*g" % (P, a[i])]
        done = starts[i]
    pieces.append(text[done:])
    return b"".join(pieces)


def write(fh, block: np.ndarray, precision: int):
    """Write the rows of the 2-D float ``block`` to the text file ``fh`` as
    ``np.savetxt(fh, block, delimiter=",", fmt=f"%.{precision}g")`` does."""
    rows, width = block.shape
    if not width:
        fh.write("\n" * rows)
        return
    layout = _LAYOUTS[precision]
    step = max(1, _CHUNK_VALUES // width)
    src = layout.source(min(rows, step) * width, width)
    base = np.arange(0, src.size, layout.width, dtype=np.int32)[:, None]
    for r0 in range(0, rows, step):
        a = np.ascontiguousarray(block[r0:r0 + step], dtype=float).ravel()
        fh.write(_text(a, layout, src, base).decode("ascii"))
