"""Exact %.17g CSV cells of float64 arrays, formatted by numpy.

`cells(x, sep)` gives `b"%.17g" % v + sep` for every double v of a
1-d array, as an `S32` array, with no Python call per cell:

- Significand.  With e = floor(log10|v|) and k = 16 - e, the exact
  product y = |v|*10^k lies in [1e16, 1e17).  10^k is held as a
  double-double (the nearest double P_hi, then the nearest double P_lo
  to the rest), and y = p + r: p is the rounded product |v|*P_hi, an
  integer since y > 2^53, and r is that product's exact error (Dekker's
  TwoProduct over a Veltkamp split) plus |v|*P_lo.  The 17 digits are
  D = p + floor(r) + (frac(r) > 0.5), where a D of 10^17 is 10^16 one
  decade up.  r is good to a few 1e-15.
- Decade.  log10 can be one off next to a power of ten; a y below 1e16
  or from 1e17 up is recomputed one decade over.
- Fallback.  Python formats the cells the fast path cannot decide:
  within `_MARGIN` of a rounding tie or of a decade edge, non-finite,
  or with |v| outside [1e-280, 1e280], where the split could overflow
  or P_lo turn subnormal.  Zero is exact (D = 0).
- Layout, by the %g rules.  n, the significant digits after the
  leading one, is 16 less D's trailing zeros; -4 <= e < 17 is fixed
  point, any other e scientific with a signed exponent of at least two
  digits.  A cell is a head (sign, any "0.000" and the leading digit),
  a body (the other digits, with the dot) and a tail (exponent and
  separator), each a little-endian uint64 lane pattern: head and tail
  come from tables, the body from 4-digit ASCII groups under byte
  masks.  The body is shifted past the head and the tail ORed in after
  both, which fills four lanes; viewed as `S32`, a cell's NUL padding
  drops when it is read out.

The tables are built on first use, with numpy and integer arithmetic.
"""

import functools

import numpy as np

_MIN, _MAX = 1e-280, 1e280       # |v| range of the fast path
_EMIN, _EMAX = -281, 281         # decades with a 10^(16 - e) table row
_MARGIN = 1e-6                   # nearer a tie or a decade edge: Python
_SPLIT = 134217729.0             # 2^27 + 1, Veltkamp's split constant
_FIXED = _EMAX - _EMIN + 1       # tail-table row of a fixed-point cell
_U8, _U32, _U56, _U63 = (np.uint64(n) for n in (8, 32, 56, 63))


def _lanes(strings) -> np.ndarray:
    """Byte strings of up to 8 bytes as little-endian uint64 values."""
    return np.array([int.from_bytes(s, "little") for s in strings],
                    np.uint64)


@functools.cache
def _tables() -> dict:
    """The formatter's lookup tables, built on the first call."""
    t = {}
    # 10^(16 - e) as a double-double, row e - _EMIN
    hi, lo = [], []
    for e in range(_EMIN, _EMAX + 1):
        k = 16 - e
        if k >= 0:
            n = 10 ** k
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            n = 10 ** -k
            hi.append(1 / n)
            m, q = hi[-1].as_integer_ratio()
            lo.append((q - m * n) / (q * n))
    t["hi"] = np.array(hi)
    c = t["hi"] * _SPLIT
    t["hh"] = c - (c - t["hi"])
    t["hl"] = t["hi"] - t["hh"]
    t["lo"] = np.array(lo)
    # per 4-digit group: its ASCII bytes as a half lane, and its
    # trailing zeros (4 for 0000)
    g = np.arange(10000, dtype=np.int16)
    ascii4 = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
    t["ascii"] = (ascii4 + ord("0")).astype(np.uint8).view("<u4")[:, 0]
    t["zeros"] = sum((g % 10 ** i == 0).astype(np.int8) for i in (1, 2, 3, 4))
    # the first m bytes of a 16-byte row, and a dot at byte m (rows
    # 17 + m; rows below 17 put none)
    ones = [(1 << 8 * b) - 1 for b in range(9)]
    t["low0"] = np.array([ones[min(b, 8)] for b in range(17)], np.uint64)
    t["low1"] = np.array([ones[max(b - 8, 0)] for b in range(17)], np.uint64)
    t["dot0"] = _lanes([b""] * 17 + [bytes(b) + b"." if b < 8 else b""
                                     for b in range(17)])
    t["dot1"] = _lanes([b""] * 17 + [bytes(b - 8) + b"." if 8 <= b < 16
                                     else b"" for b in range(17)])
    # head row 50 * sign + 10 * (leading zeros of a fixed e < 0) + digit
    heads = [sign + zeros + bytes([ord("0") + d]) for sign in (b"", b"-")
             for zeros in (b"", b"0.", b"0.0", b"0.00", b"0.000")
             for d in range(10)]
    t["head"] = _lanes(heads)
    t["head_len"] = np.array([len(h) for h in heads])
    t["head_bits"] = (8 * t["head_len"]).astype(np.uint64)
    t["head_rest"] = np.uint64(64) - t["head_bits"]
    # tail row: a scientific cell's exponent, then (row _FIXED) none;
    # each followed by the separator
    exponents = [b"e%+03d" % e for e in range(_EMIN, _EMAX + 1)] + [b""]
    t["tails"] = {sep: _lanes([x + sep for x in exponents])
                  for sep in (b",", b"\r\n")}
    return t


def _python_cells(values, sep: bytes) -> list:
    """Python's own %.17g, for the cells the fast path cannot decide."""
    return [b"%.17g" % v + sep for v in values]


def _scaled(a, e, t):
    """|v|*10^(16 - e) as the rounded product p and its remainder r."""
    i = e - _EMIN
    hi = t["hi"][i]
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    hh, hl = t["hh"][i], t["hl"][i]
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    r += a * t["lo"][i]
    return p, r


def _significand(x, t):
    """The 17 significant digits of each |v| as an integer D in
    [10^16, 10^17), its decade e, and the indices of the cells left to
    Python; D and e are 0 for those and for zeros."""
    a = np.abs(x)
    fast = (a >= _MIN) & (a <= _MAX)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e, t)
    below = (p - 1e16) + r
    above = (p - 1e17) + r
    off = np.flatnonzero((below < 0.0) | (above >= 0.0))
    if off.size:
        e[off] += np.where(below[off] < 0.0, -1, 1)
        p[off], r[off] = _scaled(a[off], e[off], t)
        below[off] = (p[off] - 1e16) + r[off]
        above[off] = (p[off] - 1e17) + r[off]
    whole = np.floor(r)
    r -= whole
    near = (below < _MARGIN) | (above > -_MARGIN) | (np.abs(r - 0.5) < _MARGIN)
    slow = np.flatnonzero(fast & near | ~fast & (x != 0.0))
    d = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    fast[slow] = False
    d[~fast] = 0
    e[~fast] = 0
    top = d == 10 ** 17
    d -= top * (9 * 10 ** 16)
    e += top
    return d, e, slow


def _digits(d, t):
    """D's leading digit; the other 16 as ASCII in two lanes; and n,
    how many of those 16 are significant."""
    lead = d // 10 ** 16
    d = d - lead * 10 ** 16
    g0 = d // 10 ** 12
    d -= g0 * 10 ** 12
    g1 = d // 10 ** 8
    d -= g1 * 10 ** 8
    g2 = d // 10 ** 4
    g3 = d - g2 * 10 ** 4
    half = [t["ascii"][g].astype(np.uint64) for g in (g0, g1, g2, g3)]
    zeros, z = t["zeros"], t["zeros"][g3]
    z += (g3 == 0) * zeros[g2]
    z += (z == 8) * zeros[g1]
    z += (z == 12) * zeros[g0]
    return lead, half[0] | half[1] << _U32, half[2] | half[3] << _U32, 16 - z


def _body(digits0, digits1, n, m, t):
    """The body lanes: the first m of the 16 digits, then, when n > m,
    a dot and the significant rest; and the body's length in bytes."""
    low0, low1 = t["low0"], t["low1"]
    nm = np.maximum(n, m)
    dot = n > m
    int0 = digits0 & low0[m]
    int1 = digits1 & low1[m]
    frac0 = digits0 & low0[nm] ^ int0
    frac1 = digits1 & low1[nm] ^ int1
    k = m + 17 * dot
    body0 = int0 | frac0 << _U8 | t["dot0"][k]
    body1 = int1 | frac1 << _U8 | frac0 >> _U56 | t["dot1"][k]
    return body0, body1, frac1 >> _U56, nm + dot


def cells(x, sep: bytes) -> np.ndarray:
    """`b"%.17g" % v + sep` for every double v of the 1-d array x; sep
    is "," or CRLF."""
    t = _tables()
    x = np.ascontiguousarray(x, dtype=float)
    d, e, slow = _significand(x, t)
    lead, digits0, digits1, n = _digits(d, t)
    fixed = (e >= -4) & (e < 17)
    neg = fixed & (e < 0)
    # body digits before the dot: e of a fixed cell with e >= 0, all
    # significant ones with e < 0 ("0.000" is in the head), none when
    # scientific
    m = np.where(neg, n, e * fixed)
    body0, body1, body2, length = _body(digits0, digits1, n, m, t)
    k = 50 * np.signbit(x) - 10 * e * neg + lead
    shift, rest = t["head_bits"][k], t["head_rest"][k]
    out = np.empty((x.size, 4), "<u8")
    out[:, 0] = t["head"][k] | body0 << shift
    out[:, 1] = body1 << shift | body0 >> rest
    out[:, 2] = body2 << shift | body1 >> rest
    out[:, 3] = 0
    # the tail starts at byte `end`, in lane end // 8, and may spill
    # into the next lane
    end = t["head_len"][k] + length
    bits = (8 * (end & 7)).astype(np.uint64)
    tail = t["tails"][sep][np.where(fixed, _FIXED, e - _EMIN)]
    lane = end >> 3
    rows = np.arange(x.size)
    out[rows, lane] |= tail << bits
    out[rows, lane + 1] |= tail >> np.uint64(1) >> _U63 - bits
    out = out.view("S32")[:, 0]
    if slow.size:
        out[slow] = _python_cells(x[slow].tolist(), sep)
    return out
