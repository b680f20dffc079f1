"""Column-at-a-time CSV writer for float64 artifacts.

Every number in an mwfi CSV is ``f"{v:.10e}"``. This module renders whole
float64 columns to that text with NumPy, one bounded chunk of rows at a
time, and produces exactly the bytes the f-string would.

A value takes the vectorised path when its 11 significant digits can be
proven from one scaled float64. With e = floor(log10|v|) and k = 10 - e,
|k| <= 22 makes 10**k exact, so ``|v| * 10**k`` (or the division by
10**-k) carries one rounding of at most half an ulp, under 8e-6 for results
up to 1e11. When that result lies in [1e10, 1e11] and its fraction is at
least 1e-5 away from .5, rounding it gives the same integer as rounding the
exact product, which is the mantissa CPython prints (a result of exactly
1e10 or 1e11 from a misjudged exponent still prints the right power of
ten). The remaining values (non-finite except NaN, subnormal, |k| > 22, or
near a rounding tie) are rendered by the f-string itself.

Each value of a chunk fills a 19-byte token: a pad byte, the sign byte, the
16 bytes ``d.dddddddddde+dd`` and the separator (comma or newline). The
exponent with its ``e`` and sign is one 4-byte word from a table of the
exponents -99..99 (vectorised values need only -12..33). A NaN or fallback
text, at most 18 bytes, fills the slot before the separator from its start.
Byte 0 never occurs in the text, so a chunk's output is its non-zero bytes.
A chunk whose tokens are all full width (no sign, NaN text or fallback
text) has pad and sign bytes of 0 and no other 0 byte: its output is then
the last 17 bytes of every token, taken without testing a byte.
"""

import numpy as np

__all__ = ["render_rows", "write_columns"]

# rows rendered per chunk; larger chunks raise peak memory for no speed
CHUNK_ROWS = 8192

# a token slot holds the longest f"{v:.10e}" text: -d.dddddddddde-ddd
_SLOT = 18
_MAX_K = 22
_POW10 = np.array([float(10**i) for i in range(_MAX_K + 1)])
_M_LO, _M_HI = 10**10, 10**11
_TIE_GUARD = 1e-5

# ASCII digits of 0..9999 (four places) and 0..99 (two places), each row
# read as one integer so that a table lookup is a flat gather
_n = np.arange(10000)
_DIGITS = (np.stack([_n // 1000, _n // 100 % 10, _n // 10 % 10, _n % 10], axis=1) + 48).astype(
    np.uint8
)
_DIGITS4 = _DIGITS.view(np.uint32).ravel()
_DIGITS2 = np.ascontiguousarray(_DIGITS[:100, 2:]).view(np.uint16).ravel()
del _n

# the text e-99..e+99, each read as one integer, indexed by exponent + 99
_EXP_MAX = 99
_EXP4 = np.frombuffer(b"".join(b"e%+03d" % x for x in range(-_EXP_MAX, _EXP_MAX + 1)), np.uint32)

# one column's bytes in a row: the slot (pad, sign, d.dddd dddd dd e+dd) and
# the separator after it
_TOKEN = np.dtype(
    {
        "names": ["pad", "sign", "lead", "dot", "g1", "g2", "g3", "exp", "sep"],
        "formats": ["u1", "u1", "u1", "u1", "u4", "u4", "u2", "u4", "u1"],
        "offsets": [0, 1, 2, 3, 4, 8, 12, 14, _SLOT],
        "itemsize": _SLOT + 1,
    }
)
# a full-width token's text and separator: all bytes after its sign
_FULL = slice(2, _TOKEN.itemsize)


def _slot_text(text: bytes) -> np.ndarray:
    """Text left-aligned in a zero-filled slot."""
    return np.frombuffer(text.ljust(_SLOT, b"\0"), dtype=np.uint8)


def _render_column(v, tok, raw, nan_slot) -> bool:
    """Fill the token fields tok (raw: the same slot bytes) for column v.

    Returns whether every token is full width: no sign, NaN or fallback text.
    """
    a = np.abs(v)
    finite = np.isfinite(v)
    zero = a == 0.0
    # zero and non-finite values take exponent 0
    e = np.floor(np.log10(np.where(finite & ~zero, a, 1.0))).astype(np.int64)
    k = 10 - e
    ok = finite & (np.abs(k) <= _MAX_K)
    with np.errstate(invalid="ignore"):  # inf and NaN rows leave the fast path below
        # one of the two factors is exactly 1.0; |k| > _MAX_K rows are not ok
        up = _POW10.take(np.maximum(k, 0), mode="clip")
        scaled = a * up / _POW10.take(np.maximum(-k, 0), mode="clip")
        frac = scaled - np.floor(scaled)
    ok &= (scaled >= _M_LO) & (scaled <= _M_HI) & (np.abs(frac - 0.5) >= _TIE_GUARD)
    ok |= zero

    # the mantissa m < 2**37 is an exact float, and so is every split below
    m = np.where(ok, np.rint(scaled), 0.0)
    carry = m == _M_HI
    m[carry] = _M_LO
    e[carry] += 1

    hi = np.floor(m / 1e6)
    lo = m - hi * 1e6
    lead = np.floor(hi / 1e4)
    mid = np.floor(lo / 100)
    neg = np.signbit(v)
    tok["pad"] = 0
    tok["sign"] = np.where(neg, ord("-"), 0)
    tok["lead"] = lead + ord("0")
    tok["dot"] = ord(".")
    tok["g1"] = _DIGITS4.take((hi - lead * 1e4).astype(np.intp))
    tok["g2"] = _DIGITS4.take(mid.astype(np.intp))
    tok["g3"] = _DIGITS2.take((lo - mid * 100).astype(np.intp))
    # exponents beyond two digits only occur on fallback rows, rewritten below
    tok["exp"] = _EXP4.take(e + _EXP_MAX, mode="clip")

    short = ~ok
    if not short.any():
        return not neg.any()
    isnan = np.isnan(v)
    raw[isnan] = nan_slot
    for i in np.flatnonzero(short & ~isnan):
        raw[i] = _slot_text(f"{v[i]:.10e}".encode())
    return False


def render_rows(columns, nan: str = "nan") -> bytes:
    """Rows of ``",".join(f"{v:.10e}" ...) + "\\n"`` over float64 columns.

    NaN renders as the nan text (at most 18 characters); the default equals
    the f-string's own text.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n = columns[0].size
    rows = np.empty(n, dtype=[(f"c{j}", _TOKEN) for j in range(len(columns))])
    raw = rows.view(np.uint8).reshape(n, -1)
    nan_slot = _slot_text(nan.encode())
    full = True
    for j, v in enumerate(columns):
        off = j * _TOKEN.itemsize
        full &= _render_column(v, rows[f"c{j}"], raw[:, off : off + _SLOT], nan_slot)
        raw[:, off + _SLOT] = ord("\n") if j == len(columns) - 1 else ord(",")
    if full:
        return raw.reshape(n, len(columns), _TOKEN.itemsize)[:, :, _FULL].tobytes()
    return rows.tobytes().translate(None, b"\0")


def write_columns(path, header: str, columns, nan: str = "nan"):
    """Write header, then one CSV row per index of the equal-length columns."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, columns[0].size, CHUNK_ROWS):
            fh.write(render_rows([c[lo : lo + CHUNK_ROWS] for c in columns], nan))
