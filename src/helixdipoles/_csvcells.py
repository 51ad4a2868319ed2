"""CSV cells for float64 blocks, byte for byte what ``"%.12g" %`` writes.

:func:`format_block` turns a 2D block into its CSV lines (cells joined by
``,``, rows ended by ``\\n``) with a few dozen numpy passes over the block
instead of one Python ``%`` per cell:

1. **Exponent.** ``floor(log10|x|)``.  It is one off only within a few
   ulps of a power of ten, where the rounded significand below lands on
   10**11 or carries from 10**12: the same digits either way.
2. **Significand.** ``s = |x| * 10**(11 - e)`` with ``10**k`` correctly
   rounded (``float(f"1e{k}")``).  Two roundings leave ``s`` within 3e-4 of
   the exact value, so ``rint(s)`` is the correctly rounded 12-digit
   significand unless ``s`` lies within 1e-3 of a half; a carry to 10**12
   moves the exponent.
3. **Fallback.** Cells whose ``s`` is that close to a half (a possible
   decimal tie, which ``%`` breaks by the exact binary value) or rounds
   outside [10**11, 10**12], non-finite cells and nonzero magnitudes outside
   [1e-99, 1e99) are formatted by ``%`` one at a time: about 0.2% of the
   cells of the CLI's tables.
4. **Layout.** Each cell is three little-endian uint64 words, 24 bytes
   with a fixed slot per part: sign (byte 0), ``0.000`` prefix (1-5), the
   significant digits with the point (6-18), the ``e±dd`` suffix (19-22)
   and the separator (23).  Bytes a cell does not use are NUL, and one
   ``bytes.translate`` over the block deletes them; no cell's text contains
   a NUL.  The ``%g`` rules (fixed notation for exponents -4..11, trailing
   fraction zeros and a bare point dropped, at least two exponent digits)
   live in tables built once at import.

Numpy only, so the CLI can import it without scipy.
"""

from __future__ import annotations

import numpy as np

#: Magnitudes the fast path formats: normal floats whose exponent keeps two
#: digits after rounding (a carry takes 9.99...e98 at most to 1e99).
_LO, _HI = 1e-99, 1e99

#: Exponents ``e`` in -100..100 are table rows ``e + _E0``.
_E0 = 100
_EXPONENTS = range(-_E0, _E0 + 1)

#: ``10**(11 - e)`` correctly rounded, at row ``e + _E0``.
_SCALE = np.array([float(f"1e{11 - e}") for e in _EXPONENTS])


def _word(text: str) -> int:
    """Up to eight ASCII characters as a little-endian uint64 value."""
    return int.from_bytes(text.encode(), "little")


def _is_fixed(e: int) -> bool:
    return -4 <= e < 12


def _group_tables() -> tuple[np.ndarray, list[np.ndarray]]:
    """Per four-digit group ``v`` in 0..9999: its ASCII digits as a word, and
    how many digits up to its last nonzero one a significand has when ``v``
    is its first, second or third group (0 for ``v = 0``)."""
    ascii_digits = np.zeros((10000, 8), dtype=np.uint8)
    # row v of the flattened 10x10x10x10 index grid holds the digits of v
    ascii_digits[:, :4] = np.indices((10,) * 4).reshape(4, -1).T + ord("0")
    v = np.arange(10000)
    significant = 4 - (v % 10 == 0) - (v % 100 == 0) - (v % 1000 == 0)
    return (ascii_digits.view(np.uint64).ravel(),
            [np.where(v > 0, place + significant, 0).astype(np.uint8) for place in (0, 4, 8)])


_GROUP, _DIGITS_UP_TO = _group_tables()

#: Per exponent row: the digits fixed notation writes even when zero (its
#: integer part), and how many digits precede the point (12: no point).
_INTEGER_DIGITS = np.array([e + 1 if _is_fixed(e) and e >= 0 else 0 for e in _EXPONENTS],
                           dtype=np.uint8)
_POINT_AFTER = np.array([(e + 1 if e >= 0 else 12) if _is_fixed(e) else 1
                         for e in _EXPONENTS])

#: First word by row ``e + _E0`` (positive) or ``e + _E0 + len(_EXPONENTS)``
#: (negative): the sign and the ``0.``/``0.000`` prefix of exponents -1..-4.
_HEAD = np.array([_word(sign) | (_word("0." + "0" * (-e - 1)) << 8
                                 if _is_fixed(e) and e < 0 else 0)
                  for sign in ("", "-") for e in _EXPONENTS], dtype=np.uint64)
_NEGATIVE = len(_EXPONENTS)

#: Third word's suffix by exponent row: ``e±dd`` in bytes 3-6.
_SUFFIX = np.array([0 if _is_fixed(e) else _word(f"e{e:+03d}") << 24 for e in _EXPONENTS],
                   dtype=np.uint64)

#: Third word's separator: ``,`` or ``\n`` in byte 7.
_COMMA, _NEWLINE = _word(",") << 56, _word("\n") << 56


def _digit_masks() -> np.ndarray:
    """Words by ``point * 13 + digits`` for a significand written to its
    first ``digits`` digits with the point after ``point`` of them: masks of
    the digits before and after the point in its first eight and last four
    digits, then the point itself (zero where no fraction follows)."""
    rows = []
    for point in range(13):
        for digits in range(13):
            before = (1 << 8 * min(digits, point)) - 1
            after = ((1 << 8 * digits) - 1) ^ before
            dot = ord(".") << 8 * point if digits > point else 0
            rows.append([value >> shift & (1 << 64) - 1
                         for shift in (0, 64) for value in (before, after, dot)])
    return np.array(rows, dtype=np.uint64).T


(_LEAD_BEFORE, _LEAD_AFTER, _LEAD_POINT,
 _TAIL_BEFORE, _TAIL_AFTER, _TAIL_POINT) = _digit_masks()


def format_block(block: np.ndarray) -> bytes:
    """CSV lines of a 2D float64 block, every cell as ``"%.12g" %`` writes it."""
    n_cols = block.shape[1]
    x = block.ravel()
    mag = np.abs(x)
    zero = mag == 0.0
    fast = (mag >= _LO) & (mag < _HI)
    mag[~fast] = 1.0

    row = np.floor(np.log10(mag)).astype(np.intp) + _E0
    scaled = mag * _SCALE[row]
    rounded = np.rint(scaled)
    fast &= (np.abs(scaled - rounded) < 0.499) & (rounded >= 1e11) & (rounded <= 1e12)
    significand = rounded.astype(np.int64)
    carry = np.flatnonzero(significand == 10**12)
    significand[carry] = 10**11
    row[carry] += 1
    significand[zero] = 0  # row is already that of 1.0: exponent 0

    high = significand // 10**8
    rest = significand - high * 10**8
    middle = rest // 10**4
    low = rest - middle * 10**4
    digits = np.maximum(np.maximum(_DIGITS_UP_TO[0][high], _DIGITS_UP_TO[1][middle]),
                        np.maximum(_DIGITS_UP_TO[2][low], _INTEGER_DIGITS[row]))
    layout = _POINT_AFTER[row] * 13 + digits

    # the written digits with the point inserted: 13 bytes over lead and tail
    lead = _GROUP[high] | _GROUP[middle] << 32
    tail = _GROUP[low]
    lead_after = lead & _LEAD_AFTER[layout]
    lead = lead & _LEAD_BEFORE[layout] | lead_after << 8 | _LEAD_POINT[layout]
    tail = (tail & _TAIL_BEFORE[layout] | (tail & _TAIL_AFTER[layout]) << 8
            | lead_after >> 56 | _TAIL_POINT[layout])

    cells = np.empty((x.size, 3), dtype=np.uint64)
    cells[:, 0] = _HEAD[row + np.signbit(x) * _NEGATIVE] | lead << 48
    cells[:, 1] = lead >> 16 | tail << 48
    separators = np.full(n_cols, _COMMA, dtype=np.uint64)
    separators[-1] = _NEWLINE
    cells.reshape(-1, n_cols, 3)[:, :, 2] = ((tail >> 16 | _SUFFIX[row]).reshape(-1, n_cols)
                                             | separators)

    slow = np.flatnonzero(~(fast | zero))
    if slow.size:  # their text, NUL-padded to 23 bytes, before the separator
        text = b"".join([(b"%.12g" % v).ljust(23, b"\0") for v in x[slow].tolist()])
        cells.view(np.uint8)[slow, :23] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 23)
    return cells.tobytes().translate(None, b"\0")
