"""The text readers and writers as they were written before the array
passes: one Python step per line, row or entry.  The tests compare the
program's readers and writers with them, byte for byte and error for
error."""

import numpy as np

from zbrng.exact import format_cyc
from zbrng.rng_core import FormatError, ring_from_tensor

_INT64_MAX = np.iinfo(np.int64).max


def oracle_ring_blocks(N):
    """The n blocks "N i" of the ring text as lines without their newline,
    each row joined from a table of the block's distinct values."""
    for i, block in enumerate(N):
        yield "N %d" % i
        values = np.unique(block.astype(np.int64, copy=False),
                           return_counts=True)[0]
        table = np.array([str(v) for v in values.tolist()], dtype=object)
        cells = table[np.searchsorted(values, block)]
        yield from map(" ".join, cells.tolist())


def oracle_ring_from_text(text):
    """The ring of a text, read from the list of its stripped nonblank
    lines; the same errors, with physical line numbers."""
    stripped = [ln.strip() for ln in text.splitlines()]
    numbers = [no for no, ln in enumerate(stripped, 1) if ln]
    lines = [ln for ln in stripped if ln]
    if not lines or lines[0] != "zbrng 1":
        raise FormatError("missing 'zbrng 1' header")
    try:
        if not lines[1].startswith("n "):
            raise FormatError("missing size line")
        n = int(lines[1].split()[1])
        if n < 1:
            raise FormatError("ring order %d below 1" % n)
        if not lines[2].startswith("involution"):
            raise FormatError("missing involution line")
        tilde = [int(t) for t in lines[2].split()[1:]]
        if len(tilde) != n:
            raise FormatError("involution length != n")
        N = np.zeros((n, n, n), dtype=np.int64)
        for i in range(n):
            at = 3 + i * (n + 1)
            if lines[at] != "N %d" % i:
                raise FormatError("expected 'N %d' at line %d"
                                  % (i, numbers[at]))
            for j in range(n):
                row = [int(v) for v in lines[at + 1 + j].split()]
                if len(row) != n:
                    raise FormatError("row length != n at line %d"
                                      % numbers[at + 1 + j])
                N[i, j] = row
        if 3 + n * (n + 1) != len(lines):
            raise FormatError("trailing content")
    except (IndexError, ValueError, OverflowError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError("malformed ring file: %s" % exc) from exc
    return ring_from_tensor(n, N, tilde)


def oracle_smatrix_text(s):
    """The s-matrix text with every entry formatted where it stands."""
    if s.mode == "exact":
        lines = ["smatrix 1", "n %d %d" % (s.n, s.n)]
        text = np.array([format_cyc(e) for e in s.values], dtype=object)
        lines += [" ".join(row) for row in text[s.ids].tolist()]
    else:
        lines = ["smatrix-numeric 1", "n %d %d" % (s.n, s.n)]
        for row in s.array:
            lines.append(" ".join(repr(complex(v)) for v in row))
    return "\n".join(lines) + "\n"


def oracle_hadamard_from_text(text):
    rows = []
    for ln_no, ln in enumerate(text.splitlines(), 1):
        s = ln.strip()
        if not s:
            continue
        if any(ch.isspace() for ch in s):
            try:
                row = [int(t) for t in s.split()]
            except ValueError as exc:
                raise FormatError("bad entry on line %d" % ln_no) from exc
            if any(x not in (1, -1) for x in row):
                raise FormatError("entries not +-1 on line %d" % ln_no)
        else:
            if any(ch not in "+-" for ch in s):
                raise FormatError("bad character on line %d" % ln_no)
            row = [1 if ch == "+" else -1 for ch in s]
        rows.append(row)
    if not rows:
        raise FormatError("empty matrix")
    if any(len(r) != len(rows) for r in rows):
        raise FormatError("matrix not square")
    return np.array(rows, dtype=np.int64)


def oracle_hadamard_to_text(a):
    return "\n".join("".join("+" if x == 1 else "-" for x in row)
                     for row in np.asarray(a).tolist()) + "\n"


def oracle_row_order(rows):
    """Row indices sorted by the builtin round of every entry's parts."""
    return sorted(range(rows.shape[0]), key=lambda r: tuple(
        (round(rows[r, c].real, 6), round(rows[r, c].imag, 6))
        for c in range(rows.shape[1])))
