"""The array-native text readers and writers against the line-by-line ones
they replaced (text_oracle): the same bytes written, the same values read,
the same errors with the same line numbers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zbrng.cli import main
from zbrng.generators import group_ring_smatrix, kac_peterson_a1
from zbrng import rng_core
from zbrng.exact import narrow_dtype
from zbrng.hadamard import hadamard_from_text, hadamard_to_text
from zbrng.rng_core import (FormatError, RingError, int_grid, ring_blocks,
                            ring_from_tensor, ring_from_text, ring_lines)
from zbrng.spectra import (SMatrix, _row_order, involution_from_smatrix,
                           smatrix_from_tensor, smatrix_from_text,
                           smatrix_to_text, verlinde_tensor)

from text_oracle import (oracle_hadamard_from_text, oracle_hadamard_to_text,
                         oracle_ring_blocks, oracle_ring_from_text,
                         oracle_row_order, oracle_smatrix_text)


def oracle_ring_text(N, tilde=None):
    lines = ["zbrng 1", "n %d" % len(N)]
    if tilde is not None:
        lines.append("involution " + " ".join(map(str, tilde)))
    lines += oracle_ring_blocks(N)
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    """fn's value, or its error as (type name, message)."""
    try:
        return fn(*args)
    except (FormatError, RingError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# the ring writer

DTYPES = [np.int8, np.int16, np.int32, np.int64]


@st.composite
def tensors(draw):
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["small", "wide", "bounds", "constant"]))
    if kind == "small":
        values = st.integers(-3, 3)
    elif kind == "wide":
        values = st.integers(int(info.min), int(info.max))
    else:
        values = st.sampled_from([int(info.min), int(info.max),
                                  -int(info.max), 0, -1, 1])
    if kind == "constant":
        # every block holds one value
        consts = draw(st.lists(values, min_size=n, max_size=n))
        N = np.repeat(np.array(consts, dtype=dtype), n * n).reshape(n, n, n)
    else:
        N = np.array(draw(st.lists(values, min_size=n ** 3,
                                   max_size=n ** 3)),
                     dtype=dtype).reshape(n, n, n)
    return N


@settings(max_examples=150, deadline=None)
@given(tensors(), st.booleans())
def test_ring_writer_matches_oracle(N, with_tilde):
    tilde = list(range(len(N)))[::-1] if with_tilde else None
    pieces = list(ring_lines(N, tilde))
    assert "".join(pieces) == oracle_ring_text(N, tilde)
    assert all(p.endswith("\n") for p in pieces)
    assert "".join(ring_blocks(N)) == "".join(
        ln + "\n" for ln in oracle_ring_blocks(N))


@pytest.mark.parametrize("n,dtype", [(33, np.int8), (33, np.int64),
                                     (182, np.int16), (1, np.int64)])
def test_ring_writer_slabs(n, dtype):
    # n = 33 puts 30 blocks in a slab and 3 in the next; n = 182 has blocks
    # wider than a slab, one block each
    rng = np.random.default_rng(n)
    info = np.iinfo(dtype)
    N = rng.integers(info.min, info.max, (n, n, n), dtype=dtype,
                     endpoint=True)
    N[0] = 7
    N[-1, :, ::2] = info.max
    assert "".join(ring_lines(N, range(n))) == oracle_ring_text(N, range(n))


def test_verlinde_no_involution_blocks_match_oracle(tmp_path, capsys):
    # the monoid table has no conjugation: the blocks are printed without a
    # header, as the oracle's lines
    text = ("smatrix-numeric 1\nn 4 4\n"
            "1 1 1 1\n1 0 1 0\n1 1 0 0\n1 0 0 0\n")
    f = tmp_path / "mono.smat"
    f.write_text(text)
    assert main(["verlinde", str(f)]) == 1
    out = capsys.readouterr().out
    N = verlinde_tensor(smatrix_from_text(text)).tensor
    assert out == ("no involution: no conjugation permutation exists\n"
                   + "\n".join(oracle_ring_blocks(N)) + "\n")


# ---------------------------------------------------------------------------
# the ring reader

Z3 = np.array([[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
               [[0, 0, 1], [1, 0, 0], [0, 1, 0]]])

Z2 = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])

BREAKS = ["\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x1e", "\x85", "\u2028",
          "\n\n", "\n \t\n"]
SEPS = [" ", "  ", "\t", " \t ", "\x1f", "\u3000"]


@st.composite
def ring_texts(draw):
    """A ring text of Z/3 (maybe scaled) or of a random commutative n <= 3
    tensor, maybe with a line dropped, doubled or replaced, and with some
    lines respaced, indented or ended by another line break."""
    if draw(st.booleans()):
        N = Z3 * draw(st.sampled_from([1, -1, 300, 2 ** 40]))
        n = 3
    else:
        n = draw(st.integers(1, 3))
        N = np.array(draw(st.lists(st.integers(-200, 200), min_size=n ** 3,
                                   max_size=n ** 3))).reshape(n, n, n)
        N = np.where(np.tri(n, dtype=bool).T[..., None], N,
                     N.transpose(1, 0, 2))
    lines = oracle_ring_text(N, range(n)).splitlines()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "double", "replace"]))
        if edit == "drop":
            del lines[at]
        elif edit == "double":
            lines.insert(at, lines[at])
        else:
            lines[at] = draw(st.sampled_from(
                ["", "N 9", "1 2", "0 x", "- 1", "1 -", "1-2", "+1 0 0",
                 "9223372036854775807 0 0", "-9223372036854775808 1 0",
                 "9223372036854775808 0 0", "007 -0 0", "--1 0 0"]))
    # a line is changed with chance noise / 10, so some texts keep whole
    # blocks plain
    noise = draw(st.sampled_from([0, 1, 4]))
    out = []
    for ln in lines:
        brk = "\n"
        if draw(st.integers(0, 9)) < noise:
            if ln and not ln[0].isalpha():
                ln = ln.replace(" ", draw(st.sampled_from(SEPS)))
            if draw(st.booleans()):
                ln = draw(st.sampled_from([" ", "\t", "\u2003"])) + ln
            brk = draw(st.sampled_from(BREAKS))
        out.append(ln + brk)
    text = "".join(out)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@settings(max_examples=400, deadline=None)
@given(ring_texts())
def test_ring_reader_matches_oracle(text):
    got = outcome(ring_from_text, text)
    want = outcome(oracle_ring_from_text, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.n == want.n and got.tilde == want.tilde
        assert got.N.tolist() == want.N.tolist()


def test_ring_reader_mixed_line_ends():
    # block 0's rows end in CR LF and a row ends in a form feed: the grid
    # refuses the block, and the text is read line by line from the start
    text = oracle_ring_text(Z3, range(3))
    lines = text.splitlines()
    mixed = "\n".join(lines[:4]) + "\n" + "\r\n".join(lines[4:7]) + "\r\n" \
        + "\n".join(lines[7:]) + "\n"
    ring = ring_from_text(mixed)
    assert ring.N.tolist() == Z3.tolist()
    ff = "\n".join(lines[:5]) + "\x0c" + "\n".join(lines[5:]) + "\n"
    assert ring_from_text(ff).N.tolist() == Z3.tolist()
    bad = ff.replace("N 2", "N 3")
    with pytest.raises(FormatError) as exc:
        ring_from_text(bad)
    assert str(exc.value) == str(outcome(oracle_ring_from_text, bad)[1])


@settings(max_examples=100, deadline=None)
@given(tensors(), st.booleans())
def test_ring_reader_reads_written_text_in_place(N, reverse):
    # the writer's text, int64 bounds aside, never reaches the line reader:
    # blocks widen N from int8 as they come
    N = np.clip(N.astype(np.int64), -2 ** 63 + 2, 2 ** 63 - 2)
    n = len(N)
    tilde = list(range(n))[::-1] if reverse else list(range(n))
    text = "".join(ring_lines(N, tilde))
    got = rng_core._ring_grid(text)
    assert got is not None
    assert got[0] == n and got[2] == tilde
    assert got[1].tolist() == N.tolist()
    assert got[1].dtype == np.dtype(narrow_dtype(int(np.abs(N).max())))


def test_ring_reader_line_path_parses_blocks_as_grids(monkeypatch):
    # text the in-place pass refuses is read line by line, but each block's
    # rows still go to int_grid: one int() per token only for bad blocks
    def refuse(rows, n):
        raise AssertionError("a block read token by token")
    monkeypatch.setattr(rng_core, "_int_rows", refuse)
    a = np.arange(4)
    N = 7 * (a[:, None, None] + a[None, :, None]) - a - 20
    text = oracle_ring_text(N, range(4))
    for form in (text.replace("\n", "\r\n"), text.replace("\nN ", "\n\nN "),
                 " " + text.replace("\n", " \n")):
        assert rng_core._ring_grid(form) is None
        assert ring_from_text(form).N.tolist() == N.tolist()


@pytest.mark.parametrize("head", [
    "zbrng 1\nn 3 \ninvolution 0 1 2\n", "zbrng 1\nn  3\ninvolution 0 1 2\n",
    "zbrng 1\nn 3\ninvolution 0  1 2\n", "zbrng 1\nn 3\ninvolution\t0 1 2\n",
    "zbrng 1\n\nn 3\ninvolution 0 1 2\n", " zbrng 1\nn 3\ninvolution 0 1 2\n",
    "zbrng 1\nn 0003\ninvolution 0 1 2\n", "zbrng 1\nn 3 x\ninvolution 0 1 2\n",
    "zbrng 1\nn 3\ninvolution 0 1 2 x\n", "zbrng 1\nn 3\ninvolution 0 1\n",
    "zbrng 1\nn 3\ninvolution 0 1 2 3\n", "zbrng 1\nn 3\ninvolution 0 1 3\n",
    "zbrng 1\nn 3\ninvolution 0 1 %s\n" % ("0" * 10 + "2"),
    "zbrng 1\nn 3\ninvolution 0 1 %s\n" % ("9" * 5000),
    "zbrng 1\nn %s\ninvolution 0 1 2\n" % ("0" * 10 + "3"),
    "zbrng 1\nn %s\ninvolution 0 1 2\n" % ("9" * 5000),
    "zbrng 1\nn 0\ninvolution\n"])
def test_ring_reader_header_forms(head):
    # header lines other than the writer's are read, or refused, by the
    # line reader, as before
    text = head + "\n".join(oracle_ring_blocks(Z3)) + "\n"
    got = outcome(ring_from_text, text)
    want = outcome(oracle_ring_from_text, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.N.tolist() == want.N.tolist() and got.tilde == want.tilde


@pytest.mark.parametrize("text,rows,cols,want", [
    ("-1 2\n3 -4", 2, 2, [[-1, 2], [3, -4]]),
    ("0", 1, 1, [[0]]),
    ("007 -0 -12", 1, 3, [[7, 0, -12]]),
    ("-9223372036854775806 1", 1, 2, [[-2 ** 63 + 2, 1]]),
    ("1  2\n3 4", 2, 2, None), (" 1 2\n3 4", 2, 2, None),
    ("1 2\n3 4\n", 2, 2, None), ("1 2 3\n4", 2, 2, None),
    ("1 2\n3\t4", 2, 2, None), ("1 +2\n3 4", 2, 2, None),
    ("1 2\n3 4", 1, 4, None), ("9223372036854775807 0", 1, 2, None),
    ("-9223372036854775808 0", 1, 2, None), ("1 2\n3 \u0663", 2, 2, None),
    ("", 1, 1, None)])
def test_int_grid(text, rows, cols, want):
    # the grids it takes, and the ones it leaves to the line reader
    got = int_grid(text, rows, cols)
    assert (got if got is None else got.tolist()) == want


@pytest.mark.parametrize("row", ["0 -", "- 1", "0 1-", "0 --1", "1-0 ",
                                 "1-0", "-1 -", "0 -+1", "1 -\t"])
def test_ring_reader_stray_signs_reach_no_fromstring(row):
    # a stray sign makes np.fromstring stop early or join two tokens, with
    # a DeprecationWarning (an error in later numpy): int_grid must leave
    # such a block to the line reader and its message
    lines = oracle_ring_text(Z2, range(2)).splitlines()
    lines[4] = row
    text = "\n".join(lines) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(ring_from_text, text)
    assert got == outcome(oracle_ring_from_text, text)


def test_ring_reader_long_tokens_and_crlf():
    # tokens padded with zeros past 20 characters put block 0 beyond the
    # header search, and CR LF line ends every header: both read alike
    text = oracle_ring_text(Z3, range(3))
    padded = text.replace("\n0 ", "\n" + "0" * 30 + " ")
    crlf = text.replace("\n", "\r\n")
    for form in (padded, crlf):
        ring = ring_from_text(form)
        assert ring.N.tolist() == Z3.tolist() and ring.tilde == (0, 1, 2)


@pytest.mark.parametrize("text", [
    "zbrng 1\nn 1\ninvolution 0\nN 0\n", "zbrng 1\nn 1\ninvolution 0\nN 0",
    "zbrng 1\nn 1\ninvolution 0\nN 0\n\n",
    "zbrng 1\nn 2\ninvolution 0 1\nN 0\n", "zbrng 1\nn 1\ninvolution 0\n"])
def test_ring_reader_missing_rows(text):
    with pytest.raises(FormatError) as exc:
        ring_from_text(text)
    assert str(exc.value) == "malformed ring file: list index out of range"
    assert outcome(oracle_ring_from_text, text)[1] == str(exc.value)


# ---------------------------------------------------------------------------
# s-matrix text

POOL = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -2.5e300, 1 / 3]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_numeric_smatrix_round_trip(data):
    n = data.draw(st.integers(1, 5))
    parts = data.draw(st.lists(st.sampled_from(POOL), min_size=2 * n * n,
                               max_size=2 * n * n))
    a = np.array(parts).view(np.complex128).reshape(n, n)
    s = SMatrix.numeric(a)
    text = smatrix_to_text(s)
    assert text == oracle_smatrix_text(s)
    back = smatrix_from_text(text)
    # bit for bit: -0.0 stays -0.0, in either part
    assert back.array.view(np.uint64).tolist() == a.view(np.uint64).tolist()
    assert smatrix_to_text(back) == text


@pytest.mark.parametrize("s", [kac_peterson_a1(40), group_ring_smatrix([3, 5]),
                               group_ring_smatrix([2, 2, 2]),
                               group_ring_smatrix([4])],
                         ids=["kp40", "z15", "g8", "z4"])
def test_smatrix_writer_matches_oracle(s):
    text = smatrix_to_text(s)
    assert text == oracle_smatrix_text(s)
    assert smatrix_to_text(smatrix_from_text(text)) == text


@pytest.mark.parametrize("text,msg", [
    ("smatrix-numeric 1\nn 2 2\n1 x\n1 2 3\n", "complex()"),
    ("smatrix-numeric 1\nn 2 2\n1 2 3\n1 x\n", "row has 3 entries"),
    ("smatrix 1\nn 2 2\n1 z\n1 2 3\n", "syntax error"),
    ("smatrix 1\nn 2 2\n1 2\n1 2 3\n", "row has 3 entries"),
])
def test_smatrix_reader_first_error_in_row_order(text, msg):
    with pytest.raises(ValueError, match=msg):
        smatrix_from_text(text)


# ---------------------------------------------------------------------------
# +-1 text

@st.composite
def pm_texts(draw):
    n = draw(st.integers(1, 5))
    a = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    ints = draw(st.booleans())
    lines = [" ".join(map(str, r)) if ints else
             "".join("+" if x == 1 else "-" for x in r) for r in a.tolist()]
    if draw(st.booleans()):
        at = draw(st.integers(0, n - 1))
        lines[at] = draw(st.sampled_from(
            ["", "+-x", "1 2", "1 x", "+1 -1", "01 -1", "1\t-1", "+", "1",
             "++", "1 -1 1", "- 1", "1  -1", " +- "]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", "\t"])))
    brk = draw(st.sampled_from(["\n", "\n", "\r\n", "\x0c"]))
    return brk.join(lines) + draw(st.sampled_from(["", "\n", brk]))


@settings(max_examples=400, deadline=None)
@given(pm_texts())
def test_pm_reader_matches_oracle(text):
    got = outcome(hadamard_from_text, text)
    want = outcome(oracle_hadamard_from_text, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


@pytest.mark.parametrize("text,msg", [
    ("++\n+-\n\n+x\n", "bad character on line 4"),
    ("1 1\n\n1 2\n", "entries not +-1 on line 3"),
    ("1 1\n1 y\n", "bad entry on line 2"),
    ("+++\n+-\n", "matrix not square"),
    # as many signs as 3 rows of 3 and their newlines, rows of 4, 2 and 3
    ("++++\n++\n+++\n", "matrix not square"),
    (" \n\t\n", "empty matrix"),
])
def test_pm_reader_errors(text, msg):
    with pytest.raises(FormatError) as exc:
        hadamard_from_text(text)
    assert str(exc.value) == msg


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 9), st.data())
def test_pm_writer_matches_oracle(n, data):
    a = np.array(data.draw(st.lists(st.sampled_from([1, -1, 0, 2]),
                                    min_size=n * n, max_size=n * n)))
    a = a.reshape(n, n)
    assert hadamard_to_text(a) == oracle_hadamard_to_text(a)


# ---------------------------------------------------------------------------
# the row order of numeric s-matrices

def test_row_order_matches_oracle_on_z15_permutations():
    s = group_ring_smatrix([3, 5])
    ring = ring_from_tensor(15, verlinde_tensor(s).tensor,
                            involution_from_smatrix(s))
    rows = smatrix_from_tensor(ring).array
    assert rows.dtype == np.complex128
    rng = np.random.default_rng(15)
    for _ in range(200):
        perm = rows[rng.permutation(15)]
        assert _row_order(perm) == oracle_row_order(perm)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_order_ties_and_signed_zeros(data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    pool = [0.0, -0.0, 1.0, 1.0000001, 1.0000004, -1e-7, 2e-7, 0.5]
    parts = data.draw(st.lists(st.sampled_from(pool), min_size=2 * rows * cols,
                               max_size=2 * rows * cols))
    a = np.array(parts).view(np.complex128).reshape(rows, cols)
    assert _row_order(a) == oracle_row_order(a)
