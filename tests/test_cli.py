import json

import numpy as np
import pytest

from zbrng.cli import main
from zbrng.hadamard import hadamard_from_text
from zbrng.rng_core import ring_from_text
from zbrng.spectra import smatrix_from_text

NONASSOC = ("zbrng 1\nn 3\ninvolution 0 1 2\n"
            "N 0\n0 1 0\n1 0 0\n0 0 1\n"
            "N 1\n1 0 0\n0 0 1\n0 1 0\n"
            "N 2\n0 0 1\n0 1 0\n2 0 0\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def z3_file(tmp_path, capsys):
    smat = tmp_path / "g3.smat"
    ring = tmp_path / "z3.zbrng"
    assert main(["gen", "group", "3", "-o", str(smat)]) == 0
    assert main(["verlinde", str(smat), "-o", str(ring)]) == 0
    capsys.readouterr()
    return smat, ring


@pytest.fixture
def paley12_file(tmp_path, capsys):
    path = tmp_path / "p12.had"
    assert main(["gen", "paley", "11", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


def test_verify_pass(z3_file, capsys):
    code, out, _ = run(capsys, "verify", str(z3_file[1]))
    assert code == 0
    assert "duality" in out and "FAIL" not in out


def test_verify_machine(z3_file, capsys):
    code, out, _ = run(capsys, "verify", str(z3_file[1]), "--machine")
    assert code == 0
    data = json.loads(out)
    assert all(v["pass"] for v in data.values())


def test_verify_fail_exit1(tmp_path, capsys):
    # Z/3 table with the wrong involution: duality fails
    bad = tmp_path / "bad.zbrng"
    bad.write_text("zbrng 1\nn 3\ninvolution 0 1 2\n"
                   "N 0\n1 0 0\n0 1 0\n0 0 1\n"
                   "N 1\n0 1 0\n0 0 1\n1 0 0\n"
                   "N 2\n0 0 1\n1 0 0\n0 1 0\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1 and "FAIL" in out


def test_identity(z3_file, capsys):
    code, out, _ = run(capsys, "identity", str(z3_file[1]))
    assert code == 0 and out.strip() == "identity 1 0 0"


def test_smatrix_roundtrip(z3_file, capsys):
    code, out, _ = run(capsys, "smatrix", str(z3_file[1]))
    assert code == 0
    s = smatrix_from_text(out)
    assert s.n == 3


def test_smatrix_nonassoc_witness(tmp_path, capsys):
    f = tmp_path / "na.zbrng"
    f.write_text(NONASSOC)
    code, out, _ = run(capsys, "smatrix", str(f))
    assert code == 1
    assert "associativity fails at" in out


def test_verify_no_int64_wrap(tmp_path, capsys):
    f = tmp_path / "wrap.zbrng"
    f.write_text("zbrng 1\nn 2\ninvolution 0 1\nN 0\n%d 0\n0 %d\n"
                 "N 1\n0 %d\n0 0\n" % (2 ** 33, 2 ** 32, 2 ** 32))
    code, out, _ = run(capsys, "verify", str(f), "--machine")
    assert code == 1
    assert json.loads(out)["associativity"] == {"pass": False,
                                                "witness": [0, 0, 1, 1]}


def test_verify_huge_entry_exit2(tmp_path, capsys):
    f = tmp_path / "huge.zbrng"
    f.write_text("zbrng 1\nn 1\ninvolution 0\nN 0\n%d\n" % 2 ** 66)
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2 and err.startswith("input error")


def test_verlinde_emits_ring(z3_file, capsys):
    code, out, _ = run(capsys, "verlinde", str(z3_file[0]))
    assert code == 0
    ring = ring_from_text(out)
    assert ring.n == 3


def test_closed(z3_file, capsys):
    code, out, _ = run(capsys, "closed", str(z3_file[0]))
    assert code == 0
    assert out.splitlines() == ["0", "0 1 2"]


def test_closed_machine(z3_file, capsys):
    code, out, _ = run(capsys, "closed", str(z3_file[0]), "--machine")
    assert code == 0 and json.loads(out) == [[0], [0, 1, 2]]


def test_subring(tmp_path, capsys):
    f = tmp_path / "g4.smat"
    assert main(["gen", "group", "4", "-o", str(f)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "subring", str(f), "0", "2")
    assert code == 0 and smatrix_from_text(out).n == 2
    code, _, err = run(capsys, "subring", str(f), "0", "1")
    assert code == 1 and "not closed" in err
    code, _, err = run(capsys, "subring", str(f), "0", "4")
    assert code == 2 and "out of range" in err


def test_quotient2(tmp_path, capsys):
    smat = tmp_path / "g6.smat"
    ring = tmp_path / "z6.zbrng"
    assert main(["gen", "group", "2", "3", "-o", str(smat)]) == 0
    assert main(["verlinde", str(smat), "-o", str(ring)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "quotient2", str(ring), "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "zbrng 1" and lines[1] == "n 3"
    assert sum(ln.startswith("class ") for ln in lines) == 6
    code, _, err = run(capsys, "quotient2", str(ring), "1")
    assert code == 1 and "not of order 2" in err
    for d in ("99", "-1"):
        code, _, err = run(capsys, "quotient2", str(ring), d)
        assert code == 2 and "out of range" in err


def test_lift(z3_file, capsys):
    code, out, _ = run(capsys, "lift", str(z3_file[0]))
    assert code == 0
    assert out.splitlines()[0] == "zbrng 1"
    code, _, err = run(capsys, "lift", str(z3_file[0]), "--cap", "2")
    assert code == 1 and "exceeds cap" in err


def test_had_ring_parity(paley12_file, capsys):
    code, out, _ = run(capsys, "had", "ring", str(paley12_file),
                       "--check-parity")
    assert code == 0 and out.strip() == "parity ok"


def test_had_ring_roundtrip(paley12_file, capsys):
    code, out, _ = run(capsys, "had", "ring", str(paley12_file))
    assert code == 0
    ring = ring_from_text(out)
    assert ring.n == 12


def test_had_profile(paley12_file, capsys):
    code, out, _ = run(capsys, "had", "profile", str(paley12_file))
    assert code == 0
    assert out.splitlines() == ["4 495", "total 495"]


def test_had_census(paley12_file, capsys):
    code, out, _ = run(capsys, "had", "census", str(paley12_file))
    assert code == 0
    assert out.splitlines() == ["1 1 1 1 1 1 1 1 1", "count 1 bound 1"]


def test_had_closed(paley12_file, capsys):
    code, out, _ = run(capsys, "had", "closed", str(paley12_file))
    assert code == 0
    assert len(out.splitlines()) == 13


def test_had_wmatrix(paley12_file, capsys):
    code, out, _ = run(capsys, "had", "wmatrix", str(paley12_file), "2")
    assert code == 0
    W = hadamard_from_text(out)
    assert W.shape == (20, 20)
    for i in ("0", "12", "-1"):
        code, out, err = run(capsys, "had", "wmatrix", str(paley12_file), i)
        assert (code, out) == (2, "") and "out of range" in err


def test_had_census_order4(tmp_path, capsys):
    # k = 1: the census holds, the triangular bound is for odd k >= 3
    s4 = tmp_path / "s4.had"
    assert main(["gen", "sylvester", "2", "-o", str(s4)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "had", "census", str(s4))
    assert (code, out.splitlines(), err) == (0, ["1", "count 1"], "")


def test_had_reconstruct(paley12_file, tmp_path, capsys):
    ring = tmp_path / "p12.zbrng"
    assert main(["had", "ring", str(paley12_file), "-o", str(ring)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "had", "reconstruct", str(ring))
    assert code == 0
    got = sorted(map(tuple, hadamard_from_text(out).tolist()))
    want = sorted(map(tuple,
                      hadamard_from_text(paley12_file.read_text()).tolist()))
    assert got == want


def test_had_reconstruct3(tmp_path, capsys):
    had = tmp_path / "s16.had"
    ring = tmp_path / "s16.zbrng"
    assert main(["gen", "sylvester", "4", "-o", str(had)]) == 0
    assert main(["had", "ring", str(had), "-o", str(ring)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "had", "reconstruct3", str(ring))
    assert code == 0
    got = hadamard_from_text(out)
    assert got.shape == (16, 16)


def test_had_reconstruct3_takes_the_rings_k(tmp_path, capsys):
    # the (Z/2)^3 ring is of Hadamard type with k = N_000 = 1 (n // 4 = 2)
    smat = tmp_path / "g8.smat"
    ring = tmp_path / "g8.zbrng"
    assert main(["gen", "group", "2", "2", "2", "-o", str(smat)]) == 0
    assert main(["verlinde", str(smat), "-o", str(ring)]) == 0
    capsys.readouterr()
    code, exact, _ = run(capsys, "had", "reconstruct", str(ring))
    assert code == 0
    code, out, err = run(capsys, "had", "reconstruct3", str(ring))
    assert (code, err) == (0, "")
    assert out == exact
    H = hadamard_from_text(out).astype(np.int64)
    assert np.array_equal(H @ H.T, 8 * np.eye(8, dtype=np.int64))


def test_had_f2(capsys):
    code, out, _ = run(capsys, "had", "f2", "3")
    assert code == 0 and out.strip() == "f2 ok"


def test_had_vrank(paley12_file, capsys):
    code, out, _ = run(capsys, "had", "vrank", str(paley12_file))
    assert code == 0 and out.strip() == "10"


def test_had_equiv(paley12_file, tmp_path, capsys):
    other = tmp_path / "p12b.had"
    a = hadamard_from_text(paley12_file.read_text())
    other.write_text("\n".join(
        "".join("+" if x == 1 else "-" for x in row)
        for row in a[::-1].tolist()) + "\n")
    code, out, _ = run(capsys, "had", "equiv", str(paley12_file), str(other))
    assert code == 0 and out.strip() == "indistinguishable"


def test_had_order_outside_domain_exit2(paley12_file, tmp_path, capsys):
    s16 = tmp_path / "s16.had"
    ring = tmp_path / "p12.zbrng"
    assert main(["gen", "sylvester", "4", "-o", str(s16)]) == 0
    assert main(["had", "ring", str(paley12_file), "-o", str(ring)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "had", "closed", str(s16))
    assert (code, out) == (2, "")
    assert err == "input error: k must be odd\n"
    code, out, err = run(capsys, "had", "reconstruct3", str(ring))
    assert (code, out) == (2, "")
    assert err == "input error: k must be 1 mod 3\n"


def test_had_reconstruct_non_hadamard_type_exit2(tmp_path, capsys):
    # the Z/4 ring has a nontrivial involution: outside the +-k splitting
    smat = tmp_path / "g4.smat"
    ring = tmp_path / "z4.zbrng"
    assert main(["gen", "group", "4", "-o", str(smat)]) == 0
    assert main(["verlinde", str(smat), "-o", str(ring)]) == 0
    capsys.readouterr()
    for cmd in ("reconstruct", "reconstruct3"):
        code, out, err = run(capsys, "had", cmd, str(ring))
        assert (code, out) == (2, "")
        assert err == "input error: tilde must be identity\n"


def test_cyclotomic_order_bound_exit2(tmp_path, capsys):
    f = tmp_path / "big.smat"
    f.write_text("smatrix 1\nn 1 1\nz100000000\n")
    code, out, err = run(capsys, "verlinde", str(f))
    assert code == 2 and out == ""
    assert "order out of range 1..1024" in err
    # orders within the bound that combine to one above it
    f.write_text("smatrix 1\nn 2 2\n1 z31\n1 z37\n")
    code, _, err = run(capsys, "verlinde", str(f))
    assert code == 2 and "cyclotomic order 1147 outside 1..1024" in err
    code, _, err = run(capsys, "gen", "group", "31", "37")
    assert code == 2 and "input error" in err
    f.write_text("smatrix 1\nn 1 1\nz1024\n")
    assert run(capsys, "closed", str(f), "--machine")[:2] == (0, "[[0]]\n")


def test_gen_outputs_reload(tmp_path, capsys):
    for argv, n in ((["gen", "sylvester", "3"], 8),
                    (["gen", "paley", "7"], 8)):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hadamard_from_text(out).shape == (n, n)
    code, out, _ = run(capsys, "gen", "kp", "3")
    assert code == 0 and smatrix_from_text(out).n == 4
    code, out, _ = run(capsys, "gen", "ds3")
    assert code == 0 and smatrix_from_text(out).n == 6


def test_gen_ext2_from_group(tmp_path, capsys):
    f = tmp_path / "g8.smat"
    assert main(["gen", "group", "2", "2", "2", "-o", str(f)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "gen", "ext2", str(f))
    assert code == 0 and smatrix_from_text(out).n == 28


def test_gen_kronecker_cli(paley12_file, tmp_path, capsys):
    f = tmp_path / "s4.had"
    assert main(["gen", "sylvester", "2", "-o", str(f)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "gen", "kronecker", str(f),
                       str(paley12_file))
    assert code == 0 and hadamard_from_text(out).shape == (48, 48)


def test_exit2_paths(tmp_path, capsys):
    bad = tmp_path / "bad.had"
    bad.write_text("garbage\n")
    assert run(capsys, "had", "ring", str(bad))[0] == 2
    assert run(capsys, "verify", str(tmp_path / "missing"))[0] == 2
    assert run(capsys, "gen", "paley", "10")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("had", "ring", "{had}", "--tol", "1"),
    ("had", "census", "{had}", "--machine"),
    ("verify", "{ring}", "--tol", "1"),
    ("verlinde", "{smat}", "--machine"),
    ("gen", "paley", "11", "--tol", "1"),
])
def test_flags_only_where_read(argv, paley12_file, z3_file, capsys):
    # --tol and --machine belong to the subcommands that read them
    names = {"had": paley12_file, "smat": z3_file[0], "ring": z3_file[1]}
    with pytest.raises(SystemExit) as exc:
        main([a.format(**names) for a in argv])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "x"])
@pytest.mark.parametrize("cmd", ["verlinde", "closed", "subring"])
def test_tol_outside_domain_exit2(cmd, tol, z3_file, capsys):
    # --tol scales every numeric equality and integrality test
    extra = ["0"] if cmd == "subring" else []
    with pytest.raises(SystemExit) as exc:
        main([cmd, str(z3_file[0])] + extra + ["--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["inf", "nan", "-infj"])
@pytest.mark.parametrize("cmd", ["verlinde", "closed"])
def test_non_finite_smatrix_exit2(cmd, entry, tmp_path, capsys):
    f = tmp_path / "bad.smat"
    f.write_text("smatrix-numeric 1\nn 2 2\n1 1\n1 %s\n" % entry)
    code, out, err = run(capsys, cmd, str(f))
    assert (code, out) == (2, "") and "non-finite entry" in err


def test_numeric_verlinde_no_int64_wrap(tmp_path, capsys):
    # s = 2^63 H2: N_00^0 = 2^63 is integral in floats but not an int64
    f = tmp_path / "big.smat"
    c = 2 ** 63
    f.write_text("smatrix-numeric 1\nn 2 2\n%d %d\n%d %d\n" % (c, c, c, -c))
    code, out, err = run(capsys, "verlinde", str(f))
    assert (code, out) == (2, "") and "exceed int64" in err


def test_deterministic_output(paley12_file, capsys):
    a = run(capsys, "had", "profile", str(paley12_file))
    b = run(capsys, "had", "profile", str(paley12_file))
    assert a == b


def test_generator_and_f2_bounds_exit2(tmp_path, capsys):
    """Every generator writes order <= 1024 and, exact, at most 2^24
    coefficients; had f2 takes 1 <= k <= 24; each violation exits 2 before
    anything large is allocated."""
    files = {}
    for name, argv in (("s32", "sylvester 5"), ("s64", "sylvester 6"),
                       ("g46", "group 2 23"), ("g45", "group 5 9"),
                       ("h48", "paley 47")):
        files[name] = str(tmp_path / name)
        assert main(["gen"] + argv.split() + ["-o", files[name]]) == 0
    capsys.readouterr()
    for argv, msg in (
            (["gen", "sylvester", "11"], "order 2^11 above 1024"),
            (["gen", "sylvester", "40"], "order 2^40 above 1024"),
            (["gen", "paley", "1031"], "order 1032 above 1024"),
            (["gen", "kronecker", files["s64"], files["s32"]],
             "order 2048 above 1024"),
            (["gen", "group"] + ["2"] * 16, "order 65536 above 1024"),
            (["gen", "group", "4", "4", "4", "4", "5"],
             "order 1280 above 1024"),
            (["gen", "group", "7", "9", "11"],
             "order 693 with 360 coefficients per entry above 2^24 "
             "coefficients"),
            (["gen", "kp", "1024"], "order 1025 above 1024"),
            (["gen", "ext2", files["g46"]], "order 1035 above 1024"),
            (["gen", "ext2", files["h48"]], "order 1128 above 1024"),
            (["gen", "ext2", files["g45"]],
             "order 990 with 24 coefficients per entry above 2^24 "
             "coefficients"),
            (["had", "f2", "0"], "k must be in 1..24"),
            (["had", "f2", "-1"], "k must be in 1..24"),
            (["had", "f2", "25"], "k must be in 1..24")):
        assert run(capsys, *argv) == (2, "", "input error: %s\n" % msg), argv
    assert run(capsys, "had", "f2", "1") == (0, "f2 ok\n", "")


def test_generator_size_edges():
    from zbrng.generators import _check_size, gen_sylvester
    from zbrng.hadamard import PreconditionError, f2_tensor
    _check_size(1024, 1)
    _check_size(1024, 16)                   # exactly 2^24 coefficients
    _check_size(256, 256)
    for args in ((1025, 1), (1024, 17), (257, 256)):
        with pytest.raises(ValueError, match="above"):
            _check_size(*args)
    assert gen_sylvester(10).n == 1024
    assert f2_tensor(24).shape == (96, 96, 96)
    with pytest.raises(PreconditionError):
        f2_tensor(25)


def test_memory_error_exits_2(monkeypatch, capsys):
    import zbrng.cli as cli

    def huge(m):
        raise MemoryError()
    monkeypatch.setattr(cli, "gen_sylvester", huge)
    assert run(capsys, "gen", "sylvester", "3") == (
        2, "", "input error: out of memory\n")
