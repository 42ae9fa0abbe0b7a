"""The three workloads: their inputs (made from the seed), the zbrng command
list of one pass, and a check for every command's output.

Inputs are written as text by this module, never by the program.  A Hadamard
input is a Paley or Sylvester matrix put through a seeded row/column
permutation and sign change of rows and columns; `had vrank` alone reads its
normalized form (row 0 and column 0 all ones).  A character table has its
columns (the basis of the ring) in a seeded order.  Every seed therefore
gives an equivalent input of the same size, and the checks follow the seeded
labelling.
"""

import json
from fractions import Fraction
from math import comb
from random import Random

import numpy as np

from oracles import (CheckError, a1_fusion, a1_smatrix, check_lift, census,
                     cyc_value, group_elements, group_law_tensor,
                     group_table_text, gf2_rank, is_character_table,
                     is_closed, is_subgroup, negation, normalize,
                     normalize_full, paley,
                     parse_lift, parse_pm, parse_ring, parse_smatrix,
                     pm_text, profile_counts, rational_supports, require,
                     ring_tensor, scramble,
                     sylvester, triangular_partitions)

WORKLOADS = ("hadamard", "characters", "lift")


class Spec:
    """Inputs {file name: text}, commands (argv lists) and checks.

    A check is called as check(out, read) with the command's stdout and a
    function returning the text of a file in the work directory; it raises
    CheckError when the output is wrong.  Oracles are computed inside the
    checks, so building a Spec is cheap."""

    def __init__(self):
        self.inputs = {}
        self.commands = []
        self.checks = []

    def cmd(self, argv, check):
        self.checks.append((len(self.commands), check))
        self.commands.append(argv.split())


def build(name, seed):
    return {"hadamard": _hadamard, "characters": _characters,
            "lift": _lift}[name](seed)


def _rng(seed, label):
    return Random("%d:%s" % (seed, label))


def _lazy(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def _sorted_rows(rows):
    return sorted(tuple(r) for r in rows)


def _exact_ints(text):
    kind, rows = parse_smatrix(text)
    require(kind == "exact", "expected an exact s-matrix")
    return [[int(t) for t in r] for r in rows]


def _require_ring(read, fname, N, tilde):
    got, got_tilde, rest = parse_ring(read(fname))
    require(np.array_equal(got, N), "%s: structure constants differ" % fname)
    require(got_tilde == list(tilde), "%s: involution differs" % fname)
    require(not rest, "%s: trailing content" % fname)


def _all_pass(out):
    report = json.loads(out)
    require(len(report) == 6 and all(v["pass"] for v in report.values()),
            "axioms fail: %s" % out.strip())


def _expect(text):
    def check(out, read):
        require(out.strip() == text, "expected %r, got %r" % (text, out))
    return check


# ---------------------------------------------------------------------------
# hadamard: exact +-k splitting, n^4 associativity tensors, invariants

HADAMARD = (
    ("p12", "paley 11", "gen ring parity verify identity smatrix reconstruct "
                        "profile census closed wmatrix vrank equiv"),
    ("p24", "paley 23", "gen ring verify identity profile census vrank "
                        "equiv"),
    ("p32", "paley 31", "gen ring verify profile census vrank"),
    ("s16", "sylvester 4", "gen ring parity verify identity smatrix "
                           "reconstruct reconstruct3 profile census vrank "
                           "equiv"),
    ("s64", "sylvester 6", "gen ring parity reconstruct3 profile census "
                           "vrank"),
)
F2_ORDERS = (3, 8, 16)


def _hadamard(seed):
    sp = Spec()
    for name, gen, steps in HADAMARD:
        kind, arg = gen.split()
        base = paley(int(arg)) if kind == "paley" else sylvester(int(arg))
        rng = _rng(seed, name)
        a = scramble(base, rng)
        sp.inputs[name + ".had"] = pm_text(a)
        steps = steps.split()
        if "equiv" in steps:
            sp.inputs[name + "b.had"] = pm_text(scramble(base, rng))
        if "vrank" in steps:
            sp.inputs[name + "n.had"] = pm_text(normalize_full(a))
        _hadamard_commands(sp, name, gen, base, normalize(a), steps)
    for k in F2_ORDERS:
        sp.cmd("had f2 %d" % k, _expect("f2 ok"))
    return sp


def _hadamard_commands(sp, name, gen, base, H, steps):
    n = len(H)
    k = n // 4
    had, ring = name + ".had", name + ".zbrng"
    N = _lazy(lambda: ring_tensor(H))

    def gen_check(out, read):
        require(parse_pm(read("gen_" + had)) == base, "generator differs")

    def identity_check(out, read):
        toks = out.split()
        require(toks[0] == "identity" and len(toks) == n + 1, "bad identity")
        e = [Fraction(t) for t in toks[1:]]
        T = N()
        nz = [i for i in range(n) if e[i]]
        for j in range(n):
            for m in range(n):
                require(sum(e[i] * int(T[i, j, m]) for i in nz) == (j == m),
                        "identity fails at (%d, %d)" % (j, m))

    def same_rows(fname, scale=1):
        def check(out, read):
            text = read(fname)
            rows = _exact_ints(text) if scale > 1 else parse_pm(text)
            want = [[scale * x for x in r] for r in H]
            require(_sorted_rows(rows) == _sorted_rows(want),
                    "%s is not %d*H up to rows" % (fname, scale))
        return check

    def profile_check(out, read):
        lines = out.split("\n")
        got = {}
        for ln in lines:
            parts = ln.split()
            if len(parts) == 2 and parts[0] != "total":
                got[int(parts[0])] = int(parts[1])
        require(got == profile_counts(H), "profile differs")
        require("total %d" % comb(n, 4) in lines, "profile total")

    def census_check(out, read):
        lines = out.strip().split("\n")
        got = {tuple(int(v) for v in ln.split()) for ln in lines[:-1]}
        want = census(N())
        require(got == want and len(lines) - 1 == len(want), "census differs")
        tail = "count %d" % len(want)
        if k % 2:
            tail += " bound %d" % triangular_partitions(k)
        require(lines[-1] == tail, "census count line %r" % lines[-1])

    def closed_check(out, read):
        sets = [tuple(int(v) for v in ln.split())
                for ln in out.strip().split("\n")]
        want = [(0,)] + [(0, i) for i in range(1, n)] + [tuple(range(n))]
        require(sets == want, "closed family differs")
        require(all(is_closed(N(), S) for S in sets), "unsound closed set")

    def wmatrix_check(out, read):
        W = np.array(parse_pm(read(name + ".w")), dtype=np.int64)
        keep = list(range(2, n))
        A = N()[1][np.ix_(keep, keep)]
        eye = np.eye(n - 2, dtype=np.int64)
        want = np.block([[A + eye, A - eye], [A - eye, -A - eye]])
        require(np.array_equal(W, want), "W-matrix differs")
        require(np.array_equal(W @ W.T, (2 * k * k + 2)
                               * np.eye(len(W), dtype=np.int64)),
                "W-matrix rows not orthogonal")

    def vrank_check(out, read):
        want = gf2_rank([[(1 - x) // 2 for x in r]
                         for r in normalize_full(H)])
        require(int(out) == want, "v-rank %s != %d" % (out.strip(), want))

    table = {
        "gen": ("gen %s -o gen_%s" % (gen, had), gen_check),
        "ring": ("had ring %s -o %s" % (had, ring),
                 lambda out, read: _require_ring(read, ring, N(), range(n))),
        "parity": ("had ring %s --check-parity" % had, _expect("parity ok")),
        "verify": ("verify %s --machine" % ring,
                   lambda out, read: _all_pass(out)),
        "identity": ("identity %s" % ring, identity_check),
        "smatrix": ("smatrix %s -o %s.smat" % (ring, name),
                    same_rows(name + ".smat", scale=k)),
        "reconstruct": ("had reconstruct %s -o %s.rec" % (ring, name),
                        same_rows(name + ".rec")),
        "reconstruct3": ("had reconstruct3 %s -o %s.rec3" % (ring, name),
                         same_rows(name + ".rec3")),
        "profile": ("had profile %s" % had, profile_check),
        "census": ("had census %s" % had, census_check),
        "closed": ("had closed %s" % had, closed_check),
        "wmatrix": ("had wmatrix %s 1 -o %s.w" % (had, name), wmatrix_check),
        # the 4k-2 rank bound that `had vrank` enforces needs row 0 all
        # ones, which the program's row normalization does not give
        "vrank": ("had vrank %sn.had" % name, vrank_check),
        "equiv": ("had equiv %s %sb.had" % (had, name),
                  _expect("indistinguishable")),
    }
    for step in steps:
        sp.cmd(*table[step])


# ---------------------------------------------------------------------------
# characters: cyclotomic arithmetic, exact inversion, entry keys

CHARACTER_GROUPS = (
    # name, cyclic factors, a proper subgroup (as a predicate on elements)
    ("z7", (7,), lambda e: e == (0,)),
    ("z15", (3, 5), lambda e: e[0] == 0),
    ("z9", (3, 3), lambda e: e[0] == 0),
)


def _permuted_group(seed, name, orders):
    """Characters (rows) in mixed-radix order, elements (columns, the ring
    basis) in a seeded order.  Rows are not permuted: the cost of the
    program's exact Gauss-Jordan depends on the row order through fill-in,
    which made one command's time vary twofold from seed to seed."""
    rows, cols = group_elements(orders), group_elements(orders)
    _rng(seed, name).shuffle(cols)
    return rows, cols


def _characters(seed):
    sp = Spec()
    for name, orders, in_sub in CHARACTER_GROUPS:
        rows, cols = _permuted_group(seed, name, orders)
        sp.inputs[name + ".smat"] = group_table_text(orders, rows, cols)
        _group_commands(sp, name, orders, cols, in_sub)
        if name == "z15":
            _numeric_commands(sp, name, orders, cols)

    orders = (2, 2, 2)
    rows, cols = _permuted_group(seed, "g8", orders)
    sp.inputs["g8.smat"] = group_table_text(orders, rows, cols,
                                            literal_order=2)
    table = [[(-1) ** sum(x * y for x, y in zip(a, b)) for b in cols]
             for a in rows]
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    minors = [[table[i][l] * table[j][m] - table[i][m] * table[j][l]
               for (l, m) in pairs] for (i, j) in pairs]
    support = _lazy(lambda: rational_supports(minors))

    def ext2_check(out, read):
        require(_exact_ints(read("e8.smat")) == minors,
                "exterior square differs")

    def ext2_closed(out, read):
        sets = json.loads(out)
        require(list(range(len(pairs))) in sets, "full set missing")
        for S in sets:
            require(all(support()(i, j) <= set(S) for i in S for j in S),
                    "unsound closed set %s" % S)

    sp.cmd("gen ext2 g8.smat -o e8.smat", ext2_check)
    sp.cmd("closed e8.smat --machine", ext2_closed)

    level = 40
    fusion = _lazy(lambda: a1_fusion(level))

    def kp_check(out, read):
        kind, a = parse_smatrix(read("kp.smat"))
        require(kind == "numeric"
                and np.max(np.abs(a - a1_smatrix(level))) < 1e-9,
                "sl2 s-matrix differs")

    def kp_closed(out, read):
        sets = json.loads(out)
        require(list(range(level + 1)) in sets, "full set missing")
        require(all(is_closed(fusion(), S) for S in sets),
                "unsound closed set")

    sp.cmd("gen kp %d -o kp.smat" % level, kp_check)
    sp.cmd("verlinde kp.smat -o kp.zbrng",
           lambda out, read: _require_ring(read, "kp.zbrng", fusion(),
                                           range(level + 1)))
    sp.cmd("closed kp.smat --machine", kp_closed)
    return sp


def _subgroup_sets_check(orders, cols):
    def check(out, read):
        sets = json.loads(out)
        require(list(range(len(cols))) in sets, "full set missing")
        for S in sets:
            require(is_subgroup(orders, cols, S), "unsound closed set %s" % S)
    return check


def _group_commands(sp, name, orders, cols, in_sub):
    n = len(cols)
    table, ring = name + ".smat", name + ".zbrng"
    sub = [i for i, e in enumerate(cols) if in_sub(e)]
    zero = cols.index(tuple(0 for _ in orders))

    def subring_check(out, read):
        kind, rows = parse_smatrix(read(name + ".sub"))
        vals = [[cyc_value(t) for t in r] for r in rows]
        require(is_character_table(vals, orders, [cols[i] for i in sub]),
                "subring is not the subgroup's character table")

    def identity_check(out, read):
        want = " ".join("1" if i == zero else "0" for i in range(n))
        require(out.strip() == "identity " + want, "identity differs")

    sp.cmd("verlinde %s -o %s" % (table, ring),
           lambda out, read: _require_ring(
               read, ring, group_law_tensor(orders, cols),
               negation(orders, cols)))
    sp.cmd("closed %s --machine" % table, _subgroup_sets_check(orders, cols))
    sp.cmd("subring %s %s -o %s.sub" % (table, " ".join(map(str, sub)), name),
           subring_check)
    sp.cmd("identity %s" % ring, identity_check)
    sp.cmd("verify %s --machine" % ring, lambda out, read: _all_pass(out))


def _numeric_commands(sp, name, orders, cols):
    """The same ring through the numeric path: its s-matrix is computed by
    floating-point splitting, and closed subsets are searched on it."""
    smat = name + "n.smat"

    def smatrix_check(out, read):
        kind, a = parse_smatrix(read(smat))
        require(kind == "numeric" and is_character_table(a, orders, cols),
                "numeric s-matrix is not the character table")

    sp.cmd("smatrix %s.zbrng -o %s" % (name, smat), smatrix_check)
    sp.cmd("closed %s --machine" % smat, _subgroup_sets_check(orders, cols))


# ---------------------------------------------------------------------------
# lift: semigroup enumeration, product table, monomial text output

LIFT_GROUPS = (("g44", (4, 4), None), ("g6", (2, 3), None),
               ("g8", (2, 2, 2), 2))
LIFT_SAMPLES = 256


def _lift(seed):
    sp = Spec()
    a = normalize_full(scramble(paley(11), _rng(seed, "p12")))
    k = len(a) // 4
    sp.inputs["p12.smat"] = "smatrix 1\nn 12 12\n" + "".join(
        " ".join(str(k * x) for x in r) + "\n" for r in a)
    sp.cmd("lift p12.smat -o p12.lift", _lift_check(
        seed, "p12", lambda: ring_tensor(a)))

    for name, orders, literal_order in LIFT_GROUPS:
        rows, cols = _permuted_group(seed, name, orders)
        sp.inputs[name + ".smat"] = group_table_text(
            orders, rows, cols, literal_order=literal_order)
        sp.cmd("lift %s.smat -o %s.lift" % (name, name), _lift_check(
            seed, name,
            lambda orders=orders, cols=cols: group_law_tensor(orders, cols)))

    # Z/6 modulo its element of order 2 is Z/3: the class of an element is
    # its Z/3 coordinate.
    orders = (2, 3)
    rows, cols = _permuted_group(seed, "g6", orders)
    d = cols.index((1, 0))
    sp.cmd("verlinde g6.smat -o z6.zbrng",
           lambda out, read: _require_ring(
               read, "z6.zbrng", group_law_tensor(orders, cols),
               negation(orders, cols)))

    def quotient_check(out, read):
        Nq, tilde, rest = parse_ring(read("z6.q"))
        require(Nq.shape == (3, 3, 3), "quotient is not of rank 3")
        label = {}
        for i, ln in enumerate(rest):
            tag, idx, rep, sign = ln.split()
            require(tag == "class" and int(idx) == i and sign == "1",
                    "bad class line %r" % ln)
            require(label.setdefault(int(rep), cols[i][1]) == cols[i][1],
                    "class map does not follow Z/3")
        require(len(rest) == 6 and sorted(label.values()) == [0, 1, 2],
                "class map incomplete")
        for x in range(3):
            for y in range(3):
                for z in range(3):
                    want = int((label[x] + label[y] - label[z]) % 3 == 0)
                    require(Nq[x, y, z] == want, "quotient is not Z/3")

    sp.cmd("quotient2 z6.zbrng %d -o z6.q" % d, quotient_check)
    return sp


def _lift_check(seed, name, target):
    def check(out, read):
        lift = parse_lift(read(name + ".lift"))
        check_lift(lift, target(), _rng(seed, name + ":pairs"), LIFT_SAMPLES)
    return check


def run_checks(spec, outputs, read, skip=()):
    """Messages for every failed check; outputs[i] is command i's stdout.
    Commands in `skip` (those that exited non-zero) are not checked."""
    failures = []
    for idx, check in spec.checks:
        if idx in skip:
            continue
        try:
            check(outputs[idx], read)
        except (CheckError, ValueError, KeyError, IndexError,
                OSError) as exc:
            failures.append("%s: %s: %s" % (" ".join(spec.commands[idx]),
                                            type(exc).__name__, exc))
    return failures
