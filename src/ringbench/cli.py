"""Command line front end: build rings from the catalog or from spec
files, print property reports, quotient and export rings, emit ideal
lattices as DOT, and run the bundled claim-verification suite.

Exit codes: 0 success, 1 suite failure or a closed output pipe, 2 bad
input, 3 resource limit (construction overruns always; skipped report
properties only under --strict).
"""

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from ringbench.core import (
    DEFAULT_LIMITS, ConstructionError, DomainError, InputError, LimitError,
    StructureRing, SubRing, units_and_regulars,
)
from ringbench.construct import (
    as_structure_ring, catalog, catalog_names, group_sum_ideal,
    relative_augmentation_ideal,
)
from ringbench.ideals import (
    ideal_closure, ideal_lattice, ideals_by_size, prime_radical, quotient,
)
from ringbench import props


# -- ring spec files ---------------------------------------------------------------

def parse_ring_text(text, name=None):
    """Build a StructureRing from spec text.

    Directives, one per line: `name ...`, `shape m1 m2 ...`,
    `one c1 ... ck`, and `mul i j -> c1 ... ck` giving the coefficients of
    the product of basis elements i and j.  Omitted products are zero,
    `#` starts a comment, and coefficients are reduced modulo the shape
    before they are stored as int64.  Moduli must be below 2**63.
    """
    shape = None
    one = None
    muls = []
    rname = name

    def ints(parts, lineno, what):
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise InputError("line %d: %s must be integers" % (lineno, what))

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].lower()
        if head == "name":
            if len(parts) < 2:
                raise InputError("line %d: name needs a value" % lineno)
            rname = " ".join(parts[1:])
        elif head == "shape":
            shape = ints(parts[1:], lineno, "shape moduli")
            if not shape or any(m < 2 for m in shape):
                raise InputError("line %d: shape needs moduli >= 2" % lineno)
            if any(m >= 1 << 63 for m in shape):
                raise InputError("line %d: shape moduli must be below 2**63"
                                 % lineno)
        elif head == "one":
            one = (ints(parts[1:], lineno, "one coefficients"), lineno)
        elif head == "mul":
            if len(parts) < 4 or parts[3] != "->":
                raise InputError("line %d: expected `mul i j -> c1 ... ck`"
                                 % lineno)
            i, j = ints(parts[1:3], lineno, "mul indices")
            coeffs = ints(parts[4:], lineno, "mul coefficients")
            muls.append((i, j, coeffs, lineno))
        else:
            raise InputError("line %d: unknown directive %r" % (lineno, head))

    if shape is None:
        raise InputError("missing `shape` line")
    if one is None:
        raise InputError("missing `one` line")
    k = len(shape)
    one_coeffs, one_line = one
    if len(one_coeffs) != k:
        raise InputError("line %d: `one` needs %d coefficients"
                         % (one_line, k))
    tensor = np.zeros((k, k, k), dtype=np.int64)
    for i, j, coeffs, lineno in muls:
        if not (0 <= i < k and 0 <= j < k):
            raise InputError("line %d: indices out of range" % lineno)
        if len(coeffs) != k:
            raise InputError("line %d: product needs %d coefficients"
                             % (lineno, k))
        tensor[i, j] = [c % m for c, m in zip(coeffs, shape)]
    try:
        return StructureRing(shape, tensor,
                             one=tuple(c % m for c, m in zip(one_coeffs, shape)),
                             name=rname)
    except InputError as exc:
        raise _with_spec_lines(exc, muls, one_line) from None


def _with_spec_lines(exc, muls, one_line):
    """The axiom error of a parsed tensor, each violation followed by the
    spec lines it involves: for associativity on (i, j, l) the `mul i j`
    and `mul j l` lines, for an order incompatibility in c[i][j] the `mul
    i j` line (the last of each, as the tensor keeps), and for the
    identity law or 1 = 0 the `one` line."""
    last = {(i, j): lineno for i, j, _, lineno in muls}
    notes = []
    for violation in str(exc).removeprefix("ring axioms fail: ").split("; "):
        nums = [int(x) for x in re.findall(r"\d+", violation)]
        if violation.startswith("associativity"):
            pairs = dict.fromkeys([tuple(nums[:2]), tuple(nums[1:])])
        elif violation.startswith("order"):   # n_a * c[i][j][m] ... mod n_m
            pairs = [tuple(nums[1:3])]
        else:   # the identity law or one equals zero
            notes.append("%s (line %d)" % (violation, one_line))
            continue
        notes.append("%s (%s)" % (violation, ", ".join(
            "line %d" % last[p] if p in last else "no `mul %d %d` line" % p
            for p in pairs)))
    return InputError("ring axioms fail: " + "; ".join(notes))


def serialize_ring(ring, limits=DEFAULT_LIMITS):
    """Spec text for any finite ring (converted to a structure ring)."""
    ring = as_structure_ring(ring, limits)
    out = []
    if ring.name:
        out.append("name %s" % ring.name)
    out.append("shape " + " ".join(str(m) for m in ring.shape.moduli))
    out.append("one " + " ".join(str(c) for c in ring.one))
    # the nonzero products b_i b_j, in (i, j) order, read in one pass
    ii, jj = ring.tensor.any(axis=2).nonzero()
    for i, j, row in zip(ii.tolist(), jj.tolist(),
                         ring.tensor[ii, jj].tolist()):
        out.append("mul %d %d -> %s" % (i, j, " ".join(map(str, row))))
    return "\n".join(out) + "\n"


def load_ring(source, limits=DEFAULT_LIMITS):
    """Catalog name, or a path to a ring spec file."""
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError("cannot read %s: %s" % (source, exc))
        return parse_ring_text(text, name=os.path.basename(source))
    if os.sep in source or source.endswith(".ring"):
        raise InputError("no such file: %s" % source)
    return catalog(source, limits)


# -- ideal generator resolution ------------------------------------------------------

def least_ideal(ring, limits=DEFAULT_LIMITS):
    """Lex-first minimal nonzero proper two-sided ideal.

    The first nonzero ideal in (size, elements) order: it is minimal, and
    every other minimal ideal comes after it.  So the sweep stops there.
    When the minimal ideal is unique this is the least ideal.
    """
    ideal = next(i for i in ideals_by_size(ring, limits=limits)
                 if not i.is_zero())
    if ideal.is_whole():
        raise InputError("ring has no proper nonzero ideal")
    return ideal


def resolve_gens(ring, spec, limits=DEFAULT_LIMITS):
    """Ideal described by a --gens value: `group-sum`, `least`, `0`, or
    semicolon-separated coefficient vectors like `0,1,0;1,1,0`."""
    s = spec.strip().lower()
    if s == "group-sum":
        return group_sum_ideal(ring, limits)
    if s == "least":
        return least_ideal(ring, limits)
    if s in ("0", "zero"):
        return (ring.zero,)
    gens = []
    for chunk in s.split(";"):
        parts = chunk.replace(",", " ").split()
        if not parts:
            continue
        try:
            coeffs = [int(p) for p in parts]
        except ValueError:
            raise InputError("bad generator %r; use integers, `group-sum`, "
                             "`least`, or `0`" % chunk)
        k = ring.shape.width
        if len(coeffs) != k:
            raise InputError("generator %r needs %d coefficients"
                             % (chunk, k))
        gens.append(ring.element(coeffs))
    if not gens:
        raise InputError("empty --gens value")
    return ideal_closure(ring, gens, limits=limits)


# -- commands ---------------------------------------------------------------------

def print_report(ring, args, limits):
    report = props.full_report(ring, limits=limits)
    lines = report.lines()
    if args.pretty:
        rows = []
        for line in lines:
            body, _, witness = line.partition(";witness=")
            key, _, value = body.partition("=")
            if value.startswith("skipped"):
                value, witness = "skipped", body.partition(";limit=")[2]
            rows.append((key, value, witness))
        width_key = max(len(r[0]) for r in rows)
        width_val = max(len(r[1]) for r in rows)
        for key, value, witness in rows:
            print("%-*s  %-*s  %s" % (width_key, key, width_val, value,
                                      witness))
    else:
        for line in lines:
            print(line)
    if args.strict and report.skipped:
        return 3
    return 0


def cmd_report(args, limits):
    return print_report(load_ring(args.ring, limits), args, limits)


def cmd_quotient(args, limits):
    ring = load_ring(args.ring, limits)
    ideal = resolve_gens(ring, args.gens, limits)
    name = "%s/(%s)" % (getattr(ring, "name", None) or "ring", args.gens)
    factor = quotient(ring, ideal, name=name, limits=limits)
    if args.action == "report":
        return print_report(factor, args, limits)
    sys.stdout.write(serialize_ring(factor, limits))
    return 0


def cmd_lattice(args, limits):
    ring = load_ring(args.ring, limits)
    side = {"twosided": "two", "right": "right", "left": "left"}[args.kind]
    lattice = ideal_lattice(ring, side=side, limits=limits)
    dot = lattice.to_dot()
    if args.dot:
        try:
            with open(args.dot, "w") as handle:
                handle.write(dot)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (args.dot, exc))
    else:
        sys.stdout.write(dot)
    return 0


# -- claim suite -------------------------------------------------------------------

def _vec(ring, **names):
    coeffs = [0] * len(ring.basis_names)
    for name, value in names.items():
        coeffs[ring.basis_names.index(name)] = value
    return ring.element(coeffs)


def build_claims():
    """Verification suite over the bundled example rings.

    Each claim returns (status, detail) where status is PASS or REFUTED;
    REFUTED means the asserted property is contradicted by computation,
    with the counterexample shown.  Claims raise on any unexpected value,
    which the runner reports as FAIL.
    """
    cache = {}

    def ring(name):
        if name not in cache:
            cache[name] = catalog(name)
        return cache[name]

    claims = []

    def claim(cid, desc):
        def deco(fn):
            claims.append((cid, desc, fn))
            return fn
        return deco

    @claim("jet128-cardinality",
           "the block-jet ring over triangular 2x2 matrices has 128 elements")
    def _cardinality():
        assert ring("ex52").size == 128
        return "PASS", "size=128"

    @claim("jet128-centrally-essential",
           "the jet ring is centrally essential with a 32-element center")
    def _jet_ce():
        rep = props.centrally_essential(ring("ex52"))
        assert rep.holds and rep.center_size == 32
        return "PASS", "center_size=32"

    @claim("jet128-completely-centrally-essential",
           "every quotient of the jet ring stays centrally essential")
    def _jet_cce():
        r = ring("ex52")
        rep = props.completely_centrally_essential(r)
        if rep.holds:
            return "PASS", "checked %d ideals" % rep.checked_ideals
        bad = sorted(rep.failing_ideal.elements)[1]
        cex = rep.quotient_counterexample
        q = quotient(r, rep.failing_ideal)
        assert props.verify_ce_counterexample(q, cex)
        return "REFUTED", ("quotient by {0, %s} is not centrally essential; "
                           "counterexample %s"
                           % (r.format_element(bad), r.format_element(cex)))

    @claim("jet128-least-ideal",
           "the jet ring has a least nonzero ideal whose quotient is "
           "commutative")
    def _jet_least():
        r = ring("ex52")
        mins = [i for i in ideal_lattice(r).minimal_nonzero()
                if not i.is_whole()]
        if len(mins) == 1:
            q = quotient(r, mins[0])
            assert props.is_commutative(q).holds
            return "PASS", "unique minimal ideal, quotient commutative"
        line = next(i for i in mins if _vec(r, b12=1) in i.member)
        assert props.is_commutative(quotient(r, line)).holds
        first = sorted(mins, key=lambda i: (i.size, i.elements))[0]
        assert not props.is_commutative(quotient(r, first)).holds
        return "REFUTED", ("%d minimal ideals, so no least one; the "
                           "commutator line {0, b12} gives a commutative "
                           "quotient but {0, b22} does not" % len(mins))

    @claim("jet128-not-reversible",
           "the jet ring has a one-sided zero product: a11-block times "
           "a12-block")
    def _jet_rev():
        r = ring("ex52")
        a = _vec(r, a11=1)
        b = _vec(r, a12=1)
        assert r.mul(a, b) == _vec(r, b12=1) != r.zero
        assert r.mul(b, a) == r.zero
        assert not props.is_reversible(r).holds
        return "PASS", "A*B is the b12 line, B*A = 0"

    @claim("jet128-not-uniserial",
           "the jet ring has incomparable ideals (a11 side vs a22 side)")
    def _jet_uniserial():
        r = ring("ex52")
        span1 = [_vec(r, a11=1), _vec(r, b11=1), _vec(r, b12=1),
                 _vec(r, b22=1)]
        span2 = [_vec(r, a22=1), _vec(r, b11=1), _vec(r, b12=1),
                 _vec(r, b22=1)]
        i1 = ideal_closure(r, span1)
        i2 = ideal_closure(r, span2)
        assert i1.size == 16 and i2.size == 16
        assert not (i1.member <= i2.member) and not (i2.member <= i1.member)
        assert not props.is_uniserial(r).holds
        return "PASS", "two 16-element ideals, neither contains the other"

    @claim("quat2-centrally-essential",
           "the mod-2 quaternion group algebra is centrally essential")
    def _quat2_ce():
        rep = props.centrally_essential(ring("z2q8"))
        assert rep.holds and rep.center_size == 32
        return "PASS", "center_size=32"

    @claim("quat2-group-sum-quotient",
           "its quotient by the group-sum line has 128 elements and is not "
           "centrally essential (witness coset e+a+b+ab)")
    def _quat2_quotient():
        r = ring("z2q8")
        q = quotient(r, group_sum_ideal(r))
        assert q.size == 128
        rep = props.centrally_essential(q)
        assert not rep.holds
        coset = q.project(_vec(r, e=1, a=1, b=1, ab=1))
        assert props.verify_ce_counterexample(q, coset)
        assert not props.completely_centrally_essential(r).holds
        return "PASS", ("counterexample coset %s"
                        % q.format_element(rep.counterexample))

    @claim("dihedral2-one-sided-annihilator",
           "the mod-2 dihedral group algebra is centrally essential but "
           "not semicommutative: s = 1+b has s*s = 0 yet s*a*s != 0")
    def _dihedral2():
        r = ring("z2d4")
        assert props.centrally_essential(r).holds
        s = _vec(r, e=1, b=1)
        a = _vec(r, a=1)
        assert r.mul(s, s) == r.zero
        sas = r.mul(r.mul(s, a), s)
        assert sas == _vec(r, a=1, a3=1, ab=1, a3b=1) != r.zero
        assert not props.is_semicommutative(r).holds
        return "PASS", "s*a*s = a+a3+ab+a3b"

    @claim("quat3-not-centrally-essential",
           "the mod-3 quaternion group algebra is not centrally essential "
           "(a rank test mod 3 stops at element 29 of 6561)")
    def _quat3():
        r = ring("z3q8")
        rep = props.centrally_essential(r)
        assert not rep.holds
        assert props.verify_ce_counterexample(r, rep.counterexample)
        return "PASS", ("counterexample %s"
                        % r.format_element(rep.counterexample))

    @claim("quat3-derived-complement",
           "the complement ideal of the derived subgroup is a ring with "
           "identity f = 2+a2 in which af has no central partner")
    def _quat3_omega():
        r = ring("z3q8")
        rel = relative_augmentation_ideal(r, r.group.derived_subgroup())
        f = _vec(r, e=2, a2=1)
        assert r.mul(f, f) == f
        sub = SubRing(r, rel.elements, name="omega", one=f)
        assert sub.size == 81
        af = r.mul(_vec(r, a=1), f)
        assert af == _vec(r, a=2, a3=1)
        assert not props.centrally_essential(sub).holds
        assert props.verify_ce_counterexample(sub, af)
        return "PASS", "af = 2a+a3 confirmed as counterexample"

    @claim("regulars-are-units-ore",
           "regular elements are units and both Ore conditions hold on "
           "every catalog ring")
    def _ore():
        names = ("z2q8", "z3q8", "z2d4", "ex52", "ex51(3)", "ext2(4)",
                 "ext2(3)", "m2z2", "t2z2")
        for name in names:
            r = ring(name)
            rep = props.ore_check(r)
            assert rep.right_holds and rep.left_holds
            ur = units_and_regulars(r)
            assert ur.regulars_equal_units
            assert rep.regular_count == len(ur.unit)
        return "PASS", "%d rings, regulars = units everywhere" % len(names)

    @claim("central-series-reach-radical",
           "central chains climb from 0 to the prime radical on both "
           "pattern rings")
    def _series():
        for name in ("ex52", "ex51(3)"):
            r = ring(name)
            rep = props.central_series_through_radical(r)
            assert rep.ok and rep.sizes == (1, 8, 64, 128)
            assert prime_radical(r).size == 64
        return "PASS", "sizes 1 < 8 < 64 < 128 on both rings"

    @claim("strong-lie-series-vanish",
           "iterated commutator ideals of both pattern rings shrink to 0")
    def _strong_lie():
        for name in ("ex52", "ex51(3)"):
            s = props.lie_series(ring(name), flavor="ideal")
            assert s.sizes == (128, 2, 1)
            assert s.nilpotency_class == 2
        return "PASS", "ideal series sizes 128, 2, 1"

    @claim("triangle-derivation-ring",
           "3x3 matrices carrying a function and its two partial "
           "derivatives close under products and fail to commute")
    def _triangle():
        from ringbench.symbolic import triangle_verify
        rep = triangle_verify(p=5, samples=100, seed=0)
        assert rep.ok
        return "PASS", "%d checks over a two-variable function field" \
            % rep.checked

    @claim("jet-derivation-ring",
           "the 4x4 derivation jet embeds a function field; the shift "
           "commutator escapes the shift-squared ideal")
    def _jet_symbolic():
        from ringbench.symbolic import jet_verify
        rep = jet_verify(p=5, samples=60, seed=0)
        assert rep.ok
        return "PASS", "%d checks over a one-variable function field" \
            % rep.checked

    return claims


def cmd_suite(args, limits):
    claims = build_claims()
    if args.list:
        for cid, desc, _ in claims:
            print("%-38s  %s" % (cid, desc))
        return 0
    counts = {"PASS": 0, "REFUTED": 0, "FAIL": 0}
    for cid, _, fn in claims:
        try:
            status, detail = fn()
        except Exception as exc:
            status, detail = "FAIL", "%s: %s" % (type(exc).__name__, exc)
        counts[status] += 1
        print("%-38s  %-8s %s" % (cid, status, detail))
    print("checked %d claims: %d pass, %d refuted, %d fail"
          % (len(claims), counts["PASS"], counts["REFUTED"],
             counts["FAIL"]))
    return 0 if counts["PASS"] == len(claims) else 1


# -- entry point --------------------------------------------------------------------

def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r"
                                         % text)
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ringbench",
        description="Finite-ring property workbench: reports, quotients, "
                    "ideal lattices, and a claim-verification suite.")
    parser.add_argument("--max-elements", type=_positive_int, metavar="N",
                        help="cap on enumerated elements")
    parser.add_argument("--max-ideals", type=_positive_int, metavar="N",
                        help="cap on enumerated ideals")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when any report property was skipped "
                             "by a resource limit")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="print a property report")
    rep.add_argument("ring", help="catalog name or ring spec file")
    rep.add_argument("--pretty", action="store_true",
                     help="aligned table instead of key=value lines")

    quo = sub.add_parser("quotient", help="quotient by an ideal, then "
                                          "report or export")
    quo.add_argument("ring")
    quo.add_argument("--gens", default="0",
                     help="`group-sum`, `least`, `0`, or coefficient "
                          "vectors `1,0,2;0,1,0`")
    quo.add_argument("action", choices=("report", "export"))
    quo.add_argument("--pretty", action="store_true")

    lat = sub.add_parser("lattice", help="emit the ideal lattice as DOT")
    lat.add_argument("ring")
    lat.add_argument("--kind", choices=("twosided", "right", "left"),
                     default="twosided")
    lat.add_argument("--dot", metavar="PATH",
                     help="write DOT here instead of stdout")

    suite = sub.add_parser("paper-suite",
                           help="run the bundled claim-verification suite")
    suite.add_argument("--list", action="store_true",
                       help="list claims without running them")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    limits = DEFAULT_LIMITS
    overrides = {}
    if args.max_elements:
        overrides["max_elements"] = args.max_elements
    if args.max_ideals:
        overrides["max_ideals"] = args.max_ideals
    if overrides:
        limits = dataclasses.replace(DEFAULT_LIMITS, **overrides)
    handlers = {
        "report": cmd_report,
        "quotient": cmd_quotient,
        "lattice": cmd_lattice,
        "paper-suite": cmd_suite,
    }
    try:
        code = handlers[args.command](args, limits)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at exit stays quiet (the recipe in the signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, DomainError, ConstructionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except LimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
