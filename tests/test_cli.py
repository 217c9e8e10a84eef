"""Command line interface: spec files, reports, quotients, lattices, suite."""

import os
import subprocess
import sys

import numpy as np
import pytest

import ringbench
from ringbench import cli
from ringbench.cli import (
    build_claims, least_ideal, load_ring, main, parse_ring_text,
    resolve_gens, serialize_ring,
)
from ringbench.core import ConstructionError, InputError
from ringbench.construct import catalog, group_algebra
from ringbench.groups import cyclic, direct_product
from ringbench.ideals import quotient
from ringbench.props import centrally_essential


# -- spec files ---------------------------------------------------------------

def test_parse_ring_text_minimal():
    r = parse_ring_text("""
        # two-dimensional: scalars plus a square-zero line
        name tiny
        shape 2 2
        one 1 0
        mul 0 0 -> 1 0
        mul 0 1 -> 0 1
        mul 1 0 -> 0 1
    """)
    assert r.size == 4
    assert r.name == "tiny"
    assert r.mul((0, 1), (0, 1)) == (0, 0)


def test_parse_reduces_coefficients():
    r = parse_ring_text("shape 3\none 4\nmul 0 0 -> -2\n")
    assert r.one == (1,)
    assert r.mul((2,), (2,)) == (1,)
    # 2^64 = 1 mod 3, reduced before it meets an int64 array
    r = parse_ring_text("shape 3\none 1\nmul 0 0 -> 18446744073709551616\n")
    assert r.tensor.tolist() == [[[1]]]


T2Z2 = ("shape 2 2 2\none 1 0 1\nmul 0 0 -> 1 0 0\nmul 0 1 -> 0 1 0\n"
        "mul 1 2 -> 0 1 0\nmul 2 2 -> 0 0 1\n")   # upper triangular 2x2 over Z2


@pytest.mark.parametrize("text,fragment", [
    ("one 1\n", "missing `shape`"),
    ("shape 2\n", "missing `one`"),
    ("shape 2\none 1\nmul 0 0 => 1\n", "line 3"),
    ("shape 2\none 1 1\n", "line 2"),
    ("shape 2\none 1\nmul 0 5 -> 1\n", "out of range"),
    ("shape 2\none 1\nmul 0 0 -> 1 1\n", "line 3"),
    ("shape 1 2\none 0 1\n", "moduli >= 2"),
    ("shape 2\none x\n", "integers"),
    ("flavor 2\n", "unknown directive"),
    # axiom errors name the `mul` lines of the products involved, the last
    # of a repeated one, or the `one` line
    (T2Z2 + "mul 1 2 -> 0 0 1\n",
     "associativity fails on generators (0, 1, 2) (line 4, line 7)"),
    (T2Z2 + "mul 2 2 -> 0 1 1\n",
     "associativity fails on generators (0, 2, 2) (no `mul 0 2` line, line 7)"),
    ("shape 2 4\none 1 0\nmul 0 0 -> 1 0\nmul 0 1 -> 0 0\nmul 1 0 -> 0 1\n"
     "mul 0 1 -> 0 1\n", "n_0 * c[0][1][1] != 0 mod n_1 (line 6)"),
    ("shape 2\none 1\nmul 0 0 -> 0\n", "identity law fails for one=(1,) (line 2)"),
    ("shape 2\none 0\nmul 0 0 -> 1\n",
     "; one equals zero (zero rings are excluded) (line 2)"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(InputError) as err:
        parse_ring_text(text)
    assert fragment in str(err.value)


def test_parse_rejects_broken_axioms(tmp_path, capsys):
    # 1*1 = 0 breaks the identity law
    text = "shape 2\none 1\nmul 0 0 -> 0\n"
    with pytest.raises(InputError) as err:
        parse_ring_text(text)
    assert str(err.value).startswith("ring axioms fail: ")
    path = tmp_path / "broken.ring"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    assert "ring axioms fail" in capsys.readouterr().err


def test_report_on_a_modulus_past_int64_products(tmp_path, capsys):
    # Z_m[x]/(x^2 - 5), m = 2^33 + 17, on the basis 1, x + 2^32 + 3
    path = tmp_path / "big.ring"
    path.write_text("shape 8589934609 8589934609\none 1 0\n"
                    "mul 0 0 -> 1 0\nmul 0 1 -> 0 1\nmul 1 0 -> 0 1\n"
                    "mul 1 1 -> 2147483627 8589934598\n")
    assert main(["report", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "size=73786976586895982881" in lines
    assert "commutative=true" in lines


def test_report_on_a_prime_past_2_62(capsys):
    # the prime test runs on every on-demand lookup; by trial division it
    # took about a minute per lookup at this modulus
    assert main(["report", "z(4611686018427388039)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:8] == [
        "size=4611686018427388039",
        "center_size=skipped;limit=max_elements",
        "jacobson_size=skipped;limit=max_table",
        "jacobson_index=skipped;limit=max_table",
        "prime_radical_size=skipped;limit=max_table",
        "prime_radical_index=skipped;limit=max_table",
        "units=skipped;limit=max_elements",
        "commutative=true",
    ]
    assert "completely_centrally_essential=true" in lines


def test_parse_rejects_a_modulus_past_int64(tmp_path, capsys):
    # the prime 2^64 + 13: element codes and the tensor are int64
    text = "shape 18446744073709551629\none 1\nmul 0 0 -> 1\n"
    with pytest.raises(InputError,
                       match=r"^line 1: shape moduli must be below 2\*\*63$"):
        parse_ring_text(text)
    path = tmp_path / "huge.ring"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: shape moduli must be below 2**63" in captured.err


def test_serialize_round_trips_catalog():
    for name in ("z2q8", "ex52", "ex51(3)", "t2z2", "z6"):
        r = catalog(name)
        r2 = parse_ring_text(serialize_ring(r))
        assert r2.shape.moduli == r.shape.moduli
        assert np.array_equal(r2.tensor, r.tensor)
        assert r2.one == r.one


def test_serialize_handles_quotients():
    r = catalog("ex52")
    q = quotient(r, least_ideal(r))
    r2 = parse_ring_text(serialize_ring(q))
    assert r2.size == 64


def test_round_trip_builds_the_scalar_view_on_first_mul():
    # a ring read only through its tables never builds _nz; scalar mul
    # builds it once and agrees with the tables on every basis pair
    r = catalog("ex52")
    text = serialize_ring(quotient(r, least_ideal(r)))
    parsed = parse_ring_text(text)
    t = parsed.tables()
    centrally_essential(parsed)
    assert serialize_ring(parsed) == text
    assert "_nz" not in parsed.__dict__
    basis = [tuple(int(i == b) for i in range(parsed.shape.width))
             for b in range(parsed.shape.width)]
    parsed.mul(basis[0], basis[0])
    assert "_nz" in parsed.__dict__
    for a in basis:
        for b in basis:
            assert parsed.mul(a, b) == t.elems[t.mul[t.index[a], t.index[b]]]


def test_load_ring_from_file(tmp_path):
    path = tmp_path / "tiny.ring"
    path.write_text(serialize_ring(catalog("z6")))
    r = load_ring(str(path))
    assert r.size == 6
    with pytest.raises(InputError):
        load_ring(str(tmp_path / "absent.ring"))


# -- generator resolution -------------------------------------------------------

def test_resolve_gens_keywords():
    r = catalog("z2q8")
    assert resolve_gens(r, "group-sum").size == 2
    assert resolve_gens(r, "0") == (r.zero,)
    jet = catalog("ex52")
    least = resolve_gens(jet, "least")
    assert sorted(least.elements)[1] == (0, 0, 0, 0, 0, 0, 1)


def test_resolve_gens_vectors():
    r = catalog("ex52")
    ideal = resolve_gens(r, "0,0,0,0,0,0,1")
    assert ideal.size == 2
    two = resolve_gens(r, "0,0,0,0,1,0,0;0,0,0,0,0,0,1")
    assert two.size == 4
    with pytest.raises(InputError):
        resolve_gens(r, "1,2")
    with pytest.raises(InputError):
        resolve_gens(r, "banana")
    with pytest.raises(InputError):
        resolve_gens(r, ";")


def test_least_ideal_needs_a_proper_nonzero_ideal(capsys):
    # M2(Z2) is simple
    with pytest.raises(InputError, match="no proper nonzero ideal"):
        least_ideal(catalog("m2z2"))
    assert main(["quotient", "m2z2", "--gens", "least", "report"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no proper nonzero ideal" in captured.err


def test_resolve_gens_group_sum_needs_group_algebra():
    with pytest.raises(Exception):
        resolve_gens(catalog("t2z2"), "group-sum")


# -- commands -----------------------------------------------------------------

def test_report_command(capsys):
    assert main(["report", "t2z2"]) == 0
    out = capsys.readouterr().out
    assert "size=8" in out
    assert "centrally_essential=false;witness=e22" in out


def test_report_unknown_ring(capsys):
    assert main(["report", "nosuch"]) == 2
    assert "available" in capsys.readouterr().err


def test_report_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("shape 2\none 1\nmul 0 0 => 1\n")
    assert main(["report", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["report", "{dir}"],
    ["report", "{dir}/latin1.ring"],
    ["lattice", "ex52", "--dot", "{dir}/absent/x.dot"],
], ids=["directory", "not-utf8", "unwritable-dot"])
def test_unreadable_and_unwritable_paths_exit_2(argv, tmp_path, capsys):
    (tmp_path / "latin1.ring").write_bytes(b"name caf\xe9\nshape 2\none 1\n")
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot ")
    assert str(tmp_path) in lines[0]


def test_report_pretty(capsys):
    assert main(["report", "z6", "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "size" in out and "=" not in out.splitlines()[0]


def test_report_strict_limits(capsys):
    assert main(["--max-elements", "4", "report", "z6"]) == 0
    out = capsys.readouterr().out
    assert "skipped;limit=max_elements" in out
    assert main(["--max-elements", "4", "--strict", "report", "z6"]) == 3


def test_quotient_report(capsys):
    assert main(["quotient", "z2q8", "--gens", "group-sum", "report"]) == 0
    out = capsys.readouterr().out
    assert "size=128" in out
    assert "centrally_essential=false;witness=a2+a3+a2b+a3b" in out


def test_quotient_by_zero_matches_base_report(capsys):
    main(["report", "ex51(3)"])
    base = capsys.readouterr().out
    main(["quotient", "ex51(3)", "--gens", "0", "report"])
    assert capsys.readouterr().out == base


def test_quotient_export_parses_back(capsys):
    assert main(["quotient", "ex52", "--gens", "least", "export"]) == 0
    text = capsys.readouterr().out
    r = parse_ring_text(text)
    assert r.size == 64


def test_quotient_bad_gens(capsys):
    assert main(["quotient", "ex52", "--gens", "1,2", "report"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["report", "ex51(1)"], "at least 2"),
    (["quotient", "z2q8", "--gens", "0,0,0,0,0,0,0,1", "report"],
     "whole ring"),
    (["quotient", "z2q8", "--gens", "0,0,0,0,0,0,0,1", "export"],
     "whole ring"),
    (["report", "z(%d)" % 2 ** 63], "below 2**63"),
    (["report", "ext2(%d)" % 2 ** 63], "below 2**63"),
    (["--max-elements", str(10 ** 40), "report", "ex51(63)"], "below 2**63"),
], ids=["ex51-m1", "quotient-whole-report", "quotient-whole-export",
        "z-2to63", "ext2-2to63", "ex51-m63"])
def test_no_zero_ring_and_no_bad_parameter_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_construction_error_exits_2(monkeypatch, capsys):
    # input data that fails to define a ring is bad input
    def broken(name, limits):
        raise ConstructionError("pattern is not closed under products")

    monkeypatch.setattr(cli, "load_ring", broken)
    assert main(["report", "ex52"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pattern is not closed under products\n"


def test_quotient_above_max_table_exits_3(capsys):
    assert main(["quotient", "z3q8", "--gens", "group-sum", "report"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit max_table=1024 exceeded" in captured.err
    assert "Traceback" not in captured.err


def test_quotient_ideal_beyond_max_elements_exits_3(capsys):
    # z(2^40) is read on demand; the ideal (2) has 2^39 elements
    argv = ["quotient", "z(%d)" % 2 ** 40, "--gens", "2", "report"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: limit max_elements=65536 exceeded "
                            "(needed 65537)\n")


def test_quotient_beyond_int64_codes_exits_3(tmp_path, capsys):
    # 2^64 elements: the closure of the generators skips on max_table
    path = tmp_path / "big64.ring"
    path.write_text(serialize_ring(
        group_algebra(2, direct_product(cyclic(32), cyclic(2)))))
    gens = ",".join(["1"] + ["0"] * 63)
    assert main(["quotient", str(path), "--gens", gens, "report"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: limit max_table=1024 exceeded "
                            "(needed 18446744073709551616)\n")


def test_lattice_command(tmp_path, capsys):
    assert main(["lattice", "z4"]) == 0
    out = capsys.readouterr().out
    assert out.count("label") == 3 and out.count("->") == 2
    path = tmp_path / "lat.dot"
    assert main(["lattice", "ex52", "--kind", "right",
                 "--dot", str(path)]) == 0
    assert "digraph" in path.read_text()


def test_lattice_respects_limits(capsys):
    assert main(["--max-ideals", "2", "lattice", "ex52"]) == 3
    assert "max_ideals" in capsys.readouterr().err
    # the CCE sweep gates its principal pass on max_ideals too, but the
    # one-sided deciders that read the same principal ideals do not
    assert main(["--max-ideals", "2", "report", "ex52"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "completely_centrally_essential=skipped;limit=max_ideals" in out
    assert "uniserial=false;witness=right:2,2" in out
    assert "strongly_bounded=true" in out


@pytest.mark.parametrize("flag", ["--max-ideals", "--max-elements"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_limit_flags_reject_values_below_one(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag, value, "report", "ex52"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer >= 1" in captured.err


# -- claim suite ----------------------------------------------------------------

def test_suite_list(capsys):
    assert main(["paper-suite", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(build_claims()) >= 12
    assert len({ln.split()[0] for ln in lines}) == len(lines)


def test_suite_runs_and_reports_refutations(capsys):
    code = main(["paper-suite"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count(" PASS") + out.count(" REFUTED") == len(build_claims())
    n = len(build_claims())
    assert out.splitlines()[-1] == (
        "checked %d claims: %d pass, 2 refuted, 0 fail" % (n, n - 2))
    for needle in (
            "quotient by {0, b22} is not centrally essential",
            "counterexample coset a2+a3+a2b+a3b",
            "af = 2a+a3 confirmed as counterexample",
            "regulars = units everywhere",
    ):
        assert needle in out


def test_suite_output_is_byte_identical(capsys):
    main(["paper-suite"])
    first = capsys.readouterr().out
    main(["paper-suite"])
    assert capsys.readouterr().out == first


def test_import_leaves_sympy_unloaded():
    # both verifiers run on plain-int polynomials, and sympy is loaded only
    # to print a fraction in lowest terms; the symbolic names on the package
    # are the module's own objects
    src = os.path.dirname(os.path.dirname(ringbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import ringbench, ringbench.cli, sys\n"
        "assert 'sympy' not in sys.modules\n"
        "assert ringbench.triangle_verify(p=5, samples=20, seed=1).ok\n"
        "assert ringbench.jet_verify(p=7, samples=20, seed=1).ok\n"
        "assert 'sympy' not in sys.modules\n"
        "field, (t,) = ringbench.function_field(5, 't')\n"
        "assert str(1 / t) == '1 mod 5/t'\n"
        "assert 'sympy' in sys.modules\n"
        "verify = ringbench.triangle_verify\n"
        "assert verify is sys.modules['ringbench.symbolic'].triangle_verify\n"
        "assert not hasattr(ringbench, 'no_such_name')\n")
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=120)


def test_closed_output_pipe_exits_1_quietly():
    # unbuffered, so the suite's second print meets the closed pipe
    src = os.path.dirname(os.path.dirname(ringbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "ringbench.cli", "paper-suite"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"jet128-cardinality")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""
