"""Fuzz of ring spec text and of limits.  Mutants of the serialized
catalog rings either parse or raise an InputError that names a spec line
wherever one is involved, and `ringbench report` on them exits 0 or 2
with at most one line on stderr.  Under small drawn limits, `ringbench
report` on a catalog ring answers each key as under the default limits
or skips it naming a lowered limit, and --strict exits 3 exactly when a
key is skipped.  Derandomized, so every run draws the same examples."""

import contextlib
import dataclasses
import functools
import io
import re
from unittest import mock

import pytest

from ringbench import cli
from ringbench.cli import main, parse_ring_text, serialize_ring
from ringbench.construct import catalog
from ringbench.core import DEFAULT_LIMITS, InputError
from ringbench.props import full_report

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RINGS = ("m2z2", "t2z2", "z(12)", "ex51(2)", "ext2(3)", "ex52", "z2d4")
BAD_MODULI = ("0", "1", "-4", "x", "2.5", str(2 ** 63), "3", "4")
FUZZ = hypothesis.settings(derandomize=True, database=None, deadline=None)


@functools.lru_cache(maxsize=None)
def _lines(name):
    return tuple(serialize_ring(catalog(name)).splitlines())


def _coeffs(line):
    """The head tokens of a `one` or `mul` line and its coefficients."""
    parts = line.split()
    cut = 1 if parts[0] == "one" else 4
    return parts[:cut], parts[cut:]


@st.composite
def mutants(draw):
    """Spec text with up to three mutations: a dropped or repeated line, a
    bad modulus, a coefficient too many or too few, or the coefficients
    of two products swapped (for most pairs, associativity fails)."""
    lines = list(_lines(draw(st.sampled_from(RINGS))))
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        kind = draw(st.sampled_from(("drop", "repeat", "modulus", "width",
                                     "swap")))
        k = draw(st.integers(0, len(lines) - 1))
        coeff_lines = [i for i, line in enumerate(lines)
                       if line.split()[0] in ("one", "mul")]
        muls = [i for i, line in enumerate(lines) if line.startswith("mul")]
        shapes = [i for i, line in enumerate(lines)
                  if line.startswith("shape")]
        if kind == "drop":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "modulus" and shapes:
            parts = lines[shapes[0]].split()
            parts[draw(st.integers(1, len(parts) - 1))] = draw(
                st.sampled_from(BAD_MODULI))
            lines[shapes[0]] = " ".join(parts)
        elif kind == "width" and coeff_lines:
            k = draw(st.sampled_from(coeff_lines))
            head, coeffs = _coeffs(lines[k])
            coeffs = coeffs + ["1"] if draw(st.booleans()) else coeffs[:-1]
            lines[k] = " ".join(head + coeffs)
        elif kind == "swap" and muls:
            a, b = draw(st.sampled_from(muls)), draw(st.sampled_from(muls))
            (head_a, ca), (head_b, cb) = _coeffs(lines[a]), _coeffs(lines[b])
            if a == b:
                cb = cb[::-1]
            lines[a], lines[b] = " ".join(head_a + cb), " ".join(head_b + ca)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.ring"


@hypothesis.settings(FUZZ, max_examples=400)
@hypothesis.given(text=mutants())
def test_mutated_spec_text_parses_or_raises_input_error(text):
    try:
        parse_ring_text(text)
    except InputError as exc:
        assert "\n" not in str(exc)
        # every error names a spec line, unless the line it wants is absent
        assert (re.search(r"line \d+", str(exc))
                or str(exc) in ("missing `shape` line", "missing `one` line"))


@hypothesis.settings(FUZZ, max_examples=200)
@hypothesis.given(text=mutants())
def test_report_on_mutated_spec_text_exits_0_or_2(text, spec_path):
    spec_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(spec_path)])
    assert code in (0, 2)
    assert len(err.getvalue().splitlines()) == (code == 2)
    assert bool(out.getvalue()) == (code == 0)


# every catalog ring with at most 1024 elements; each answers all its keys
# under the default limits
LIMIT_RINGS = ("z2q8", "z2d4", "ex52", "ex51(3)", "ext2(3)", "ext2(4)",
               "ext2(5)", "m2z2", "t2z2")
LIMIT_FIELDS = ("max_elements", "max_ideals", "max_lattice", "max_table")


@functools.lru_cache(maxsize=None)
def _default_lines(name):
    return tuple(full_report(catalog(name)).lines())


@st.composite
def small_limits(draw):
    """A catalog ring and, for each limit, its default or a value from 1
    to twice the ring's size, which may lie above the default."""
    name = draw(st.sampled_from(LIMIT_RINGS))
    size = catalog(name).size
    lowered = draw(st.sets(st.sampled_from(LIMIT_FIELDS), min_size=1))
    values = {f: draw(st.integers(1, 2 * size)) for f in sorted(lowered)}
    return name, dataclasses.replace(DEFAULT_LIMITS, **values)


@hypothesis.settings(FUZZ, max_examples=150)
@hypothesis.given(drawn=small_limits(), strict=st.booleans())
def test_report_under_small_limits_names_each_skip(drawn, strict):
    # max_elements and max_ideals go in as flags, the other two as the
    # CLI's defaults, which have no flag
    name, limits = drawn
    lowered = {f for f in LIMIT_FIELDS
               if getattr(limits, f) < getattr(DEFAULT_LIMITS, f)}
    argv = ["--max-elements", str(limits.max_elements),
            "--max-ideals", str(limits.max_ideals)]
    argv += ["--strict"] * strict + ["report", name]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "DEFAULT_LIMITS", limits), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    if not lines:   # the ring itself is built on tables under the limits
        assert code == 3
        (line,) = err.getvalue().splitlines()
        assert re.match(r"error: limit (\w+)=", line).group(1) in lowered
        return
    assert not err.getvalue()
    skipped = False
    for line, default in zip(lines, _default_lines(name), strict=True):
        key = default.split("=", 1)[0]
        if line.startswith(key + "=skipped;limit="):
            assert line.split(";limit=")[1] in lowered
            skipped = True
        else:
            assert line == default
    assert code == (3 if strict and skipped else 0)
