#!/usr/bin/env python3
"""Exercise the two infinite-flavored carriers over exact function fields.

Both constructions embed a rational function field into a matrix ring using
formal derivatives, producing noncommutative rings whose commutators are
pinned to a corner of the matrix.  All arithmetic is exact (unreduced
fractions of polynomials over a prime field, compared by cross-multiplying),
and every identity is checked on random samples drawn from a seeded
generator, so the run is deterministic.
"""

from ringbench import function_field, jet_verify, triangle_verify
from ringbench.symbolic import jet_embed, shift_matrix, triangle_embed


def main():
    print("-- triangle carrier: two variables, derivations in both --")
    rep = triangle_verify(p=5, samples=100, seed=0)
    print("ok=%s checked=%d%s" % (rep.ok, rep.checked,
                                  " failure=" + rep.failure if rep.failure else ""))
    field, (x, y) = function_field(5, ("x", "y"))
    m = triangle_embed(field, x * y, x)
    print("embed(xy, x) middle row:", [str(e) for e in m[1]])

    print()
    print("-- jet carrier: one variable, truncated shift --")
    rep = jet_verify(p=5, samples=60, seed=0)
    print("ok=%s checked=%d%s" % (rep.ok, rep.checked,
                                  " failure=" + rep.failure if rep.failure else ""))
    field, (t,) = function_field(5, ("t",))
    m = jet_embed(field, (t * t + 1) / t)
    print("embed((t^2+1)/t) derivative slot:", str(m[1][0]))
    s = shift_matrix(field)
    print("shift nilpotency: x^3 != 0, x^4 == 0:",
          any(any(e for e in row) for row in _pow(field, s, 3)),
          not any(any(e for e in row) for row in _pow(field, s, 4)))

    print()
    print("-- gates: degenerate inputs are rejected --")
    for fn, kwargs in ((triangle_verify, {"p": 2}),
                       (jet_verify, {"witness": 3})):
        try:
            fn(**kwargs)
            print("unexpectedly accepted", fn.__name__, kwargs)
        except Exception as exc:
            print("%s(%s) rejected: %s"
                  % (fn.__name__, kwargs, exc))


def _pow(field, m, k):
    from ringbench.symbolic import mat_mul
    out = m
    for _ in range(k - 1):
        out = mat_mul(out, m)
    return out


if __name__ == "__main__":
    main()
