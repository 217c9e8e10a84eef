"""Span tracer that wraps ringbench's public functions from outside.

`Tracer.install` replaces each target in every loaded `ringbench.*`
namespace that binds it (and on its class, for methods), and `uninstall`
puts every original back.  Spans live in memory as
[name, start, end, parent index, op id, extras] and are summed per layer
by `layer_totals`; a span's self time is its duration minus the time its
direct children cover.  Times are CPU seconds of this thread, the clock
the runner times ops with.
"""

import functools
import importlib
import sys
import time
import weakref


def _tables_build(tracer, args, kwargs, result, built_before):
    tracer.tables_built += 1
    if result is None:
        return None
    return {"bytes": result.add.nbytes + result.mul.nbytes + result.neg.nbytes}


def _ring_tables(tracer, args, kwargs, result, built_before):
    return {"hits": int(tracer.tables_built == built_before)}


def _all_ideals(tracer, args, kwargs, result, built_before):
    ring = args[0]
    side = kwargs.get("side", args[1] if len(args) > 1 else "two")
    sides = tracer.enumerated.setdefault(ring, set())
    if side in sides:
        return None
    sides.add(side)
    return {"ideals": len(result)}


def _full_report(tracer, args, kwargs, result, built_before):
    out = {"skipped.max_table": 0, "skipped.max_lattice": 0}
    for limit in result.skipped.values():
        out["skipped." + limit] = out.get("skipped." + limit, 0) + 1
    return out


def _cce(tracer, args, kwargs, result, built_before):
    return {"quotients": result.checked_ideals}


def _checked(tracer, args, kwargs, result, built_before):
    return {"checked": result.checked}


# (module, attribute path, span name, extras)
TARGETS = (
    ("ringbench.core", "Tables.build", "core.Tables.build", _tables_build),
    ("ringbench.core", "Ring.tables", "core.Ring.tables", _ring_tables),
    ("ringbench.core", "QuotientRing.__init__", "core.QuotientRing", None),
    ("ringbench.core", "units_and_regulars", "core.units_and_regulars", None),
    ("ringbench.core", "center", "core.center", None),
    ("ringbench.ideals", "all_ideals", "ideals.all_ideals", _all_ideals),
    ("ringbench.ideals", "jacobson_radical", "ideals.jacobson_radical", None),
    ("ringbench.ideals", "prime_radical", "ideals.prime_radical", None),
    ("ringbench.ideals", "nilpotency_index", "ideals.nilpotency_index", None),
    ("ringbench.ideals", "ideal_closure", "ideals.ideal_closure", None),
    ("ringbench.props", "full_report", "props.full_report", _full_report),
    ("ringbench.props", "ore_check", "props.ore_check", None),
    ("ringbench.props", "centrally_essential", "props.centrally_essential",
     None),
    ("ringbench.props", "completely_centrally_essential",
     "props.completely_centrally_essential", _cce),
    ("ringbench.props", "is_uniserial", "props.is_uniserial", None),
    ("ringbench.props", "is_strongly_bounded", "props.is_strongly_bounded",
     None),
    ("ringbench.props", "lie_series", "props.lie_series", None),
    ("ringbench.props", "sample_rings", "props.sample_rings", None),
    ("ringbench.construct", "catalog", "construct.catalog", None),
    ("ringbench.construct", "as_structure_ring", "construct.as_structure_ring",
     None),
    ("ringbench.cli", "serialize_ring", "cli.serialize_ring", None),
    ("ringbench.cli", "parse_ring_text", "cli.parse_ring_text", None),
    ("ringbench.symbolic", "triangle_verify", "symbolic.triangle_verify",
     _checked),
    ("ringbench.symbolic", "jet_verify", "symbolic.jet_verify", _checked),
)


def ringbench_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "ringbench" or name.startswith("ringbench."))]


class Tracer:
    """Records spans while installed.  Set `op` to tag the spans of an op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.tables_built = 0
        self.enumerated = weakref.WeakKeyDictionary()  # ring -> sides seen
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, extras):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, 0.0, 0.0, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            built_before = tracer.tables_built
            rec[1] = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.thread_time()
                tracer._stack.pop()
            if extras is not None:
                rec[5] = extras(tracer, args, kwargs, result, built_before)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, path, name, extras in TARGETS:
            mod = importlib.import_module(mod_name)
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(name, original.__func__,
                                                      extras))
                else:
                    wrapped = self._wrap(name, original, extras)
                self._saved.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original, extras)
            for namespace in ringbench_modules():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._saved.append((namespace, key, original))
                        setattr(namespace, key, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_totals(spans, keep):
    """Per span name: ms (outermost spans only), self_ms, calls, extras.

    `keep(op)` selects the spans to sum by their op id.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]
    totals = {}
    for i, (name, start, end, parent, op, extras) in enumerate(spans):
        if not keep(op):
            continue
        t = totals.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        t["calls"] += 1
        t["self_ms"] += (end - start - child_time[i]) * 1e3
        outer = True
        while parent is not None:
            if spans[parent][0] == name:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            t["ms"] += (end - start) * 1e3
        for key, value in (extras or {}).items():
            t[key] = t.get(key, 0) + value
    return totals
