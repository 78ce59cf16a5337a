"""Span recording for the traced benchmark run.

The benchmark wraps whitdim's public functions from here, without editing
the package: each wrapped function replaces every module-level binding of
the original inside the ``whitdim`` package, so calls between modules and
inside a module both pass through the wrapper.  A span is (name, start,
end, parent); spans live in flat arrays in memory and are written out once,
after the timed phase.

Small matrix helpers (``mat_mul``, ``mat_vec``, ``transpose``, ``dot``) and
``is_general_position`` are not wrapped: they run hundreds of thousands of
times per second, a span around each would dwarf them, and their time
counts in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

#: Public functions traced, by module.  A span is named "<module>.<function>".
TRACED = {
    "lattice": ("hermite_normal_form", "smith_invariants", "intersect",
                "congruence_kernel", "index", "fixed_sublattice", "saturation",
                "is_saturated", "quotient_hnf", "coset_representatives"),
    "root_datum": ("weyl_group", "coroot_lattice", "is_derived_simply_connected",
                   "frobenius_fixed_lattice", "weyl_frobenius_fixed_lattice"),
    "cover": ("y_qn", "central_index", "glr_cover", "glr_invariants_of"),
    "parahoric": ("residual_extension", "residual_splits",
                  "residual_derived_simply_connected", "is_vertex",
                  "is_hyperspecial", "phi_x"),
    "whittaker": ("y_x_rho", "wh_dim_oracle", "glr_coxeter_parameter",
                  "wh_dim_glr_closed", "enumerate_glr_table", "squeeze_bounds",
                  "xi_of"),
    "cli": ("main",),
}

#: Root-datum constructors share one span name: building and validating a datum.
BUILDERS = ("build_glr", "build_slr", "build_sp2r", "build_torus")

MODULES = tuple(TRACED)

#: Span the benchmark opens around each timed item; its self time is the
#: benchmark's own work (loop, checks, digests).
BENCH_ITEM = "bench.item"


class Tracer:
    """Spans in flat arrays, plus counters that hooks add to."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.paused = False
        self.counters = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        sid = len(self.end)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` then runs untraced,
        outside the span, so counting costs the caller and not ``fn``."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                tracer.paused = True
                try:
                    after(args, result)
                finally:
                    tracer.paused = False
            return result

        return traced

    def self_times(self):
        """Calls, self time and total time per span name.  Children get
        higher ids than their parent, so one pass from the last span back
        finds, for every span, the time its children cover before the span
        itself is reached.  No traced function calls itself, so total time
        counts no interval twice."""
        covered = [0.0] * len(self.end)
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(len(end) - 1, -1, -1):
            duration = end[i] - start[i]
            nid = name_of[i]
            calls[nid] += 1
            own[nid] += duration - covered[i]
            total[nid] += duration
            if parent[i] >= 0:
                covered[parent[i]] += duration
        return {name: (calls[k], own[k], total[k]) for k, name in enumerate(self.names)}

    def dump(self, path):
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {"names": self.names, "count": len(self.end),
                  "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def instrument(tracer):
    """Replace every whitdim binding of a traced function by its wrapper."""
    import whitdim
    from whitdim import cover, root_datum

    weyl_seen = set()

    def count_weyl(args, group):
        if args[0] not in weyl_seen:
            weyl_seen.add(args[0])
            tracer.add("root_datum.weyl_group.elements", group.order)

    upper_bounds = {}

    def count_y_x_rho(args, _result):
        cov = args[0]
        if cov not in upper_bounds:
            upper_bounds[cov] = whitdim.squeeze_bounds(cov)[1]
        tracer.add("whittaker.y_x_rho.cosets", upper_bounds[cov])
        tracer.add("whittaker.y_x_rho.orbit", whitdim.weyl_group(cov.datum).order)

    hooks = {"root_datum.weyl_group": count_weyl, "whittaker.y_x_rho": count_y_x_rho}
    wrappers = {}
    for module, names in TRACED.items():
        mod = importlib.import_module(f"whitdim.{module}")
        for name in names:
            span = f"{module}.{name}"
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn, hooks.get(span)))
    for name in BUILDERS:
        fn = getattr(root_datum, name)
        wrappers[id(fn)] = (fn, tracer.wrap("root_datum.build", fn))
    modules = [m for key, m in sys.modules.items()
               if key == "whitdim" or key.startswith("whitdim.")]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
    cover.CoverSpec.__post_init__ = tracer.wrap("cover.cover_spec",
                                                cover.CoverSpec.__post_init__)
