"""Layer spans and counters recorded around cppforge's public functions.

The tracer wraps functions from outside the library: it replaces each
wrapped function in every cppforge module namespace that binds it (so
`from .field import build_field` call sites are covered too) and each
wrapped method on its class.  Nothing inside the library changes.

Three kinds of wrapper keep the overhead in proportion to the call rate:

- spans (layer boundaries, called at most a few hundred thousand times):
  name, start, end and parent are kept in memory and written out at the
  end;
- timed leaves (`FieldCtx.pow`): call count and total time only;
- counted leaves (`FieldCtx.add`, `FieldCtx.mul`): call count only.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path) of the wrapped callable
SPANS = {
    "field.build": ("field", "build_field"),
    "field.subfield_view": ("field", "SubfieldView.__init__"),
    "subfield.eval_poly_rows": ("field", "SubfieldView.eval_poly_rows"),
    "subfield.rows_are_permutations": ("field", "SubfieldView.rows_are_permutations"),
    "bulk.add": ("bulk", "add"),
    "bulk.mul": ("bulk", "mul"),
    "bulk.mul_scalar": ("bulk", "mul_scalar"),
    "bulk.pow_const": ("bulk", "pow_const"),
    "bulk.values_are_permutation": ("bulk", "values_are_permutation"),
    "bulk.lambda_scan": ("bulk", "lambda_scan"),
    "bulk.monomial_values": ("bulk", "monomial_values"),
    "scan.direct_cpp_scan": ("scan", "direct_cpp_scan"),
    "scan.ha_cpp_scan": ("scan", "ha_cpp_scan"),
    "oracle.is_cpp_exponent_pair": ("oracle", "is_cpp_exponent_pair"),
    "oracle.is_permutation": ("oracle", "is_permutation"),
    "hadickson.lambda_coeffs": ("hadickson", "lambda_coeffs"),
    "hadickson.ha_pp_check": ("hadickson", "ha_pp_check"),
    "hadickson.is_dickson_of_degree": ("hadickson", "is_dickson_of_degree"),
    "families.verify_neg_one_family": ("families", "verify_neg_one_family"),
    "families.dickson_witness_search": ("families", "dickson_witness_search"),
    "families.multinomial_map": ("families", "multinomial_map"),
    "families.r4_condition": ("families", "r4_condition"),
    "families.r4_condition_p5": ("families", "r4_condition_p5"),
    "niho.count_N": ("niho", "count_N"),
    "niho.direct_walsh": ("niho", "direct_walsh"),
    "cli.main": ("cli", "main"),
    "report.write": ("report", "CppReport.write"),
}
TIMED = {"field.ctx.pow": ("field", "FieldCtx.pow")}
COUNTED = {"field.ctx.add": ("field", "FieldCtx.add"),
           "field.ctx.mul": ("field", "FieldCtx.mul")}

# every per-layer metric a traced run reports, in BENCHMARK.json order
LAYER_METRICS = {
    "field.build.s": "s", "field.table_mb": "MB",
    "field.subfield_view.s": "s", "field.subfield_view.count": "count",
    "field.ctx.mul.calls": "count", "field.ctx.add.calls": "count",
    "field.ctx.pow.calls": "count", "field.ctx.pow.s": "s",
    "bulk.add.s": "s", "bulk.add.elems": "count", "bulk.mul.s": "s",
    "bulk.mul_scalar.s": "s", "bulk.values_are_permutation.s": "s",
    "bulk.lambda_scan.s": "s", "bulk.pow_const.s": "s",
    "bulk.monomial_values.s": "s",
    "scan.direct_cpp_scan.s": "s", "scan.direct_cpp_scan.checks": "count",
    "scan.direct_cpp_scan.pool_s": "s",
    "scan.ha_cpp_scan.s": "s", "scan.ha.distinct_rows": "count",
    "scan.ha.rows_ratio": "ratio",
    "subfield.eval_poly_rows.s": "s", "subfield.rows_are_permutations.s": "s",
    "oracle.is_cpp_exponent_pair.s": "s",
    "oracle.is_cpp_exponent_pair.calls": "count",
    "oracle.is_permutation.scalar_calls": "count", "oracle.is_permutation.s": "s",
    "hadickson.lambda_coeffs.s": "s", "hadickson.lambda_coeffs.calls": "count",
    "hadickson.ha_pp_check.s": "s", "hadickson.ha_pp_check.calls": "count",
    "hadickson.is_dickson_of_degree.s": "s",
    "families.verify_neg_one_family.s": "s",
    "families.dickson_witness_search.s": "s",
    "families.multinomial_map.s": "s", "families.r4_condition.s": "s",
    "families.r4_condition_p5.s": "s",
    "niho.count_N.s": "s", "niho.direct_walsh.s": "s",
    "cli.main.self_s": "s", "report.write.s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def _resolve(pkg, module, path):
    obj = sys.modules[f"{pkg}.{module}"]
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    """Span recorder for one process; install() patches, uninstall() undoes."""

    def __init__(self, pkg="cppforge"):
        self.pkg = pkg
        self.spans = []                 # [name, start, end, parent, nested]
        self.stack = []
        self.active = defaultdict(int)  # span name -> open spans of that name
        self.counts = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.fields = {}                # id -> every FieldCtx built or fetched
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        notes = {
            "bulk.add": self._note_bulk_add,
            "bulk.values_are_permutation": self._note_values_perm,
            "scan.ha_cpp_scan": self._note_ha_scan,
            "subfield.eval_poly_rows": self._note_rows,
            "oracle.is_permutation": self._note_is_perm,
        }
        for name, (module, path) in SPANS.items():
            self._patch(module, path, lambda fn, n=name: self._span(fn, n, notes.get(n)))
        for name, (module, path) in TIMED.items():
            self._patch(module, path, lambda fn, n=name: self._timed(fn, n))
        for name, (module, path) in COUNTED.items():
            self._patch(module, path, lambda fn, n=name: self._counted(fn, n))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module, path, make):
        owner, attr = _resolve(self.pkg, module, path)
        original = getattr(owner, attr)
        wrapped = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # a module-level function: rebind it wherever a cppforge module
        # imported it by name
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.pkg or
                                   modname.startswith(self.pkg + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, note):
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] > 0]
            if note is not None:
                note(args)
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            if name == "field.build":
                self.fields[id(out)] = out
            return out
        return traced

    def _timed(self, fn, name):
        counts, leaf_s = self.counts, self.leaf_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf_s[name] += perf_counter() - t0
                counts[name + ".calls"] += 1
        return traced

    def _counted(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return traced

    # -- counters recorded at the layer boundaries --------------------------

    def _note_bulk_add(self, args):
        self.counts["bulk.add.elems"] += int(getattr(args[1], "size", 1))

    def _note_values_perm(self, args):
        if self.active["scan.direct_cpp_scan"]:
            self.counts["scan.direct_cpp_scan.checks"] += 1

    def _note_ha_scan(self, args):
        self.counts["scan.ha.coefficients"] += args[0].q - 1

    def _note_rows(self, args):
        if self.active["scan.ha_cpp_scan"]:
            self.counts["scan.ha.distinct_rows"] += len(args[1])

    def _note_is_perm(self, args):
        if getattr(args[0], "values", None) is None:
            self.counts["oracle.is_permutation.scalar_calls"] += 1

    # -- results --------------------------------------------------------------

    def total_s(self, name, since=0):
        """Time in spans of one name, counting nested repeats once."""
        return sum(s[2] - s[1] for s in self.spans[since:]
                   if s[0] == name and not s[4])

    def self_s(self, name):
        """Duration of the spans of one name minus the time their child
        spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans)
                   if s[0] == name)

    def table_mb(self):
        """Bytes of every numpy array held by the fields built, from the
        arrays' sizes (not a memory measurement)."""
        total = 0
        for ctx in self.fields.values():
            total += sum(v.nbytes for v in vars(ctx).values()
                         if hasattr(v, "nbytes") and hasattr(v, "dtype"))
        return total / 2 ** 20

    def layer_metrics(self):
        calls = defaultdict(int)
        for s in self.spans:
            calls[s[0]] += 1
        out = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "s" and base in SPANS:
                out[metric] = float(self.total_s(base))
            elif kind == "s" and base in TIMED:
                out[metric] = self.leaf_s[base]
            elif kind == "calls" and base in SPANS:
                out[metric] = float(calls[base])
            elif kind in ("calls", "checks", "elems", "distinct_rows",
                          "scalar_calls"):
                out[metric] = float(self.counts[metric])
        out["field.subfield_view.count"] = float(calls["field.subfield_view"])
        out["field.table_mb"] = self.table_mb()
        coeffs = self.counts["scan.ha.coefficients"]
        out["scan.ha.rows_ratio"] = (self.counts["scan.ha.distinct_rows"] / coeffs
                                     if coeffs else 0.0)
        out["cli.main.self_s"] = self.self_s("cli.main")
        out["trace.spans"] = float(len(self.spans))
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3]}) + "\n")
