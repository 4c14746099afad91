"""Per-module tracing, installed from outside the package.

The traced run wraps the public functions and constructors listed in
TARGETS.  A function is replaced in every torelli module namespace that
bound it by name (for example `cli`, `checks`, `forms`, `johnson` and
`h3model` each hold their own `wedge`), since patching the defining
module alone would miss those calls.  Constructors and methods are
replaced on their class.  Per-coefficient helpers (`basis_pairing`,
`as_rational`, `_sort_with_sign`, `Fraction`) are left alone: they run
millions of times per job.

Each call records a span (name, start, end, parent, and the index of
the job it belongs to) in memory; the spans are written out at the end.  Self time is a span's duration minus
the durations of its child spans.  Work counts are taken from the
arguments and results after the span closes, so they repeat exactly for
a given job list.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

MODULES = ("exterior", "forms", "linalg", "johnson", "h3model", "render",
           "config", "report", "checks", "cli")


def _size(x) -> int:
    """Nonzero terms of a Multivector or coordinates of a Vector."""
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else sum(1 for c in x.coords if c)


def _terms_in(args, kwargs, result):
    terms = args[3] if len(args) > 3 else kwargs.get("terms")
    return {"terms_in": len(terms) if terms else 0}


def _wedge(args, kwargs, result):
    if len(args) != 2:
        return None  # the n-ary form recurses into traced two-factor calls
    return {"term_products": _size(args[0]) * _size(args[1]),
            "terms_out": len(result.terms)}


def _term_pairs(args, kwargs, result):
    return {"term_pairs": len(args[0].terms) * len(args[1].terms)}


def _elimination(args, kwargs, result):
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    return {"rows": len(rows), "cols": cols, "entries": len(rows) * cols,
            "nonzero": sum(1 for row in rows for v in row if v),
            "kept": len(result)}


def _entries(args, kwargs, result):
    return {"entries": len(result)}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


# (module, name, work counter).  A class name alone means its constructor.
TARGETS = (
    ("exterior", "Multivector", _terms_in),
    ("exterior", "Vector", None),
    ("exterior", "Sym2Element", None),
    ("exterior", "wedge", _wedge),
    ("exterior", "contraction3", None),
    ("exterior", "project_primitive", None),
    ("exterior", "Multivector.dense", _entries),
    ("exterior", "primitive_rank_two_ways", None),
    ("exterior", "primitive_basis", None),
    ("forms", "omega3", _term_pairs),
    ("forms", "phi", _term_pairs),
    ("forms", "q2", None),
    ("forms", "Transvection.apply", None),
    ("forms", "Transvection.matrix", None),
    ("linalg", "independent_row_indices", _elimination),
    ("linalg", "mat_mul", None),
    ("johnson", "builtin_fixture", None),
    ("johnson", "SubsurfaceSpec", None),
    ("johnson", "johnson_element", None),
    ("johnson", "johnson_bp", None),
    ("h3model", "act", None),
    ("h3model", "variation", None),
    ("h3model", "GradedH3Element", None),
    ("render", "render_canonical", _result_bytes),
    ("render", "parse_multivector", None),
    ("config", "parse_config", _text_bytes),
    ("config", "config_from_fixture", None),
    ("report", "ReportDocument.to_text", _result_bytes),
    ("report", "ReportDocument.to_json", _result_bytes),
    ("checks", "run_invariant_checks", None),
    ("cli", "run_job", None),
    ("cli", "build_config", None),
)

# Reported stats per counter: (stat, numerator, denominator).  A stat
# without a denominator is a count summed over calls; one with a
# denominator is the ratio of the two sums.
_REPORTED = {
    _terms_in: (("terms_in", "terms_in", None),),
    _wedge: (("term_products", "term_products", None),
             ("useful_ratio", "terms_out", "term_products")),
    _term_pairs: (("term_pairs", "term_pairs", None),),
    _elimination: (("rows", "rows", None), ("cols", "cols", None),
                   ("nonzero_frac", "nonzero", "entries"),
                   ("useful_ratio", "kept", "rows")),
    _entries: (("entries", "entries", None),),
    _result_bytes: (("bytes", "bytes", None),),
    _text_bytes: (("bytes", "bytes", None),),
}


def _stat(counts: dict, numerator: str, denominator: str | None) -> float:
    if denominator is None:
        return counts.get(numerator, 0)
    return counts.get(numerator, 0) / counts[denominator] if counts.get(denominator) else 0.0


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-module metric the tracer reports, in order."""
    out = []
    for module, name, counter in TARGETS:
        base = f"{module}.{name}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
        out += [(f"{base}.{stat}", "count" if den is None else "ratio")
                for stat, _, den in _REPORTED.get(counter, ())]
    out += [(f"{module}.self_s", "s") for module in MODULES]
    out += [(f"{module}.errors", "count") for module in MODULES]
    return out


class Tracer:
    """Spans and per-target totals for one traced run."""

    def __init__(self):
        self.job = -1  # index of the job being run; set by the caller
        self.span_job = array("i")
        self.span_target = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(TARGETS)
        self.self_s = [0.0] * len(TARGETS)
        self.counts = [{} for _ in TARGETS]
        self.errors = dict.fromkeys(MODULES, 0)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, tid: int, module: str, fn, counter):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        counts, errors = self.counts[tid], self.errors
        span_job, span_target, span_parent = self.span_job, self.span_target, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(span_target)
            span_job.append(tracer.job)
            span_target.append(tid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                span_start[index] = start
                span_end[index] = end
                if stack:
                    stack[-1][1] += end - start
                self_s[tid] += end - start - frame[1]
                calls[tid] += 1
            if counter is not None:
                got = counter(args, kwargs, result)
                for k, v in (got or {}).items():
                    counts[k] = counts.get(k, 0) + v
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in every torelli namespace that holds it."""
        package = importlib.import_module("torelli")
        modules = {m: importlib.import_module(f"torelli.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for tid, (module, name, counter) in enumerate(TARGETS):
            head, _, method = name.partition(".")
            obj = getattr(modules[module], head)
            if isinstance(obj, type):
                attr = method or "__init__"
                self._patch(obj, attr, self._wrap(tid, module, obj.__dict__[attr], counter))
                continue
            wrapper = self._wrap(tid, module, obj, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        self._patch(ns, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for tid, (module, name, counter) in enumerate(TARGETS):
            base = f"{module}.{name}"
            out[f"{base}.calls"] = self.calls[tid]
            out[f"{base}.self_s"] = self.self_s[tid]
            module_self[module] += self.self_s[tid]
            for stat, num, den in _REPORTED.get(counter, ()):
                out[f"{base}.{stat}"] = _stat(self.counts[tid], num, den)
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module]
        return out

    def write_spans(self, path) -> int:
        """Write the spans as gzip'd tab-separated lines; return how many."""
        names = [f"{module}.{name}" for module, name, _ in TARGETS]
        origin = min(self.span_start) if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tjob\tname\tstart_s\tend_s\tparent\n")
            for i, (job, tid, parent, start, end) in enumerate(zip(
                    self.span_job, self.span_target, self.span_parent,
                    self.span_start, self.span_end)):
                fh.write(f"{i}\t{job}\t{names[tid]}\t{start - origin:.9f}\t"
                         f"{end - origin:.9f}\t{parent}\n")
        return len(self.span_target)
