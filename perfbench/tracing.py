"""Per-layer tracing of the superspan package, installed from outside.

`Tracer.install` wraps public names of the package where their callers
look them up: every module of the package that binds the original
function object gets the wrapper in its place (so `detect`'s own
`from .linalg import modular_rank_filter` is covered), and a method is
replaced on its class.  A name that does not exist is skipped and listed
in `Tracer.missing`; the metrics derived from it are then absent.
`uninstall` puts every original back.

Stage-level calls record a span (job, parent, name, start, end, note),
kept in memory and written out by the runner.  Kernels called around
10^5 times per job (field arithmetic, lattice membership) only count
calls and, where a time metric needs it, sum their inclusive time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median
from time import perf_counter

# (module, name) of every span; the span is named after the last part of
# the module and the name.  `layer_metrics` sorts detect's direct children
# into stages by span name.
SPANS = [
    ("superspan.cli", "main"),
    ("superspan.cli", "_emit"),
    ("superspan.detect", "enumerate_exceptional"),
    ("superspan.detect", "intersection_count"),
    ("superspan.linalg", "modular_rank_filter"),
    ("superspan.linalg", "super_rank"),
    ("superspan.linalg", "span_canonical"),
    ("superspan.orbit", "iterate_matrix"),
    ("superspan.orbit", "IterMatrix.rows"),
    ("superspan.subsum", "column_selections"),
    ("superspan.subsum", "det_terms"),
    ("superspan.subsum", "bullet_partition"),
    ("superspan.subsum", "finest_zero_partition"),
    ("superspan.subsum", "classify_exceptional"),
    ("superspan.subsum", "deleted_row_rank"),
    ("superspan.subsum", "fingerprint"),
    ("superspan.relations", "relation_lattice"),
    ("superspan.constructions", "quadric_case_probe"),
    ("superspan.constructions", "verify_cyclotomic_family"),
    ("superspan.jsonio", "encode_report"),
]

# (module, name, counter, also sum the inclusive time?)
COUNTERS = [
    ("superspan.field", "FieldValue.__mul__", "field.mul", False),
    ("superspan.field", "FieldValue.inverse", "field.inverse", False),
    ("superspan.field", "FieldValue.__pow__", "field.pow", False),
    ("superspan.field", "ModularResidue.__mul__", "field.residue_mul", False),
    ("superspan.field", "ModularResidue.__pow__", "field.residue_pow", False),
    ("superspan.field", "ModularResidue.pow_tower", "field.residue_pow", False),
    ("superspan.field", "reduce_mod_prime", "field.reduce", False),
    ("superspan.linalg", "rank", "linalg.rank", True),
    ("superspan.linalg", "rref", "linalg.rref", False),
    ("superspan.orbit", "iterate", "orbit.iterate", False),
    ("superspan.relations", "lattice_contains", "relations.contains", True),
]

DETECT = "detect.enumerate_exceptional"
# detect's direct children, by stage
STAGES = {
    "filter": ("linalg.modular_rank_filter",),
    "confirm": ("orbit.iterate_matrix", "orbit.IterMatrix.rows", "linalg.super_rank"),
    "group": ("linalg.span_canonical",),
    "intersect": ("detect.intersection_count",),
}
PARTITION_PREFIX = "subsum."  # the subsum calls detect makes
STAGE_KEYS = tuple(STAGES) + ("partition",)

# (metric, unit, better, the span or counter names it is computed from),
# in report order.  A metric whose source is missing is left out.
D = ("detect.enumerate_exceptional",)
LAYER_METRICS = [
    ("detect.total_s", "s", "lower", D),
    ("detect.filter_s", "s", "lower", D + ("linalg.modular_rank_filter",)),
    ("detect.filter_calls", "count", "lower", D + ("linalg.modular_rank_filter",)),
    ("detect.filter_certified", "count", "higher", D + ("linalg.modular_rank_filter",)),
    ("detect.filter_yield", "ratio", "higher", D + ("linalg.modular_rank_filter",)),
    ("detect.filter_primes_tried", "count", "lower", D + ("linalg.modular_rank_filter",)),
    ("detect.filter_bad_primes", "count", "lower", D + ("linalg.modular_rank_filter",)),
    ("field.residue_mul_calls", "count", "lower", ("field.residue_mul",)),
    ("field.residue_pow_calls", "count", "lower", ("field.residue_pow",)),
    ("field.reduce_calls", "count", "lower", ("field.reduce",)),
    ("detect.intersect_s", "s", "lower", D + ("detect.intersection_count",)),
    ("detect.intersect_calls", "count", "lower", D + ("detect.intersection_count",)),
    ("orbit.iterate_calls", "count", "lower", ("orbit.iterate",)),
    ("orbit.max_entry_bits", "bits", "lower", ("orbit.iterate", "orbit.IterMatrix.rows")),
    ("detect.confirm_s", "s", "lower", D + STAGES["confirm"]),
    ("detect.confirm_calls", "count", "lower", D + ("linalg.super_rank",)),
    ("detect.confirmed", "count", "higher", D + ("linalg.super_rank",)),
    ("orbit.rows_calls", "count", "lower", ("orbit.IterMatrix.rows",)),
    ("linalg.rank_s", "s", "lower", ("linalg.rank",)),
    ("linalg.rank_calls", "count", "lower", ("linalg.rank",)),
    ("field.mul_calls", "count", "lower", ("field.mul",)),
    ("field.inverse_calls", "count", "lower", ("field.inverse",)),
    ("field.pow_calls", "count", "lower", ("field.pow",)),
    ("detect.group_s", "s", "lower", D + ("linalg.span_canonical",)),
    ("linalg.rref_calls", "count", "lower", ("linalg.rref",)),
    ("detect.partition_s", "s", "lower", D),
    ("detect.self_s", "s", "lower", D),
    ("subsum.det_terms_s", "s", "lower", ("subsum.det_terms",)),
    ("subsum.det_terms_calls", "count", "lower", ("subsum.det_terms",)),
    ("subsum.fingerprint_s", "s", "lower", ("subsum.fingerprint",)),
    ("subsum.finest_s", "s", "lower", ("subsum.finest_zero_partition",)),
    ("relations.lattice_s", "s", "lower", ("relations.relation_lattice",)),
    ("relations.contains_s", "s", "lower", ("relations.contains",)),
    ("relations.contains_calls", "count", "lower", ("relations.contains",)),
    ("constructions.quadric_s", "s", "lower", ("constructions.quadric_case_probe",)),
    ("constructions.cyclotomic_s", "s", "lower", ("constructions.verify_cyclotomic_family",)),
    ("jsonio.encode_s", "s", "lower", ("jsonio.encode_report",)),
    ("jsonio.report_bytes", "bytes", "lower", ()),
    # traced minus untraced pass_s, computed by the runner
    ("trace.overhead_s", "s", "lower", ()),
]


def _entry_bits(values) -> int:
    """Largest numerator or denominator bit length among field values."""
    bits = 0
    for v in values:
        for c in v.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _observe_filter(verdict):
    diagnostics = getattr(verdict, "diagnostics", None) or {}
    return (bool(getattr(verdict, "certified", False)),
            len(diagnostics.get("ranks", ())) + len(diagnostics.get("bad_primes", ())),
            len(diagnostics.get("bad_primes", ())))


# span name -> function of the wrapped call's result, stored as the span's note
NOTES = {
    "linalg.modular_rank_filter": _observe_filter,
    "linalg.super_rank": bool,
}
# observers that feed orbit.max_entry_bits
BITS = {
    "orbit.IterMatrix.rows": lambda rows: _entry_bits(v for row in rows for v in row),
    "orbit.iterate": lambda point: _entry_bits(point.coords),
}


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []        # (job, parent index or -1, name, start, end, note)
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.max_entry_bits = 0
        self.report_bytes = 0
        self.job = None
        self.missing = set()   # span and counter names with nothing to wrap
        self._stack = []
        self._undo = []

    # -- installation --

    def install(self) -> "Tracer":
        for module, name in SPANS:
            span = _short(module, name)
            if not self._patch(module, name, lambda fn, span=span: self._span(span, fn)):
                self.missing.add(span)
        installed = set()
        for module, name, counter, timed in COUNTERS:
            bits = BITS.get(_short(module, name))
            if self._patch(module, name, lambda fn, c=counter, t=timed, b=bits:
                           self._counter(c, fn, t, b)):
                installed.add(counter)
        self.missing |= {c for _, _, c, _ in COUNTERS} - installed
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, module: str, name: str, make_wrapper) -> bool:
        """Replace every binding of module.name (or of a method, on its
        class) by a wrapper; False when there is nothing to wrap."""
        owner = sys.modules.get(module)
        cls_name, _, attr = name.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            targets = [owner] if isinstance(owner, type) else []
        else:
            targets = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "superspan" or key.startswith("superspan."))]
        original = vars(owner).get(attr) if targets and owner is not None else None
        if original is None:
            return False
        wrapper = functools.wraps(original)(make_wrapper(original))
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, key, original))
                    setattr(target, key, wrapper)
        return True

    # -- wrappers --

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        bits = BITS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.job, parent, name, start, end,
                                note(result) if note and result is not None else None)
                if bits and result is not None:
                    self.max_entry_bits = max(self.max_entry_bits, bits(result))
        return wrapper

    def _counter(self, name: str, fn, timed: bool, bits):
        calls, seconds = self.calls, self.seconds
        if timed:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - start
                    calls[name] += 1
        elif bits:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                self.max_entry_bits = max(self.max_entry_bits, bits(result))
                return result
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def job_span(self, job: str):
        """The root span of one job; every span opened inside carries the
        job's id."""
        self.job = job
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (job, -1, "job", start, perf_counter(), None)
            self.job = None


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, all but trace.overhead_s."""
    spans = tracer.spans
    durations = defaultdict(float)
    counts = Counter()
    for _, _, name, start, end, _ in spans:
        durations[name] += end - start
        counts[name] += 1

    # detect's direct children by stage; the rest of detect is self time
    detect_ids = {i for i, span in enumerate(spans) if span[2] == DETECT}
    stage = defaultdict(list)
    for _, parent, name, start, end, note in spans:
        if parent not in detect_ids:
            continue
        key = next((k for k, names in STAGES.items() if name in names),
                   "partition" if name.startswith(PARTITION_PREFIX) else None)
        if key:
            stage[key].append((name, end - start, note))

    def stage_s(key):
        return sum(duration for _, duration, _ in stage[key])

    filters = [note for _, _, note in stage["filter"] if note is not None]
    certified = sum(f[0] for f in filters)
    confirms = [note for name, _, note in stage["confirm"] if name == "linalg.super_rank"]
    calls, seconds = tracer.calls, tracer.seconds
    metrics = {
        "detect.total_s": durations[DETECT],
        "detect.filter_s": stage_s("filter"),
        "detect.filter_calls": len(stage["filter"]),
        "detect.filter_certified": certified,
        "detect.filter_yield": certified / len(filters) if filters else 0.0,
        "detect.filter_primes_tried": sum(f[1] for f in filters),
        "detect.filter_bad_primes": sum(f[2] for f in filters),
        "field.residue_mul_calls": calls["field.residue_mul"],
        "field.residue_pow_calls": calls["field.residue_pow"],
        "field.reduce_calls": calls["field.reduce"],
        "detect.intersect_s": stage_s("intersect"),
        "detect.intersect_calls": len(stage["intersect"]),
        "orbit.iterate_calls": calls["orbit.iterate"],
        "orbit.max_entry_bits": tracer.max_entry_bits,
        "detect.confirm_s": stage_s("confirm"),
        "detect.confirm_calls": len(confirms),
        "detect.confirmed": sum(1 for ok in confirms if ok),
        "orbit.rows_calls": counts["orbit.IterMatrix.rows"],
        "linalg.rank_s": seconds["linalg.rank"],
        "linalg.rank_calls": calls["linalg.rank"],
        "field.mul_calls": calls["field.mul"],
        "field.inverse_calls": calls["field.inverse"],
        "field.pow_calls": calls["field.pow"],
        "detect.group_s": stage_s("group"),
        "linalg.rref_calls": calls["linalg.rref"],
        "detect.partition_s": stage_s("partition"),
        "detect.self_s": durations[DETECT] - sum(map(stage_s, STAGE_KEYS)),
        "subsum.det_terms_s": durations["subsum.det_terms"],
        "subsum.det_terms_calls": counts["subsum.det_terms"],
        "subsum.fingerprint_s": durations["subsum.fingerprint"],
        "subsum.finest_s": durations["subsum.finest_zero_partition"],
        "relations.lattice_s": durations["relations.relation_lattice"],
        "relations.contains_s": seconds["relations.contains"],
        "relations.contains_calls": calls["relations.contains"],
        "constructions.quadric_s": durations["constructions.quadric_case_probe"],
        "constructions.cyclotomic_s": durations["constructions.verify_cyclotomic_family"],
        "jsonio.encode_s": durations["jsonio.encode_report"] + durations["cli._emit"],
        "jsonio.report_bytes": tracer.report_bytes,
    }
    for name, _, _, sources in LAYER_METRICS:
        if tracer.missing.intersection(sources):
            metrics.pop(name, None)
    return metrics


def aggregate(per_pass) -> dict:
    """Median of each metric over the traced passes that report it."""
    names = {name for metrics in per_pass for name in metrics}
    return {name: median(m[name] for m in per_pass if name in m) for name in names}
