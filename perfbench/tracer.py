"""Per-layer counters and span times, measured from outside the library.

:func:`install` wraps qinfty's public functions where they are defined and
rebinds every module attribute that still points at the original, which
covers the ``from .rigor import ...`` bindings of the consumer modules
(``covering.ipow``, ``qvector.powsum``, ``cantor.endpoints``, ...) and the
package's re-exports.  ``QVectorSpec`` methods and
``Lemma1Partition.boundary`` are wrapped on their classes, so calls between
layers pass through the wrappers too.

Spans nest: a span's self time is its duration minus the time of the spans
it encloses.  The timed runs of the benchmark never install the tracer.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute) of each wrapped function
FUNCTIONS = (
    ("rigor.to_iv", "rigor", "to_iv"),
    # lower/upper/decide_*/num_to_json all reach endpoints through rigor's globals
    ("rigor.endpoints", "rigor", "endpoints"),
    ("rigor.decide", "rigor", "decide_le"),
    ("rigor.decide", "rigor", "decide_lt"),
    ("rigor.ipow", "rigor", "ipow"),
    ("rigor.powsum", "rigor", "powsum"),
    ("expansion.encode", "expansion", "encode"),
    ("expansion.decode", "expansion", "decode"),
    ("expansion.locate_max_cylinder", "expansion", "locate_max_cylinder"),
    ("covering.cover_interval", "covering", "cover_interval"),
    ("covering.lemma1_partition", "covering", "lemma1_partition"),
    ("covering.kappa", "covering", "kappa"),
    ("covering.alpha_volume", "covering", "alpha_volume"),
    ("faithfulness.check_condition", "faithfulness", "check_condition"),
    ("faithfulness.scan_condition_region", "faithfulness", "scan_condition_region"),
    ("cantor.build_cantor", "cantor", "build_cantor"),
    ("cantor.level_volume", "cantor", "level_volume"),
    ("cantor.measure_cylinder", "cantor", "measure_cylinder"),
    ("cantor.dimension_gap", "cantor", "dimension_gap"),
    ("cli.main", "cli", "main"),
    ("cli.check_condition", "cli", "_cmd_check_condition"),
    ("cli.scan_condition", "cli", "_cmd_scan_condition"),
    ("cli.cantor_build", "cli", "_cmd_cantor_build"),
    ("cli.cantor_volume", "cli", "_cmd_cantor_volume"),
    ("cli.cantor_measure", "cli", "_cmd_cantor_measure"),
    ("cli.cantor_gap", "cli", "_cmd_cantor_gap"),
)
# (span name, module, class, method)
METHODS = (
    ("qvector.q", "qvector", "QVectorSpec", "q"),
    ("qvector.head_sum", "qvector", "QVectorSpec", "head_sum"),
    ("qvector.tail_sum", "qvector", "QVectorSpec", "tail_sum"),
    ("qvector.range_sum", "qvector", "QVectorSpec", "range_sum"),
    ("qvector.power_sum", "qvector", "QVectorSpec", "power_sum"),
    ("qvector.max_weight", "qvector", "QVectorSpec", "max_weight"),
    ("covering.partition_boundary", "covering", "Lemma1Partition", "boundary"),
)
# spans whose own precision rungs are counted: workprec blocks they enter
# directly (check_condition's count includes its re-verification rung)
RUNG_SPANS = ("expansion.encode", "covering.cover_interval", "faithfulness.check_condition")
MODULES = ("rigor", "qvector", "expansion", "covering", "faithfulness", "cantor", "cli")

# spans reported by inclusive time only; every other span by calls and self time
TOTALS = (
    "cantor.dimension_gap", "cli.check_condition", "cli.scan_condition", "cli.cantor_build",
    "cli.cantor_volume", "cli.cantor_measure", "cli.cantor_gap",
)
SPANS = tuple(dict.fromkeys(entry[0] for entry in FUNCTIONS + METHODS))
COUNTS = (
    "rigor.workprec.enters", "expansion.encode.rungs", "covering.cover_interval.rungs",
    "covering.blocks", "covering.residuals", "faithfulness.check_condition.rungs",
    "faithfulness.cells", "cantor.window_cells",
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self.stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stack, active, calls = self.stack, self.active, self.calls
        self_s, total_s = self.self_s, self.total_s
        hook = name.replace(".", "_")
        on_call = getattr(self, "_before_" + hook, None)
        on_result = getattr(self, "_after_" + hook, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call()
            active[name] += 1
            frame = [perf_counter(), 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                active[name] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _before_qvector_q(self):
        if self.active["faithfulness.check_condition"]:
            self.counts["faithfulness.cells"] += 1
        if self.active["cantor.build_cantor"]:
            self.counts["cantor.window_cells"] += 1

    def _after_rigor_decide(self, result):
        if result is None:
            self.counts["rigor.decide.undecided"] += 1

    def _after_covering_cover_interval(self, cert):
        self.counts["covering.certs"] += 1
        self.counts["covering.blocks"] += len(cert.blocks)
        self.counts["covering.residuals"] += len(cert.residuals)

    def _workprec(self, orig):
        tracer = self

        @functools.wraps(orig)
        def workprec(*args, **kwargs):
            tracer.counts["rigor.workprec.enters"] += 1
            # a rung belongs to the innermost open span, the one entering it
            if tracer.stack and tracer.stack[-1][2] in RUNG_SPANS:
                tracer.counts[tracer.stack[-1][2] + ".rungs"] += 1
            return orig(*args, **kwargs)

        return workprec

    # -- installation ---------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap everything in FUNCTIONS and METHODS inside package ``pkg``."""
        mods = [getattr(pkg, m) for m in MODULES] + [pkg]
        originals = {}
        for name, mod, attr in FUNCTIONS:
            orig = getattr(getattr(pkg, mod), attr)
            originals[id(orig)] = (orig, self._wrap(name, orig))
        orig = pkg.rigor.workprec
        originals[id(orig)] = (orig, self._workprec(orig))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    setattr(mod, attr, originals[id(val)][1])
                    self._undo.append((mod, attr, val))
        for name, mod, cls, attr in METHODS:
            klass = getattr(getattr(pkg, mod), cls)
            orig = vars(klass)[attr]
            setattr(klass, attr, self._wrap(name, orig))
            self._undo.append((klass, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPANS:
            if name in TOTALS:
                continue
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        decides = self.calls["rigor.decide"]
        out["rigor.decide.undecided_share"] = (
            self.counts["rigor.decide.undecided"] / decides if decides else 0.0, "ratio")
        for name in TOTALS:
            out[name + ".total_s"] = (self.total_s[name], "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        rungs = self.counts["covering.cover_interval.rungs"]
        out["covering.certs_per_rung"] = (
            self.counts["covering.certs"] / rungs if rungs else 0.0, "ratio")
        return out
