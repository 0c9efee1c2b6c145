"""Outside-in tracer: spans around calls into each module's public
functions, installed from the benchmark without touching the package.

A traced function gets one wrapper, and the wrapper replaces the function
at every ``besovmorrey`` module that bound it by ``from .x import name``;
otherwise a call made through another module's binding would escape the
trace.  Methods are wrapped on their class, and ``DyadicSequence`` is traced
through its ``__init__`` because the package also uses the class in
``isinstance`` checks.

Spans (name, start, end, parent) are kept in memory up to ``SPAN_CAP`` and
written out by :meth:`Tracer.write_spans`; self time is derived as each
span closes (its duration minus the time its child spans cover), so the
aggregates stay exact past the cap.  The package is single-threaded and has
no queues, so no span ever waits: there is no wait time to record.
"""

from __future__ import annotations

import sys
import time

#: layer -> traced functions, as "module:attribute" ("Class.method" for
#: methods).  Metric names are "<layer>.<last attribute part>.<stat>".
LAYERS = {
    "cli": ["besovmorrey.cli:main"],
    "phi": [
        "besovmorrey.phi:eval_phi",
        "besovmorrey.phi:parse_phi",
        "besovmorrey.phi:check_class_gp",
        "besovmorrey.phi:load_table",
    ],
    "dyadic": [
        "besovmorrey.dyadic:parse_space_params",
        "besovmorrey.dyadic:read_csv",
        "besovmorrey.dyadic:DyadicSequence.__init__",
        "besovmorrey.dyadic:level_quantity",
        "besovmorrey.dyadic:n_norm",
        "besovmorrey.dyadic:tilde_norm",
    ],
    "morrey": ["besovmorrey.morrey:morrey_norm"],
    "embedding": [
        "besovmorrey.embedding:decide",
        "besovmorrey.embedding:alpha_sequence",
        "besovmorrey.embedding:ratio_R",
    ],
    "witness": [
        "besovmorrey.witness:divergence_scan",
        "besovmorrey.witness:simple_witness",
        "besovmorrey.witness:capacity_witness",
        "besovmorrey.witness:beta_witness",
        "besovmorrey.witness:greedy_distribution",
        "besovmorrey.witness:select_witness_level",
    ],
    "wavelet": [
        "besovmorrey.wavelet:read_samples",
        "besovmorrey.wavelet:analyze",
        "besovmorrey.wavelet:WaveletCoefficients.detail_sequences",
        "besovmorrey.wavelet:function_norm_estimate",
        "besovmorrey.wavelet:daubechies_system",
    ],
}

#: Names each module must bind; a missing one means the call graph changed
#: and the trace would silently lose calls.
BINDINGS = {
    "besovmorrey.cli": ["decide", "n_norm", "parse_space_params", "load_csv",
                        "load_samples", "function_norm_estimate", "wavelet_analyze",
                        "divergence_scan", "daubechies_system"],
    "besovmorrey.witness": ["n_norm", "decide", "alpha_sequence", "ratio_R", "eval_phi"],
    "besovmorrey.embedding": ["n_norm", "eval_phi"],
    "besovmorrey.dyadic": ["eval_phi", "parse_phi", "check_class_gp", "morrey_norm"],
    "besovmorrey.morrey": ["eval_phi"],
    "besovmorrey.wavelet": ["tilde_norm", "DyadicSequence"],
}

#: Bound names that are not traced themselves but reach a traced function
#: through their own module's binding.
UNTRACED = ("load_csv", "load_samples")

#: Workloads on which each traced function must be called; a count of 0
#: there is flagged.
EXPECTED = {
    "cli.main": "sweep_grid norm_files witness_scan analyze_grid",
    "phi.eval_phi": "sweep_grid",
    "phi.parse_phi": "sweep_grid",
    "phi.check_class_gp": "sweep_grid",
    "phi.load_table": "sweep_grid",
    "dyadic.parse_space_params": "sweep_grid norm_files witness_scan analyze_grid",
    "dyadic.read_csv": "norm_files",
    "dyadic.DyadicSequence": "norm_files witness_scan analyze_grid",
    "dyadic.level_quantity": "norm_files witness_scan analyze_grid",
    "dyadic.n_norm": "norm_files witness_scan analyze_grid",
    "dyadic.tilde_norm": "analyze_grid",
    "morrey.morrey_norm": "analyze_grid",
    "embedding.decide": "sweep_grid witness_scan",
    "embedding.alpha_sequence": "sweep_grid witness_scan",
    "embedding.ratio_R": "sweep_grid witness_scan",
    "witness.divergence_scan": "witness_scan",
    "witness.simple_witness": "witness_scan",
    "witness.capacity_witness": "witness_scan",
    "witness.beta_witness": "witness_scan",
    "witness.greedy_distribution": "witness_scan",
    "witness.select_witness_level": "witness_scan",
    "wavelet.read_samples": "analyze_grid",
    "wavelet.analyze": "analyze_grid",
    "wavelet.detail_sequences": "analyze_grid",
    "wavelet.function_norm_estimate": "analyze_grid",
    "wavelet.daubechies_system": "analyze_grid",
}

SPAN_CAP = 100_000


def _short(target):
    attr = target.split(":", 1)[1]
    parts = attr.split(".")
    return parts[0] if parts[-1] == "__init__" else parts[-1]


def metric_names():
    """Every per-layer metric the traced run reports, with unit and
    direction, in a stable order."""
    out = []
    for layer, targets in LAYERS.items():
        for target in targets:
            base = "%s.%s" % (layer, _short(target))
            out += [(base + ".calls", "count"), (base + ".s", "s"),
                    (base + ".self_s", "s"), (base + ".raised", "count")]
    out += [
        ("phi.load_table.distinct_ratio", "ratio"),
        ("dyadic.parse_space_params.distinct_ratio", "ratio"),
        ("dyadic.DyadicSequence.cells", "count"),
        ("dyadic.level_quantity.cells", "count"),
        ("witness.cells", "count"),
        ("witness.max_cells_ratio", "ratio"),
        ("wavelet.detail_sequences.entries", "count"),
        ("wavelet.detail_sequences.kept_ratio", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def _resolve(target):
    modname, attr = target.split(":", 1)
    owner = sys.modules[modname]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise LookupError("traced name %s is missing" % target)
    return owner, parts[-1]


class Tracer:
    """Wraps the functions in LAYERS while installed; aggregates per
    function and keeps the first SPAN_CAP spans."""

    def __init__(self):
        self.names = []
        self.agg = []  # per function: [calls, total_s, self_s, raised]
        self.counts = {"DyadicSequence.cells": 0, "level_quantity.cells": 0,
                       "witness.cells": 0, "witness.max_cells": 0,
                       "detail_sequences.entries": 0, "detail_sequences.band_cells": 0}
        self.distinct = {"load_table": set(), "parse_space_params": set()}
        self.spans = []
        self.dropped = 0
        self._stack = []  # frames [child_time, span_index]
        self._swaps = []  # (owner, name, original, wrapper)

    # -- installation -------------------------------------------------------

    def install(self):
        """Put the wrappers in place; they keep counting across repeated
        install/uninstall rounds."""
        if not self._swaps:
            self._build()
        for owner, name, _, wrapper in self._swaps:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._swaps:
            setattr(owner, name, original)

    def _build(self):
        import besovmorrey.cli  # noqa: F401  (loads every module)

        modules = [m for name, m in sys.modules.items()
                   if name == "besovmorrey" or name.startswith("besovmorrey.")]
        for modname, names in BINDINGS.items():
            missing = [n for n in names if not hasattr(sys.modules[modname], n)]
            if missing:
                raise LookupError("%s no longer binds %s" % (modname, ", ".join(missing)))
        bound = set()
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                wrapper = self._wrap(len(self.names), original, _short(target))
                self.names.append("%s.%s" % (layer, _short(target)))
                self.agg.append([0, 0.0, 0.0, 0])
                if isinstance(owner, type):
                    self._swaps.append((owner, attr, original, wrapper))
                    continue
                for module in modules:
                    for name, value in vars(module).items():
                        if value is original:
                            self._swaps.append((module, name, original, wrapper))
                            bound.add((module.__name__, name))
        for modname, names in BINDINGS.items():
            for name in names:
                value = getattr(sys.modules[modname], name)
                if callable(value) and not isinstance(value, type) \
                        and (modname, name) not in bound and name not in UNTRACED:
                    raise LookupError("%s.%s escaped the trace" % (modname, name))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fid, fn, short):
        perf = time.perf_counter
        stack, spans, agg = self._stack, self.spans, self.agg
        count = self._counter(short)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            raised = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                row = agg[fid]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[0]
                if raised:
                    row[3] += 1
                if stack:
                    stack[-1][0] += dur
                if index >= 0:
                    spans[index] = (fid, start, end, parent)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _counter(self, short):
        counts, distinct = self.counts, self.distinct

        def sequence_cells(args, result):
            counts["DyadicSequence.cells"] += len(args[0])

        def level_cells(args, result):
            counts["level_quantity.cells"] += len(args[0].level(args[1]))

        def witness_cells(args, result):
            n = len(result)
            counts["witness.cells"] += n
            counts["witness.max_cells"] = max(counts["witness.max_cells"], n)

        def detail_entries(args, result):
            counts["detail_sequences.entries"] += sum(len(s) for s in result.values())
            counts["detail_sequences.band_cells"] += sum(
                a.size for per in args[0].details.values() for _, a in per.values()
            )

        def first_arg(key):
            def note(args, result):
                distinct[key].add(args[0])
            return note

        return {
            "DyadicSequence": sequence_cells,
            "level_quantity": level_cells,
            "simple_witness": witness_cells,
            "capacity_witness": witness_cells,
            "beta_witness": witness_cells,
            "detail_sequences": detail_entries,
            "load_table": first_arg("load_table"),
            "parse_space_params": first_arg("parse_space_params"),
        }.get(short)

    # -- results ------------------------------------------------------------

    def metrics(self, passes, max_cells):
        """Per-layer metrics for one pass over the workload's calls."""
        out = {}
        for name, (calls, total, self_s, raised) in zip(self.names, self.agg):
            out[name + ".calls"] = calls / passes
            out[name + ".s"] = total / passes
            out[name + ".self_s"] = self_s / passes
            out[name + ".raised"] = raised / passes
        calls = dict(zip(self.names, (row[0] for row in self.agg)))
        for key, name in (("load_table", "phi.load_table"),
                          ("parse_space_params", "dyadic.parse_space_params")):
            # every pass parses the same texts, so distinct texts per pass
            # over calls per pass
            n = calls[name] / passes
            out[name + ".distinct_ratio"] = len(self.distinct[key]) / n if n else 0.0
        c = self.counts
        out["dyadic.DyadicSequence.cells"] = c["DyadicSequence.cells"] / passes
        out["dyadic.level_quantity.cells"] = c["level_quantity.cells"] / passes
        out["witness.cells"] = c["witness.cells"] / passes
        out["witness.max_cells_ratio"] = c["witness.max_cells"] / max_cells
        out["wavelet.detail_sequences.entries"] = c["detail_sequences.entries"] / passes
        band = c["detail_sequences.band_cells"]
        out["wavelet.detail_sequences.kept_ratio"] = (
            c["detail_sequences.entries"] / band if band else 0.0
        )
        return out

    def zero_calls(self, workload):
        """Traced functions mapped to this workload that were never called."""
        return [name for name, row in zip(self.names, self.agg)
                if row[0] == 0 and workload in EXPECTED[name].split()]

    def write_spans(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# spans kept %d, dropped past the cap %d; times in s from trace start\n"
                     % (len(self.spans), self.dropped))
            fh.write("id,name,start,end,parent\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                fid, start, end, parent = span
                fh.write("%d,%s,%.9f,%.9f,%d\n"
                         % (i, self.names[fid], start - origin, end - origin, parent))
