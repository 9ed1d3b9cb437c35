"""Spans around the program's public functions, installed from outside.

`Tracer.install()` replaces every binding of each traced function inside the
`graphsfda` package with a wrapper (a function imported into another module
under another name is the same object, so it is found too) and wraps
`__init__` for classes. Each call records a span: id, parent id, name, start,
end and the id of its root span, which identifies the public call (run) the
span belongs to. Start and end are CPU time of the measured process, since
the reference loop (calibrate.py) shares its core. Spans are kept in memory
and written out by `dump`.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# module -> traced names; "Class" traces construction, "Class.method" a method
TRACED = {
    "graph_store": ["load_graph", "TargetGraph", "AdjacencyLayout", "normalize_adjacency",
                    "neighbor_lists"],
    "numerics": ["spmm", "coo_spmm", "backward"],
    "gnn": ["forward_on_tape", "forward", "pretrain_source", "load_checkpoint",
            "AdamState.step"],
    "banks": ["init_banks", "momentum_update"],
    "model_adaptation": ["neighborhood_pseudo_labels", "compute_prototypes",
                         "confidence_weights", "loss_weighted_ce", "loss_instance_prototype",
                         "loss_model"],
    "graph_adaptation": ["apply_feature_delta", "apply_structure_delta",
                         "masked_adjacency_on_tape", "select_confident", "knn_positives",
                         "label_negatives", "loss_graph", "pgd_step_structure",
                         "feature_gd_step", "finalize_structure"],
    "driver": ["adapt"],
}
# functions whose growth of the peak RSS during the call is reported
RSS_TRACED = [
    "graph_adaptation.knn_positives", "graph_adaptation.label_negatives",
    "graph_adaptation.loss_graph", "model_adaptation.loss_instance_prototype",
    "numerics.backward", "gnn.forward_on_tape",
]
# a phase runs from the start of its first call to the end of its last one
PHASES = {
    "driver.model_step": ("model_adaptation.neighborhood_pseudo_labels",
                          "banks.momentum_update"),
    "driver.feature_step": ("graph_adaptation.apply_feature_delta",
                            "graph_adaptation.feature_gd_step"),
    "driver.structure_step": ("graph_adaptation.apply_structure_delta",
                              "graph_adaptation.pgd_step_structure"),
}
ADAPT = "driver.adapt"

ID, PARENT, NAME, START, END, ROOT, LIVE = range(7)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _is_tensor(x) -> bool:
    return hasattr(x, "tape") and hasattr(x, "index")


def _value(x):
    for attr in ("value", "a"):
        if hasattr(x, attr):
            return getattr(x, attr)
    return x


def metric_names() -> list:
    """Every per-layer metric `Tracer.metrics` reports, in a fixed order."""
    names = []
    for module, funcs in TRACED.items():
        for f in funcs:
            time_name = "self_s" if f"{module}.{f}" == ADAPT else "s"
            names += [f"{module}.{f}.{time_name}", f"{module}.{f}.calls"]
    names += [f"{n}.rss_growth_mb" for n in RSS_TRACED]
    names += [f"{p}.s" for p in PHASES]
    names += [
        "graph_adaptation.confident_frac",
        "numerics.spmm.flops",
        "numerics.spmm.bytes_computed",
        "numerics.tape.nodes",
        "numerics.tape.mb",
        "trace.spans",
        "trace.adapt_coverage",
    ]
    return names


class Tracer:
    def __init__(self, run_label: str):
        self.run_label = run_label
        self.spans: list = []
        self._stack: list = []
        self._rss: dict = {}
        self._undo: list = []
        self.spmm_flops = 0
        self.spmm_bytes = 0
        self.tape_nodes = 0
        self.tape_bytes = 0
        self._confident = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = [m for n, m in sys.modules.items()
               if n == "graphsfda" or n.startswith("graphsfda.")]
        for module, funcs in TRACED.items():
            mod = sys.modules.get(f"graphsfda.{module}")
            if mod is None:
                continue
            for f in funcs:
                name = f"{module}.{f}"
                cls_name, _, method = f.partition(".")
                target = getattr(mod, cls_name, None)
                if target is None:
                    continue  # no longer in the program: reported as zero
                if isinstance(target, type):
                    attr = method or "__init__"
                    orig = target.__dict__[attr]
                    self._set(target, attr, self._wrap(name, orig))
                    continue
                wrapper = self._wrap(name, target)
                for m in pkg:
                    for attr, val in list(vars(m).items()):
                        if val is target:
                            self._set(m, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.rsplit(".", 1)[-1], None)
        after = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)
        spans, stack, rss = self.spans, self._stack, self._rss
        clock = time.process_time  # CPU time: the reference loop shares the core

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(spans)
            parent = stack[-1] if stack else None
            root = spans[parent][ROOT] if parent is not None else sid
            live = any(_is_tensor(a) for a in args)
            span = [sid, parent, name, 0.0, 0.0, root, live]
            spans.append(span)
            stack.append(sid)
            rss0 = _maxrss_mb()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                rss[name] = rss.get(name, 0.0) + _maxrss_mb() - rss0
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counts, taken where the work happens -------------------------------

    def _before_spmm(self, args) -> None:
        adj, x = args[0], _value(args[1])
        nnz, h = adj.nnz, x.shape[1]
        self.spmm_flops += 2 * nnz * h
        # computed, not measured: gathered operand rows, values and column
        # indices, and the output rows, all 8 bytes wide
        self.spmm_bytes += 8 * (nnz * h + 2 * nnz + adj.n * h)

    def _before_backward(self, args) -> None:
        nodes = args[0].nodes
        self.tape_nodes = max(self.tape_nodes, len(nodes))
        self.tape_bytes = max(self.tape_bytes, sum(t.value.nbytes for t in nodes))

    def _after_select_confident(self, args, result) -> None:
        rows = _value(args[0]).shape[0]
        if rows:
            self._confident.append(len(result) / rows)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        total = {}
        calls = {}
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        for s in self.spans:
            total[s[NAME]] = total.get(s[NAME], 0.0) + (s[END] - s[START]) - child[s[ID]]
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        out = {}
        for module, funcs in TRACED.items():
            for f in funcs:
                name = f"{module}.{f}"
                out[f"{name}.{'self_s' if name == ADAPT else 's'}"] = total.get(name, 0.0)
                out[f"{name}.calls"] = calls.get(name, 0)
        for name in RSS_TRACED:
            out[f"{name}.rss_growth_mb"] = self._rss.get(name, 0.0)
        for phase, seconds in self.phase_seconds().items():
            out[f"{phase}.s"] = seconds
        adapt_wall = sum(s[END] - s[START] for s in self.spans if s[NAME] == ADAPT)
        out["graph_adaptation.confident_frac"] = (
            sum(self._confident) / len(self._confident) if self._confident else 0.0
        )
        out["numerics.spmm.flops"] = self.spmm_flops
        out["numerics.spmm.bytes_computed"] = self.spmm_bytes
        out["numerics.tape.nodes"] = self.tape_nodes
        out["numerics.tape.mb"] = self.tape_bytes / 2**20
        out["trace.spans"] = len(self.spans)
        out["trace.adapt_coverage"] = (
            (adapt_wall - total.get(ADAPT, 0.0)) / adapt_wall if adapt_wall else 0.0
        )
        return out

    def phase_seconds(self) -> dict:
        """Phase spans rebuilt from the first and last call of each step.

        A feature or structure step starts at the call that applies a live
        (recorded) delta; calls on plain values belong to no step.
        """
        out = {}
        for phase, (first, last) in PHASES.items():
            seconds, opened = 0.0, None
            live_only = first.startswith("graph_adaptation.apply_")
            for s in self.spans:
                if s[NAME] == first and (s[LIVE] or not live_only) and opened is None:
                    opened = s[START]
                elif s[NAME] == last and opened is not None:
                    seconds += s[END] - opened
                    opened = None
            out[phase] = seconds
        return out

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "run", "live")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_label": self.run_label,
                    "clock": "time.process_time, CPU seconds of the measured process",
                    "spans": [dict(zip(keys, s)) for s in self.spans],
                },
                fh,
            )
