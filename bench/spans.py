"""Spans and counts for the traced run.

``Tracer.install`` wraps the public entry points of each layer in place.
A span is (name, start, end, parent span, verdict id).  Only a call made
while no layer span is open starts a span: a call from the benchmark, or
from ``cli.run_text`` into the layers.  Calls from one layer into another
count as the caller's time, so elaboration includes the evaluation it
does to check its arguments.  The counts see every call.  ``uninstall``
puts every entry point back.  Spans stay in memory until ``dump`` writes
them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

from cattkernel import core as C
from cattkernel import nbe as N
from cattkernel import oracle as O
from cattkernel import surface as R
from cattkernel import trees as T
from cattkernel.typecheck import Checker

# span name -> (owner, attribute) of each wrapped entry point
LAYERS = {
    "surface.parse": [(R, "parse"), (R, "parse_term"), (R, "parse_ctx"), (R, "parse_type")],
    "typecheck.elab": [(Checker, "elab_ctx"), (Checker, "check"), (Checker, "infer")],
    "nbe.eval": [(Checker, "nf")],
    "nbe.quote": [(N, "quote_tm"), (N, "quote_ty")],
    "surface.pretty": [(C, "to_raw"), (R, "pretty")],
    "core.flatten": [(C, "flatten_tm"), (N, "flatten_nf")],
    "oracle.normalise": [(O, "normalise")],
}
RULES = ("dr", "ecr", "prune", "insert", "cell")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, verdict]
        self.counts: Counter = Counter()
        self.verdict = None
        self._stack: list = []  # indices of open spans
        self._layers_open = 0
        self._saved: list = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.verdict])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._layers_open:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            self._layers_open += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._layers_open -= 1
                self.end(idx)

        return traced

    # -- counts -------------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _oracle(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def normalise(*args, **kwargs):
            nf, trace = fn(*args, **kwargs)
            counts["oracle.steps"] += len(trace)
            for rule in trace:
                counts[f"oracle.steps_{rule}"] += 1
            return nf, trace

        return normalise

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        self._patch(Checker, "nf", self._counted("typecheck.nf_calls", Checker.nf))
        self._patch(N, "eval_tm", self._counted("nbe.eval_tm_calls", N.eval_tm))
        height = T.Tree.__dict__["height"]
        self._patch(
            T.Tree, "height", property(self._counted("trees.height_calls", height.fget))
        )
        self._patch(O, "normalise", self._oracle(O.normalise))
        for name, entries in LAYERS.items():
            for owner, attr in entries:
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds of self time per span name within verdicts: each span's
        duration less the part its child spans cover."""
        out: Counter = Counter()
        for name, start, end, parent, verdict in self.spans:
            if verdict is None:
                continue
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["name", "start", "end", "parent", "verdict"]
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc))
