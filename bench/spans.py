"""In-memory span tracer that wraps the public functions of the smash layers.

`Tracer.install()` replaces every public function defined in a layer module
with a wrapper that records one span per call, and rebinds the same function
wherever another smash module imported it by name (for example
`rewriter.semi_join` or `harness.evaluate_baseline`).  `Tracer.remove()`
restores the originals, so a benchmark can alternate traced and untraced
passes in one process.  Spans stay in memory and are written out once, at
the end of a run.

A span is the list `[name, start_ns, end_ns, parent, query_id, tag, scale,
rows]`: `parent` is the index of the enclosing span (-1 at the top),
`query_id`, `tag` and `scale` (the clock's factor to reference-speed time)
are whatever the benchmark set before the call, and `rows` is the length of
a returned `engine.Relation` (-1 for other results).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

LAYERS = (
    "augmentation", "frontend", "acyclic", "engine", "rewriter",
    "features", "ml", "stats_tests", "harness",
)

NAME, START, END, PARENT, QID, TAG, SCALE, ROWS = range(8)


class Tracer:
    def __init__(self):
        import smash
        from smash.engine import Relation

        self._relation = Relation
        self.spans = []
        self._stack = []
        self.query_id = None
        self.tag = None
        self.scale = 1.0
        self.installed = False
        modules = [
            importlib.import_module(f"smash.{m.name}")
            for m in pkgutil.iter_modules(smash.__path__)
        ]
        self._wrapped = {}  # id(original) -> (original, wrapper)
        for name in LAYERS:
            module = importlib.import_module(f"smash.{name}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._wrapped[id(fn)] = (fn, self._wrap(f"{name}.{attr}", fn))
        self._bindings = [
            (module, attr, self._wrapped[id(value)])
            for module in modules
            for attr, value in vars(module).items()
            if id(value) in self._wrapped
        ]

    def _wrap(self, name, fn):
        stack, relation = self._stack, self._relation

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0, 0, stack[-1] if stack else -1,
                    self.query_id, self.tag, self.scale, -1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if isinstance(result, relation):
                span[ROWS] = len(result.rows)
            return result

        return traced

    def context(self, query_id, tag, scale=1.0):
        self.query_id, self.tag, self.scale = query_id, tag, scale

    def install(self):
        for module, attr, (_, wrapper) in self._bindings:
            setattr(module, attr, wrapper)
        self.installed = True

    def remove(self):
        for module, attr, (original, _) in self._bindings:
            setattr(module, attr, original)
        self.installed = False

    def layer_self_ns(self):
        """Per span: its duration minus the spans of *other* layers below it.

        Calls within the same layer stay inside the caller's figure, so
        `engine.atom_relation` includes the `engine.apply_filter` it calls and
        `rewriter.interpret_sequence` excludes the engine operators it runs.
        """
        spans = self.spans
        covered = [0] * len(spans)
        # children end before their parents, so a reverse scan sees each
        # span's own total before adding it into the parent
        for i in range(len(spans) - 1, -1, -1):
            span = spans[i]
            parent = span[PARENT]
            if parent < 0:
                continue
            if _layer(spans[parent]) == _layer(span):
                covered[parent] += covered[i]
            else:
                covered[parent] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(spans, covered)]

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _layer(span):
    return span[NAME].split(".", 1)[0]
