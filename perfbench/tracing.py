"""Spans around locfree's public callables, installed from outside the program.

Each traced callable X is replaced by a wrapper in every locfree module that
binds it by name (a function imported with `from .linalg import mat_inv` is
a second binding of the same object), and methods and constructors are
wrapped on their class.  The wrapper records a span (name, start, end,
parent, query) in memory, and keeps per-callable call counts and self time:
the span's length minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> callables; "Class" wraps the constructor, "Class.method" the method
CALLABLES = {
    "cli": ("run",),
    "lfcg": ("cancellation_check", "swan_class_group", "spec_from_json"),
    "latorder": ("maximal_order", "QuatOrder", "RightIdeal", "class_set",
                 "right_ideals_of_norm", "ideal_mul", "RightIdeal.left_order",
                 "reduce_ideal", "isomorphic_ideals", "short_vectors"),
    "quatalg": ("Quaternion.mul", "b_p_infinity", "ramified_places"),
    "quadfield": ("class_group", "reduced_forms", "ClassGroup.mul",
                  "ClassGroup.elementary_divisors", "QuadIdeal"),
    "linalg": ("Lattice", "Lattice.contains", "hnf", "mat_inv", "mat_det"),
    "numtheory": ("factor", "hilbert_symbol", "is_prime"),
}
NAMES = tuple(f"{layer}.{c}" for layer, cs in CALLABLES.items() for c in cs)
_METHOD_ATTR = {"Quaternion.mul": "__mul__"}  # the product is the operator


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in CALLABLES]
    out += [("latorder.isomorphic_ideals.hit_ratio", "ratio"),
            ("latorder.short_vectors.vectors", "count"),
            ("latorder.class_set.classes", "count"),
            ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id, query)
        self.query = -1
        self.iso_hits = 0
        self.vectors = 0
        self.classes = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, observe=None):
        clock = time.perf_counter
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                calls[index] += 1
                self_s[index] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                spans.append((frame[0], index, start, end, parent, self.query))
            if observe is not None:
                observe(result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside the program out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _observer(self, name: str):
        if name == "latorder.isomorphic_ideals":
            def hit(result):
                self.iso_hits += bool(result)
            return hit
        if name == "latorder.short_vectors":
            def count(result):
                self.vectors += len(result)
            return count
        if name == "latorder.class_set":
            def classes(result):
                self.classes += len(result)
            return classes
        return None

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every callable in NAMES; locfree must already be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "locfree" or n.startswith("locfree.")]
        for index, name in enumerate(NAMES):
            layer, _, path = name.partition(".")
            home = sys.modules[f"locfree.{layer}"]
            cls_name, _, method = path.partition(".")
            target = getattr(home, cls_name)
            if isinstance(target, type):
                attr = _METHOD_ATTR.get(path, method or "__init__")
                self._patch(target, attr, self._wrap(index, target.__dict__[attr]))
                continue
            wrapper = self._wrap(index, target, self._observer(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in CALLABLES}
        for index, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[index]
            out[f"{name}.self_s"] = self.self_s[index]
            layer_self[name.partition(".")[0]] += self.self_s[index]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        iso_calls = self.calls[NAMES.index("latorder.isomorphic_ideals")]
        out["latorder.isomorphic_ideals.hit_ratio"] = self.iso_hits / iso_calls if iso_calls else 0.0
        out["latorder.short_vectors.vectors"] = self.vectors
        out["latorder.class_set.classes"] = self.classes
        return out

    def write_spans(self, path, origin: float) -> None:
        """Spans as JSON, times in seconds from origin, ordered by span id."""
        rows = sorted(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": NAMES,
                       "fields": ["id", "name", "start", "end", "parent", "query"],
                       "spans": [[i, n, round(s - origin, 7), round(e - origin, 7), p, q]
                                 for i, n, s, e, p, q in rows]}, fh)
