"""Spans around qsverify's layers, recorded from outside the package.

The tracer replaces functions at their module attributes with timing
wrappers and puts the originals back afterwards; nothing inside the
package changes.  A function imported by name into another module (for
example ``protocols`` binds ``homogeneous.min_tests_homo``) is wrapped in
every namespace that binds it, so no call path escapes.  Spans stay in
memory until the run ends.

Layers are named after the modules.  Two private helpers of the hull
engine, ``adversarial._composition_matrix`` and ``adversarial._points``,
and the CLI's ``_emit`` get spans of their own when those names exist.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

#: Package whose modules are traced.
PACKAGE = "qsverify"

#: Modules whose public functions are wrapped; the layer is the module name.
LAYER_MODULES = (
    "adversarial", "bounds", "cli", "hedging", "homogeneous", "nonadversarial",
    "protocols", "simulate", "single_copy", "spectrum",
)

#: Private names that get a span when present, with the layer they report to.
PRIVATE_SPANS = {
    ("adversarial", "_composition_matrix"): "adversarial.enumerate",
    ("adversarial", "_points"): "adversarial.points",
    ("cli", "_emit"): "cli.emit",
}

#: Fixed-N lookups on a built boundary.
LOOKUP_METHODS = ("zeta", "eta", "fidelity", "fidelity_by_f")

#: Functions that call themselves through their module attribute.  During
#: the outermost call their original is put back, so only that call gets a
#: span and the inner calls pay no wrapper cost.
RECURSIVE = frozenset({"adversarial._composition_matrix"})


def _boundary_attrs(args, result) -> dict:
    n, s = args[0], args[1]
    return {"n": n, "d": s.d, "multisets": math.comb(n + s.d, s.d - 1),
            "vertices": len(getattr(result, "vertices", ()))}


ATTRS = {"adversarial.boundary": _boundary_attrs}


class Tracer:
    """Install wrappers with :meth:`install`, take them out with :meth:`restore`.

    ``spans`` holds ``[name, layer, start, end, parent, request, attrs]``
    lists; ``parent`` is the index of the enclosing span or -1, and
    ``request`` is whatever the caller last set on :attr:`request`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] | None = None
        self._installed = False

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def targets(self) -> list[tuple[str, str, object]]:
        """(span name, layer, original function) for everything to wrap."""
        found = []
        for short in LAYER_MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                layer = PRIVATE_SPANS.get((short, attr))
                if layer is None and attr.startswith("_"):
                    continue
                if layer is None:
                    layer = "spectrum.parse" if short == "spectrum" else short
                found.append((f"{short}.{attr}", layer, obj))
        return found

    def _wrap(self, name: str, layer: str, orig):
        spans, stack, attrs_fn = self.spans, self._stack, ATTRS.get(name)
        bindings = [] if name in RECURSIVE else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            spans.append(span)
            stack.append(idx)
            for owner, attr in bindings or ():
                setattr(owner, attr, orig)
            span[2] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                for owner, attr in bindings or ():
                    setattr(owner, attr, wrapper)
            if attrs_fn is not None:
                span[6] = attrs_fn(args, result)
            return result

        wrapper.bindings = bindings
        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        plan = []
        modules = self._modules()
        for name, layer, orig in self.targets():
            wrapper = self._wrap(name, layer, orig)
            for mod in modules:
                for attr, obj in vars(mod).items():
                    if obj is orig:
                        plan.append((mod, attr, orig, wrapper))
                        if wrapper.bindings is not None:
                            wrapper.bindings.append((mod, attr))
        adversarial = sys.modules.get(f"{PACKAGE}.adversarial")
        cls = getattr(adversarial, "Boundary", None)
        for meth in LOOKUP_METHODS:
            orig = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(orig):
                plan.append((cls, meth, orig, self._wrap(
                    f"adversarial.Boundary.{meth}", "adversarial.lookup", orig)))
        return plan

    def install(self) -> None:
        """Swap the wrappers in.  The plan is made once, so this is cheap to repeat."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def restore(self) -> None:
        """Put every original back."""
        for owner, attr, orig, _ in reversed(self._patches or ()):
            setattr(owner, attr, orig)
        self._installed = False


def _outermost(spans: list[list], layer: str) -> list[list]:
    """Spans of ``layer`` with no enclosing span of the same layer."""
    out = []
    for span in spans:
        if span[1] != layer:
            continue
        parent = span[4]
        while parent >= 0 and spans[parent][1] != layer:
            parent = spans[parent][4]
        if parent < 0:
            out.append(span)
    return out


def _children_time(spans: list[list]) -> list[float]:
    """Time each span's direct children cover (children never overlap)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    return covered


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-request layer figures from a span list; see perfbench/NOTES.md."""
    per = 1.0 / max(requests, 1)
    covered = _children_time(spans)
    index = {id(s): i for i, s in enumerate(spans)}

    def dur(s):
        return s[3] - s[2]

    def self_time(group):
        return sum(dur(s) - covered[index[id(s)]] for s in group)

    def named(name):
        return [s for s in spans if s[0] == name]

    out: dict[str, float] = {}
    boundary = named("adversarial.boundary")
    b_s = sum(dur(s) for s in boundary)
    multisets = sum(s[6]["multisets"] for s in boundary if s[6])
    vertices = sum(s[6]["vertices"] for s in boundary if s[6])
    b_idx = {index[id(s)] for s in boundary}
    enum = _outermost(spans, "adversarial.enumerate")
    enum_in_b = sum(dur(s) for s in enum if s[4] in b_idx)
    out["adversarial.boundary.calls"] = len(boundary) * per
    out["adversarial.boundary.s"] = b_s * per
    out["adversarial.boundary.self_s"] = self_time(boundary) * per
    out["adversarial.boundary.multisets"] = multisets * per
    out["adversarial.boundary.vertices"] = vertices * per
    out["adversarial.boundary.vertex_yield"] = vertices / multisets if multisets else 0.0
    out["adversarial.boundary.ns_per_multiset"] = b_s * 1e9 / multisets if multisets else 0.0
    out["adversarial.boundary.enumerate_share"] = enum_in_b / b_s if b_s else 0.0
    out["adversarial.boundary.named_share"] = (
        sum(covered[i] for i in b_idx) / b_s if b_s else 0.0)
    out["adversarial.enumerate.calls"] = len(enum) * per
    out["adversarial.enumerate.s"] = sum(dur(s) for s in enum) * per
    points = _outermost(spans, "adversarial.points")
    out["adversarial.points.calls"] = len(points) * per
    out["adversarial.points.s"] = sum(dur(s) for s in points) * per

    search = named("adversarial.min_tests_adv")
    s_idx = {index[id(s)] for s in search}
    probes = []
    for s in boundary:
        parent = s[4]
        while parent >= 0 and parent not in s_idx:
            parent = spans[parent][4]
        if parent >= 0:
            probes.append(s)
    out["adversarial.search.calls"] = len(search) * per
    out["adversarial.search.s"] = sum(dur(s) for s in search) * per
    out["adversarial.search.self_s"] = self_time(search) * per
    out["adversarial.search.probes"] = len(probes) * per
    out["adversarial.search.probe_n_sum"] = sum(s[6]["n"] for s in probes if s[6]) * per

    lookup = _outermost(spans, "adversarial.lookup")
    out["adversarial.lookup.calls"] = len(lookup) * per
    out["adversarial.lookup.s"] = sum(dur(s) for s in lookup) * per
    out["homogeneous.min_tests_homo.calls"] = len(named("homogeneous.min_tests_homo")) * per

    parse = _outermost(spans, "spectrum.parse")
    out["spectrum.parse.calls"] = len(parse) * per
    out["spectrum.parse.s"] = sum(dur(s) for s in parse) * per
    out["cli.main.s"] = sum(dur(s) for s in named("cli.main")) * per
    # exclusive time of the cli layer: argparse, command dispatch, report build
    out["cli.main.self_s"] = self_time([s for s in spans if s[1] == "cli"]) * per
    out["cli.emit.s"] = sum(dur(s) for s in _outermost(spans, "cli.emit")) * per
    for layer in ("homogeneous", "bounds", "hedging", "nonadversarial", "protocols",
                  "single_copy", "simulate"):
        out[f"{layer}.s"] = sum(dur(s) for s in _outermost(spans, layer)) * per
    out["trace.spans"] = len(spans) * per
    return out
