"""Span tracing from outside the package, for the benchmark's traced run.

``install`` replaces every public function and public method of the
package's layer modules with a wrapper that records a span: a name
(``<layer>.<function>``), its duration, and its self time, which is the
duration minus the part its child spans cover.  Functions are replaced
wherever a layer module holds a reference to them, so ``from .x import
f`` bindings are traced too.  Nothing under ``src/`` changes; the
wrapping lives only in the traced worker process.

Spans are aggregated in memory as they close, per phase: set-up spans go
to ``setup`` and spans inside an op go to ``ops``.  A few counters need
the call's result or the spans open around it (``HOOKS`` and
``_context``); only the spans they concern take that slower path, since
the hot ones (``linalg.mat_mul``) run hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

LAYERS = ("finite_field", "linalg", "classical", "form_modules", "odd_split",
          "combinatorics", "centralizers", "isometry", "oracle", "verify",
          "cli")

# outermost spans of these layers under a census are its classifier time
CLASSIFIER_LAYERS = frozenset({"form_modules", "odd_split", "isometry"})
CANDIDATE_SPANS = frozenset({"classical.preserves_form",
                             "classical.symplectic_transvection",
                             "classical.orthogonal_transvection"})
PHASES = ("setup", "ops")


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []   # open spans: [t0, child_s]
        self.phase = 0                       # index into PHASES
        self.stats: dict[str, list[list]] = {}   # name -> per phase [calls, total, self]
        self.depth = Counter()   # open spans of the names and layers _context watches
        self.counts = Counter()  # hook and context counters, ops phase only
        self.times = Counter()
        self.scanned = 0         # group candidates since the last group build
        self.op_self_s = 0.0     # self time of spans closed in the current op
        self.op_checks: list[tuple[str, float, float]] = []

    def begin_op(self) -> None:
        self.phase = 1
        self.op_self_s = 0.0

    def end_op(self, name: str, wall_s: float) -> None:
        "Record the op's wall time beside the self time of its spans."
        self.op_checks.append((name, wall_s, self.op_self_s))

    def report(self, phase: str) -> dict:
        i = PHASES.index(phase)
        calls, self_s, layer = {}, {}, {x: 0.0 for x in LAYERS}
        for name, per_phase in self.stats.items():
            c, _, s = per_phase[i]
            if c:
                calls[name], self_s[name] = c, s
                layer[name.split(".", 1)[0]] += s
        return {"calls": calls, "self_s": self_s, "layer_self_s": layer}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    per_phase = [[0, 0.0, 0.0], [0, 0.0, 0.0]]
    tracer.stats[name] = per_phase
    watched = name in HOOKS or name in CANDIDATE_SPANS or layer in WATCHED \
        or name == "linalg.solve"
    stack = tracer.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = [perf_counter(), 0.0]
        stack.append(frame)
        if watched:
            tracer.depth[name] += 1
            tracer.depth[layer] += 1
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            dur = perf_counter() - frame[0]
            own = dur - frame[1]
            stack.pop()
            if stack:
                stack[-1][1] += dur
            rec = per_phase[tracer.phase]
            rec[0] += 1
            rec[1] += dur
            rec[2] += own
            if tracer.phase:
                tracer.op_self_s += own
            if watched:
                tracer.depth[name] -= 1
                tracer.depth[layer] -= 1
                if tracer.phase:
                    _context(tracer, name, layer, dur, own, result, exc)
    return traced


def install(tracer: Tracer, package: str = "char2orbits") -> None:
    """Wrap every public function and method of the layer modules.

    Module-level references in any layer module that point at a wrapped
    function are rebound to the wrapper, so calls through ``from``
    imports are traced as well.
    """
    mods = {layer: importlib.import_module(f"{package}.{layer}")
            for layer in LAYERS}
    replaced: dict[int, object] = {}
    names = []
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                names += _wrap_class(tracer, obj, layer)
            elif hasattr(obj, "__code__"):
                name = f"{layer}.{obj.__name__}"
                replaced[id(obj)] = _wrap(tracer, obj, name, layer)
                names.append(name)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    if len(set(names)) != len(names):
        dup = sorted(n for n, c in Counter(names).items() if c > 1)
        raise RuntimeError(f"span names collide: {dup}")


def _wrap_class(tracer: Tracer, cls, layer: str) -> list[str]:
    names = []
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(obj, (classmethod, staticmethod)):
            kind, fn = type(obj), obj.__func__
        elif hasattr(obj, "__code__"):
            kind, fn = None, obj
        else:
            continue                        # properties and plain values
        name = f"{layer}.{attr}"
        w = _wrap(tracer, fn, name, layer)
        setattr(cls, attr, kind(w) if kind else w)
        names.append(name)
    return names


# ----------------------------------------------------------------------
# counters that need a call's result or the spans open around it


def _group_hook(t: Tracer, dur, result):
    t.times["oracle.group.s"] += dur
    # memo hits scan nothing; only freshly built groups count towards yield
    scanned, t.scanned = t.scanned, 0
    if scanned and result is not None and result.order:
        t.counts["oracle.group.candidates"] += scanned
        t.counts["oracle.group.elements"] += result.order


def _orbit_hook(t: Tracer, dur, result):
    t.counts["oracle.points"] += len(result)


def _census_hook(t: Tracer, dur, result):
    t.counts["oracle.nilpotent_orbits"] += len(result)


def _adjoint_hook(t: Tracer, dur, result):
    t.times["oracle.adjoint.s"] += dur


def _module_map_hook(t: Tracer, dur, result):
    if result is None:
        t.times["isometry.miss_s"] += dur
    else:
        t.counts["isometry.find_module_map.hits"] += 1
        t.times["isometry.hit_s"] += dur


def _verify_hook(t: Tracer, dur, result):
    t.counts["verify.checks"] += len(result)
    t.counts["verify.checks_failed"] += sum(not r.passed for r in result)
    t.times["verify.check_s"] += sum(r.seconds for r in result)


def _warm_hook(t: Tracer, dur, result):
    t.times["verify.warm.s"] += dur


HOOKS = {
    "oracle.enumerate_group": _group_hook,
    "oracle.coadjoint_orbit": _orbit_hook,
    "oracle.all_nilpotent_orbits": _census_hook,
    "oracle.adjoint_nilpotent_orbit_count": _adjoint_hook,
    "isometry.find_module_map": _module_map_hook,
    "verify.run": _verify_hook,
    "verify.warm_censuses": _warm_hook,
}
WATCHED = CLASSIFIER_LAYERS | {"oracle"}


def _context(t: Tracer, name, layer, dur, own, result, exc) -> None:
    "Runs when a watched span closes inside an op."
    hook = HOOKS.get(name)
    if hook is not None and exc is None:
        hook(t, dur, result)
    if name in CANDIDATE_SPANS and t.depth["oracle.enumerate_group"]:
        t.scanned += 1
    if name == "linalg.solve" and t.depth["isometry"]:
        t.counts["isometry.levels"] += 1
    if layer == "isometry" and not t.depth["isometry"] and exc is not None \
            and type(exc).__name__ == "SearchTooLarge":
        t.counts["isometry.too_large"] += 1
    in_census = t.depth["oracle.all_nilpotent_orbits"]
    if layer == "oracle" and (in_census or name == "oracle.all_nilpotent_orbits"):
        t.times["oracle.census.self_s"] += own
    if layer in CLASSIFIER_LAYERS and in_census and \
            not any(t.depth[x] for x in CLASSIFIER_LAYERS):
        t.times["oracle.classify.s"] += dur
