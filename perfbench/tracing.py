"""Span tracing of the brokerfee package from outside its source.

``Tracer.install`` replaces every public function, and every public method
of every public class, defined in the layer modules with a wrapper that
records a span (name, start, end, parent) around each call. Modules that
bound a name at import time (``from .rng import gaussians``) hold the
original object, so every module global that is one of the wrapped
originals is rebound to its wrapper too. Spans stay in memory; the caller
writes them out once the traced run has ended.

Layer metrics are derived afterwards by ``layer_metrics`` from the span
list and the counters the annotation hooks recorded.
"""

import functools
import inspect
import time

LAYERS = ("rng", "simulate", "model", "contracts", "agent", "principal",
          "oracle", "cli")


def _result_count(attr):
    def hook(result, counters):
        counters[attr] = counters.get(attr, 0) + int(result.size)
    return hook


def _path_steps(batch, counters):
    counters["simulate.path_steps"] = (counters.get("simulate.path_steps", 0)
                                       + batch.count * (len(batch.times) - 1))


def _strong_iterations(solution, counters):
    counters["oracle.strong_iterations"] = (
        counters.get("oracle.strong_iterations", 0) + int(solution.iterations))


def _lp_vars(result, counters):
    _, control = result
    counters["oracle.lp_vars"] = (counters.get("oracle.lp_vars", 0)
                                  + sum(len(a) for a in control.atoms))


def _evaluations(result, counters):
    _, sequence = result
    counters["principal.evaluations"] = (
        counters.get("principal.evaluations", 0) + len(sequence))


# Counters read off a call's result, keyed by span name.
_RESULT_HOOKS = {
    "rng.gaussians": _result_count("rng.draws"),
    "rng.uniforms": _result_count("rng.draws"),
    "simulate.simulate_reference": _path_steps,
    "simulate.simulate_controlled": _path_steps,
    "oracle.solve_strong_discrete": _strong_iterations,
    "oracle.solve_relaxed_discrete": _lp_vars,
    "principal.optimize": _evaluations,
}


def _hjb_span_name(result):
    # a price-dependent fee keeps the p axis on the value grid
    _, grid = result
    return "agent.solve_hjb_3d" if grid.p_nodes is not None else \
        "agent.solve_hjb_2d"


# Spans renamed after the call, from its result.
_RENAMES = {"agent.solve_hjb": _hjb_span_name}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []       # [id, name, start, end, parent id or -1]
        self.counters = {}
        self._stack = []
        self._wrapped = {}    # id(original) -> (original, wrapper)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if name in _RENAMES:
                span[1] = _RENAMES[name](result)
            if name in _RESULT_HOOKS:
                _RESULT_HOOKS[name](result, tracer.counters)
            return result

        self._wrapped[id(fn)] = (fn, traced)
        return traced

    def _count_sweep_cells(self, fn):
        # The explicit HJB sweep takes exactly one second difference along
        # the z axis (the last axis) per time step, so summing the array
        # size over those calls counts grid-cell updates.
        counters = self.counters

        @functools.wraps(fn)
        def counted(v, dx, axis):
            if axis == v.ndim - 1:
                counters["agent.hjb_cells"] = (
                    counters.get("agent.hjb_cells", 0) + int(v.size))
            return fn(v, dx, axis)

        return counted

    def install(self, package):
        """Wrap the layer modules of ``package`` (the imported brokerfee)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    setattr(module, attr, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        agent = modules["agent"]
        if hasattr(agent, "_second_diff"):  # a helper of the explicit sweep
            agent._second_diff = self._count_sweep_cells(agent._second_diff)
        # rebind names that other modules imported before wrapping
        for module in [package] + list(modules.values()):
            for attr, obj in list(vars(module).items()):
                entry = self._wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def _wrap_class(self, cls, name):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            # a callable instance's lookups are reported under the class name
            span = name if attr == "__call__" else f"{name}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr,
                        type(member)(self._wrap(member.__func__, span)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(member, span))


def self_times(spans):
    """Span id -> duration minus the time its direct child spans cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for span in spans:
        if span[4] >= 0:
            own[span[4]] -= span[3] - span[2]
    return own


def _ancestors(span, by_id):
    parent = span[4]
    while parent >= 0:
        yield by_id[parent]
        parent = by_id[parent][4]


def _outermost(spans, match):
    """Matching spans with no matching ancestor, so that nested calls are
    not counted twice."""
    by_id = {s[0]: s for s in spans}
    return [s for s in spans if match(s[1])
            and not any(match(a[1]) for a in _ancestors(s, by_id))]


def _named(*names):
    return lambda name: name in names


def _in_layer(layer):
    return lambda name: name.split(".", 1)[0] == layer


def _time(match):
    return "s", "lower", lambda spans, counters: sum(
        s[3] - s[2] for s in _outermost(spans, match))


def _self_time(match):
    def value(spans, counters):
        own = self_times(spans)
        return sum(own[s[0]] for s in spans if match(s[1]))
    return "s", "lower", value


def _calls(match):
    return "count", "lower", lambda spans, counters: sum(
        1 for s in spans if match(s[1]))


def _counter(key, better="lower"):
    return "count", better, lambda spans, counters: counters.get(key, 0)


def _solves_per_eval(spans, counters):
    evaluations = counters.get("principal.evaluations", 0)
    by_id = {s[0]: s for s in spans}
    solves = sum(1 for s in spans if s[1].startswith("agent.solve_hjb")
                 and any(a[1] == "principal.optimize"
                         for a in _ancestors(s, by_id)))
    return solves / evaluations if evaluations else 0.0


# name -> (unit, better, value(spans, counters)); ``.s`` is inclusive time
# of the outermost calls, ``.self_s`` excludes time spent in child spans.
LAYER_METRICS = {
    "rng.gaussians.s": _time(_named("rng.gaussians")),
    "rng.draws": _counter("rng.draws"),
    "simulate.constraint_moments.s":
        _time(_named("simulate.constraint_moments")),
    "simulate.constraint_moments.calls":
        _calls(_named("simulate.constraint_moments")),
    "simulate.girsanov_weights.s": _time(_named("simulate.girsanov_weights")),
    "simulate.simulate_reference.s":
        _time(_named("simulate.simulate_reference")),
    "simulate.entropy_report.s": _time(_named("simulate.entropy_report")),
    "simulate.path_steps": _counter("simulate.path_steps"),
    "simulate.simulate_controlled.s":
        _time(_named("simulate.simulate_controlled")),
    "simulate.simulate_controlled.calls":
        _calls(_named("simulate.simulate_controlled")),
    "model.FeedbackPolicy.s": _time(_named("model.FeedbackPolicy")),
    "model.FeedbackPolicy.calls": _calls(_named("model.FeedbackPolicy")),
    "agent.solve_hjb_3d.s": _time(_named("agent.solve_hjb_3d")),
    "agent.solve_hjb_2d.s": _time(_named("agent.solve_hjb_2d")),
    "agent.hjb_cells": _counter("agent.hjb_cells"),
    "agent.best_response.calls": _calls(_named("agent.best_response")),
    "agent.estimate_agent_value.s":
        _time(_named("agent.estimate_agent_value")),
    "agent.to_csv.s":
        _time(_named("agent.ValueGrid.to_csv", "agent.policy_to_csv")),
    "principal.optimize.s": _time(_named("principal.optimize")),
    "principal.feasibility_seed.s":
        _time(_named("principal.feasibility_seed")),
    "principal.evaluations": _counter("principal.evaluations", "higher"),
    "principal.solves_per_eval": ("ratio", "lower", _solves_per_eval),
    "oracle.solve_relaxed_discrete.s":
        _time(_named("oracle.solve_relaxed_discrete")),
    "oracle.solve_relaxed_discrete.calls":
        _calls(_named("oracle.solve_relaxed_discrete")),
    "oracle.solve_strong_discrete.s":
        _time(_named("oracle.solve_strong_discrete")),
    "oracle.solve_strong_discrete.calls":
        _calls(_named("oracle.solve_strong_discrete")),
    "oracle.strong_iterations": _counter("oracle.strong_iterations"),
    "oracle.lp_vars": _counter("oracle.lp_vars"),
    "oracle.verify_collapse.self_s":
        _self_time(_named("oracle.verify_collapse")),
    "oracle.extract_strong_control.s":
        _time(_named("oracle.extract_strong_control")),
    "oracle.build_tree.s": _time(_named("oracle.build_tree")),
    "contracts.s": _time(_in_layer("contracts")),
    "contracts.calls": _calls(_in_layer("contracts")),
    "cli.parse_config.s": _time(_named("cli.parse_config")),
    "cli.run.s": _time(_named("cli.run")),
}
LAYER_METRICS.update({f"{layer}.self_s": _self_time(_in_layer(layer))
                      for layer in LAYERS})

# Counts that repeat exactly for a given workload and seed.
EXACT_COUNTS = ("rng.draws", "simulate.path_steps", "agent.hjb_cells",
                "oracle.lp_vars", "oracle.strong_iterations",
                "principal.evaluations")


def layer_metrics(spans, counters):
    """Every entry of LAYER_METRICS evaluated on one traced run."""
    return {name: value(spans, counters)
            for name, (_unit, _better, value) in LAYER_METRICS.items()}
