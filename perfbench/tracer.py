"""Span tracing of the package's layers from outside the package.

:meth:`Tracer.install` replaces each layer's public functions and methods,
wherever the package binds them (a layer's own module, modules that import
the name, the package root), with wrappers that record a span: name, start,
end, parent span and request id.  Spans stay in memory until the run ends.
:func:`aggregate` turns the spans into the per-layer metrics; a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from math import prod

MODULES = (
    "multichow",
    "multichow.cli",
    "multichow.linalg",
    "multichow.multidegree",
    "multichow.multiview",
    "multichow.polymatroid",
)

# (layer, module, public names); "Class.method" wraps the class attribute.
TARGETS = (
    (
        "polymatroid",
        "multichow.polymatroid",
        (
            "validate_rank_function",
            "support_from_projections",
            "projections_from_support",
            "enumerate_beta",
            "is_one_deficient",
            "minimal_tight_set",
            "is_circuit",
            "tight_sets",
        ),
    ),
    (
        "multidegree",
        "multichow.multidegree",
        (
            "Multidegree.__post_init__",
            "Multidegree.rank_function",
            "criterion_form",
            "is_hypersurface",
            "determines_variety",
            "chow_form_multidegree",
            "slice_multidegree",
            "multidegree_add",
        ),
    ),
    (
        "multiview",
        "multichow.multiview",
        (
            "CameraConfiguration.__post_init__",
            "CameraConfiguration.center",
            "CameraConfiguration.is_generic",
            "LinearSpaceTuple.__post_init__",
            "MultifocalTensor.__post_init__",
            "MultifocalTensor.to_json",
            "multiview_multidegree",
            "multifocal_tensor",
            "chow_residual",
            "tensor_contract",
            "contraction_coordinates",
            "intersection_count_oracle",
            "epsilon_oracle",
            "sz_membership",
            "has_world_point_preimage",
            "project_point",
            "majority_count",
            "forms_through",
            "random_form",
            "random_independent_forms",
            "random_cameras",
        ),
    ),
    (
        "linalg",
        "multichow.linalg",
        (
            "frac_rows",
            "mat_vec",
            "rref",
            "rank",
            "nullspace",
            "det",
            "cross",
            "is_zero_vector",
            "proportional",
        ),
    ),
    ("cli", "multichow.cli", ("run", "render")),
)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _support_hook(counts, name, args, result):
    _add(counts, "support_points", len(result))
    _add(counts, "box_points", prod(n + 1 for n in args[0].n))


def _oracle_hook(counts, name, args, result):
    _add(counts, name + ".trials", len(result))
    _add(counts, "oracle.nonfinite", result.count(None))


HOOKS = {
    "polymatroid.support_from_projections": _support_hook,
    "multiview.epsilon_oracle": _oracle_hook,
    "multiview.intersection_count_oracle": _oracle_hook,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, request id]
        self.counts = {}
        self.request = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, name, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def span(self, name, fn, *args):
        """Call ``fn`` inside a span of its own (the per-request root)."""
        return self._wrap(name, fn)(*args)

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, module_name, names in TARGETS:
            module = importlib.import_module(module_name)
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                wrapper = self._wrap(f"{layer}.{dotted}", original)
                self._patch(owner, attr, wrapper)
                if owner_name:
                    continue
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original and other is not module:
                            self._patch(other, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def aggregate(spans, counts, subcommands):
    """Per-layer metrics from the spans and counts of a traced run, plus the
    calls into each layer broken down by the subcommand of the request that
    made them (``subcommands`` maps request id to subcommand)."""
    stats = {}
    layer_self = {}
    by_subcommand = {}
    sz_trials = 0
    covered = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    for index, span in enumerate(spans):
        name = span[0]
        total = (span[2] - span[1]) / 1e6
        own = total - covered[index] / 1e6
        entry = stats.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["ms"] += total
        entry["self_ms"] += own
        layer = name.partition(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        calls = by_subcommand.setdefault(layer, {})
        sub = subcommands.get(span[4], "none")
        calls[sub] = calls.get(sub, 0) + 1
        parent = spans[span[3]][0] if span[3] >= 0 else None
        if name == "multiview.tensor_contract" and parent == "multiview.sz_membership":
            sz_trials += 1

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def per_trial(name, trials):
        return get(name, "ms") / trials if trials else 0.0

    criteria_pm = ("is_one_deficient", "minimal_tight_set", "is_circuit", "tight_sets")
    criteria_md = (
        "criterion_form",
        "is_hypersurface",
        "determines_variety",
        "chow_form_multidegree",
    )
    epsilon_trials = counts.get("multiview.epsilon_oracle.trials", 0)
    intersection_trials = counts.get("multiview.intersection_count_oracle.trials", 0)
    box = counts.get("box_points", 0)
    out = {
        "polymatroid.validate.calls": get("polymatroid.validate_rank_function", "calls"),
        "polymatroid.validate.self_ms": get("polymatroid.validate_rank_function", "self_ms"),
        "polymatroid.support_from_projections.calls": get("polymatroid.support_from_projections", "calls"),
        "polymatroid.support_from_projections.self_ms": get("polymatroid.support_from_projections", "self_ms"),
        "polymatroid.projections_from_support.calls": get("polymatroid.projections_from_support", "calls"),
        "polymatroid.projections_from_support.self_ms": get("polymatroid.projections_from_support", "self_ms"),
        "polymatroid.enumerate_beta.self_ms": get("polymatroid.enumerate_beta", "self_ms"),
        "polymatroid.criteria.self_ms": sum(
            get("polymatroid." + n, "self_ms") for n in criteria_pm
        ),
        "polymatroid.support_yield": counts.get("support_points", 0) / box if box else 0.0,
        "multidegree.construct.calls": get("multidegree.Multidegree.__post_init__", "calls"),
        "multidegree.construct.ms": get("multidegree.Multidegree.__post_init__", "ms"),
        "multidegree.construct.self_ms": get("multidegree.Multidegree.__post_init__", "self_ms"),
        "multidegree.rank_function.calls": get("multidegree.Multidegree.rank_function", "calls"),
        "multidegree.criteria.self_ms": sum(
            get("multidegree." + n, "self_ms") for n in criteria_md
        ),
        "multiview.tensor.calls": get("multiview.multifocal_tensor", "calls"),
        "multiview.epsilon.ms_per_trial": per_trial("multiview.epsilon_oracle", epsilon_trials),
        "multiview.intersection.ms_per_trial": per_trial(
            "multiview.intersection_count_oracle", intersection_trials
        ),
        "multiview.sz.ms_per_trial": per_trial("multiview.sz_membership", sz_trials),
        "multiview.center.calls": get("multiview.CameraConfiguration.center", "calls"),
        "multiview.is_generic.calls": get("multiview.CameraConfiguration.is_generic", "calls"),
        "multiview.self_ms": layer_self.get("multiview", 0.0),
        "multiview.oracle.trials": epsilon_trials + intersection_trials + sz_trials,
        "multiview.oracle.nonfinite": counts.get("oracle.nonfinite", 0),
    }
    for fn in ("rref", "det", "nullspace", "rank"):
        out[f"linalg.{fn}.calls"] = get(f"linalg.{fn}", "calls")
        out[f"linalg.{fn}.self_ms"] = get(f"linalg.{fn}", "self_ms")
    out["linalg.mat_vec.calls"] = get("linalg.mat_vec", "calls")
    out["linalg.self_ms"] = layer_self.get("linalg", 0.0)
    out["cli.run.self_ms"] = get("cli.run", "self_ms")
    out["cli.render.ms"] = get("cli.render", "ms")
    return out, by_subcommand
