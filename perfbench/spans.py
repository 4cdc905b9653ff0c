"""In-memory span tracer and the wrappers that attach it to dpmech.

Spans are recorded from outside the package: public functions are replaced
by timing wrappers in every ``dpmech`` module namespace that holds them, and
the callables of built instances (objective, utility, mechanism closures)
are wrapped as they are created.  Nothing in ``src/dpmech`` is edited.

Each span stores its name, start, end and parent span in flat arrays that
stay in memory until :meth:`Tracer.save` writes them at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# public functions wrapped in place, by defining module
FUNCTIONS = {
    "cli": ("main", "sample_probes", "write_outputs"),
    "environment": ("optimal_reaction", "compute_gap", "verify_sensitivity"),
    "exponential": (
        "exp_mech_distribution", "audit_dp",
        "near_indifference_bound_check", "accuracy_bound_check",
    ),
    "verify": (
        "announce", "check_expost_nash_truthful",
        "check_strictly_dominant_truthful", "implementation_gap",
    ),
    "outcomes": ("mix",),
    "combined": ("schedule_params", "compute_n0"),
}

# builders whose result carries an objective and a utility to wrap
INSTANCE_BUILDERS = {
    "facility": "build_grid_env",
    "pricing": "build_pricing_env",
}

# factories returning a mechanism closure
MECHANISM_FACTORIES = {
    "commitment": "commitment_mechanism",
    "exponential": "exponential_mechanism",
    "combined": "combined_mechanism",
}


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str):
        self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._nid(name)
        nids, parents, starts, ends = self.nids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def save(self, path: str):
        np.savez(
            path,
            names=np.asarray(self.names, dtype=str),
            nids=np.frombuffer(self.nids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            counter_names=np.asarray(list(self.counters), dtype=str),
            counter_values=np.asarray(list(self.counters.values()), dtype=np.int64),
        )


def _replace_everywhere(original, replacement):
    """Point every dpmech module attribute bound to ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "dpmech" or modname.startswith("dpmech."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Attach ``tracer`` to the imported dpmech package."""
    import dpmech.cli  # noqa: F401  (the package imports every other module)

    pkg = sys.modules

    for module, names in FUNCTIONS.items():
        mod = pkg[f"dpmech.{module}"]
        for name in names:
            original = getattr(mod, name)
            _replace_everywhere(original, tracer.wrap(f"{module}.{name}", original))

    for module, name in INSTANCE_BUILDERS.items():
        original = getattr(pkg[f"dpmech.{module}"], name)
        _replace_everywhere(original, _instance_builder(tracer, module, name, original))

    for module, name in MECHANISM_FACTORIES.items():
        original = getattr(pkg[f"dpmech.{module}"], name)
        _replace_everywhere(original, _mechanism_factory(tracer, module, original))

    dist_cls = pkg["dpmech.outcomes"].OutcomeDistribution
    dist_cls.__init__ = tracer.wrap("outcomes.OutcomeDistribution", dist_cls.__init__)


def wrap_instance(tracer: Tracer, layer: str, env, F):
    """Wrap the objective and utility callables of a built environment.

    Both are frozen dataclasses, so the attributes are set through object.
    """
    object.__setattr__(F, "eval", tracer.wrap(f"{layer}.F_eval", F.eval))
    object.__setattr__(env, "utility", tracer.wrap(f"{layer}.utility", env.utility))


def _instance_builder(tracer, module, name, original):
    build = tracer.wrap(f"{module}.{name}", original)

    @functools.wraps(original)
    def builder(*args, **kwargs):
        inst = build(*args, **kwargs)
        wrap_instance(tracer, module, inst.env, inst.F)
        return inst

    return builder


def _mechanism_factory(tracer, module, original):
    """Wrap the mechanism closure a factory returns.

    For the commitment mechanism, whose closure caches one distribution per
    announcement without bound, also count calls on an announcement already
    seen; the other closures are keyed by long announcements whose hashing
    would dominate the count.
    """
    span_name = f"{module}.mechanism"
    track_repeats = module == "commitment"

    @functools.wraps(original)
    def factory(*args, **kwargs):
        mech = tracer.wrap(span_name, original(*args, **kwargs))
        if not track_repeats:
            return mech
        seen: set = set()

        def tracked(b):
            if b in seen:
                tracer.count(f"{span_name}.repeats")
            else:
                seen.add(b)
            return mech(b)

        return tracked

    return factory


def load(path: str) -> dict:
    """Per-span-name totals from a saved trace.

    Returns ``{"calls": {name: n}, "self_s": {name: s}, "root_s": s,
    "self_sum_s": s, "min_self_s": s, "counters": {...}}``.
    Self time is a span's duration minus the durations of its children.
    """
    with np.load(path) as z:
        names = [str(x) for x in z["names"]]
        nids, parents = z["nids"], z["parents"]
        dur = z["ends"] - z["starts"]
        counters = {
            str(k): int(v) for k, v in zip(z["counter_names"], z["counter_values"])
        }
    has_parent = parents >= 0
    child = np.bincount(
        parents[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_t = dur - child
    k = len(names)
    calls = np.bincount(nids, minlength=k)
    self_by = np.bincount(nids, weights=self_t, minlength=k)
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "self_s": {n: float(self_by[i]) for i, n in enumerate(names)},
        "root_s": float(dur[~has_parent].sum()),
        "self_sum_s": float(self_t.sum()),
        "min_self_s": float(self_t.min()) if len(self_t) else 0.0,
        "counters": counters,
    }
