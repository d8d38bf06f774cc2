"""Span tracing of sworlab from outside the package.

`Tracer` wraps every public function and method of every sworlab module
at every name it is bound under (module globals, re-exports in the
package namespace, and module-level dicts such as `bounds.TAIL_BOUNDS`),
so that calls between modules go through the wrappers.  Each call records
a span (name, start, end, parent span, report id) in flat arrays kept in
memory; `save` writes them out once the run ends.  Wrappers are installed
only while a traced report runs, so untraced reports pay nothing.

`PER_LAYER` defines the per-layer metrics computed from the spans.
"""

from __future__ import annotations

import enum
import fnmatch
import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict

import numpy as np
from sworlab.errors import OracleScaleError


def _bound_args(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _count_draws(counters, fn, args, kwargs, failed):
    a = _bound_args(fn, args, kwargs)
    fc, scheme, trials = a.get("fc"), a.get("scheme"), a.get("trials")
    if failed is None and fc is not None and scheme is not None and trials:
        counters["draws"] += trials
        counters["terms"] += fc.values.shape[0] * scheme.m * trials


def _count_refusals(counters, fn, args, kwargs, failed):
    if isinstance(failed, OracleScaleError):
        counters["exact_refused"] += 1


def _count_exact_modulus(counters, fn, args, kwargs, failed):
    if failed is None and _bound_args(fn, args, kwargs).get("method") == "exact":
        counters["modulus_exact"] += 1


#: per-span counters, keyed by span name; each receives the call's
#: arguments and the exception it raised (None on return)
HOOKS = {
    "empirical_process.simulate_suprema": _count_draws,
    "empirical_process.expected_sup": _count_refusals,
    "localization.estimate_modulus": _count_exact_modulus,
}


class Tracer:
    """Installs span-recording wrappers into a package while in a `with`."""

    def __init__(self, package):
        self.report_id = -1
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.report = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self_s, total_s
        self.counters = defaultdict(float)
        self.root_s = 0.0
        self._open: list[list] = []  # [span index, child seconds] per open span
        self._patches = self._plan(package)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stats = self.stats[name]
        hook = HOOKS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1][0] if open_spans else -1)
            self.report.append(self.report_id)
            self.end.append(0.0)
            frame = [idx, 0.0]
            open_spans.append(frame)
            failed = None
            t0 = clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                t1 = clock()
                open_spans.pop()
                dur = t1 - t0
                self.end[idx] = t1
                if open_spans:
                    open_spans[-1][1] += dur
                else:
                    self.root_s += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += dur
                if hook is not None:
                    hook(self.counters, fn, args, kwargs, failed)

        return traced

    def _plan(self, package) -> list:
        """(setter, wrapper, original) for every binding of a traced callable."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        patches = []
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(
                    obj, (enum.Enum, BaseException)
                ):
                    patches += self._plan_class(short, obj)
        for mod in modules:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((functools.partial(setattr, mod, name), wrappers[obj], obj))
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrappers:
                            patches.append(
                                (functools.partial(obj.__setitem__, key), wrappers[val], val)
                            )
        return patches

    def _plan_class(self, short: str, cls) -> list:
        patches = []
        for attr, member in vars(cls).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                wrapped = self._wrap(f"{short}.{cls.__name__}.{attr}", member)
            elif isinstance(member, (classmethod, staticmethod)):
                inner = self._wrap(f"{short}.{cls.__name__}.{attr}", member.__func__)
                wrapped = type(member)(inner)
            else:
                continue
            patches.append((functools.partial(setattr, cls, attr), wrapped, member))
        return patches

    def __enter__(self):
        for set_binding, wrapper, _ in self._patches:
            set_binding(wrapper)
        return self

    def __exit__(self, *exc):
        for set_binding, _, original in self._patches:
            set_binding(original)
        return False

    # -- output -----------------------------------------------------------

    def save(self, path) -> None:
        """Write every span: name table plus parallel arrays (start/end in
        perf_counter seconds, parent as a span index or -1)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            report=np.frombuffer(self.report, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def _sum(self, column: int, patterns) -> float:
        return sum(
            st[column]
            for name, st in self.stats.items()
            if any(fnmatch.fnmatchcase(name, p) for p in patterns)
        )

    def calls(self, *patterns) -> float:
        return self._sum(0, patterns)

    def self_s(self, *patterns) -> float:
        return self._sum(1, patterns)

    def busy_s(self, *patterns) -> float:
        return self._sum(2, patterns)

    def per_layer(
        self, reports: int, traced_s: float, untraced_s: float, report_bytes: int
    ) -> dict:
        """Every PER_LAYER metric; counts and times are per traced report."""
        run = {
            "reports": reports,
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "report_bytes": report_bytes,
        }
        return {
            name: {"value": float(value(self, run)), "unit": unit}
            for name, unit, _, value in PER_LAYER
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


BSWR = "ground_set.batch_sample_without_replacement"
DRAW = "ground_set.draw_sample"
GENERATOR = ("ground_set.RngStream.generator", "ground_set._DerivedStream.generator")
SIMULATE = "empirical_process.simulate_suprema"
EXPECTED = "empirical_process.expected_sup"
BINOMIAL_CI = ("verify.binomial_upper_ci", "verify.binomial_lower_ci")
# h_fn is reached only through the Bennett-form tails
TAIL = ("bounds.tail_*", "bounds.h_fn")
EXACT_EXPECTATION = (
    "transductive.exact_sup_expectation",
    "transductive.exact_with_replacement_expectation",
)
MODULUS = "localization.estimate_modulus"

#: (name, unit, better, value(tracer, run)); bench/README.md says which
#: end-to-end metric and workload each one should move
PER_LAYER = [
    (f"{BSWR}.calls", "count", "lower",
     lambda t, r: _ratio(t.calls(BSWR), r["reports"])),
    (f"{BSWR}.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(BSWR), r["reports"])),
    (f"{DRAW}.calls", "count", "lower",
     lambda t, r: _ratio(t.calls(DRAW), r["reports"])),
    (f"{DRAW}.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(DRAW), r["reports"])),
    ("ground_set.RngStream.generator.calls", "count", "lower",
     lambda t, r: _ratio(t.calls(*GENERATOR), r["reports"])),
    ("ground_set.RngStream.generator.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(*GENERATOR), r["reports"])),
    ("ground_set.enumerate_without_replacement.calls", "count", "lower",
     lambda t, r: _ratio(t.calls("ground_set.enumerate_without_replacement"), r["reports"])),
    (f"{SIMULATE}.calls", "count", "lower",
     lambda t, r: _ratio(t.calls(SIMULATE), r["reports"])),
    (f"{SIMULATE}.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(SIMULATE), r["reports"])),
    (f"{SIMULATE}.draws", "count", "lower",
     lambda t, r: _ratio(t.counters["draws"], r["reports"])),
    (f"{SIMULATE}.ns_per_term", "ns", "lower",
     lambda t, r: 1e9 * _ratio(t.self_s(SIMULATE), t.counters["terms"])),
    (f"{EXPECTED}.calls", "count", "lower",
     lambda t, r: _ratio(t.calls(EXPECTED), r["reports"])),
    (f"{EXPECTED}.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(EXPECTED), r["reports"])),
    (f"{EXPECTED}.exact_refused", "count", "lower",
     lambda t, r: _ratio(t.counters["exact_refused"], r["reports"])),
    ("verify.tail_curve_from_draws.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("verify.tail_curve_from_draws"), r["reports"])),
    ("verify.binomial_ci.calls", "count", "lower",
     lambda t, r: _ratio(t.calls(*BINOMIAL_CI), r["reports"])),
    ("verify.binomial_ci.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(*BINOMIAL_CI), r["reports"])),
    ("verify.check_domination.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("verify.check_domination"), r["reports"])),
    ("bounds.tail.calls", "count", "lower",
     lambda t, r: _ratio(t.calls("bounds.tail_*"), r["reports"])),
    ("bounds.tail.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(*TAIL), r["reports"])),
    ("bounds.deviation.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("bounds.deviation_*"), r["reports"])),
    ("transductive.split_and_risks.calls", "count", "lower",
     lambda t, r: _ratio(t.calls("transductive.split_and_risks"), r["reports"])),
    ("transductive.split_and_risks.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("transductive.split_and_risks"), r["reports"])),
    ("transductive.risks_for_split.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("transductive.risks_for_split"), r["reports"])),
    ("transductive.mc_sup_expectation.busy_s", "s", "lower",
     lambda t, r: _ratio(t.busy_s("transductive.mc_sup_expectation"), r["reports"])),
    ("transductive.exact_expectation.busy_s", "s", "lower",
     lambda t, r: _ratio(t.busy_s(*EXACT_EXPECTATION), r["reports"])),
    (f"{MODULUS}.calls", "count", "lower",
     lambda t, r: _ratio(t.calls(MODULUS), r["reports"])),
    (f"{MODULUS}.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s(MODULUS), r["reports"])),
    (f"{MODULUS}.exact_ratio", "ratio", "higher",
     lambda t, r: _ratio(t.counters["modulus_exact"], t.calls(MODULUS))),
    ("kernels.gram_matrix.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("kernels.gram_matrix"), r["reports"])),
    ("kernels.eigen_spectrum.calls", "count", "lower",
     lambda t, r: _ratio(t.calls("kernels.eigen_spectrum"), r["reports"])),
    ("kernels.eigen_spectrum.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("kernels.eigen_spectrum"), r["reports"])),
    ("kernels.tailsum_bound.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("kernels.tailsum_bound"), r["reports"])),
    ("experiments.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("experiments.*"), r["reports"])),
    ("cli.self_s", "s", "lower",
     lambda t, r: _ratio(t.self_s("cli.*"), r["reports"])),
    ("cli.report_bytes", "bytes", "lower",
     lambda t, r: _ratio(r["report_bytes"], r["reports"])),
    ("trace.overhead_s", "s", "lower",
     lambda t, r: _ratio(r["traced_s"] - r["untraced_s"], r["reports"])),
    ("trace.coverage", "ratio", "higher",
     lambda t, r: _ratio(t.root_s, r["traced_s"])),
]
