"""Per-layer spans and counters, installed from outside the program.

Each public function of a ``qcunlink`` module is wrapped, and every name
that refers to it in any ``qcunlink`` module is rebound to a wrapper, so
calls made through ``from .polyalg import evaluate`` are traced as well
as calls made through ``structure.qc_falsify``.  The wrapper bound in a
module knows that module, which is how calls to ``evaluate`` made from
``structure`` are counted apart.  The arithmetic operators of
``Polynomial`` are wrapped on the class.  Nothing inside the package is
edited.

A layer is a module.  A span's self time is its duration minus the
durations of the spans it encloses; a layer's ``self_s`` sums the self
time of its spans.  A function's time counts only its outermost call.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "polyalg", "exactla", "structure", "gaussmeasure", "unlink")
POLY_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")

# per-layer metric -> traced function names whose outermost time it sums
TIMES = {
    "cli.main_s": ("cli.main",),
    "polyalg.parse_s": ("polyalg.parse_expression", "polyalg.from_json"),
    "polyalg.mul_s": ("polyalg.__mul__", "polyalg.__rmul__"),
    "polyalg.compose_linear_s": ("polyalg.compose_linear",),
    "polyalg.evaluate_s": ("polyalg.evaluate",),
    "polyalg.evaluate_float_s": ("polyalg.evaluate_float",),
    "exactla.kernel_s": ("exactla.kernel",),
    "exactla.complement_s": ("exactla.orthogonal_complement",),
    "exactla.intersect_s": ("exactla.intersect",),
    "exactla.sum_s": ("exactla.subspace_sum",),
    "exactla.orthonormalize_nested_s": ("exactla.orthonormalize_nested",),
    "exactla.psd_violation_s": ("exactla.psd_violation",),
    "structure.qc_falsify_s": ("structure.qc_falsify",),
    "structure.invariance_subspace_s": ("structure.invariance_subspace",),
    "gaussmeasure.covariance_s": ("gaussmeasure.covariance",),
    "gaussmeasure.partial_expectation_s": ("gaussmeasure.partial_expectation",),
    "gaussmeasure.sampling_s": ("gaussmeasure.gaussian_sample_chunks",),
    "gaussmeasure.mc_estimate_s": ("gaussmeasure.mc_estimate",),
    "unlink.decision_s": ("unlink.unlink_decision",),
    "unlink.concordance_s": ("unlink.concordance",),
    "unlink.build_transform_s": ("unlink.build_transform",),
    "unlink.verify_unlinked_s": ("unlink.verify_unlinked",),
    "unlink.spotcheck_s": (
        "unlink.correlation_spotcheck",
        "unlink.covariance_integral_check",
        "unlink.divergence_check",
    ),
}

COUNTS = (
    "cli.report_bytes",
    "polyalg.mul_calls",
    "polyalg.mul_term_pairs",
    "polyalg.composed_terms",
    "polyalg.composed_coeff_bits",
    "polyalg.evaluate_calls",
    "polyalg.evaluate_float_points",
    "structure.qc_falsify_calls",
    "structure.trials",
    "structure.exact_evaluations_per_trial",
    "gaussmeasure.samples_drawn",
)

METRICS = tuple(f"{layer}.self_s" for layer in LAYERS) + tuple(TIMES) + COUNTS
UNITS = {"cli.report_bytes": "bytes", "polyalg.composed_coeff_bits": "bits", "structure.exact_evaluations_per_trial": "1/trial"}


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else UNITS.get(metric, "count")


def _terms(value) -> int:
    return len(value.terms) if hasattr(value, "terms") else 1


def _count_mul(counts, args, result):
    counts["polyalg.mul_calls"] += 1
    counts["polyalg.mul_term_pairs"] += _terms(args[0]) * _terms(args[1])


def _count_compose(counts, args, result):
    counts["polyalg.composed_terms"] += len(result.terms)
    bits = max(
        (x.numerator.bit_length() + x.denominator.bit_length() for x in result.terms.values()),
        default=0,
    )
    counts["polyalg.composed_coeff_bits"] = max(counts["polyalg.composed_coeff_bits"], bits)


def _count_evaluate(counts, args, result):
    counts["polyalg.evaluate_calls"] += 1


def _count_evaluate_float(counts, args, result):
    # one value per point: a scalar for one point, an array for a batch
    counts["polyalg.evaluate_float_points"] += getattr(result, "size", 1)


def _count_falsify(counts, args, result):
    counts["structure.qc_falsify_calls"] += 1
    counts["structure.trials"] += result.trials


# counters kept at the span boundaries, per traced function
COUNTERS = {
    "polyalg.__mul__": _count_mul,
    "polyalg.__rmul__": _count_mul,
    "polyalg.compose_linear": _count_compose,
    "polyalg.evaluate": _count_evaluate,
    "polyalg.evaluate_float": _count_evaluate_float,
    "structure.qc_falsify": _count_falsify,
}


class Tracer:
    def __init__(self):
        self.reset()
        self._installed = []

    def reset(self):
        self.stack: list[float] = []  # time covered by child spans, per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()

    def _enter(self, key):
        self.stack.append(0.0)
        self.depth[key] += 1
        return time.perf_counter()

    def _leave(self, key, layer, start):
        elapsed = time.perf_counter() - start
        children = self.stack.pop()
        self.depth[key] -= 1
        self.self_s[layer] += elapsed - children
        if not self.depth[key]:
            self.inclusive[key] += elapsed
        if self.stack:
            self.stack[-1] += elapsed

    def wrap(self, fn, layer: str, key: str, caller: str):
        tracer = self
        count = COUNTERS.get(key)
        evaluate_from_structure = key == "polyalg.evaluate" and caller == "structure"

        def traced(*args, **kwargs):
            start = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(key, layer, start)
            if count:
                count(tracer.counts, args, result)
            if evaluate_from_structure:
                tracer.counts["structure.evaluate_calls"] += 1
            return result

        def traced_generator(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                start = tracer._enter(key)
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                finally:
                    tracer._leave(key, layer, start)
                tracer.counts["gaussmeasure.samples_drawn"] += block.shape[0]
                yield block

        wrapper = traced_generator if inspect.isgeneratorfunction(fn) else traced
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``."""
        modules = {name: getattr(package, name) for name in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                for space in namespaces:
                    caller = space.__name__.rsplit(".", 1)[-1]
                    wrapper = self.wrap(fn, layer, f"{layer}.{name}", caller)
                    for attr, value in list(vars(space).items()):
                        if value is fn:
                            self._installed.append((space, attr, value))
                            setattr(space, attr, wrapper)
        polynomial = package.polyalg.Polynomial
        for op in POLY_OPERATORS:
            fn = polynomial.__dict__[op]
            self._installed.append((polynomial, op, fn))
            setattr(polynomial, op, self.wrap(fn, "polyalg", f"polyalg.{op}", "polyalg"))

    def uninstall(self):
        for space, attr, value in reversed(self._installed):
            setattr(space, attr, value)
        self._installed.clear()

    def snapshot(self, report_bytes: int) -> dict:
        """Per-layer metrics for the work since the last ``reset``."""
        metrics = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for metric, keys in TIMES.items():
            metrics[metric] = sum(self.inclusive[key] for key in keys)
        for metric in COUNTS:
            metrics[metric] = self.counts[metric]
        metrics["cli.report_bytes"] = report_bytes
        trials = self.counts["structure.trials"]
        metrics["structure.exact_evaluations_per_trial"] = (
            self.counts["structure.evaluate_calls"] / trials if trials else 0.0
        )
        return metrics
