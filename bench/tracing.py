"""Span tracing of equilab's modules from outside the package.

Each target function is replaced, in the module that calls it, by a wrapper
that records a span ``[name, start, end, parent, size]``.  Span names are
``<layer>.<function>`` with the layer being the module that owns the
function.  Spans stay in memory; :func:`summarize` turns one pass worth of
them into per-layer counts and busy times.
"""

import functools
import os
import sys
import time

# (module whose global name the caller looks up, attribute, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "write_output", "cli.write_output"),
    ("cli", "binom_measure_cdf", "power.binom_measure_cdf"),
    ("cli", "binom_power", "power.binom_power"),
    ("cli", "theta_max", "power.theta_max"),
    ("cli", "normal_curves", "power.normal_curves"),
    ("cli", "table_simulation", "power.table_simulation"),
    ("cli", "corr_two_sided", "correlation.corr_two_sided"),
    ("cli", "corr_two_sided_mc", "correlation.corr_two_sided_mc"),
    ("cli", "corr_equivalence_closed", "correlation.corr_equivalence_closed"),
    ("cli", "corr_equivalence_mc", "correlation.corr_equivalence_mc"),
    ("cli", "corr_partial_pvalues", "correlation.corr_partial_pvalues"),
    ("cli", "fdr_power_simulation", "fdr.fdr_power_simulation"),
    ("power", "binom_onesided_pvalues", "equivalence.binom_onesided_pvalues"),
    ("power", "posterior_prob_equiv", "beta_binomial.posterior_prob_equiv"),
    ("power", "binomial_pmf_vector", "special.binomial_pmf_vector"),
    ("power", "normal_pvalue_cdf", "normal.normal_pvalue_cdf"),
    ("power", "_posterior_tail_values", "normal.posterior_tail_values"),
    ("correlation", "_posterior_tail_values", "normal.posterior_tail_values"),
    ("correlation", "sample_correlation", "correlation.sample_correlation"),
    ("power", "spawn_rng", "rng.spawn_rng"),
    ("fdr", "spawn_rng", "rng.spawn_rng"),
    ("correlation", "spawn_rng", "rng.spawn_rng"),
    ("fdr", "normal_cdf", "special.normal_cdf"),
    ("normal", "normal_cdf", "special.normal_cdf"),
    ("correlation", "normal_cdf", "special.normal_cdf"),
    ("equivalence", "binomial_sf", "special.binomial_tail"),
    ("equivalence", "binomial_cdf", "special.binomial_tail"),
    ("beta_binomial", "reg_inc_beta", "special.reg_inc_beta"),
    ("fdr", "bh_procedure", "fdr.step_up"),
    ("fdr", "adaptive_bh", "fdr.step_up"),
    ("fdr", "score_decisions", "fdr.score_decisions"),
)


def _elements(args, kwargs):
    return getattr(args[0] if args else kwargs["z"], "size", 1)


def _bytes_written(args, kwargs):
    return os.path.getsize(args[2] if len(args) > 2 else kwargs["out_path"])


# spans that also add a size: span name -> (metric suffix, size of one call)
SIZES = {
    "special.normal_cdf": ("elements", _elements),
    "cli.write_output": ("bytes", _bytes_written),
}


def layer(span_name: str) -> str:
    return span_name.partition(".")[0]


class Tracer:
    """Installs the span wrappers and holds the spans of the current pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self.missing = []

    def install(self) -> None:
        """Wrap every target of the already imported ``equilab`` package."""
        self.missing = []
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(f"equilab.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                # the program no longer calls this name from this module
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        size_of = SIZES[name][1] if name in SIZES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size_of is not None:
                span[4] = size_of(args, kwargs)
            return result

        return traced


def summarize(spans) -> dict:
    """Per-pass layer figures from a list of spans.

    ``<span>.calls``, ``<span>.s`` (summed duration) and, for sized spans,
    ``<span>.<size suffix>``; ``<layer>.s`` sums the spans not nested in a
    span of the same layer (inclusive busy time), ``<layer>.self_s`` sums
    each span's duration minus the part covered by its child spans.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for index, (name, start, end, parent, size) in enumerate(spans):
        duration = end - start
        owner = layer(name)
        add(f"{name}.calls", 1)
        add(f"{name}.s", duration)
        if name in SIZES:
            add(f"{name}.{SIZES[name][0]}", size)
        add(f"{owner}.self_s", duration - covered[index])
        if parent < 0 or layer(spans[parent][0]) != owner:
            add(f"{owner}.s", duration)
    return out
