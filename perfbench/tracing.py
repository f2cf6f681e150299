"""Spans recorded from outside the program by wrapping its public functions.

Each target is replaced in every ``stochorder`` namespace that binds it (the
defining module, the CLI's imported names and intra-package imports such as
``kuiper.check_tp2``), so nested calls nest their spans and a layer's self
time is its span minus the spans of the wrapped calls inside it.  Spans stay
in memory until ``dump`` writes them at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

#: (module, attribute) of every wrapped callable.  ``isotonic.products_le``
#: runs once per comparison, millions of times per item; wrapping it would
#: distort the run, so its time stays in its callers' self time.
TARGETS = (
    ("cli", "main"),
    ("distributions", "load_bivariate"),
    ("distributions", "load_univariate"),
    ("distributions", "BivariateDist.canonical"),
    ("orders", "check_lr"),
    ("orders", "check_st"),
    ("roc", "roc_curve"),
    ("roc", "roc_is_concave"),
    ("roc", "odc_curve"),
    ("roc", "odc_is_convex"),
    ("tp2", "check_tp2"),
    ("tp2", "kernel_new"),
    ("tp2", "kernel_west"),
    ("tp2", "kernel_east"),
    ("tp2", "boundaries"),
    ("tp2", "check_st_condition"),
    ("kuiper", "tp2_project"),
    ("kuiper", "kuiper_norm"),
    ("kuiper", "refine_grid"),
    ("kuiper", "signed_difference"),
    ("estimation", "sample"),
    ("estimation", "empirical"),
    ("estimation", "bracket_check"),
    ("estimation", "uniform_convergence_check"),
    ("estimation", "quantile_curve"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

#: Spans whose call count per item is reported beside their self time.
COUNTED = ("tp2.check_tp2", "tp2.check_st_condition", "kuiper.kuiper_norm",
           "distributions.BivariateDist.canonical")


def _holding_allpairs_minors(args, kwargs, result, canonical) -> int:
    """C(l,2)*C(m,2) for a holding all-pairs verdict (computed, not counted)."""
    method = args[1] if len(args) > 1 else kwargs.get("method", "pmf-allpairs")
    if method != "pmf-allpairs" or not result.holds:
        return 0
    l, m = canonical(args[0]).shape
    return comb(l, 2) * comb(m, 2)


class Tracer:
    """Span recorder: (name index, start, end, parent span index, item)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.item = -1
        self.minors = 0
        self.draws = 0

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "stochorder" or name.startswith("stochorder.")}
        from stochorder.distributions import BivariateDist

        canonical = BivariateDist.canonical
        for k, (mod, attr) in enumerate(TARGETS):
            owner = modules[f"stochorder.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(k, getattr(cls, meth), canonical))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(k, orig, canonical)
            for namespace in modules.values():
                for key, val in list(vars(namespace).items()):
                    if val is orig:
                        setattr(namespace, key, wrapper)

    def _wrap(self, k: int, fn, canonical):
        spans, stack = self.spans, self.stack
        name = SPAN_NAMES[k]
        counts_minors = name == "tp2.check_tp2"
        counts_draws = name == "estimation.empirical"
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (k, start, end, parent, tracer.item)
            if counts_minors:
                tracer.minors += _holding_allpairs_minors(args, kwargs, result, canonical)
            elif counts_draws:
                tracer.draws += len(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> tuple[list[float], list[int]]:
        """Total self seconds and call count per target."""
        total = [0.0] * len(TARGETS)
        calls = [0] * len(TARGETS)
        for k, start, end, parent, _ in self.spans:
            dur = end - start
            total[k] += dur
            calls[k] += 1
            if parent >= 0:
                total[self.spans[parent][0]] -= dur
        return total, calls

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": SPAN_NAMES}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
