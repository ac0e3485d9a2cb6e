"""Outside-in tracer for the benchmark's traced run.

Wraps jtlab's public functions from outside the package, at every place
each one is bound: the defining module, every module that imported it by
name (``hessians`` holds ``linalg.rank`` as ``matrix_rank``), the package
namespace, and every class attribute that holds it (``__rmul__`` is the
same function as ``__mul__``).  Each call records one span, kept in memory
until the pass ends.

A span stores two intervals.  The inner one, [start, end], is the call
itself.  The outer one, [pre, post], adds the tracer's own bookkeeping, and
is what a parent subtracts from its duration to get its self time, so the
bookkeeping is charged to no layer.  It shows only in the traced pass's
wall time, which the benchmark reports beside the untraced one.
"""

from __future__ import annotations

import sys
import time

LAYERS = (
    "linalg.rank",
    "linalg.rref",
    "linalg.kernel_basis",
    "polynomials.contract",
    "polynomials.BivariatePoly.__mul__",
    "polynomials.BivariatePoly.__pow__",
    "polynomials.BivariatePoly.substitute",
    "algebra.quotient",
    "algebra.annihilator",
    "algebra.ArtinAlgebra.normal_form_vector",
    "algebra.rank_mult_power",
    "algebra.jordan_type",
    "algebra.initial_ideal",
    "algebra.is_complete_intersection",
    "hessians.hessian_matrix",
    "hessians.hessian_rank_at",
    "hessians.nonvanishing_set",
    "hessians.predicted_nonvanishing_set",
    "hessians.predicted_rank_profile",
    "codes.enumerate_diagonal_partitions",
    "codes.partition_to_branch_label",
    "codes.hook_code_direct",
    "codes.is_cijt",
    "codes.enumerate_cijt",
    "partitions.is_symmetric_jdt",
    "partitions.diagonal_lengths",
    "constructor.construct_ci",
    "constructor.verify_realization",
    "cli.classification_row",
)

# metrics beyond calls and self time, with their units
EXTRA_METRICS = {
    "linalg.rref.cells": "count",
    "linalg.rank.cells": "count",
    "linalg.max_entry_bits": "bit",
    "algebra.quotient.distinct_ratio": "ratio",
    "algebra.rank_mult_power.distinct_ratio": "ratio",
}


def _poly_key(f):
    return tuple(sorted(f.terms.items()))


def _ideal_key(ideal):
    return tuple(_poly_key(g) for g in ideal.generators)


def _entry_bits(rows):
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for row in rows for v in row),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, parent span or -1, item, pre, start, end, post)
        self.item = -1  # index of the workload item being run
        self.cells = {"linalg.rref": 0, "linalg.rank": 0}
        self.max_entry_bits = 0
        self.keys = {"algebra.quotient": [], "algebra.rank_mult_power": []}
        self._stack = []
        self._patched = []  # (namespace owner, attribute, original)

    # -- bookkeeping at the boundary ---------------------------------------

    def _probe_rank(self, rows):
        if rows:
            self.cells["linalg.rank"] += len(rows) * len(rows[0])
            self.max_entry_bits = max(self.max_entry_bits, _entry_bits(rows))

    def _probe_rref(self, rows, ncols):
        self.cells["linalg.rref"] += len(rows) * ncols
        self.max_entry_bits = max(self.max_entry_bits, _entry_bits(rows))

    def _probe_quotient(self, ideal):
        self.keys["algebra.quotient"].append(_ideal_key(ideal))

    def _probe_rank_mult_power(self, A, ell, u, s):
        key = (_ideal_key(A.ideal), _poly_key(ell), u, s)
        self.keys["algebra.rank_mult_power"].append(key)

    def _wrap(self, layer, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            pre = clock()
            if probe is not None:
                probe(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, parent, self.item, pre, start, end, clock())

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        import jtlab

        modules = [m for name, m in sys.modules.items() if name == "jtlab" or name.startswith("jtlab.")]
        classes = [
            obj
            for m in modules
            for obj in vars(m).values()
            if isinstance(obj, type) and obj.__module__.startswith("jtlab.")
        ]
        namespaces = [(m, vars(m)) for m in modules] + [(c, c.__dict__) for c in dict.fromkeys(classes)]
        probes = {
            "linalg.rank": self._probe_rank,
            "linalg.rref": self._probe_rref,
            "algebra.quotient": self._probe_quotient,
            "algebra.rank_mult_power": self._probe_rank_mult_power,
        }
        for layer, name in enumerate(LAYERS):
            module_name, *path = name.split(".")
            owner = getattr(jtlab, module_name)
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = vars(owner)[path[-1]]
            wrapper = self._wrap(layer, original, probes.get(name))
            for target, namespace in namespaces:
                for attr, value in list(namespace.items()):
                    if value is original:
                        setattr(target, attr, wrapper)
                        self._patched.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, slowdowns):
        """Calls and self time per layer, plus the count and ratio metrics.
        A span's self time is divided by ``slowdowns[item + 1]``, the host's
        slowdown around the item it ran in (item -1 is the workload's
        ``items()``, which builds the pass's items), like the end-to-end
        times."""
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        covered = [0.0] * len(self.spans)
        for layer, parent, _, pre, _, _, post in self.spans:
            if parent >= 0:
                covered[parent] += post - pre
        for index, (layer, _, item, _, start, end, _) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start - covered[index]) / slowdowns[item + 1]
        out = {}
        for layer, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (calls[layer], "count")
            out[f"{name}.self_s"] = (self_s[layer], "s")
        values = {
            "linalg.rref.cells": self.cells["linalg.rref"],
            "linalg.rank.cells": self.cells["linalg.rank"],
            "linalg.max_entry_bits": self.max_entry_bits,
        }
        for name, keys in self.keys.items():
            values[f"{name}.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        for name, unit in EXTRA_METRICS.items():
            out[name] = (values[name], unit)
        return out

    def write_spans(self, path):
        """One line per span: layer, parent span, item, start, end (seconds
        from the first span)."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("layer\tparent\titem\tstart_s\tend_s\n")
            for layer, parent, item, _, start, end, _ in self.spans:
                fh.write(f"{LAYERS[layer]}\t{parent}\t{item}\t{start - origin:.9f}\t{end - origin:.9f}\n")
