"""In-memory tracing of chiralring's public functions for the traced run.

The tracer replaces each target function in the imported package with a
wrapper, from outside the package, so the source tree is never edited.
Hot leaves such as ExtElement.wedge run millions of times, so nothing is
recorded per call: each target keeps a call count and a self time, the
time inside the call minus the time covered by traced calls it made (for
example wedge inside matmul), plus the work counters the metrics need.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); methods are given as Class.method.
# build_root_system and chevalley_data share one span name: both build the
# root-system layer's data.
TARGETS = (
    ("chiralring.rootsystem.roots", "build_root_system", "rootsystem.build"),
    ("chiralring.rootsystem.chevalley", "chevalley_data", "rootsystem.build"),
    ("chiralring.cdsw.core", "Workspace.__init__", "cdsw.workspace"),
    ("chiralring.cdsw.core", "ideal_rows", "cdsw.ideal_rows"),
    ("chiralring.exterior", "ExtElement.wedge", "exterior.wedge"),
    ("chiralring.exterior", "ExtElement.__add__", "exterior.add"),
    ("chiralring.exterior", "OddMatrix.matmul", "exterior.matmul"),
    ("chiralring.exterior", "GrassmannAlgebra.component_masks",
     "exterior.component_masks"),
    ("chiralring.liemodule", "ActionTable.weight_masks",
     "liemodule.weight_masks"),
    ("chiralring.liemodule", "ActionTable.act_mask", "liemodule.act_mask"),
    ("chiralring.liemodule", "invariants", "liemodule.invariants"),
    ("chiralring.exactla", "Echelon.insert", "exactla.insert"),
    ("chiralring.exactla", "Echelon.reduce", "exactla.reduce"),
    ("chiralring.exactla", "kernel_basis", "exactla.kernel"),
)

LAYERS = ("rootsystem", "exterior", "exactla", "liemodule", "cdsw")


def _tally_wedge(counts, result, args, kwargs):
    counts["wedge_pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["wedge_terms"] += len(result.terms)


def _tally_masks(counts, result, args, kwargs):
    counts["masks_enumerated"] += len(result)


def _tally_weight_masks(counts, result, args, kwargs):
    zero = args[0].zero_weight
    if isinstance(result, dict):
        counts["w0_masks"] += len(result.get(zero, ()))
    else:
        weight = args[3] if len(args) > 3 else kwargs.get("weight")
        if weight == zero:
            counts["w0_masks"] += len(result)


def _tally_insert(counts, result, args, kwargs):
    if result:
        counts["inserts_grew"] += 1


TALLIES = {
    "exterior.wedge": _tally_wedge,
    "exterior.component_masks": _tally_masks,
    "liemodule.weight_masks": _tally_weight_masks,
    "exactla.insert": _tally_insert,
}


class Tracer:
    """Aggregated self times and counts of the traced functions."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        # one accumulator per open traced call, holding the time its traced
        # children took; the bottom entry collects untraced callers' children
        self._stack = [0.0]

    def install(self):
        """Wrap every target in the currently imported chiralring package."""
        for module, attr, name in TARGETS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[method]
                wrapped = self._wrap(name, original)
                # aliases such as OddMatrix.__matmul__ = matmul
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, key, wrapped)
            else:
                original = getattr(mod, attr)
                wrapped = self._wrap(name, original)
                # every module that imported the function by name
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith(
                            "chiralring"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack, self_s, calls = self._stack, self.self_s, self.calls
        counts = self.counts
        tally = TALLIES.get(name)

        if inspect.isgeneratorfunction(fn):
            # self time is the time spent producing each item; calls counts
            # the items produced
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        self_s[name] += elapsed - stack.pop()
                        stack[-1] += elapsed
                    calls[name] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
            if tally is not None:
                tally(counts, result, args, kwargs)
            return result
        traced.__name__ = fn.__name__
        return traced

    def layer_self_s(self):
        """Self time summed per package layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return out

    def metrics(self, overhead_ratio):
        """The per-layer metrics, as {name: (value, unit)}."""
        s, c, n = self.self_s, self.calls, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "rootsystem.build_s": (s["rootsystem.build"], "s"),
            "cdsw.workspace_s": (s["cdsw.workspace"], "s"),
            "exterior.wedge_calls": (c["exterior.wedge"], "count"),
            "exterior.wedge_s": (s["exterior.wedge"], "s"),
            "exterior.wedge_yield": (
                ratio(n["wedge_terms"], n["wedge_pairs"]), "terms/pair"),
            "exterior.add_s": (s["exterior.add"], "s"),
            "exterior.matmul_calls": (c["exterior.matmul"], "count"),
            "exterior.matmul_s": (s["exterior.matmul"], "s"),
            "exterior.component_masks_s": (
                s["exterior.component_masks"], "s"),
            "exterior.masks_enumerated": (n["masks_enumerated"], "count"),
            "liemodule.weight_masks_s": (s["liemodule.weight_masks"], "s"),
            "liemodule.w0_yield": (
                ratio(n["w0_masks"], n["masks_enumerated"]), "masks/mask"),
            "liemodule.act_mask_calls": (c["liemodule.act_mask"], "count"),
            "liemodule.act_mask_s": (s["liemodule.act_mask"], "s"),
            "liemodule.invariants_s": (s["liemodule.invariants"], "s"),
            "exactla.insert_calls": (c["exactla.insert"], "count"),
            "exactla.insert_s": (s["exactla.insert"], "s"),
            "exactla.grow_ratio": (
                ratio(n["inserts_grew"], c["exactla.insert"]),
                "grew/insert"),
            "exactla.reduce_calls": (c["exactla.reduce"], "count"),
            "exactla.reduce_s": (s["exactla.reduce"], "s"),
            "exactla.kernel_s": (s["exactla.kernel"], "s"),
            "exactla.rank_total": (n["inserts_grew"], "count"),
            "cdsw.ideal_rows": (c["cdsw.ideal_rows"], "count"),
            "cdsw.ideal_rows_s": (s["cdsw.ideal_rows"], "s"),
            "trace.overhead_ratio": (overhead_ratio, "traced/untraced"),
        }
