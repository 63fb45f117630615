"""In-memory spans around the public functions of flagforms.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper in every ``flagforms`` module that binds the original, so calls
made between the library's own modules are seen too.  Each call records a
span (name, start, end, parent index) in a list; nothing is written while
the spans are recorded.  Hooks add counts at the same boundaries.
"""

import sys
import time
from collections import defaultdict

MODULES = ("exprs", "rootcalc", "gysin", "charpoly", "formlab", "flagnum", "conegeom")


def _gen_schur(counts, args, kwargs, out):
    counts.setdefault("charpoly.gen_schur.keys", set()).add(
        (tuple(int(x) for x in args[0]), args[1])
    )


def _pushforward_dp(counts, args, kwargs, out):
    counts["gysin.pushforward_dp.sequences"] += len(args[0].terms)


def _expand(counts, args, kwargs, out):
    counts["rootcalc.expand_expression.terms"] += len(out.terms)


def _numeric(counts, args, kwargs, out):
    counts["flagnum.pushforward_numeric.samples"] += out.n_samples + out.n_nonfinite
    counts["flagnum.pushforward_numeric.nonfinite"] += out.n_nonfinite


def _positivity(counts, args, kwargs, out):
    counts["formlab.positivity_values.frames"] += len(out)


#: traced public functions, with the hook that counts their work
TRACED = {
    "exprs.parse": None,
    "exprs.evaluate": None,
    "rootcalc.expand_expression": _expand,
    "charpoly.det_poly": None,
    "charpoly.gen_schur": _gen_schur,
    "charpoly.schur_decompose": None,
    "gysin.pushforward_dp": _pushforward_dp,
    "gysin.schur_via_flag": None,
    "gysin.grassmann_c1c2_pushforward": None,
    "formlab.wedge_det": None,
    "formlab.chern_forms": None,
    "formlab.positivity_values": _positivity,
    "flagnum.curvature_at": None,
    "flagnum.curvature_center": None,
    "flagnum.pushforward_numeric": _numeric,
    "flagnum.verify_main_theorem": None,
    "conegeom.in_schur_cone": None,
    "conegeom.ray_hull_2d": None,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.on = False

    def _wrap(self, name, fn, hook):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Rebind every traced function in all loaded flagforms modules."""
        mods = [m for k, m in list(sys.modules.items()) if k == "flagforms" or k.startswith("flagforms.")]
        for name, hook in TRACED.items():
            module, attr = name.split(".")
            orig = getattr(sys.modules[f"flagforms.{module}"], attr)
            wrapper = self._wrap(name, orig, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def summary(self):
        """Per-function and per-module calls and self times, and the counts."""
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[idx]
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            own[name] += dur - child_time[idx]
            # recursive calls (exprs.evaluate) would count their time twice
            if parent < 0 or self.spans[parent][0] != name:
                inclusive[name] += dur
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(v for k, v in own.items() if k.startswith(module + "."))
        keys = self.counts.get("charpoly.gen_schur.keys", set())
        n_gen = calls["charpoly.gen_schur"]
        out["charpoly.gen_schur.distinct"] = len(keys)
        out["charpoly.gen_schur.reuse"] = 1.0 - len(keys) / n_gen if n_gen else 0.0
        for key in (
            "gysin.pushforward_dp.sequences",
            "rootcalc.expand_expression.terms",
            "flagnum.pushforward_numeric.samples",
            "flagnum.pushforward_numeric.nonfinite",
            "formlab.positivity_values.frames",
        ):
            out[key] = self.counts[key]
        t_num = inclusive["flagnum.pushforward_numeric"]
        out["flagnum.pushforward_numeric.samples_per_s"] = (
            self.counts["flagnum.pushforward_numeric.samples"] / t_num if t_num else 0.0
        )
        return out

    def dump(self):
        """The recorded spans as JSON-ready rows."""
        return [list(span) for span in self.spans]
