"""Spans around cmforge's public layer functions, installed from outside.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in every
cmforge module that bound it by name (``from .x import f`` copies the
binding, so patching the defining module alone would miss most calls).  Spans
are kept in memory with a case id and a parent and handed back at the end;
``layer_metrics`` turns them into the per-layer metrics, charging each span
its self time: its duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

TARGETS = (
    ("arith", "search_fixed_D"),
    ("forms", "enumerate_reduced"),
    ("forms", "n_system"),
    ("modfns", "theta_value"),
    ("genusfield", "build_basis"),
    ("genusfield", "build_mpair"),
    ("genusfield", "structure_constants"),
    ("approx", "run_approx"),
    ("recover", "make_plan"),
    ("recover", "recover_coords"),
    ("classpoly", "class_poly_divisor"),
    ("classpoly", "class_poly_full"),
    ("curve", "reduce_divisor_mod_p"),
    ("curve", "roots_in_fp"),
    ("curve", "select_twist"),
    ("curve", "gen_curve"),
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# span name -> attributes recorded from the call's arguments and result
_ATTRS = {
    "modfns.theta_value": lambda a, k, out: {"prec": _arg(a, k, 2, "prec", 96)},
    "approx.run_approx": lambda a, k, out: {"iters": out.iters},
    "recover.make_plan": lambda a, k, out: {"float_bits": out.float_bits},
    "recover.recover_coords": lambda a, k, out: {
        "imag": _arg(a, k, 2, "side") == "IMAG_PART", "nonzero": any(out)},
    "curve.roots_in_fp": lambda a, k, out: {"found": len(out)},
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []

    def install(self):
        """Wrap every target at every binding; returns the targets missing."""
        mods = [mod for name, mod in sys.modules.items() if name.startswith("cmforge.")]
        missing = []
        for modname, fname in TARGETS:
            orig = getattr(sys.modules.get(f"cmforge.{modname}"), fname, None)
            if orig is None:
                missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
        return missing

    @contextlib.contextmanager
    def span(self, name):
        """One span around the body; the benchmark opens the per-case root."""
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "case": self.case, "name": name}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["t0"] = time.perf_counter()
        try:
            yield span
        finally:
            span["t1"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if attrs is not None:
                span.update(attrs(args, kwargs, out))
            return out
        return wrapper


# per-layer self-time metrics: metric -> span names charged to it
SELF_TIME = {
    "modfns.theta_s": ("modfns.theta_value",),
    "genusfield.basis_s": ("genusfield.build_basis",),
    "genusfield.mpair_s": ("genusfield.build_mpair",),
    "genusfield.sc_s": ("genusfield.structure_constants",),
    "approx.cf_s": ("approx.run_approx",),
    "recover.plan_self_s": ("recover.make_plan",),
    "recover.coords_s": ("recover.recover_coords",),
    "classpoly.self_s": ("classpoly.class_poly_divisor", "classpoly.class_poly_full"),
    "curve.roots_s": ("curve.roots_in_fp",),
    "curve.reduce_s": ("curve.reduce_divisor_mod_p",),
    "curve.twist_s": ("curve.select_twist",),
    "arith.search_s": ("arith.search_fixed_D",),
    "forms.s": ("forms.n_system", "forms.enumerate_reduced"),
}

COUNTS = ("modfns.theta_calls", "modfns.theta_kbit", "genusfield.builds",
          "approx.cf_iters", "recover.plans", "recover.coords_calls",
          "recover.imag_useful_frac", "recover.float_bits", "classpoly.attempts",
          "curve.roots_found")

_CLASSPOLY = SELF_TIME["classpoly.self_s"]
_BUILDS = ("genusfield.build_basis", "genusfield.build_mpair",
           "genusfield.structure_constants")


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def layer_metrics(spans):
    """The per-layer metrics of one pass (or of one case's spans)."""
    own = self_times(spans)
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum((own[s["id"]] for s in spans if s["name"] in names), 0.0)

    def named(name):
        return [s for s in spans if s["name"] == name]

    theta = named("modfns.theta_value")
    out["modfns.theta_calls"] = len(theta)
    out["modfns.theta_kbit"] = sum(s["prec"] for s in theta) / 1000
    out["genusfield.builds"] = sum(s["name"] in _BUILDS for s in spans)
    out["approx.cf_iters"] = sum(s["iters"] for s in named("approx.run_approx"))
    plans = named("recover.make_plan")
    out["recover.plans"] = len(plans)
    coords = named("recover.recover_coords")
    out["recover.coords_calls"] = len(coords)
    imag = [s for s in coords if s["imag"]]
    out["recover.imag_useful_frac"] = (
        sum(s["nonzero"] for s in imag) / len(imag) if imag else 0.0)
    # the plan a case recovered with is the last one it made
    last_plan = {s["case"]: s["float_bits"] for s in plans}
    out["recover.float_bits"] = sum(last_plan.values())
    # one attempt = one batch of theta values at one precision
    by_id = {s["id"]: s for s in spans}
    batches = set()
    for s in theta:
        up = s["parent"]
        while up is not None and by_id[up]["name"] not in _CLASSPOLY:
            up = by_id[up]["parent"]
        batches.add((up, s["prec"]))
    out["classpoly.attempts"] = len(batches)
    out["curve.roots_found"] = sum(s["found"] for s in named("curve.roots_in_fp"))
    return out


def combine_passes(per_pass):
    """Self times as the median over passes, counts from the first pass."""
    out = {m: statistics.median(p[m] for p in per_pass) for m in SELF_TIME}
    out.update({m: per_pass[0][m] for m in COUNTS})
    return out
