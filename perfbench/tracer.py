"""Per-layer tracing of diskrig from outside the program.

``Tracer.install()`` replaces public functions of the ``diskrig`` modules
with wrappers, at every place the name is bound (the modules import each
other's functions by name, so ``metric.check_domination`` is also bound
in ``harnack``, ``sequences`` and ``greenpj``).  ``BallMap.eval`` is
wrapped on each class that defines it and the ``scipy.sparse.linalg``
solvers where ``liouville`` reaches them; ``count_gauss_rules`` counts
``numpy``'s ``leggauss`` where ``numerics`` looks it up.

A span records name, start, end and parent.  Spans stay in memory and are
written out by ``dump``.  A span's self time is its duration minus the
time its child spans cover.  Functions called very often and needed only
as counts (the ball metric, map evaluation) get a counter, not a span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("numerics", "holomap", "metric", "harnack", "greenpj", "sequences",
           "liouville", "ball", "cli")

#: functions recorded as spans, per module
SPANS = {
    "numerics": ("fit_boundary_rate", "laplacian_fd", "quadrature_disk"),
    "holomap": ("hyperbolic_derivative", "critical_points", "preimages",
                "certify_selfmap"),
    "metric": ("pullback", "quotient", "check_domination", "curvature_grid",
               "zero_order"),
    "harnack": ("check_harnack", "rigidity_scan", "boundary_schwarz_scan",
                "burns_krantz_check", "check_golusin", "cubic_check",
                "verify_barrier_pde"),
    "greenpj": ("green", "green_mean", "pj_decompose", "harmonic_majorant",
                "zero_quotient_bound"),
    "sequences": ("dichotomy_scan", "sequential_schwarz_pick",
                  "zero_rigidity_track"),
    "liouville": ("solve", "make_pinched_metric"),
    "ball": ("ball_rigidity_check", "certify_ball_map"),
    "cli": ("parse_config", "run", "write_report"),
}

#: functions recorded only as call counts
COUNTED = {"ball": ("kobayashi_metric", "kobayashi_distance")}

#: scipy.sparse.linalg entry points a solver may use; all share one span name
SPARSE_LINALG = ("spsolve", "splu", "spilu", "factorized", "gmres", "lgmres",
                 "gcrotmk", "bicgstab", "cg", "minres", "spsolve_triangular")
SPARSE_SPAN = "liouville.sparse_linalg"


def _per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = [(f"{m}.import_s", "s") for m in MODULES]
    out += [("cli.parse_config.self_s", "s"), ("cli.run.self_s", "s"),
            ("cli.write_report.self_s", "s"), ("cli.write_report.bytes", "bytes")]
    out += [("liouville.solve.calls", "count"), ("liouville.solve.self_s", "s"),
            ("liouville.sparse_linalg.calls", "count"),
            ("liouville.sparse_linalg.s", "s"),
            ("liouville.newton_iterations", "count"),
            ("liouville.unknowns", "count"),
            ("liouville.make_pinched_metric.self_s", "s")]
    out += [("numerics.fit_boundary_rate.calls", "count"),
            ("numerics.fit_boundary_rate.self_s", "s"),
            ("numerics.laplacian_fd.calls", "count"),
            ("numerics.laplacian_fd.self_s", "s"),
            ("numerics.quadrature_disk.nodes", "count"),
            ("numerics.quadrature_disk.self_s", "s"),
            ("numerics.gauss_rules", "count")]
    out += [("holomap.hyperbolic_derivative.calls", "count"),
            ("holomap.hyperbolic_derivative.self_s", "s"),
            ("holomap.root_solves", "count"), ("holomap.roots.self_s", "s"),
            ("holomap.certify_selfmap.calls", "count"),
            ("holomap.certify_selfmap.self_s", "s")]
    out += [("metric.pullback.calls", "count"), ("metric.pullback.self_s", "s"),
            ("metric.quotient.points", "count"), ("metric.quotient.self_s", "s"),
            ("metric.check_domination.calls", "count"),
            ("metric.check_domination.self_s", "s"),
            ("metric.curvature_grid.points", "count"),
            ("metric.curvature_grid.self_s", "s"),
            ("metric.zero_order.calls", "count"), ("metric.zero_order.self_s", "s")]
    out += [(f"harnack.{f}.self_s", "s") for f in SPANS["harnack"]]
    out += [(f"greenpj.{f}.self_s", "s") for f in
            ("green_mean", "pj_decompose", "harmonic_majorant",
             "zero_quotient_bound")]
    out += [("greenpj.green.points", "count")]
    out += [(f"sequences.{f}.self_s", "s") for f in SPANS["sequences"]]
    out += [("ball.ball_rigidity_check.calls", "count"),
            ("ball.ball_rigidity_check.self_s", "s"),
            ("ball.certify_ball_map.calls", "count"),
            ("ball.certify_ball_map.self_s", "s"),
            ("ball.kobayashi_metric.calls", "count"),
            ("ball.kobayashi_distance.calls", "count"),
            ("ball.map_evals", "count")]
    out += [(f"{m}.errors", "count") for m in MODULES]
    out += [("trace.pass_s", "s"), ("trace.spans", "count")]
    return out


PER_LAYER = _per_layer_names()


class Tracer:
    def __init__(self):
        self.spans: list = []           # (name, start, end, parent index)
        self._stack: list = []          # [span index, name, child time]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.errors = Counter()

    # -- recording ---------------------------------------------------------

    def _error(self, module: str, exc: BaseException) -> None:
        """Count an exception once, in the module of the innermost wrapper."""
        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        self.errors[module] += 1

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def span(self, name: str, module: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(module, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                spans[idx] = (name, start, end, parent)
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, module: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(module, exc)
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function wherever it is bound."""
        import importlib

        import scipy.sparse.linalg as spla

        mods = {m: importlib.import_module(f"diskrig.{m}") for m in MODULES}
        holders = [mod for name, mod in sys.modules.items()
                   if name == "diskrig" or name.startswith("diskrig.")]
        holders += list(extra_modules)

        def rebind(owner, attr, wrapper):
            original = getattr(owner, attr)
            for holder in holders + [owner]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

        for module, names in SPANS.items():
            for fn_name in names:
                name = f"{module}.{fn_name}"
                fn = getattr(mods[module], fn_name)
                rebind(mods[module], fn_name,
                       self.span(name, module, fn, HOOKS.get(name)))
        for module, names in COUNTED.items():
            for fn_name in names:
                fn = getattr(mods[module], fn_name)
                rebind(mods[module], fn_name,
                       self.counter(f"{module}.{fn_name}", module, fn))

        ball_classes = [mods["ball"].BallMap]
        while ball_classes:
            cls = ball_classes.pop()
            ball_classes.extend(cls.__subclasses__())
            if "eval" in vars(cls):
                setattr(cls, "eval",
                        self.counter("ball.map_evals", "ball", vars(cls)["eval"]))

        for fn_name in SPARSE_LINALG:
            fn = getattr(spla, fn_name, None)
            if fn is not None:
                rebind(spla, fn_name, self._sparse(fn))

    def count_gauss_rules(self) -> None:
        """Count ``leggauss`` calls from now on (numerics looks it up by
        attribute on every call).  Installed before the untraced first
        round, so the count covers the cold round, where a node cache
        computes its rules; the wrapper changes no result."""
        import numpy.polynomial.legendre as legendre
        legendre.leggauss = self.counter("numerics.gauss_rules", "numerics",
                                         legendre.leggauss)

    def _sparse(self, fn):
        """Span a sparse solver; factor objects it returns trace their solves."""
        traced = self.span(SPARSE_SPAN, "liouville", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            result = traced(*args, **kwargs)
            if callable(result):                        # factorized
                return tracer.span(SPARSE_SPAN, "liouville", result)
            if hasattr(result, "solve"):                # splu / spilu
                return _TracedFactor(result, tracer.span(SPARSE_SPAN, "liouville",
                                                         result.solve))
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, import_s: dict, pass_s: float, rounds: int) -> dict:
        """Every per-layer metric; counts and times are per traced round,
        except ``numerics.gauss_rules``, a total over the whole run."""
        c, st, n = self.calls, self.self_time, self.counts
        values = {}
        for name in list(st):
            values[f"{name}.self_s"] = st[name]
            values[f"{name}.calls"] = c[name]
        for name in ("ball.kobayashi_metric", "ball.kobayashi_distance"):
            values[f"{name}.calls"] = n[name]
        values.update({
            "cli.write_report.bytes": n["cli.write_report.bytes"],
            "liouville.sparse_linalg.calls": c[SPARSE_SPAN],
            "liouville.sparse_linalg.s": self.total[SPARSE_SPAN],
            "liouville.newton_iterations": n["liouville.newton_iterations"],
            "liouville.unknowns": n["liouville.unknowns"],
            "numerics.quadrature_disk.nodes": n["numerics.quadrature_disk.nodes"],
            "holomap.root_solves": c["holomap.critical_points"]
            + c["holomap.preimages"],
            "holomap.roots.self_s": st["holomap.critical_points"]
            + st["holomap.preimages"],
            "metric.quotient.points": n["metric.quotient.points"],
            "metric.curvature_grid.points": n["metric.curvature_grid.points"],
            "greenpj.green.points": n["greenpj.green.points"],
            "ball.map_evals": n["ball.map_evals"],
            "trace.spans": len(self.spans),
        })
        values.update({f"{m}.errors": self.errors[m] for m in MODULES})
        values = {k: v / rounds for k, v in values.items()}
        values["numerics.gauss_rules"] = n["numerics.gauss_rules"]
        values.update({f"{m}.import_s": import_s.get(m, 0.0) for m in MODULES})
        values["trace.pass_s"] = pass_s
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)


class _TracedFactor:
    """A factorization whose ``solve`` is traced; everything else delegates."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._factor, attr)


# hooks run after a span's function returns: (tracer, args, kwargs, result)


def _count(key, size):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += int(size(args, kwargs, result))
    return hook


def _quotient_points(tracer, args, kwargs, result):
    # quotient calls itself for points on zeros; count the outer call only
    if tracer.parent_name() != "metric.quotient":
        tracer.counts["metric.quotient.points"] += int(np.size(args[2]))


def _solve(tracer, args, kwargs, result):
    tracer.counts["liouville.newton_iterations"] += result.iterations
    tracer.counts["liouville.unknowns"] += int(result.mask.sum())


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


HOOKS = {
    "cli.write_report": _count(
        "cli.write_report.bytes",
        lambda a, k, r: Path(_arg(a, k, 1, "path")).stat().st_size),
    "numerics.quadrature_disk": _count(
        "numerics.quadrature_disk.nodes",
        lambda a, k, r: _arg(a, k, 0, "grid").n_r * _arg(a, k, 0, "grid").n_t),
    "metric.curvature_grid": _count(
        "metric.curvature_grid.points",
        lambda a, k, r: np.size(_arg(a, k, 1, "zs"))),
    "greenpj.green": _count(
        "greenpj.green.points", lambda a, k, r: np.size(_arg(a, k, 2, "w"))),
    "metric.quotient": _quotient_points,
    "liouville.solve": _solve,
}


def import_times(src: Path) -> dict:
    """Cumulative import time of each diskrig module, in seconds, from
    ``python -X importtime -c "import diskrig.cli"`` in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import diskrig.cli"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("diskrig."):
            module = parts[2].strip()[len("diskrig."):]
            if module in MODULES:
                out[module] = int(parts[1]) / 1e6
    return out

