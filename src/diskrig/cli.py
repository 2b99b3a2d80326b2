"""Batch front-end: named experiments from flat config files.

A config is plain text, one ``key = value`` per line, with a mandatory
``command`` key naming the experiment.  Each command has one runner, and
its keyword parameters are the keys it takes: ``k_min`` is key ``k-min``,
read by the type of its default (yes/no for a bool, raw text for a string
or None).  ``what`` (``ball-check``), ``family`` (``sequence-scan``,
``zero-track``) and ``kappa`` (``liouville-solve``, from
``CURVATURE_PROFILES``) pick the runner from a table; its first entry is
the default.  A config may also set ``out`` and, where the report carries
radial samples, ``profile``; any other key is refused, listing the allowed.
Reports are machine-first JSON written atomically; radial scans also
emit a two-column gnuplot-ready profile (1-|z|, value) with a JSON
metadata sidecar.  Exit codes: 0 all asserted checks pass, 1 a check
failed (report still written), 2 invalid configuration or an input the
library refuses (any DiskrigError, message on standard error).

Metric expressions (for ``lam`` / ``mu`` keys)::

    poincare
    mu_max(<beta>)
    scale(<t>, <metric>)
    pullback(<map>)            map in the prefix grammar of the map module
    exp_weight(example4_1(<n>))

Environment: DISKRIG_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import ball as bl
from . import greenpj as gp
from . import harnack as hk
from . import liouville as lv
from . import metric as mt
from . import sequences as sq
from .holomap import Automorphism, parse_map, rotation
from .numerics import DiskrigError, PolarGrid, Verdict

ENV_OUT_DIR = "DISKRIG_OUT_DIR"


class ConfigError(DiskrigError, ValueError):
    """Raised for malformed or unknown configuration."""


# ---------------------------------------------------------------------------
# config parsing


def _cast(cast, raw: str, where: str):
    """cast(raw), or a ConfigError naming the value and where it was read."""
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {cast.__name__} {raw!r} for {where}") from exc


def _read(raw: str, default, key: str):
    """The text value of a key, read by the type of its parameter's default:
    yes/no for a bool, the raw text for a string or None."""
    if default is None or isinstance(default, str):
        return raw
    if not isinstance(default, bool):
        return _cast(type(default), raw, f"key {key!r}")
    if raw.lower() in ("true", "yes", "1", "false", "no", "0"):
        return raw.lower() in ("true", "yes", "1")
    raise ConfigError(f"bad boolean {raw!r} for key {key!r}")


def _keys(runner) -> dict:
    """Config key -> parameter, one per keyword parameter of a runner."""
    return {name.replace("_", "-"): param
            for name, param in inspect.signature(runner).parameters.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: tuple[tuple[str, str], ...]


def _select_runner(command: str, params: dict):
    """The runner a command's config selects; ConfigError for any key that
    neither it nor the command reads."""
    spec = COMMANDS[command]
    runner, where = spec.runner, f"command {command!r}"
    allowed = {"out", "profile"} if spec.profile else {"out"}
    if spec.selector is not None:
        choice = params.get(spec.selector, next(iter(runner)))
        if choice not in runner:
            raise ConfigError(f"unknown {spec.selector} {choice!r} for "
                              f"{where}; known: {', '.join(sorted(runner))}")
        runner = runner[choice]
        where += f" with {spec.selector} = {choice}"
        allowed.add(spec.selector)
    allowed |= set(_keys(runner))
    for key in params:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for {where}; "
                              f"allowed: {', '.join(sorted(allowed))}")
    return runner


def parse_config(text: str) -> ExperimentConfig:
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in params:
            raise ConfigError(f"line {lineno}: key {key!r} is set twice")
        params[key] = value
    command = params.pop("command", None)
    if command is None:
        raise ConfigError("config must set 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"known: {', '.join(sorted(COMMANDS))}")
    _select_runner(command, params)
    return ExperimentConfig(command, tuple(sorted(params.items())))


# ---------------------------------------------------------------------------
# metric expressions


def parse_metric(text: str) -> mt.Pseudometric:
    text = text.strip()
    where = f"metric expression {text!r}"
    if text == "poincare":
        return mt.poincare()
    if text.startswith("mu_max(") and text.endswith(")"):
        return mt.mu_max(_cast(float, text[len("mu_max("):-1], where))
    if text.startswith("scale(") and text.endswith(")"):
        t_str, _, rest = text[len("scale("):-1].partition(",")
        return mt.scale(_cast(float, t_str, where), parse_metric(rest))
    if text.startswith("pullback(") and text.endswith(")"):
        return mt.pullback(parse_map(text[len("pullback("):-1]), mt.poincare())
    if text.startswith("exp_weight(example4_1(") and text.endswith("))"):
        n = _cast(int, text[len("exp_weight(example4_1("):-2], where)
        return sq.weighted_family(n)
    raise ConfigError(f"unknown metric expression {text!r}")


# ---------------------------------------------------------------------------
# report output


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonify(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, complex):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_report(report: dict, path: Path) -> None:
    _atomic_write(path, json.dumps(report, indent=2, sort_keys=True,
                                   default=_jsonify) + "\n")


def emit_profile(report: dict, path: Path) -> None:
    """Two-column plain text (1-|z|, value) plus a JSON metadata sidecar."""
    samples = report.get("profile_samples")
    if not samples:
        raise ConfigError("report carries no radial samples to emit")
    lines = [f"{eps:.17g} {val:.17g}" for eps, val in samples]
    _atomic_write(path, "\n".join(lines) + "\n")
    sidecar = {
        "command": report.get("command"),
        "parameters": report.get("parameters"),
        "verdict": report.get("verdict", report.get("passed")),
        "tool_version": __version__,
    }
    _atomic_write(Path(str(path) + ".meta.json"),
                  json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command runners (each returns a JSON-able report with a 'passed' bool)


def _expected(expect_verdict, known=tuple(v.value for v in Verdict)) -> None:
    """Refuse an expect-verdict that the runner never returns."""
    if expect_verdict is not None and expect_verdict not in known:
        raise ConfigError(f"unknown expect-verdict {expect_verdict!r}; "
                          f"known: {', '.join(known)}")


def _rate_dict(rep) -> dict:
    return {"verdict": rep.verdict.value, "fitted_limit": rep.fitted_limit,
            "fitted_slope": rep.fitted_slope,
            "exponent": rep.exponent_tested}


def run_rigidity_scan(lam="pullback(zpow 2)", mu="poincare", c=4.0,
                      angle=0.0, k_min=4, k_max=20, expect_verdict=None,
                      expect_limit=None, limit_tol=0.02) -> dict:
    _expected(expect_verdict)
    lam, mu = parse_metric(lam), parse_metric(mu)
    rep = hk.rigidity_scan(lam, mu, c, angle=angle, k_min=k_min, k_max=k_max)
    passed = expect_verdict is None or rep.verdict.value == expect_verdict
    if expect_limit is not None:
        limit = _cast(float, expect_limit, "key 'expect-limit'")
        passed = passed and abs(rep.fitted_limit - limit) <= \
            limit_tol * max(1.0, abs(limit))
    scaled = [(1.0 - t, v / (1.0 - t) ** (c / 2.0)) for t, v in rep.samples]
    report = {"rate": _rate_dict(rep), "verdict": rep.verdict.value,
              "passed": passed, "profile_samples": scaled}
    if rep.verdict is Verdict.VANISHES:
        # a vanishing rate predicts coincidence of the metrics; spot-check
        # the prediction instead of asserting it
        spot = hk.identity_spot_check(lam, mu)
        report["identity_spot_check"] = {"passed": spot.passed,
                                         "max_deviation": spot.max_violation}
        report["passed"] = report["passed"] and spot.passed
    return report


def run_verify_harnack(include_liouville=True, tol=1e-7,
                       liouville_n=97) -> dict:
    results = hk.run_catalog(include_liouville=include_liouville, tol=tol,
                             liouville_n=liouville_n)
    cases = {case.name: {"passed": rep.passed,
                         "max_violation": rep.lhs_max_violation,
                         "c": case.c, "r": case.r}
             for case, rep in results}
    cubic = {}
    for c in (4.0, 5.0, 8.0):
        for r in (0.3, 0.5, 0.7):
            rep = hk.cubic_check(c, r)
            cubic[f"c={c:g},r={r:g}"] = rep.passed
    barrier = hk.verify_barrier_pde(0.5, 4.0)
    passed = (all(v["passed"] for v in cases.values())
              and all(cubic.values()) and barrier.passed)
    return {"catalog": cases, "cubic_identities": cubic,
            "barrier_pde": barrier.passed, "passed": passed}


def run_golusin(lam="pullback(zpow 2)", tol=1e-9) -> dict:
    rep = hk.check_golusin(parse_metric(lam), tol=tol)
    return {"passed": rep.passed, "max_violation": rep.max_violation,
            "lam0": rep.details["lam0"], "n_checked": rep.n_checked}


def run_burns_krantz(map="id", k_min=4, k_max=20) -> dict:
    disp, inv = hk.burns_krantz_check(parse_map(map), k_min=k_min,
                                      k_max=k_max)
    implication = (disp.verdict is not Verdict.VANISHES
                   or inv.verdict is Verdict.VANISHES)
    return {"displacement_rate": _rate_dict(disp),
            "invariant_rate": _rate_dict(inv),
            "implication_holds": implication, "passed": implication,
            "profile_samples": [(1.0 - t, v) for t, v in inv.samples]}


def run_pj_decompose(lam="poincare", mu=None, R=0.9, z=0.3 + 0j, n_r=220,
                     n_t=440, tol=1e-3, bound_r=0.8, bound_xi=0j) -> dict:
    lam = parse_metric(lam)
    dec = gp.pj_decompose(lam, R, z, grid=PolarGrid(0j, R, n_r, n_t))
    gm = gp.green_mean(R, z)
    gm_exact = (R**2 - abs(z) ** 2) / 4.0
    report = {
        "R": R, "z": str(z),
        "zero_terms": [{"location": str(rec.location), "order": rec.order,
                        "value": val} for rec, val in dec.zero_terms],
        "majorant": dec.majorant_value,
        "potential": dec.potential_value,
        "reconstructed": dec.reconstructed_log_density,
        "log_density": dec.log_density,
        "residual": dec.residual,
        "green_mean": gm, "green_mean_exact": gm_exact,
        "passed": dec.passed(tol) and abs(gm - gm_exact) <= 1e-5,
    }
    if mu is not None:
        bound = gp.zero_quotient_bound(lam, parse_metric(mu), bound_r,
                                       bound_xi, z)
        report["quotient_bound"] = {"lhs": bound.lhs, "rhs": bound.rhs,
                                    "passed": bound.passed}
        report["passed"] = report["passed"] and bound.passed
    return report


def _dichotomy(sequence, mu="poincare", expect_verdict=None) -> dict:
    _expected(expect_verdict, sq.DICHOTOMY_VERDICTS)
    # the exponent is read only on the boundary ladder, which 0j never takes
    rep = sq.dichotomy_scan(sequence(), parse_metric(mu), 4.0, lambda n: 0j)
    return {"kind": "dichotomy", "verdict": rep.verdict,
            "sup_deviation": list(rep.sup_deviation),
            "largest_n": rep.largest_n, "notes": rep.notes,
            "passed": expect_verdict is None or rep.verdict == expect_verdict}


def _schwarz_pick(maps, expect_verdict=None) -> dict:
    _expected(expect_verdict, sq.SCHWARZ_PICK_CLASSES)
    rep = sq.sequential_schwarz_pick(maps, lambda n: 1.0 - 1.0 / n)
    return {"kind": "sequential-schwarz-pick",
            "classification": rep.classification,
            "hypothesis_ok": rep.hypothesis_ok,
            "uniform_ok": rep.uniform_ok,
            "passed": (expect_verdict is None
                       or rep.classification == expect_verdict)}


def _extremal_witness(a=1.0, z=0.5 + 0j) -> dict:
    running, target = sq.extremal_family_witness(a, z)
    gap = float(target - running[-1])
    return {"kind": "witness", "running_max": list(map(float, running)),
            "target": target, "gap": gap, "passed": gap <= 1e-2}


#: family -> runner; the first is the default
SEQUENCE_FAMILIES = {
    "moving-zero": partial(_dichotomy, sq.moving_zero_sequence),
    "weighted": partial(_dichotomy, sq.weighted_sequence),
    "rotations": partial(_schwarz_pick, lambda n: rotation(1.0 / n)),
    "shrinking-automorphisms": partial(
        _schwarz_pick, lambda n: Automorphism(1.0 - 1.0 / n)),
    "extremal-witness": _extremal_witness,
}


def _zero_track(setup, tol_order=1e-2) -> dict:
    seq, mu, points = setup()
    rep = sq.zero_rigidity_track(seq, mu, points, 0j, tol_order=tol_order)
    return {"kind": rep.kind, "orders": list(rep.orders),
            "target": rep.target, "final_gap": rep.final_gap,
            "largest_n": rep.largest_n, "passed": rep.passed}


#: family -> runner; the first is the default
ZERO_TRACKS = {
    "extremal-orders": partial(_zero_track, lambda: (
        sq.MetricSequence(lambda n: mt.mu_max(1.0 + 1.0 / n),
                          "extremal orders 1 + 1/n"),
        mt.mu_max(1.0), lambda n: 0.5 + 0j)),
    "moving-zero": partial(_zero_track, lambda: (
        sq.moving_zero_sequence(), mt.poincare(), lambda n: 0j)),
}


def run_liouville_solve(kappa, problem, R=0.9, n=129, out_csv=None) -> dict:
    sol = lv.solve(problem(R), n=n)
    if out_csv is not None:
        rows = ["x,y,log_density"]
        for i, x in enumerate(sol.xs):
            for j, y in enumerate(sol.ys):
                if sol.mask[i, j]:
                    rows.append(f"{x:.17g},{y:.17g},{sol.u[i, j]:.17g}")
        _atomic_write(out_csv, "\n".join(rows) + "\n")
    return {"kappa": kappa, "R": R, "n": len(sol.xs),
            "iterations": sol.iterations,
            "residual_history": sol.residual_history,
            "step_sizes": sol.step_sizes,
            "krylov_iterations": sol.krylov_iterations,
            "forcing": sol.forcing,
            "start": sol.start, "coarse_difference": sol.coarse_difference,
            "passed": sol.residual_history[-1] <= lv.NEWTON_TOL}


#: kappa -> runner; the first is the default
CURVATURE_PROFILES = {
    "const-4": partial(run_liouville_solve, "const-4", lv.poincare_problem),
    "pinched-5": partial(run_liouville_solve, "pinched-5", lv.pinched_problem),
}


def _at_least(key: str, value: int, low: int) -> int:
    if value < low:
        raise ConfigError(f"key {key!r} must be at least {low}, got {value}")
    return value


def _ball_automorphisms(N=2, seed=0, count=5) -> dict:
    rng = np.random.default_rng(seed)
    e1 = np.eye(_at_least("N", N, 1))[0]
    results = []
    for _ in range(_at_least("count", count, 1)):
        rep = bl.ball_rigidity_check(bl.random_automorphism(N, rng), e1)
        results.append({"all_pass": rep.all_pass,
                        "rate_verdict": rep.metric_rate.verdict.value,
                        "fitted_limit": rep.metric_rate.fitted_limit})
    return {"what": "automorphisms", "results": results,
            "passed": all(r["all_pass"] for r in results)}


def _ball_power(N=2, k=2) -> dict:
    F = bl.embedded_power_map(_at_least("N", N, 1), _at_least("k", k, 2))
    rep = bl.ball_rigidity_check(F, np.eye(N)[0])
    slope = rep.metric_rate.fitted_limit
    limit = -(k * k - 1) / 12.0     # derived in the README
    ok = (rep.metric_rate.verdict is Verdict.BOUNDED_NONZERO
          and abs(slope - limit) <= 0.1 * abs(limit))
    return {"what": "power", "fitted_limit": slope,
            "rate_verdict": rep.metric_rate.verdict.value,
            "cond1": rep.tangential_cluster_ok,
            "cond2a": rep.projection_bounded, "passed": ok}


def _ball_slices(N=2, seed=0, count=20) -> dict:
    rng = np.random.default_rng(seed)
    _at_least("N", N, 1)
    worst = 0.0
    for _ in range(_at_least("count", count, 1)):
        p = rng.normal(size=N) + 1j * rng.normal(size=N)
        p /= bl.norm(p)
        v = rng.normal(size=N) + 1j * rng.normal(size=N)
        if abs(bl.herm(v, p)) < 0.1:
            v = v + p
        sl = bl.geodesic_slice(p, v)
        # ten points, each drawn as (real part, imaginary part)
        draws = rng.uniform(-0.7, 0.7, size=(10, 2))
        zeta = draws[:, 0] + 1j * draws[:, 1]
        err = np.abs(bl.kobayashi_metric(sl(zeta), sl.deriv(zeta))
                     * (1.0 - np.abs(zeta) ** 2) - 1.0)
        worst = max(worst, float(err.max()))
    return {"what": "slices", "max_isometry_error": worst,
            "passed": worst <= 1e-10}


def _ball_band(N=2) -> dict:
    deltas = np.array([10.0 ** (-k) for k in range(1, 5)])
    e1 = np.eye(_at_least("N", N, 1))[0]
    vals = np.abs(bl.distance_band((1.0 - deltas)[:, None] * e1))
    return {"what": "band", "band_values": vals,
            "passed": bool(vals.max() <= 0.7)}


def _ball_geodesic_rate(N=2) -> dict:
    sl = bl.geodesic_slice(np.eye(_at_least("N", N, 1))[0],
                           np.ones(N) / math.sqrt(N))
    rep = bl.geodesic_boundary_check(sl)
    square = bl.DiscMap(tuple([(0j, 0j, 1.0 + 0j)] + [(0j,)] * (N - 1)))
    rep2 = bl.geodesic_boundary_check(square)
    return {"what": "geodesic-rate", "slice_verdict": rep.verdict,
            "square_verdict": rep2.verdict,
            "passed": rep.verdict == "GEODESIC"
            and rep2.verdict == "NOT_GEODESIC"}


def _ball_comparison(N=2) -> dict:
    eye = np.eye(_at_least("N", N, 1))
    # three depths, each with the normal, a tangential and a mixed direction
    z = (1.0 - np.array([0.1, 0.01, 0.001]))[:, None, None] * eye[0]
    v = np.stack([eye[0], eye[min(1, N - 1)], np.ones(N) / math.sqrt(N)])
    ratios = bl.metric_comparison_ratio(z, v).ravel()
    return {"what": "comparison", "ratios": ratios,
            "passed": bool(np.all((0.25 <= ratios) & (ratios <= 4.0)))}


def _ball_custom(map="2,0:1 |", v=None, seed=0, expect_verdict=None) -> dict:
    _expected(expect_verdict)
    F = bl.parse_ball_map(map)
    certified, mx = bl.certify_ball_map(F, seed=seed)
    if not certified:
        return {"what": "custom", "certified": False, "max_modulus": mx,
                "passed": False}
    v = (np.eye(F.n_vars)[0].astype(complex) if v is None
         else np.array([_cast(complex, t, "key 'v'") for t in v.split(",")]))
    rep = bl.ball_rigidity_check(F, v)
    passed = (rep.metric_rate.verdict.value == expect_verdict) \
        if expect_verdict else rep.all_pass
    return {"what": "custom", "certified": True,
            "map": bl.serialize_ball_map(F),
            "rate_verdict": rep.metric_rate.verdict.value,
            "fitted_limit": rep.metric_rate.fitted_limit,
            "cond1": rep.tangential_cluster_ok,
            "cond2a": rep.projection_bounded, "passed": passed}


#: what -> runner; the first is the default
BALL_CHECKS = {
    "automorphisms": _ball_automorphisms,
    "power": _ball_power,
    "slices": _ball_slices,
    "band": _ball_band,
    "geodesic-rate": _ball_geodesic_rate,
    "comparison": _ball_comparison,
    "custom": _ball_custom,
}


@dataclass(frozen=True)
class CommandSpec:
    runner: object           # a runner, or a table {selector value: runner}
    selector: str | None = None   # the key that picks from the table
    profile: bool = False         # the report carries radial samples


COMMANDS = {
    "rigidity-scan": CommandSpec(run_rigidity_scan, profile=True),
    "verify-harnack": CommandSpec(run_verify_harnack),
    "golusin": CommandSpec(run_golusin),
    "burns-krantz": CommandSpec(run_burns_krantz, profile=True),
    "pj-decompose": CommandSpec(run_pj_decompose),
    "sequence-scan": CommandSpec(SEQUENCE_FAMILIES, selector="family"),
    "zero-track": CommandSpec(ZERO_TRACKS, selector="family"),
    "liouville-solve": CommandSpec(CURVATURE_PROFILES, selector="kappa"),
    "ball-check": CommandSpec(BALL_CHECKS, selector="what"),
}


def run(cfg: ExperimentConfig, out_dir: Path | None = None) -> int:
    """Execute a parsed config; returns the process exit code."""
    if out_dir is None:
        out_dir = Path(os.environ.get(ENV_OUT_DIR, "."))
    params = dict(cfg.params)
    try:
        runner = _select_runner(cfg.command, params)
        args = {param.name: _read(params[key], param.default, key)
                for key, param in _keys(runner).items() if key in params}
        if "out_csv" in args:
            # auxiliary outputs resolve against the output directory too
            args["out_csv"] = out_dir / args["out_csv"]
        report = runner(**args)
    except DiskrigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["command"] = cfg.command
    report["parameters"] = params
    report["tool_version"] = __version__
    if "out" in params:
        write_report(report, out_dir / params["out"])
    if "profile" in params:
        emit_profile(report, out_dir / params["profile"])
    return 0 if report.get("passed", False) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="diskrig",
        description="Run a named verification experiment from a config file.")
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default ${ENV_OUT_DIR} or .)")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else None
    return run(cfg, out_dir=out_dir)


if __name__ == "__main__":
    sys.exit(main())
