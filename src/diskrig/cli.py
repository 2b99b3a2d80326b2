"""Batch front-end: named experiments from flat config files.

A config is plain text, one ``key = value`` per line, with a mandatory
``command`` key naming the experiment.  Unknown keys are rejected.
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
import dataclasses
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: tuple[tuple[str, str], ...]

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def _read(self, key: str, cast, default):
        raw = self.get(key)
        return default if raw is None else _cast(cast, raw, f"key {key!r}")

    def getfloat(self, key: str, default: float) -> float:
        return self._read(key, float, default)

    def getint(self, key: str, default: int) -> int:
        return self._read(key, int, default)

    def getbool(self, key: str, default: bool) -> bool:
        raw = self.get(key)
        if raw is None:
            return default
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for key {key!r}")

    def getcomplex(self, key: str, default: complex) -> complex:
        return self._read(key, complex, default)


def parse_config(text: str) -> ExperimentConfig:
    command = None
    params = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key == "command":
            command = value
        else:
            params.append((key, value))
    if command is None:
        raise ConfigError("config must set 'command'")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"known: {', '.join(sorted(COMMANDS))}")
    allowed = COMMANDS[command].allowed_keys
    for key, _ in params:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for command {command!r}; "
                              f"allowed: {', '.join(sorted(allowed))}")
    return ExperimentConfig(command=command, params=tuple(sorted(params)))


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"command = {cfg.command}"]
    lines.extend(f"{k} = {v}" for k, v in sorted(cfg.params))
    return "\n".join(lines) + "\n"


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
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
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


def _rate_dict(rep) -> dict:
    return {"verdict": rep.verdict.value, "fitted_limit": rep.fitted_limit,
            "fitted_slope": rep.fitted_slope,
            "exponent": rep.exponent_tested}


def run_rigidity_scan(cfg: ExperimentConfig) -> dict:
    lam = parse_metric(cfg.get("lam", "pullback(zpow 2)"))
    mu = parse_metric(cfg.get("mu", "poincare"))
    c = cfg.getfloat("c", 4.0)
    rep = hk.rigidity_scan(lam, mu, c, angle=cfg.getfloat("angle", 0.0),
                           k_min=cfg.getint("k-min", 4),
                           k_max=cfg.getint("k-max", 20))
    passed = True
    expect = cfg.get("expect-verdict")
    if expect is not None:
        passed = rep.verdict.value == expect
    expect_limit = cfg.getfloat("expect-limit", None)
    if expect_limit is not None:
        tol = cfg.getfloat("limit-tol", 0.02)
        passed = passed and abs(rep.fitted_limit - expect_limit) <= \
            tol * max(1.0, abs(expect_limit))
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


def run_verify_harnack(cfg: ExperimentConfig) -> dict:
    include = cfg.getbool("include-liouville", True)
    tol = cfg.getfloat("tol", 1e-7)
    results = hk.run_catalog(include_liouville=include, tol=tol,
                             liouville_n=cfg.getint("liouville-n", 97))
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


def run_golusin(cfg: ExperimentConfig) -> dict:
    lam = parse_metric(cfg.get("lam", "pullback(zpow 2)"))
    rep = hk.check_golusin(lam, tol=cfg.getfloat("tol", 1e-9))
    return {"passed": rep.passed, "max_violation": rep.max_violation,
            "lam0": rep.details["lam0"], "n_checked": rep.n_checked}


def run_burns_krantz(cfg: ExperimentConfig) -> dict:
    f = parse_map(cfg.get("map", "id"))
    disp, inv = hk.burns_krantz_check(f, k_min=cfg.getint("k-min", 4),
                                      k_max=cfg.getint("k-max", 20))
    implication = (disp.verdict is not Verdict.VANISHES
                   or inv.verdict is Verdict.VANISHES)
    return {"displacement_rate": _rate_dict(disp),
            "invariant_rate": _rate_dict(inv),
            "implication_holds": implication, "passed": implication,
            "profile_samples": [(1.0 - t, v) for t, v in inv.samples]}


def run_pj_decompose(cfg: ExperimentConfig) -> dict:
    lam = parse_metric(cfg.get("lam", "poincare"))
    R = cfg.getfloat("R", 0.9)
    z = cfg.getcomplex("z", 0.3 + 0j)
    grid = PolarGrid(0j, R, cfg.getint("n-r", 220), cfg.getint("n-t", 440))
    dec = gp.pj_decompose(lam, R, z, grid=grid)
    tol = cfg.getfloat("tol", 1e-3)
    gm = gp.green_mean(R, z, grid=PolarGrid(0j, R, 900, 1800))
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
    mu_expr = cfg.get("mu")
    if mu_expr is not None:
        mu = parse_metric(mu_expr)
        bound = gp.zero_quotient_bound(lam, mu, cfg.getfloat("bound-r", 0.8),
                                       cfg.getcomplex("bound-xi", 0j), z)
        report["quotient_bound"] = {"lhs": bound.lhs, "rhs": bound.rhs,
                                    "passed": bound.passed}
        report["passed"] = report["passed"] and bound.passed
    return report


_SEQ_FAMILIES = {
    "weighted": sq.weighted_sequence,
    "moving-zero": sq.moving_zero_sequence,
}


def run_sequence_scan(cfg: ExperimentConfig) -> dict:
    family = cfg.get("family", "moving-zero")
    c = cfg.getfloat("c", 4.0)
    expect = cfg.get("expect-verdict")
    if family in _SEQ_FAMILIES:
        seq = _SEQ_FAMILIES[family]()
        mu = parse_metric(cfg.get("mu", "poincare"))
        rep = sq.dichotomy_scan(seq, mu, c, lambda n: 0j)
        passed = expect is None or rep.verdict == expect
        return {"kind": "dichotomy", "verdict": rep.verdict,
                "sup_deviation": list(rep.sup_deviation),
                "largest_n": rep.largest_n, "notes": rep.notes,
                "passed": passed}
    if family == "rotations":
        rep = sq.sequential_schwarz_pick(lambda n: rotation(1.0 / n),
                                         lambda n: 1.0 - 1.0 / n)
    elif family == "shrinking-automorphisms":
        rep = sq.sequential_schwarz_pick(lambda n: Automorphism(1.0 - 1.0 / n),
                                         lambda n: 1.0 - 1.0 / n)
    elif family == "extremal-witness":
        running, target = sq.extremal_family_witness(
            cfg.getfloat("a", 1.0), cfg.getcomplex("z", 0.5 + 0j))
        gap = float(target - running[-1])
        return {"kind": "witness", "running_max": list(map(float, running)),
                "target": target, "gap": gap, "passed": gap <= 1e-2}
    else:
        raise ConfigError(f"unknown sequence family {family!r}")
    passed = expect is None or rep.classification == expect
    return {"kind": "sequential-schwarz-pick",
            "classification": rep.classification,
            "hypothesis_ok": rep.hypothesis_ok,
            "uniform_ok": rep.uniform_ok, "passed": passed}


def run_zero_track(cfg: ExperimentConfig) -> dict:
    family = cfg.get("family", "extremal-orders")
    tol = cfg.getfloat("tol-order", 1e-2)
    if family == "extremal-orders":
        seq = sq.MetricSequence(lambda n: mt.mu_max(1.0 + 1.0 / n),
                                "extremal orders 1 + 1/n")
        rep = sq.zero_rigidity_track(seq, mt.mu_max(1.0),
                                     lambda n: 0.5 + 0j, 0j, tol_order=tol)
    elif family == "moving-zero":
        rep = sq.zero_rigidity_track(sq.moving_zero_sequence(), mt.poincare(),
                                     lambda n: 0j, 0j, tol_order=tol)
    else:
        raise ConfigError(f"unknown zero-track family {family!r}")
    return {"kind": rep.kind, "orders": list(rep.orders),
            "target": rep.target, "final_gap": rep.final_gap,
            "largest_n": rep.largest_n, "passed": rep.passed}


def run_liouville_solve(cfg: ExperimentConfig) -> dict:
    name = cfg.get("kappa", "const-4")
    R = cfg.getfloat("R", 0.9)
    if name == "const-4":
        problem = lv.poincare_problem(R)
    elif name == "pinched-5":
        problem = lv.pinched_problem(R)
    else:
        raise ConfigError(f"unknown curvature profile {name!r}")
    sol = lv.solve(problem, n=cfg.getint("n", 129))
    out_csv = cfg.get("out-csv")
    if out_csv is not None:
        rows = ["x,y,log_density"]
        for i, x in enumerate(sol.xs):
            for j, y in enumerate(sol.ys):
                if sol.mask[i, j]:
                    rows.append(f"{x:.17g},{y:.17g},{sol.u[i, j]:.17g}")
        _atomic_write(Path(out_csv), "\n".join(rows) + "\n")
    return {"kappa": name, "R": R, "n": len(sol.xs),
            "iterations": sol.iterations,
            "residual_history": sol.residual_history,
            "step_sizes": sol.step_sizes,
            "krylov_iterations": sol.krylov_iterations,
            "passed": sol.converged}


def run_ball_check(cfg: ExperimentConfig) -> dict:
    what = cfg.get("what", "automorphisms")
    n = cfg.getint("N", 2)
    seed = cfg.getint("seed", 0)
    rng = np.random.default_rng(seed)
    if what == "automorphisms":
        count = cfg.getint("count", 5)
        results = []
        for _ in range(count):
            F = bl.random_automorphism(n, rng)
            rep = bl.ball_rigidity_check(F, np.eye(n)[0])
            results.append({"all_pass": rep.all_pass,
                            "rate_verdict": rep.metric_rate.verdict.value,
                            "fitted_limit": rep.metric_rate.fitted_limit})
        return {"what": what, "results": results,
                "passed": all(r["all_pass"] for r in results)}
    if what == "power":
        F = bl.embedded_power_map(n, cfg.getint("k", 2))
        rep = bl.ball_rigidity_check(F, np.eye(n)[0])
        slope = rep.metric_rate.fitted_limit
        ok = (rep.metric_rate.verdict is Verdict.BOUNDED_NONZERO
              and abs(slope + 0.25) <= 0.1 * 0.25)
        return {"what": what, "fitted_limit": slope,
                "rate_verdict": rep.metric_rate.verdict.value,
                "cond1": rep.tangential_cluster_ok,
                "cond2a": rep.projection_bounded, "passed": ok}
    if what == "slices":
        count = cfg.getint("count", 20)
        worst = 0.0
        for _ in range(count):
            p = rng.normal(size=n) + 1j * rng.normal(size=n)
            p /= bl.norm(p)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            if abs(bl.herm(v, p)) < 0.1:
                v = v + p
            sl = bl.geodesic_slice(p, v)
            for _ in range(10):
                zeta = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
                err = abs(bl.kobayashi_metric(sl(zeta), sl.deriv(zeta))
                          * (1.0 - abs(zeta) ** 2) - 1.0)
                worst = max(worst, err)
        return {"what": what, "max_isometry_error": worst,
                "passed": worst <= 1e-10}
    if what == "band":
        deltas = [10.0 ** (-k) for k in range(1, 5)]
        vals = [abs(bl.distance_band(np.eye(n)[0] * (1.0 - d)))
                for d in deltas]
        return {"what": what, "band_values": vals,
                "passed": max(vals) <= 0.7}
    if what == "geodesic-rate":
        sl = bl.geodesic_slice(np.eye(n)[0],
                               np.ones(n) / math.sqrt(n))
        rep = bl.geodesic_boundary_check(sl)
        square = bl.DiscMap(tuple([(0j, 0j, 1.0 + 0j)]
                                  + [(0j,)] * (n - 1)))
        rep2 = bl.geodesic_boundary_check(square)
        return {"what": what, "slice_verdict": rep.verdict,
                "square_verdict": rep2.verdict,
                "passed": rep.verdict == "GEODESIC"
                and rep2.verdict == "NOT_GEODESIC"}
    if what == "comparison":
        vals = []
        for d in (0.1, 0.01, 0.001):
            z = (1.0 - d) * np.eye(n)[0]
            for v in (np.eye(n)[0], np.eye(n)[min(1, n - 1)],
                      np.ones(n) / math.sqrt(n)):
                vals.append(bl.metric_comparison_ratio(z, v))
        ok = all(0.25 <= r <= 4.0 for r in vals)
        return {"what": what, "ratios": vals, "passed": ok}
    if what == "custom":
        F = bl.parse_ball_map(cfg.get("map", "2,0:1 |"))
        certified, mx = bl.certify_ball_map(F, seed=seed)
        if not certified:
            return {"what": what, "certified": False, "max_modulus": mx,
                    "passed": False}
        v_text = cfg.get("v")
        v = (np.eye(F.n_vars)[0].astype(complex) if v_text is None
             else np.array([_cast(complex, t, "key 'v'")
                            for t in v_text.split(",")]))
        rep = bl.ball_rigidity_check(F, v)
        expect = cfg.get("expect-verdict")
        passed = (rep.metric_rate.verdict.value == expect) if expect \
            else rep.all_pass
        return {"what": what, "certified": True,
                "map": bl.serialize_ball_map(F),
                "rate_verdict": rep.metric_rate.verdict.value,
                "fitted_limit": rep.metric_rate.fitted_limit,
                "cond1": rep.tangential_cluster_ok,
                "cond2a": rep.projection_bounded, "passed": passed}
    raise ConfigError(f"unknown ball check {what!r}")


@dataclass(frozen=True)
class CommandSpec:
    runner: object
    allowed_keys: frozenset
    covers: tuple[str, ...]


COMMANDS = {
    "rigidity-scan": CommandSpec(
        run_rigidity_scan,
        frozenset({"lam", "mu", "c", "angle", "k-min", "k-max",
                   "expect-verdict", "expect-limit", "limit-tol",
                   "out", "profile"}),
        ("harnack.rigidity_scan", "harnack.boundary_schwarz_scan",
         "harnack.identity_spot_check")),
    "verify-harnack": CommandSpec(
        run_verify_harnack,
        frozenset({"include-liouville", "tol", "liouville-n", "out"}),
        ("harnack.check_harnack", "harnack.cubic_check",
         "harnack.verify_barrier_pde")),
    "golusin": CommandSpec(
        run_golusin,
        frozenset({"lam", "tol", "out"}),
        ("harnack.check_golusin",)),
    "burns-krantz": CommandSpec(
        run_burns_krantz,
        frozenset({"map", "k-min", "k-max", "out", "profile"}),
        ("harnack.burns_krantz_check",)),
    "pj-decompose": CommandSpec(
        run_pj_decompose,
        frozenset({"lam", "mu", "R", "z", "n-r", "n-t", "tol",
                   "bound-r", "bound-xi", "out"}),
        ("greenpj.pj_decompose", "greenpj.green_mean",
         "greenpj.harmonic_majorant", "greenpj.zero_quotient_bound")),
    "sequence-scan": CommandSpec(
        run_sequence_scan,
        frozenset({"family", "mu", "c", "a", "z", "expect-verdict",
                   "out"}),
        ("sequences.dichotomy_scan", "sequences.sequential_schwarz_pick",
         "sequences.extremal_family_witness")),
    "zero-track": CommandSpec(
        run_zero_track,
        frozenset({"family", "tol-order", "out"}),
        ("sequences.zero_rigidity_track",)),
    "liouville-solve": CommandSpec(
        run_liouville_solve,
        frozenset({"kappa", "R", "n", "out-csv", "out"}),
        ("liouville.solve",)),
    "ball-check": CommandSpec(
        run_ball_check,
        frozenset({"what", "N", "seed", "count", "k", "map", "v",
                   "expect-verdict", "out"}),
        ("ball.ball_rigidity_check", "ball.geodesic_boundary_check",
         "ball.metric_comparison_ratio", "ball.distance_band")),
}

#: checkers that must each be reachable from exactly one subcommand
AUDITED_CHECKERS = (
    "harnack.check_harnack", "harnack.check_golusin",
    "harnack.rigidity_scan", "harnack.boundary_schwarz_scan",
    "harnack.identity_spot_check",
    "harnack.burns_krantz_check", "harnack.cubic_check",
    "harnack.verify_barrier_pde",
    "sequences.dichotomy_scan", "sequences.sequential_schwarz_pick",
    "sequences.zero_rigidity_track", "sequences.extremal_family_witness",
    "greenpj.pj_decompose", "greenpj.green_mean",
    "greenpj.harmonic_majorant", "greenpj.zero_quotient_bound",
    "ball.ball_rigidity_check", "ball.geodesic_boundary_check",
    "ball.metric_comparison_ratio", "ball.distance_band",
    "liouville.solve",
)


def run(cfg: ExperimentConfig, out_dir: Path | None = None) -> int:
    """Execute a parsed config; returns the process exit code."""
    if out_dir is None:
        out_dir = Path(os.environ.get(ENV_OUT_DIR, "."))
    raw_csv = cfg.get("out-csv")
    if raw_csv is not None and not os.path.isabs(raw_csv):
        # auxiliary outputs resolve against the output directory too
        cfg = dataclasses.replace(
            cfg, params=tuple((k, str(out_dir / v) if k == "out-csv" else v)
                              for k, v in cfg.params))
    try:
        report = COMMANDS[cfg.command].runner(cfg)
    except DiskrigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["command"] = cfg.command
    report["parameters"] = dict(cfg.params)
    report["tool_version"] = __version__
    out = cfg.get("out")
    if out is not None:
        write_report(report, out_dir / out)
    profile = cfg.get("profile")
    if profile is not None:
        emit_profile(report, out_dir / profile)
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
