import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from diskrig import cli
from diskrig import greenpj as gp
from diskrig.numerics import PolarGrid


def run_text(text: str, tmp_path: Path) -> int:
    return cli.run(cli.parse_config(text), out_dir=tmp_path)


#: (command, family, key) of every key that only retuned a verdict's pass
#: threshold or sampling ladder
RETUNING_KEYS = [
    ("rigidity-scan", None, "k-min"),
    ("rigidity-scan", None, "k-max"),
    ("rigidity-scan", None, "limit-tol"),
    ("burns-krantz", None, "k-min"),
    ("burns-krantz", None, "k-max"),
    ("verify-harnack", None, "tol"),
    ("verify-harnack", None, "include-liouville"),
    ("golusin", None, "tol"),
    ("pj-decompose", None, "tol"),
    ("zero-track", "extremal-orders", "tol-order"),
    ("zero-track", "moving-zero", "tol-order"),
]


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config("command = golusin\nwibble = 3\n")

    @pytest.mark.parametrize("command, selector, table", [
        ("ball-check", "what", cli.BALL_CHECKS),
        ("sequence-scan", "family", cli.SEQUENCE_FAMILIES),
        ("zero-track", "family", cli.ZERO_TRACKS),
        ("liouville-solve", "kappa", cli.CURVATURE_PROFILES),
    ])
    def test_unknown_selector_lists_known_values(self, command, selector,
                                                 table):
        with pytest.raises(cli.ConfigError,
                           match=f"unknown {selector} 'wibble'") as err:
            cli.parse_config(f"command = {command}\n{selector} = wibble\n")
        assert all(name in str(err.value) for name in table)

    def test_key_set_twice_rejected(self):
        with pytest.raises(cli.ConfigError, match="'lam' is set twice"):
            cli.parse_config("command = golusin\nlam = poincare\nlam = poincare\n")

    def test_runner_keywords_are_the_keys(self):
        # each parameter expect_verdict of a runner is the key
        # expect-verdict, nothing else
        cfg = cli.parse_config("command = rigidity-scan\n"
                               "expect-verdict = VANISHES\n")
        assert cfg.params == (("expect-verdict", "VANISHES"),)
        with pytest.raises(cli.ConfigError,
                           match="unknown key 'expect_verdict'"):
            cli.parse_config("command = rigidity-scan\n"
                             "expect_verdict = VANISHES\n")

    def test_unknown_command_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown command"):
            cli.parse_config("command = frobnicate\n")

    def test_missing_command_rejected(self):
        with pytest.raises(cli.ConfigError, match="command"):
            cli.parse_config("lam = poincare\n")

    def test_comments_and_blanks_ignored(self):
        cfg = cli.parse_config("# header\n\ncommand = golusin\n# tail\n")
        assert cfg.command == "golusin"

    def test_metric_expressions(self):
        assert cli.parse_metric("poincare").name == "poincare"
        assert cli.parse_metric("mu_max(0.5)").zeros[0].order == 0.5
        assert cli.parse_metric("scale(0.9, poincare)").density(0j) == \
            pytest.approx(0.9)
        assert cli.parse_metric("pullback(zpow 2)").zeros[0].order == 1.0
        assert cli.parse_metric("exp_weight(example4_1(3))").name == \
            "weighted[3]"
        with pytest.raises(cli.ConfigError):
            cli.parse_metric("nonsense(3)")


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code = run_text("command = golusin\nlam = pullback(zpow 2)\n",
                        tmp_path)
        assert code == 0

    def test_failed_expectation_is_one(self, tmp_path):
        code = run_text(
            "command = rigidity-scan\nlam = pullback(auto 0.3+0.1j 0.0)\n"
            "expect-verdict = BOUNDED_NONZERO\n", tmp_path)
        assert code == 1

    def test_malformed_metric_is_two(self, tmp_path):
        code = run_text("command = golusin\nlam = wibble(2)\n", tmp_path)
        assert code == 2

    def test_main_bad_config_file(self):
        assert cli.main(["/nonexistent/config.cfg"]) == 2

    @pytest.mark.parametrize("text", [
        "command = rigidity-scan\nc = abc\n",
        "command = burns-krantz\nmap = zpow\n",
        "command = burns-krantz\nmap = zpow x\n",
        "command = ball-check\nwhat = custom\nmap = 2,0:1 | 0,1:x\n",
        "command = ball-check\nwhat = custom\nmap = 2,0:1 |\nv = 1,0,0\n",
        "command = rigidity-scan\nexpect-limit = half\n",
        "command = ball-check\nwhat = band\nN = 0\n",
        "command = ball-check\nwhat = power\nk = 1\n",
    ])
    def test_refused_input_is_two(self, text, tmp_path, capsys):
        assert run_text(text, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, family, key", RETUNING_KEYS)
    def test_retuning_key_is_two(self, command, family, key, tmp_path, capsys):
        # a pass threshold or a ladder is a library constant, not a key
        selected = {"family": family} if family else {}
        cfg = tmp_path / "retune.cfg"
        cfg.write_text(f"command = {command}\n{key} = 1\n"
                       + "".join(f"{k} = {v}\n" for k, v in selected.items()))
        assert cli.main([str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r}" in err
        allowed = err.split("allowed: ")[1].strip().split(", ")
        runner = cli._select_runner(command, selected)
        assert key not in allowed
        assert set(cli._keys(runner)) | {"out"} <= set(allowed)

    def test_loosened_limit_is_two(self, tmp_path):
        # the fitted limit of z^2 is -0.5; a config cannot widen the
        # tolerance until 0.5 passes
        text = ("command = rigidity-scan\nlam = pullback(zpow 2)\n"
                "expect-verdict = BOUNDED_NONZERO\nexpect-limit = 0.5\n"
                "out = scan.json\n")
        assert run_text(text, tmp_path) == 1
        cfg = tmp_path / "loose.cfg"
        cfg.write_text(text + "limit-tol = 2\n")
        out = tmp_path / "loose"
        assert cli.main([str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_map_parameter_is_named(self, tmp_path, capsys):
        text = "command = rigidity-scan\nlam = pullback(auto 0.3 nan)\n"
        assert run_text(text, tmp_path) == 2
        err = capsys.readouterr().err
        assert "auto parameter theta = nan is not finite" in err

    @pytest.mark.parametrize("ball_input, named", [
        ("map = 2,0:nan |\nv = 1,0\n", "'2,0:nan': coefficient (nan+0j) is not finite"),
        ("map = 2,0:1 |\nv = nan,0\n", "v[0] = (nan+0j) is not finite"),
    ], ids=["coefficient", "direction"])
    def test_non_finite_ball_input_is_named(self, ball_input, named, tmp_path,
                                            capsys):
        # refused before any arithmetic: no warning, no report
        text = f"command = ball-check\nwhat = custom\n{ball_input}out = ball.json\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_text(text, tmp_path) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "ball.json").exists()

    @pytest.mark.parametrize("command, beta", [("golusin", "nan"),
                                               ("rigidity-scan", "inf")])
    def test_non_finite_zero_order_is_two(self, command, beta, tmp_path, capsys):
        # the zero of mu_max(beta) is refused before any arithmetic: no
        # warning, and no report to hold a NaN, which is not JSON
        text = f"command = {command}\nlam = mu_max({beta})\nout = nan.json\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_text(text, tmp_path) == 2
        assert f"zero order must be finite and positive, got {beta}" in \
            capsys.readouterr().err
        assert not (tmp_path / "nan.json").exists()

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_non_finite_pinching_constant_is_two(self, c, tmp_path, capsys):
        # no warning, and no report to hold a NaN rate
        text = f"command = rigidity-scan\nc = {c}\nout = c.json\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_text(text, tmp_path) == 2
        assert f"c must be finite and >= 4, got {c}" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("what", ["automorphisms", "slices"])
    def test_vacuous_ball_check_is_two(self, what, tmp_path, capsys):
        # count = 0 would check nothing and pass
        text = f"command = ball-check\nwhat = {what}\ncount = 0\n"
        assert run_text(text, tmp_path) == 2
        assert "'count'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("command = ball-check\nwhat = power\nexpect-verdict = VANISHES\n",
         "expect-verdict"),
        ("command = ball-check\nwhat = automorphisms\n"
         "expect-verdict = BOUNDED_NONZERO\n", "expect-verdict"),
        ("command = ball-check\nwhat = band\nseed = 3\n", "seed"),
        ("command = ball-check\nwhat = band\ncount = 2\n", "count"),
        ("command = ball-check\nwhat = band\nk = 3\n", "k"),
        ("command = ball-check\nwhat = band\nmap = 2,0:1 |\n", "map"),
        ("command = ball-check\nwhat = band\nv = 1,0\n", "v"),
        ("command = ball-check\nwhat = custom\nN = 7\n", "N"),
        ("command = sequence-scan\nfamily = extremal-witness\n"
         "expect-verdict = UNIFORM_CONVERGENCE\n", "expect-verdict"),
        ("command = sequence-scan\nfamily = rotations\nmu = wibble\n", "mu"),
        ("command = sequence-scan\nfamily = rotations\nc = 5\n", "c"),
        ("command = sequence-scan\nfamily = moving-zero\na = 0.5\n", "a"),
        ("command = sequence-scan\nfamily = moving-zero\nz = 0.3\n", "z"),
        ("command = sequence-scan\nfamily = moving-zero\nc = 4\n", "c"),
        ("command = sequence-scan\nfamily = weighted\nc = 4\n", "c"),
    ])
    def test_key_the_selected_runner_does_not_read_is_two(self, text, key,
                                                         tmp_path):
        with pytest.raises(cli.ConfigError, match=f"unknown key '{key}'"):
            cli.parse_config(text)
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(text)
        assert cli.main([str(cfg), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, known", [
        ("command = rigidity-scan\nexpect-verdict = BOUNDED_NONZER\n",
         "BOUNDED_NONZERO"),
        # each family knows only the verdicts of its own scan
        ("command = sequence-scan\nfamily = moving-zero\n"
         "expect-verdict = automorphism-like\n", "FADING_ZEROS"),
        ("command = sequence-scan\nfamily = rotations\n"
         "expect-verdict = FADING_ZEROS\n", "automorphism-like"),
        ("command = ball-check\nwhat = custom\nexpect-verdict = vanishes\n",
         "VANISHES"),
    ])
    def test_unknown_expected_verdict_is_two(self, text, known, tmp_path,
                                             capsys):
        assert run_text(text, tmp_path) == 2
        err = capsys.readouterr().err
        assert "unknown expect-verdict" in err and known in err
        assert not list(tmp_path.iterdir())

    def test_undominated_nehari_schwarz_pair_is_two(self, tmp_path, capsys):
        # z^2 after an automorphism moving 0 lacks the zero of mu at 0
        text = ("command = rigidity-scan\nlam = pullback(compose zpow 2 auto 0.3 0.0)\n"
                "mu = pullback(zpow 2)\nout = scan.json\n")
        assert run_text(text, tmp_path) == 2
        assert "not dominated" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_seed_is_unknown_key_where_unread(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("command = rigidity-scan\nseed = 3\n")
        assert cli.main([str(cfg)]) == 2

    def test_main_end_to_end(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("command = rigidity-scan\nlam = pullback(zpow 2)\n"
                       "expect-verdict = BOUNDED_NONZERO\n"
                       "expect-limit = -0.5\nout = scan.json\n"
                       "profile = scan.dat\n")
        assert cli.main([str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "scan.json").exists()


class TestReports:
    def test_report_written_even_on_failure(self, tmp_path):
        code = run_text(
            "command = rigidity-scan\nlam = pullback(auto 0.2 0.0)\n"
            "expect-verdict = BOUNDED_NONZERO\nout = rep.json\n",
            tmp_path)
        assert code == 1
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["passed"] is False

    def test_determinism_byte_identical(self, tmp_path):
        text = ("command = rigidity-scan\nlam = pullback(feps 0.05)\n"
                "out = det.json\n")
        run_text(text, tmp_path)
        first = (tmp_path / "det.json").read_bytes()
        run_text(text, tmp_path)
        assert (tmp_path / "det.json").read_bytes() == first

    def test_profile_rows_decreasing_and_sidecar_parses(self, tmp_path):
        run_text("command = rigidity-scan\nlam = pullback(zpow 2)\n"
                 "out = p.json\nprofile = p.dat\n", tmp_path)
        rows = [line.split() for line in
                (tmp_path / "p.dat").read_text().splitlines()]
        firsts = [float(a) for a, _ in rows]
        assert all(b < a for a, b in zip(firsts, firsts[1:]))
        sidecar = json.loads((tmp_path / "p.dat.meta.json").read_text())
        assert sidecar["command"] == "rigidity-scan"
        assert sidecar["tool_version"]

    def test_sidecar_round_trips_through_parser(self, tmp_path):
        text = ("command = rigidity-scan\nlam = pullback(zpow 2)\n"
                "out = s.json\nprofile = s.dat\n")
        run_text(text, tmp_path)
        sidecar = json.loads((tmp_path / "s.dat.meta.json").read_text())
        rebuilt = "\n".join([f"command = {sidecar['command']}"]
                            + [f"{k} = {v}"
                               for k, v in sidecar["parameters"].items()])
        assert cli.parse_config(rebuilt) == cli.parse_config(text)

    def test_cubic_family_profile_asymptote(self, tmp_path):
        # the scaled profile values approach the verified constant -2 eps
        eps = 1.0 / 12.0
        run_text(f"command = rigidity-scan\nlam = pullback(feps {eps!r})\n"
                 "profile = f.dat\nout = f.json\n", tmp_path)
        rows = [tuple(map(float, line.split()))
                for line in (tmp_path / "f.dat").read_text().splitlines()]
        mid = [v for e, v in rows if 1e-4 < e < 1e-2]
        assert mid
        assert abs(mid[-1] + 2.0 * eps) <= 0.01 * 2.0 * eps


#: the checkers; some command must call each one
CHECKERS = (
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

#: keys added to each command's config: a VANISHES scan is spot-checked,
#: a second metric brings the quotient bound, and the rest keeps it small
COVERAGE_KEYS = {
    "rigidity-scan": "lam = pullback(auto 0.3+0.1j 0.7)\n",
    "pj-decompose": "mu = poincare\nn-r = 80\nn-t = 160\n",
    "liouville-solve": "n = 65\n",
}


class TestCoverage:
    def test_every_checker_is_called_from_some_command(self, tmp_path,
                                                       monkeypatch):
        calls = dict.fromkeys(CHECKERS, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the CLI and the checkers look each other up as module attributes
        for name in CHECKERS:
            module, fn = name.split(".")
            module = importlib.import_module(f"diskrig.{module}")
            monkeypatch.setattr(module, fn, counted(name, getattr(module, fn)))
        for command, spec in cli.COMMANDS.items():
            for choice in spec.runner if spec.selector else [None]:
                text = f"command = {command}\n" + COVERAGE_KEYS.get(command, "")
                if choice is not None:
                    text += f"{spec.selector} = {choice}\n"
                run_text(text, tmp_path)
        assert [name for name, n in calls.items() if n == 0] == []

    def test_subcommand_names(self):
        assert set(cli.COMMANDS) == {
            "verify-harnack", "golusin", "rigidity-scan", "pj-decompose",
            "sequence-scan", "zero-track", "liouville-solve", "ball-check",
            "burns-krantz"}


class TestSubcommands:
    @pytest.mark.parametrize("text", [
        "command = burns-krantz\nmap = id\n",
        "command = sequence-scan\nfamily = moving-zero\n"
        "expect-verdict = FADING_ZEROS\n",
        "command = sequence-scan\nfamily = rotations\n"
        "expect-verdict = automorphism-like\n",
        "command = sequence-scan\nfamily = extremal-witness\nz = 0.5\n",
        "command = sequence-scan\nfamily = weighted\n"
        "expect-verdict = INCONCLUSIVE\n",
        "command = sequence-scan\nfamily = shrinking-automorphisms\n"
        "expect-verdict = constant-like\n",
        "command = zero-track\nfamily = extremal-orders\n",
        "command = zero-track\nfamily = moving-zero\n",
        "command = ball-check\nwhat = slices\nN = 3\n",
        "command = ball-check\nwhat = band\n",
        "command = ball-check\nwhat = power\n",
        "command = ball-check\nwhat = geodesic-rate\n",
        "command = ball-check\nwhat = comparison\n",
        "command = ball-check\nwhat = custom\nmap = 2,0:1 |\n"
        "expect-verdict = BOUNDED_NONZERO\n",
        "command = rigidity-scan\nlam = pullback(auto 0.3+0.1j 0.7)\n"
        "expect-verdict = VANISHES\n",
        "command = liouville-solve\nkappa = const-4\nn = 65\n",
    ])
    def test_pass_paths(self, text, tmp_path):
        assert run_text(text, tmp_path) == 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ball_power_limit_follows_k(self, k, tmp_path):
        # the rate of the power map z1^k is -(k^2 - 1)/12 (README)
        code = run_text(f"command = ball-check\nwhat = power\nk = {k}\n"
                        "out = power.json\n", tmp_path)
        assert code == 0
        rep = json.loads((tmp_path / "power.json").read_text())
        assert rep["fitted_limit"] == pytest.approx(-(k * k - 1) / 12.0,
                                                    rel=1e-3)

    def test_liouville_csv_export(self, tmp_path):
        code = run_text("command = liouville-solve\nkappa = const-4\nn = 65\n"
                        f"out-csv = {tmp_path}/sol.csv\n", tmp_path)
        assert code == 0
        lines = (tmp_path / "sol.csv").read_text().splitlines()
        assert lines[0] == "x,y,log_density"
        assert len(lines) > 2000

    def test_liouville_report_echoes_config_as_written(self, tmp_path):
        # out-csv resolves against the output directory, but the report
        # records the key as the config gave it
        text = ("command = liouville-solve\nn = 65\nout-csv = sol.csv\n"
                "out = lv.json\n")
        reports = []
        for sub in ("a", "b"):
            assert run_text(text, tmp_path / sub) == 0
            assert (tmp_path / sub / "sol.csv").exists()
            reports.append((tmp_path / sub / "lv.json").read_bytes())
        assert reports[0] == reports[1]

    def test_liouville_report_records_each_step(self, tmp_path):
        code = run_text("command = liouville-solve\nkappa = pinched-5\nn = 65\n"
                        "out = lv.json\n", tmp_path)
        assert code == 0
        rep = json.loads((tmp_path / "lv.json").read_text())
        steps = rep["iterations"]
        assert len(rep["residual_history"]) == steps + 1
        assert len(rep["step_sizes"]) == steps
        assert rep["resolution"] == list(cli.lv.resolution(65))
        assert 0.0 < rep["error_estimate"] <= cli.lv.ESTIMATE_TOL

    def test_liouville_accepted_at_rounding_floor_fails(self, tmp_path,
                                                         monkeypatch):
        # solve accepts a stalled iteration up to 1e-9; the report passes
        # only at the Newton tolerance 1e-10
        solve = cli.lv.solve

        def solve_at_floor(problem, n):
            sol = solve(problem, n=n)
            sol.residual_history[-1] = 5e-10
            return sol

        monkeypatch.setattr(cli.lv, "solve", solve_at_floor)
        code = run_text("command = liouville-solve\nkappa = const-4\nn = 65\n"
                        "out = lv.json\n", tmp_path)
        assert code == 1
        rep = json.loads((tmp_path / "lv.json").read_text())
        assert rep["residual_history"][-1] == 5e-10
        assert rep["passed"] is False

    def test_pj_decompose_with_bound(self, tmp_path):
        code = run_text("command = pj-decompose\nlam = pullback(zpow 2)\n"
                        "mu = poincare\nR = 0.9\nz = 0.4\nn-r = 80\n"
                        "n-t = 160\nout = pj.json\n", tmp_path)
        assert code == 0
        rep = json.loads((tmp_path / "pj.json").read_text())
        assert rep["residual"] <= 1e-3
        assert rep["quotient_bound"]["passed"]

    def test_pj_decompose_green_mean_on_the_configured_grid(self, tmp_path):
        run_text("command = pj-decompose\nR = 0.9\nz = 0.4\nn-r = 3\n"
                 "n-t = 6\nout = pj.json\n", tmp_path)
        rep = json.loads((tmp_path / "pj.json").read_text())
        coarse = gp.green_mean(0.9, 0.4, PolarGrid(0j, 0.9, 3, 6))
        assert rep["green_mean"] == coarse != gp.green_mean(0.9, 0.4)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one has imported whatever the tests needed
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, diskrig.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
