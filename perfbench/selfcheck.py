#!/usr/bin/env python3
"""Fast self-check of the benchmark itself (about twenty seconds).

Usage (from the repository root):

    python3 perfbench/selfcheck.py

It checks that:
  - BENCHMARK.json keeps the benchmark contract and names exactly the
    metrics run.py reports;
  - one round of every workload (seed 1) passes all its checks, that every
    check rejects the program's value moved just past its tolerance, and
    that exactly the known-fault operations fail.  The Liouville round
    keeps its full sizes: below n = 129 the solver's error exceeds the
    5e-4 recovery tolerance (5.4e-4 at n = 97);
  - the tracer leaves no traced function unwrapped in any diskrig module;
  - the command exits non-zero, without a result, in a directory holding
    only BENCHMARK.json and the benchmark's files.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = ("setup_s", "cold_pass_s", "warm_pass_s", "verdicts_per_s",
              "peak_rss_mb")


def check_benchmark_json(problems: list) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(bench) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(bench)}")
    if not 1 <= bench["run_seconds"] <= 60:
        problems.append("run_seconds out of range")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"workloads {names} != {workloads.WORKLOADS}")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
    e2e = [m["name"] for m in bench["end_to_end"]]
    if e2e != list(END_TO_END):
        problems.append(f"end_to_end {e2e} != {END_TO_END}")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']}")
    setup_bound = next(m["bound"] for m in bench["end_to_end"]
                       if m["name"] == "setup_s")
    if any(m["bound"] > setup_bound for m in bench["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    if layer != tracer.PER_LAYER:
        problems.append("per_layer differs from tracer.PER_LAYER")
    every = names + e2e + [n for n, _ in layer]
    if len(every) != len(set(every)):
        problems.append("a name is used twice")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            problems.append(f"bad name or unit: {m}")
    if len((ROOT / "BENCHMARK.json").read_bytes()) > 64 * 1024:
        problems.append("BENCHMARK.json over 64 KiB")


def check_workload(name: str, plan, problems: list) -> None:
    ops = plan.ops(plan.references())
    n_checks = 0
    for op, (_, result, error) in zip(ops, run._round(ops)):
        checks = [] if error is not None else op.verify(result)
        failed = error is not None or not all(c.ok() for c in checks)
        if failed != op.fault:
            problems.append(f"{name}/{op.name}: failed={failed}, fault={op.fault}"
                            f" ({error!r} {[c.describe() for c in checks if not c.ok()]})")
        if op.fault:
            continue
        for c in checks:
            n_checks += 1
            if c.perturbed().ok():
                problems.append(f"{name}: check does not catch a perturbed value: "
                                f"{c.perturbed().describe()}")
    for c in plan.after_round():
        n_checks += 1
        if not c.ok() or c.perturbed().ok():
            problems.append(f"{name}: round check {c.describe()}")
    faults = sum(op.fault for op in ops)
    print(f"{name}: {len(ops)} operations, {faults} known faults, "
          f"{n_checks} checks each caught a perturbed value")


def check_tracer(problems: list) -> None:
    t = tracer.Tracer()
    t.install(extra_modules=[workloads])
    originals = set()
    for module, names in {**tracer.SPANS, **tracer.COUNTED}.items():
        mod = sys.modules[f"diskrig.{module}"]
        originals.update(id(getattr(mod, n).__wrapped__) for n in names)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("diskrig"):
            for key, value in vars(mod).items():
                if id(value) in originals:
                    problems.append(f"{mod_name}.{key} left unwrapped")


def check_bare_directory(problems: list) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        bench = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run(bench["command"] + ["--workload", "scans", "--seed",
                                                  "1", "--seconds", "1",
                                                  "--trace", "0"],
                              cwd=bare, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the command succeeded in a bare directory")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    check_benchmark_json(problems)
    out = ROOT / ".perfbench_out" / "selfcheck"
    for name in workloads.WORKLOADS:
        check_workload(name, workloads.build(name, 1, out), problems)
    shutil.rmtree(out, ignore_errors=True)
    check_tracer(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
