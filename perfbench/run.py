#!/usr/bin/env python3
"""diskrig benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload scans --seed 1 --seconds 12 --trace 0

The run builds the workload's inputs from the seed, computes the reference
values, then repeats whole rounds of the workload's operations for about
``--seconds`` (at least two rounds: a cold one and a warm one), checking
every output.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Earlier lines give a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh processes timed for setup_s (their median) and, with the run's
#: own first round, for cold_pass_s (the upper quartile), spread over the run
SETUP_PROBES = 5
MIN_ROUNDS = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must not be negative")
    return args


def _use_checkout_sources() -> None:
    """Import diskrig from this checkout's src/ and nowhere else."""
    if not (SRC / "diskrig" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'diskrig'} not found; run the benchmark "
                         "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _probe(workload: str, seed: int) -> tuple[float, float | None]:
    """Time a fresh interpreter: seconds until it has imported diskrig and
    built the workload's inputs (perf_counter is system-wide), and the
    time of its first round, if the workload's probes run one."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup", "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    ready, cold = proc.stdout.split()[-2:]
    return float(ready) - start, None if cold == "-" else float(cold)


def _round(ops):
    """Run each operation once: [(latency, result, error)]."""
    out = []
    for op in ops:
        t0 = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:            # counted by the caller
            result, error = None, exc
        out.append((perf_counter() - t0, result, error))
    return out


def _problems(op, result, error) -> list[str]:
    """What went wrong with one operation's output, or nothing."""
    if error is not None:
        return [f"{op.name}: raised {error!r}"]
    try:
        return [e.describe() for e in op.verify(result) if not e.ok()]
    except Exception as exc:    # a check that cannot be made has failed
        return [f"{op.name}: check raised {exc!r}"]


def _measure(ops, after_round, seconds: float, before_round):
    """Run whole rounds for about ``seconds``; verify every output.

    ``before_round(index, busy)`` runs before each round; ``busy``, the
    time spent so far in rounds and their checks, is what counts towards
    ``seconds``."""
    rounds, latencies = [], []
    attempted = failed = 0
    unexpected = []
    busy = 0.0
    # start another round while the run would end nearer to ``seconds``
    # with it than without it
    while len(rounds) < MIN_ROUNDS or busy + rounds[-1] / 2 < seconds:
        before_round(len(rounds), busy)
        start = perf_counter()
        lat = []
        for op, (elapsed, result, error) in zip(ops, _round(ops)):
            lat.append(elapsed)
            bad = _problems(op, result, error)
            attempted += 1
            if bad:
                failed += 1
                if not op.fault:
                    unexpected.extend(bad)
        unexpected.extend(e.describe() for e in after_round() if not e.ok())
        rounds.append(sum(lat))
        latencies.append(lat)
        busy += perf_counter() - start
    return rounds, latencies, attempted, failed, unexpected


def _upper_quartile(values: list) -> float:
    """The third quartile, never beyond the largest value.

    Round times, cold and warm, are reported by it rather than by their
    median: on a shared machine the same rounds run in a steady slow
    state or in a faster, jittery one, for stretches of 10 to 60 s, and
    the upper quartile moves less from run to run with the mix of the
    two."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _print_latencies(latencies: list) -> None:
    """Print per-operation latency, which is not a gated metric: it moves
    with the machine's state by more than the bounds allow (see README).

    p50: each operation's median over the rounds, then the median over
    the operations (a median over all samples would sit between two
    operations' latencies and jump with them).  p90: over all samples,
    printed where at least ten samples lie above it."""
    p50 = statistics.median(statistics.median(lat[i] for lat in latencies)
                            for i in range(len(latencies[0])))
    samples = [x for lat in latencies for x in lat]
    print(f"verdict_p50_ms {1e3 * p50:.4f} ms ({len(latencies)} samples per "
          f"operation)")
    if len(samples) >= 100:
        print(f"verdict_p90_ms {1e3 * statistics.quantiles(samples, n=10)[8]:.4f} ms "
              f"({len(samples)} samples)")


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_sources()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = OUT / f"run-{os.getpid()}"
    try:
        if args.probe_setup:
            plan = workloads.build(args.workload, args.seed, scratch)
            ready = perf_counter()
            cold = "-"
            if plan.probe_round:
                cold = f"{sum(t for t, _, _ in _round(plan.ops(plan.references()))):.9f}"
            print(f"{ready:.9f} {cold}")
            return 0
        return _run(args, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workloads, scratch: Path) -> int:
    plan = workloads.build(args.workload, args.seed, scratch)
    ops = plan.ops(plan.references())

    probes = []
    if args.trace:
        import tracer as tracing
        imports = tracing.import_times(SRC)
        tracer = tracing.Tracer()

        def before_round(index, busy):
            # the first round runs untraced, so the traced rounds can be
            # compared with it (battery reports must be byte-identical)
            if index == 0:
                tracer.count_gauss_rules()
            elif index == 1:
                tracer.install(extra_modules=[workloads, sys.modules[__name__]])
    else:
        def before_round(index, busy):
            # the probes are spread over the run: the machine's speed drifts
            # over tens of seconds, and probes made back to back would all
            # sample one moment of it
            if len(probes) < SETUP_PROBES and \
                    busy >= len(probes) * args.seconds / SETUP_PROBES:
                probes.append(_probe(args.workload, args.seed))

    rounds, latencies, attempted, failed, unexpected = _measure(
        ops, plan.after_round, args.seconds, before_round)
    if not args.trace:
        probes += [_probe(args.workload, args.seed)
                   for _ in range(SETUP_PROBES - len(probes))]
    for line in unexpected[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    warm = rounds[1:]
    pass_s = _upper_quartile(warm)
    if args.trace:
        metrics = tracer.metrics(imports, pass_s, len(warm))
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(s for s, _ in probes), "s"),
            "cold_pass_s": (_upper_quartile(
                [rounds[0]] + [c for _, c in probes if c is not None]), "s"),
            "warm_pass_s": (pass_s, "s"),
            "verdicts_per_s": (len(ops) / pass_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        _print_latencies(latencies[1:])
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations, {failed} of {attempted} failed")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
