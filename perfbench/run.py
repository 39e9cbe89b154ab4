"""perfbench: the repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps every layer's public calls (see ``layers.py``) and
emits the per-layer metrics instead; its measured time is split into an
untraced half and a traced half on the same inputs, and the throughput
difference between the two is the tracing overhead.

Every verdict is checked against the independent oracle in
``oracle.py``; a mismatch prints ``"correct": false`` and exits 1.  The
last line of standard output is the JSON result; the lines before it
are a human-readable report.  A full record (metadata, every metric,
the per-layer span table) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "small"), default="full",
        help="'small' shrinks every input for the self-test",
    )
    parser.add_argument(
        "--flip-one-verdict", action="store_true",
        help="self-test hook: flip the first served verdict before the "
        "oracle sees it (the run must then fail)",
    )
    return parser.parse_args(argv)


def _finite(value: float) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print(f"perfbench: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import common
    import layers
    import workloads
    from base import Context
    from oracle import Mismatches
    from tracer import Tracer

    if args.workload not in workloads.REGISTRY:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.REGISTRY)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    ctx = Context(
        root=root, seed=args.seed, small=args.scale == "small",
        work_dir=os.path.join(out_dir, f"work-{os.getpid()}"),
    )
    checks = Mismatches(flip_first=args.flip_one_verdict)
    workload = workloads.REGISTRY[args.workload](ctx, checks)
    started = time.perf_counter()
    steal_start = common.cpu_jiffies()
    metadata = common.run_metadata(root, args.workload, args.seed, args.trace, args.seconds)
    try:
        workload.prepare()
        workload.rss.reset()
        metrics = {}
        if not args.trace:
            setups = [workload.setup_once(None) for _ in range(workload.setup_repeats)]
            phase = workload.measure(args.seconds, None)
            latency = phase.latencies.report()
            metrics = {
                "verdicts_per_s": phase.verdicts_per_s,
                "latency_p50_ms": latency["p50_ms"],
                "setup_s": common.median(setups),
                "peak_rss_mb": workload.rss.mb(),
            }
            plain, traced_phase = phase, None
            metadata.update(setup_samples_s=setups, latency=latency)
        else:
            setup_tracer, run_tracer = Tracer(), Tracer()
            workload.setup_once(setup_tracer)
            plain = workload.measure(args.seconds / 2, None)
            traced_phase = workload.measure(args.seconds / 2, run_tracer)
            latency = plain.latencies.report()
        kernel = workload.kernel_line()
        served_us = 1e6 / plain.verdicts_per_s if plain.verdicts_per_s else float("nan")
        extra_e2e = {
            "failed_share": plain.failed / plain.attempted if plain.attempted else 0.0,
            "latency_p99_ms": latency["p99_ms"],
            **plain.e2e,
        }
        if args.trace:
            values = layers.from_trace(setup_tracer, run_tracer)
            values.update(traced_phase.layers)
            values.update({
                "serving.overhead_x": served_us / kernel["oracle_us_per_row"],
                "kernel.oracle_us_per_row": kernel["oracle_us_per_row"],
                "kernel.monitor_check_us_per_row": kernel["monitor_check_us_per_row"],
                "trace.overhead_pct": (
                    plain.verdicts_per_s / traced_phase.verdicts_per_s - 1.0) * 100.0,
                "e2e.failed_share": extra_e2e["failed_share"],
                "e2e.latency_p99_ms": extra_e2e["latency_p99_ms"],
                "e2e.tcp_verdicts_per_s": extra_e2e.get("tcp_verdicts_per_s", 0.0),
                "e2e.swap_s": extra_e2e.get("swap_s", 0.0),
            })
            metrics = {name: values.get(name, 0.0) for name, _, _ in layers.PER_LAYER}
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            run_tracer.dump(
                os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                extra={"setup_layers": setup_tracer.table()},
            )
        else:
            units = {name: unit for name, unit, _ in layers.END_TO_END}
    finally:
        workload.close()
        common.stop_children()

    attempted = plain.attempted + (traced_phase.attempted if traced_phase else 0)
    failed = plain.failed + (traced_phase.failed if traced_phase else 0)
    correct = checks.ok
    steal_end = common.cpu_jiffies()
    total = steal_end[1] - steal_start[1]
    metadata.update(
        wall_s=time.perf_counter() - started,
        # Share of CPU time the hypervisor gave to others during the run.
        steal_share=(steal_end[0] - steal_start[0]) / total if total else 0.0,
        oracle_checks=checks.checked,
        oracle_problems=checks.problems,
        kernel_line=kernel,
        served_us_per_row=served_us,
        end_to_end_extra=extra_e2e,
        tracing_overhead_pct=(
            metrics.get("trace.overhead_pct") if args.trace else None
        ),
        info=workload.info,
    )

    # Human-readable report first; the JSON result is the last line.
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode} "
          f"seconds={args.seconds} nproc={metadata['nproc']} "
          f"affinity={metadata['cpu_affinity']} sha={metadata['git_sha'][:12]} "
          f"src={metadata['src_digest']} steal={metadata['steal_share']:.1%}")
    print(f"  latency samples={latency['n']} windows={latency['windows']} "
          f"tail=p{latency['p99_q']:g}")
    for name, value in extra_e2e.items():
        unit = {"failed_share": "ratio", "latency_p99_ms": "ms",
                "tcp_verdicts_per_s": "1/s", "swap_s": "s"}[name]
        print(f"  {name:<40s} {value:14.6g} {unit}")
    print(f"  kernel line: oracle {kernel['oracle_us_per_row']:.3f} us/row, "
          f"monitor.check {kernel['monitor_check_us_per_row']:.3f} us/row, "
          f"served {served_us:.3f} us/row")
    for name, value in metrics.items():
        print(f"  {name:<40s} {value:14.6g} {units[name]}")
    print(f"  oracle: {checks.checked} checks, "
          f"{'all agree' if correct else '; '.join(checks.problems)}")

    record = {
        "metadata": metadata,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    record_path = os.path.join(
        out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    result = {
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {
            name: {"value": _finite(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
