"""Self-test of the benchmark itself, at the smallest scale.

Run from the repository root::

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` lists exactly the metrics ``layers.py`` emits, with
  the same units and directions;
* every workload, untraced and traced, prints a last line with exactly
  ``correct``/``attempted``/``failed``/``metrics``, every named metric
  present with its unit and a finite value, and ``correct`` true;
* flipping one served verdict makes the oracle fail the run (exit 1,
  ``correct`` false);
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402  (imports repro; needs src/ on the path)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "small",
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr[-2000:]}"
    return json.loads(lines[-1])


def check_catalogue() -> None:
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.REGISTRY)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def check_workload(name: str, trace: int) -> None:
    spec = _spec()
    proc = _run(name, trace)
    assert proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n" \
        f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"], (metric["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, (name, metric["name"], got["value"])


def check_flip_fails(name: str) -> None:
    proc = _run(name, 0, "--flip-one-verdict")
    assert proc.returncode == 1, f"{name}: flipped verdict exited {proc.returncode}"
    assert _result(proc)["correct"] is False


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("online", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_catalogue():
    check_catalogue()


def test_bare_directory():
    check_bare_directory()


def test_workloads():
    for name in workloads.REGISTRY:
        for trace in (0, 1):
            check_workload(name, trace)
        check_flip_fails(name)


def main() -> int:
    steps = [("catalogue", check_catalogue), ("bare directory", check_bare_directory)]
    for name in workloads.REGISTRY:
        steps += [
            (f"{name} untraced", lambda n=name: check_workload(n, 0)),
            (f"{name} traced", lambda n=name: check_workload(n, 1)),
            (f"{name} flipped verdict fails", lambda n=name: check_flip_fails(n)),
        ]
    failures = 0
    for label, step in steps:
        try:
            step()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
