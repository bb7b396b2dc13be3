"""bioqa benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in its own fresh
process (measure.py) against the checkout's src/bioqa, with inputs made
from the seed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. --workload all
runs every workload in turn and prefixes each metric with its workload.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS, layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PREPARE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 115


class BenchmarkError(RuntimeError):
    pass


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "dirty": None}
    if sha.returncode != 0 or status.returncode != 0:
        return {"git_sha": None, "dirty": None}
    return {"git_sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh process and return its result."""
    workdir = ROOT / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    # Only the checkout's sources are importable, so no installed copy of
    # bioqa can stand in for them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    common = [sys.executable, str(HERE / "measure.py"), "--workload", name, "--seed", str(seed),
              "--workdir", str(workdir)]
    try:
        # Preparation builds the full index in a process of its own, so
        # that its memory does not count in the workload's peak.
        for args, timeout in (
            (["--prepare"], PREPARE_TIMEOUT_S),
            (["--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)], CHILD_TIMEOUT_S),
        ):
            proc = subprocess.run(common + args, env=env, timeout=timeout)
            if proc.returncode != 0:
                raise BenchmarkError(f"workload {name} exited with code {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def unit_of(metric: str, trace: bool) -> str:
    return layer_unit(metric)[0] if trace else END_TO_END[metric][0]


def report(result: dict, trace: bool) -> None:
    """Human-readable summary of one workload on stdout."""
    print(f"== {result['workload']} (seed {result['seed']}, trace {int(trace)}): "
          f"{result['questions']} questions, {result['index_cycles']} index cycles, "
          f"{result['failed']} of {result['attempted']} operations failed")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<48} {value:>14.6g} {unit_of(metric, trace)}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bioqa benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (ROOT / "src" / "bioqa" / "__init__.py").is_file():
        print(f"error: no bioqa sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = {
        **git_state(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    results = []
    for name in names:
        started = time.perf_counter()
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        spans = result.pop("spans", None)
        if spans is not None:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"spans-{name}-s{args.seed}.json").write_text(json.dumps(spans), encoding="utf-8")
        expected = set(PER_LAYER) if trace else set(END_TO_END)
        if set(result["metrics"]) != expected:
            print(f"error: {name} reported {sorted(set(result['metrics']) ^ expected)} "
                  "against the metric list", file=sys.stderr)
            return 1
        report(result, trace)
        print("meta " + json.dumps({
            **meta,
            "workload": name,
            "seed": result["seed"],
            "wall_s": round(time.perf_counter() - started, 3),
            "questions": result["questions"],
            "index_cycles": result["index_cycles"],
            "answers_digest": result["answers_digest"],
            "properties": result["properties"],
            "reference_ms_median": result["reference_ms_median"],
            "reference_fingerprint": result["reference_fingerprint"],
            "raw_wall_time_metrics": result.get("raw"),
        }))
        results.append(result)

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": unit_of(m, trace)}
        for r in results
        for m, v in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
