"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py [--seed N]

For each workload: one untraced run must produce every end-to-end metric
named in BENCHMARK.json, and two traced runs with the same seed must
produce every per-layer metric, agree exactly on every count, and match the
exact per-call counts the workloads declare (4096 ``lp.solve`` spans per
``constrained`` call on deep-book, 677 stop sets per ``american`` call on
certify-small, ...).  Known-failure rows must fail with their recorded
kind, once per run and outside the counted operations, and every other
answer must pass.  Last, the benchmark copied alone
into an empty directory must exit non-zero without printing a result.
The counts are those of the library's algorithms when the benchmark was
added; a change that replaces an enumeration changes them on purpose.
Takes about three minutes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def run(cwd: str, workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_workload(bench: dict, workload: str, seed: int) -> list[str]:
    errors = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = []
    for trace, names in ((0, e2e), (1, layer), (1, layer)):
        code, lines = run(ROOT, workload, seed, trace)
        if code != 0 or len(lines) < 2:
            return [f"{workload}: trace {trace} exited {code}"]
        result, details = json.loads(lines[-1]), json.loads(lines[-2])["details"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != names:
            errors.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                          f"missing {sorted(set(names) - set(got))}, "
                          f"extra {sorted(set(got) - set(names))}, "
                          f"units {[k for k in got if k in names and got[k] != names[k]]}")
        if result["failed"]:
            errors.append(f"{workload}: {result['failed']} of {result['attempted']} "
                          "timed calls failed")
        if not result["correct"]:
            errors.append(f"{workload}: incorrect: {details['unexpected_failures']} "
                          f"{details['setup_problems']}")
        errors += [f"{workload}: {m}" for m in details["count_mismatches"]]
        rows = {(r["command"], r["shape"]): r["outcomes"] for r in details["known_failures"]}
        for k in workloads.KNOWN_FAILURES:
            if k.workload == workload and list(rows.get((k.command, k.shape), {})) != [
                    f"{k.kind} (exit {k.exit})"]:
                errors.append(f"{workload}: known failure {k.command} on {k.shape}: "
                              f"{rows.get((k.command, k.shape))}")
        if trace:
            traced.append(result["metrics"])
    for name, unit in layer.items():
        a, b = (t[name]["value"] for t in traced)
        if unit == "count" and a != b:
            errors.append(f"{workload}: count {name} differs between runs: {a} vs {b}")
    return errors


def check_bare() -> list[str]:
    """Only BENCHMARK.json and bench/ in a directory: must refuse to run."""
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, "deep-book", 1, 0)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit {code}, printed {lines[-1:] if lines else []}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    seed = ap.parse_args().seed
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = check_bare()
    for workload in workloads.WORKLOADS:
        errors += check_workload(bench, workload, seed)
    for e in errors:
        print("FAIL", e)
    print("self-check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
