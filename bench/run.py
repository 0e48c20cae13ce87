"""tcpp benchmark: a closed loop of in-process ``tcpp`` CLI calls.

    python3 bench/run.py --workload deep-book --seed 1 --seconds 25 --trace 0

One caller, one process: each timed call is ``tcpp.cli.main(argv)`` with
stdout captured, and the next call starts when it returns.  A run repeats
its workload's round (see ``workloads.py``) for about ``--seconds``, then
makes ``SIDE_ROUNDS`` rounds of its side calls and runs the workload's
known-failure rows once; it checks every answer and prints one JSON object
as its last line.  The known-failure rows are data, not operations: they
are neither timed nor counted as attempted or failed.  With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` the run first
repeats rounds untraced for half the time, then traced for the other half,
the side rounds and the known-failure rows, and reports the per-layer
metrics plus the tracing overhead.  The line before the result holds the
details: per-command sample counts and tail percentiles, every
known-failure row, and the environment.

The library is imported from ``src/`` next to this directory; the run
fails with exit code 2 when it is not there.
"""
import time

_START = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads.  One OpenBLAS thread made `bounds` about 30%
# faster and steadier on a 2-core machine, and made `nfl` over 2187
# selections 1.6x slower (4.3 s against 2.6 s), through its final dense lstsq.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# The benchmark's own address-space cap (a process limit, not a machine
# setting): nfl at binomial H=4 asks for an 8 GiB tableau and must fail
# with MemoryError instead of exhausting the machine.
ADDRESS_CAP = 2 << 30
# set-ups measured per run, each in a fresh process, so each pays the
# first-call costs of the import and the warm-up; setup_s is the median of
# their wall times.  It is not scaled by the probe below: in a fresh
# process the probe itself read 10-30% apart from one process to the next.
# Back to back, fresh set-ups of one workload ranged 0.35-0.52 s, so the
# median is taken over nine of them.
SETUP_PROCS = 9
SIDE_ROUNDS = 20    # rounds of the side calls after the workload's rounds
# Every call's time is scaled by a speed probe:
# reported = measured * PROBE_REF_S / probe, with the probe averaged over
# the runs just before and just after the call.  On the shared 2-core
# Xeon VM the benchmark was tuned on, the same code ran 20-40% slower for
# stretches of seconds to minutes.  Over two sets of ten seeded 25 s runs
# per workload, the widest spread (IQR / median) of a command's run medians
# was 0.17-0.40 raw and 0.08-0.14 scaled, per workload.  PROBE_REF_S is
# about the probe's median there, so reported values stay close to measured
# seconds; raw medians are in the details.
PROBE_REF_S = 1.5e-3
WARMUP = ("each command once on the small shape, untimed, in every set-up; "
          "the README demo commands once after set-up")
DEMOS = (
    (["price", "--market", "demos/binomial.market", "--claim", "demos/binomial_call.claim"],
     {"bid.0": 1 / 3, "ask.0": 1 / 3}),
    (["nfl", "--market", "demos/binomial.market"], {"verdict": "no-free-lunch"}),
    (["check-tcpp", "--market", "demos/trinomial.market"], {}),
    (["bounds", "--market", "demos/trinomial.market", "--claim",
      "demos/trinomial_digital.claim", "--kind", "calibrated"], {"lower": 0.1, "upper": 0.2}),
    (["american", "--market", "demos/binomial.market", "--claim",
      "demos/binomial_put_process.claim"], {"induction-agrees": "true"}),
)


class Probe:
    """Best of three runs of a fixed task mixing interpreter work (dict
    updates, integer arithmetic) with small numpy operations and rank-one
    updates of a 64x96 array, the mix ``tcpp`` spends its time in."""

    def __init__(self, np):
        self.np = np
        self.eye = np.eye(8)
        self.block = np.random.default_rng(0).random((64, 96))
        self.times: list[float] = []

    def __call__(self) -> float:
        np, best = self.np, float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            d, s = {}, 0
            for i in range(3000):
                d[i & 255] = d.get(i & 255, 0) + i
                s += i * i
            a, b = np.ones(8), self.block.copy()
            for r in range(40):
                a = np.maximum(a @ self.eye * 0.5, a)
                b -= np.outer(b[:, r % 96], b[r % 64]) * 1e-3
            best = min(best, time.perf_counter() - t0)
        self.times.append(best)
        return best


class Runner:
    """Calls ``tcpp.cli.main`` in-process and names the exception behind a
    failure: a typed error is caught by ``main`` (exit 2), so the command
    functions are wrapped to record it on its way out."""

    def __init__(self, cli, probe: Probe):
        self.cli = cli
        self.probe = probe
        self.error: str | None = None
        self.speed = min(probe() for _ in range(3))    # the first runs are cold
        for name, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[name] = self._recording(fn)

    def _recording(self, fn):
        def command(args, out):
            try:
                return fn(args, out)
            except BaseException as exc:
                self.error = type(exc).__name__
                raise
        return command

    def call(self, argv: list[str]):
        """(exit code or None, error kind or None, stdout, seconds,
        normalized seconds); the probe runs after the call, and its result
        also serves as the next call's probe before."""
        self.error = None
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code, self.error = None, type(exc).__name__
        seconds = time.perf_counter() - start
        before, self.speed = self.speed, self.probe()
        return (code, self.error, buf.getvalue(), seconds,
                seconds * PROBE_REF_S * 2.0 / (before + self.speed))


class Tally:
    """Outcomes of the calls, counted per phase (0: the workload's rounds,
    1: the side rounds, 2: the known-failure rows, once)."""

    def __init__(self, checks):
        self.checks = checks
        # command -> call -> samples (normalized, raw)
        self.samples: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.raw: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.rounds = [0, 0, 0]
        self.attempts = [0, 0, 0]
        self.failures = [0, 0, 0]
        self.wrong: list[dict] = []
        self.rows: dict[int, dict] = {}

    @property
    def attempted(self) -> int:
        """Timed operations: the known-failure rows are not among them."""
        return self.attempts[0] + self.attempts[1]

    @property
    def failed(self) -> int:
        return self.failures[0] + self.failures[1]

    def fail_ratio(self) -> float:
        """Failed over attempted calls in one round of each phase, the
        known-failure rows included, so that the ratio does not depend on
        how many rounds fit in a run."""
        per = [(f / r, a / r) for f, a, r in zip(self.failures, self.attempts, self.rounds) if r]
        return sum(f for f, _ in per) / sum(a for _, a in per)

    def record(self, phase, call, code, kind, text, seconds, normalized) -> None:
        self.attempts[phase] += 1
        out = self.checks.parse_output(text)
        reason = call.check(code, out) if code is not None else f"uncaught {kind}"
        known = call.known
        if known is not None:
            row = self.rows.setdefault(id(call), {
                "command": known.command, "shape": known.shape,
                "expected_kind": known.kind, "expected_exit": known.exit,
                "note": known.note, "outcomes": defaultdict(int), "seconds": []})
            row["seconds"].append(seconds)
            if reason is None:
                row["outcomes"]["passed"] += 1
                return
            self.failures[phase] += 1
            if (kind, code) == (known.kind, known.exit):
                row["outcomes"][f"{kind} (exit {code})"] += 1
                return
            row["outcomes"][f"unexpected: {reason}"] += 1
        else:
            if reason is None:
                self.samples[call.key][id(call)].append(normalized)
                self.raw[call.key][id(call)].append(seconds)
                return
            self.failures[phase] += 1
        self.wrong.append({"command": call.key, "shape": call.shape, "argv": call.argv[:2],
                           "kind": kind, "reason": reason})


def run_rounds(calls, runner: Runner, tally: Tally, seconds: float = 0.0, count: int = 1,
               tracer=None, requests: list | None = None, phase: int = 0) -> list[float]:
    """Repeat whole rounds, at least ``count``, and after that as long as
    another round is expected to bring the phase's length closer to
    ``seconds``.  Traced requests are appended to ``requests`` as (call,
    phase)."""
    rounds: list[float] = []
    start = time.perf_counter()
    while len(rounds) < count or (time.perf_counter() - start
                                  + statistics.fmean(rounds) / 2 < seconds):
        r0 = time.perf_counter()
        for call in calls:
            if tracer is not None:
                tracer.request = len(requests)
                requests.append((call, phase))
            tally.record(phase, call, *runner.call(call.argv))
        rounds.append(time.perf_counter() - r0)
        tally.rounds[phase] += 1
    return rounds


def run_demos(runner: Runner, checks) -> list[str]:
    problems = []
    for argv, want in DEMOS:
        argv = [a if not a.startswith("demos/") else os.path.join(ROOT, a) for a in argv]
        code, kind, text, _, _ = runner.call(argv + ["--format", "machine"])
        out = checks.parse_output(text)
        bad = code != 0 or any(k.startswith("check.") and v != "pass" for k, v in out.items())
        for key, val in want.items():
            got = out.get(key)
            bad |= got is None or (got != val if isinstance(val, str)
                                   else not checks.close(float(got), val))
        if bad:
            problems.append(f"demo {argv[0]}: exit {code} {kind or ''}".strip())
    return problems


def per_call_median(by_call: dict[int, list[float]]) -> float:
    """Mean over a command's distinct calls of each call's median.  A round
    may hold one command at several sizes (``price`` at three cuts); a
    median over the pooled samples would jump between sizes as the number
    of rounds changes."""
    return statistics.fmean(statistics.median(v) for v in by_call.values())


def command_stats(by_call: dict[int, list[float]], raw: dict[int, list[float]]) -> dict:
    """Sample count, the per-call median in normalized and raw seconds, and
    the highest percentile of the pooled samples with ten samples beyond
    it (none for ten samples or fewer)."""
    s = sorted(x for v in by_call.values() for x in v)
    n = len(s)
    out = {"n": n, "calls": len(by_call), "median_s": per_call_median(by_call),
           "raw_median_s": per_call_median(raw)}
    if n > 10:
        out["tail_percentile"] = 100.0 * (n - 10) / n
        out["tail_s"] = s[n - 11]
    return out


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    loc = 0
    pkg = os.path.join(SRC, "tcpp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                loc += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": THREADS,
            "address_cap_gib": ADDRESS_CAP / 2**30, "warmup": WARMUP, "src_loc": loc}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the set-up time and exit (the fresh set-up processes)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tcpp", "__init__.py")):
        print(f"error: no tcpp sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "demos")):
        print(f"error: no demos directory under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # everything the run uses, so that import_s covers it
    import numpy  # noqa: F401
    import tcpp.cli
    if not os.path.abspath(tcpp.__file__).startswith(SRC + os.sep):
        print(f"error: imported tcpp from {tcpp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks  # noqa: F401
    import tracing  # noqa: F401
    import workloads
    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        return _run(args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fresh_setup(args, problems: list[str]) -> float | None:
    """Set-up seconds of a fresh process."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", "0", "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        problems.append(f"set-up process: exit {proc.returncode}, no result")
        return None
    problems += out["problems"]
    return out["setup_s"]


def _run(args, import_s: float, work: str) -> int:
    import numpy as np       # all loaded by main, from the checked paths
    from tcpp import cli
    import checks
    import tracing
    import workloads
    probe = Probe(np)
    runner = Runner(cli, probe)
    calls, side, known, warm = workloads.build(args.workload, args.seed, work,
                                               checks.References())
    problems = []
    for call in warm:
        code, kind, text, _, _ = runner.call(call.argv)
        reason = call.check(code, checks.parse_output(text)) if code is not None else kind
        if reason is not None:
            problems.append(f"warm-up {call.key}: {reason}")
    own_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": own_s, "problems": problems}))
        return 0
    setups = [own_s] + [fresh_setup(args, problems) for _ in range(SETUP_PROCS - 1)]
    setups = [s for s in setups if s is not None]
    problems += run_demos(runner, checks)

    tally = Tally(checks)
    tracer, requests, count_errors, overhead = None, [], [], None
    if args.trace:
        plain = run_rounds(calls, runner, tally, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds = run_rounds(calls, runner, tally, args.seconds / 2,
                                tracer=tracer, requests=requests, phase=0)
            side_rounds = run_rounds(side, runner, tally, count=SIDE_ROUNDS,
                                     tracer=tracer, requests=requests, phase=1)
            known_rounds = run_rounds(known, runner, tally, tracer=tracer,
                                      requests=requests, phase=2)
        finally:
            tracer.uninstall()
        overhead = (statistics.median(rounds) / statistics.median(plain) - 1.0) * 100.0
        for req, counts in tracer.request_counts().items():
            call = requests[req][0]
            for key, want in call.counts.items():
                if counts[key] != want:
                    count_errors.append(f"{call.key} on {call.shape}: "
                                        f"{key} = {counts[key]}, expected {want}")
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    else:
        rounds = run_rounds(calls, runner, tally, args.seconds)
        side_rounds = run_rounds(side, runner, tally, count=SIDE_ROUNDS, phase=1)
        known_rounds = run_rounds(known, runner, tally, phase=2)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {k: command_stats(v, tally.raw[k]) for k, v in sorted(tally.samples.items())}
    if tracer is not None:
        layer = tracer.metrics([phase for _, phase in requests],
                               [len(rounds), len(side_rounds), len(known_rounds)], overhead)
        layer["fail_ratio"] = tally.fail_ratio()
        units = dict(tracing.PER_LAYER)
        metrics = {k: {"value": layer[k], "unit": units[k]} for k, _ in tracing.PER_LAYER}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MiB"}}
        for key in workloads.COMMANDS:
            if key in stats:
                metrics[f"{key}_s"] = {"value": stats[key]["median_s"], "unit": "s"}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "round_s": rounds, "side_rounds": len(side_rounds),
        "setup": {"import_s": import_s, "processes_s": setups},
        "speed": {"probe_ref_s": PROBE_REF_S, "probe_median_s": statistics.median(probe.times),
                  "probes": len(probe.times)},
        "commands": stats,
        "known_failures": [dict(r, outcomes=dict(r["outcomes"])) for r in tally.rows.values()],
        "left_out": list(workloads.LEFT_OUT),
        "unexpected_failures": tally.wrong, "setup_problems": problems,
        "count_mismatches": count_errors, "environment": environment(np),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not tally.wrong and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
