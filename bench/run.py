"""Layered benchmark for psido.

Usage (from the root of a checkout):

    python3 bench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

One run sets up the workload (import psido, seeded inputs, prebuilt
symbols), then repeats its fixed batch of tasks in rounds for --seconds
seconds.  Each task is timed alone and its output is checked outside the
timer.  The set-up time is measured in fresh processes, five times.
Times are given in seconds of a reference host speed (``HostSpeed``).

With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it alternates untraced rounds with rounds
under the tracer and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Details (samples, size fields, machine) go to
.bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT = 150


def child_env() -> dict:
    """Environment for every process the benchmark starts: psido from the
    checkout's src/, numerical libraries on one thread.  One thread is
    within nproc on any machine and keeps runs on a shared host steady."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def machine_info() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": 1}


def percentile(values, q):
    """Nearest-rank q-th percentile and the number of samples above it."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[rank - 1], len(s) - rank


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# -- host speed --------------------------------------------------------------

class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


class HostSpeed:
    """Calibration of the host's current speed.

    On a shared host one core's speed changes by up to a factor of two
    within seconds, which would swamp any change in psido.  So a fixed
    reference job runs before the first task of a round and after every
    task, outside the timers, and each task's time is divided by the mean
    slowness (reference time over its nominal value) before and after it:
    times are given in seconds of a host on which the reference jobs take
    their nominal time.  Neither job touches psido, so a faster psido
    still shows as a proportionally smaller time.

    Tasks in this process are referred to ``kernel``, a pure-Python loop
    (small objects, attribute access, dict and tuple traffic, the kind of
    work psido's expression trees do), nominally 10 ms.  CLI calls and
    set-up probes are fresh processes, whose start-up the kernel does not
    track; they are referred to ``start``, a bare ``python -c pass``,
    nominally 100 ms.
    """

    KERNEL_S = 0.010
    START_S = 0.100
    STEPS = 20000

    def __init__(self):
        self.samples = {"kernel": [], "start": []}    # slowness, by job

    def kernel(self) -> float:
        t0 = time.perf_counter()
        table = {}
        node = None
        for i in range(self.STEPS):
            node = _Node(i, node if i & 63 else None)
            table[i & 1023] = (node.value, node.next, i * 0.5)
        return self._record("kernel", time.perf_counter() - t0)

    def start(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
        return self._record("start", time.perf_counter() - t0)

    def _record(self, job, seconds):
        slowness = seconds / (self.KERNEL_S if job == "kernel"
                              else self.START_S)
        self.samples[job].append(slowness)
        return slowness

    def factor(self, job) -> float:
        """Scale for times without reference samples of their own (spans
        of a traced run): 1 over the run's median slowness."""
        return 1.0 / statistics.median(self.samples[job] or [1.0])


class Referred:
    """Times of consecutive calls, each divided by the mean slowness of the
    reference samples taken before and after it."""

    def __init__(self, probe):
        self.probe = probe
        self.before = probe()

    def __call__(self, fn):
        """(result, exception, raw seconds, reference seconds) of fn()."""
        out, err, dt = timed(fn)
        after = self.probe()
        ref = dt * 2.0 / (self.before + after)
        self.before = after
        return out, err, dt, ref


def timed(fn):
    """(result, exception, seconds) of fn()."""
    out = err = None
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:            # a call that raises counts as failed
        err = exc
    return out, err, time.perf_counter() - t0


# -- set-up ------------------------------------------------------------------

def setup(workload, seed, work):
    import workloads
    ctx = workloads.Context(ROOT, work, child_env())
    return workloads.WORKLOADS[workload](seed, ctx), ctx


def setup_probe(args) -> int:
    """Child entry: set up the workload in this fresh process and print the
    time since the parent started it."""
    with tempfile.TemporaryDirectory(dir=work_root()) as tmp:
        setup(args.workload, args.seed, Path(tmp))
        print(f"{time.monotonic() - args.t0!r}")
    return 0


def measure_setup(workload, seed, speed):
    """Set-up time in fresh processes, raw and in reference seconds: from
    process start until the first task could run.  CLOCK_MONOTONIC is
    shared by all processes, so the child measures from the parent's start
    stamp."""
    def probe():
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed),
               "--t0", repr(time.monotonic())]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        return float(proc.stdout.strip().splitlines()[-1])

    referred = Referred(speed.start)
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        seconds, err, dt, scaled = referred(probe)
        if err is not None:
            raise err
        raw.append(seconds)
        ref.append(seconds * scaled / dt)
    return raw, ref


def measure_imports() -> dict:
    """Interpreter start, and `import psido` with its scipy.integrate
    share from `python -X importtime` (cumulative microseconds)."""
    bare, total, scipy_int = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
        bare.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import psido"], capture_output=True,
                              text=True, check=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT)
        cum = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)",
                         line)
            if m:
                cum[m.group(2)] = int(m.group(1)) * 1e-6
        total.append(cum["psido"])
        scipy_int.append(cum.get("scipy.integrate", 0.0))
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(total),
            "cli.import.scipy_integrate_s": statistics.median(scipy_int)}


# -- timed phase -------------------------------------------------------------

def past(start, rounds, seconds):
    """True when another round of the average length would end more than
    half a round after ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds >= seconds


class Phase:
    """Rounds of one batch: per-task times (raw and in reference seconds,
    see ``HostSpeed``), per-round times and the failures the oracles
    found."""

    def __init__(self, speed):
        self.speed = speed
        self.samples = []        # (kind, raw seconds, reference seconds)
        self.rounds = []         # reference seconds of the batch, per round
        self.failures = []
        self.per_round = []      # traced runs: metrics per round

    def run(self, batch, seconds):
        """Untraced rounds until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            self.round(batch)
            if past(start, len(self.rounds), seconds):
                return

    def round(self, batch, tracer=None):
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.reset_counts()
        wall = 0.0
        referred = Referred(self.speed.kernel if batch.in_process
                            else self.speed.start)
        for task in batch.tasks:
            run = task.run
            if tracer:
                tracer.label = task.kind
                run = functools.partial(tracer.traced, "task." + task.kind,
                                        task.run)
            out, err, dt, ref = referred(run)
            wall += ref
            self.samples.append((task.kind, dt, ref))
            if err is None:
                try:
                    task.check(out)
                except Exception as exc:    # oracle verdict or crash
                    err = exc
            if err is not None:
                self.failures.append(f"{task.kind}: {type(err).__name__}: "
                                     f"{err}")
        self.rounds.append(wall)
        if tracer:
            self.per_round.append(tracer.snapshot(first))

    def times(self):
        return [ref for _, _, ref in self.samples]


def end_to_end(workload, seed, seconds, batch, info):
    import resource
    import workloads

    speed = HostSpeed()
    phase = Phase(speed)
    phase.run(batch, seconds)
    # the workload ran in this process, or (cli) in its children, which
    # are the only processes waited for so far
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    raw_setups, setups = measure_setup(workload, seed, speed)
    q = workloads.TAIL_PERCENTILE[workload]
    tail, beyond = percentile(phase.times(), q)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups), "probes"),
        "wall_s": (statistics.median(phase.rounds), len(phase.rounds),
                   "rounds"),
        "task_p50_s": (statistics.median(phase.times()),
                       len(phase.samples), "tasks"),
        "task_tail_s": (tail, len(phase.samples),
                        f"tasks, p{q}, {beyond} beyond"),
        "peak_rss_mb": (rss_mb, 1, "process" if workload != "cli"
                        else "largest child"),
    }
    info.update(tail_percentile=q, tail_beyond=beyond,
                slowness=speed.samples, setup_samples=raw_setups,
                samples=phase.samples)
    return phase, metrics


def traced(workload, seconds, batch, ctx, info):
    from tracing import Tracer

    # untraced and traced rounds alternate, so drift in the host's speed
    # affects both alike
    speed = HostSpeed()
    base, phase, tracer = Phase(speed), Phase(speed), Tracer()
    start = time.perf_counter()
    while True:
        base.round(batch)
        ctx.tracer = tracer
        tracer.install()
        try:
            phase.round(batch, tracer)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        if past(start, len(phase.rounds), seconds):
            break
    keys = set().union(*phase.per_round)
    layer = {k: statistics.median(r.get(k, 0.0) for r in phase.per_round)
             for k in keys}
    zt = [r.get("symbols.is_zero.calls", 0.0) for r in phase.per_round]
    useful = [r.get("symbols.is_zero.useful", 0.0) for r in phase.per_round]
    layer["symbols.is_zero.useful_ratio"] = median_or_zero(
        [u / c for u, c in zip(useful, zt) if c])
    # spans have no reference samples of their own: scale them by the
    # run's median slowness
    f = speed.factor("kernel" if batch.in_process else "start")
    layer = {k: v * f if k.endswith(".s") else v for k, v in layer.items()}
    if workload == "cli":
        for kind in {k for k, _, _ in base.samples}:
            layer[f"cli.call.{kind}.s"] = statistics.median(
                ref for k, _, ref in base.samples if k == kind)
    layer.update(measure_imports())
    # the first pair also warms the allocator and caches up
    pairs = list(zip(phase.rounds, base.rounds))
    layer["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in (pairs[1:] or pairs)) - 1.0
    spans_file = work_root() / f"spans_{workload}.json"
    spans_file.write_text(json.dumps(tracer.spans))
    info.update(spans_file=str(spans_file.relative_to(ROOT)),
                slowness=speed.samples, scale=f,
                traced_rounds=len(phase.rounds),
                untraced_rounds=len(base.rounds))
    return base, phase, tracer, layer


# -- reporting ---------------------------------------------------------------

def work_root() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def print_breakdowns(workload, tracer, layer):
    roots = {"symbolic": ["calculus.parametrix", "calculus.sqrt_approx"],
             "quantize": ["quantize.op_apply.dense",
                          "quantize.op_apply.separable"],
             "oracles": ["hamilton.propagate_wavefront", "hamilton.flow",
                         "quantize.oscint.parts"],
             "cli": ["task.parametrix", "task.flow"]}[workload]
    for root in roots:
        inclusive, below = tracer.breakdown(root)
        if inclusive <= 0.0:
            continue
        parts = sorted(below.items(), key=lambda kv: -kv[1])[:5]
        share = ", ".join(f"{k} {100 * v / inclusive:.0f}%" for k, v in parts)
        print(f"  {root}: {inclusive:.4f} s inclusive; self time: {share}")
    imp, sci = layer["cli.import_s"], layer["cli.import.scipy_integrate_s"]
    print(f"  cli.import_s: {imp:.4f} s, of which scipy.integrate "
          f"{sci:.4f} s ({100 * sci / imp:.0f}%)")


def run_one(args) -> int:
    e2e_spec, layer_spec = declared()
    work = Path(tempfile.mkdtemp(dir=work_root()))
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine_info()}
    try:
        batch, ctx = setup(args.workload, args.seed, work)
        print(f"workload {args.workload}  seed {args.seed}  "
              f"tasks/round {len(batch.tasks)}  trace {args.trace}")
        if args.trace:
            base, phase, tracer, layer = traced(args.workload, args.seconds,
                                                batch, ctx, info)
            failures = base.failures + phase.failures
            attempted = len(base.samples) + len(phase.samples)
            metrics = {}
            for m in layer_spec:
                value = float(layer.get(m["name"], 0.0))
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"  {m['name']:<36} {value:.6g} {m['unit']}")
            print_breakdowns(args.workload, tracer, layer)
        else:
            phase, measured = end_to_end(args.workload, args.seed,
                                         args.seconds, batch, info)
            failures, attempted = phase.failures, len(phase.samples)
            metrics = {}
            for m in e2e_spec:
                value, n, what = measured[m["name"]]
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"  {m['name']:<14} {value:.6g} {m['unit']}  "
                      f"(n={n} {what})")
        for job, slow in info["slowness"].items():
            if slow:
                print(f"  host slowness by {job}: median "
                      f"{statistics.median(slow):.3f} (n={len(slow)}); "
                      f"times are in reference-host seconds")
        print(f"  failed_ratio   {len(failures)}/{attempted}")
        for f in failures[:10]:
            print(f"  FAILED {f}")
        info["sizes"] = batch.sizes
        print(f"  sizes: {json.dumps(summarize(batch.sizes))}")
        print(f"  machine: {json.dumps(info['machine'])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(failures=failures, attempted=attempted, metrics=metrics)
    report = work_root() / (f"report_{args.workload}_{args.seed}"
                            f"_t{args.trace}.json")
    report.write_text(json.dumps(info, default=str))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def summarize(sizes):
    """Size fields for the console: per-task lists of numbers shortened to
    their range, per-task lists of lists to the first task's."""
    out = {}
    for k, v in sizes.items():
        if isinstance(v, list) and v and isinstance(v[0], list):
            v = v[0]
        elif isinstance(v, list) and len(v) > 4 and \
                all(isinstance(e, (int, float)) for e in v):
            v = {"min": min(v), "max": max(v), "n": len(v)}
        out[k] = v
    return out


def run_all(args) -> int:
    import workloads
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        ok &= proc.returncode == 0 and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", "symbolic", "quantize", "oracles",
                             "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "psido" / "__init__.py").is_file():
        print(f"error: no psido source under {ROOT / 'src'}; run from the "
              f"root of a psido checkout", file=sys.stderr)
        return 2
    # pin the numerical libraries before numpy loads in this process, and
    # this process and its children to one core, the core HostSpeed
    # calibrates
    os.environ.update({k: v for k, v in child_env().items()
                       if k in THREAD_VARS})
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src")]
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
