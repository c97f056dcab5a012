#!/usr/bin/env python3
"""Benchmark of minkfeat: one seeded workload per run, closed loop, one thread.

    python3 bench/run.py --workload trace-dense --seed 1 --seconds 20 --trace 0

A run imports the package from ``src/``, draws its inputs from the seed
and runs one warm-up operation (a set-up round, timed), then runs
operations back to back (one client, each waits for the previous) until
their summed latency reaches ``--seconds``, sampling the host's speed
between operations; two more set-up rounds run halfway and at the end.
Every operation's output is checked.  With ``--trace 1`` it instead runs
each of a fixed list of operations twice, untraced and then with spans
around the public minkfeat functions, and reports per-layer work counts
and self times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers as a table, with the environment.  The exit
code is 0 only when every output check passed.  See bench/NOTES.md for
the workloads, metrics and baseline.
"""
from __future__ import annotations

import os

# one process uses at most one core: pin every BLAS/OpenMP pool before
# numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _v in THREAD_VARS:
    os.environ[_v] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: the keys of workloads.WORKLOADS, spelled out so that parsing the
#: arguments does not import the package
WORKLOAD_NAMES = ("sweep-umbilic", "trace-dense", "analyze-generic", "classify-strata")
#: set-up (input generation and one warm-up op) is repeated and its
#: median reported in setup_s: once before the timed loop, once halfway
#: through it and once after it, so that a slow spell of the host, which
#: can last seconds, slows one round rather than all of them
SETUP_REPEATS = 3
#: the warm-up op runs on the first input of this seed whatever the run's
#: seed, so set-up does the same work on every seed (the cost of a seeded
#: analyze-generic scene varies by a factor of 3)
WARMUP_SEED = 0
#: the tail latency needs this many ops beyond it
TAIL_BEYOND = 10
#: Host speed is sampled next to every timed op with a reference kernel
#: (scalar numpy polyval2d on a fixed 17x17 array: the shape of the
#: program's hot path, none of its code).  The host's speed drifts by
#: 25-40 % over tens of seconds, in CPU time as much as in wall time, so
#: the *_norm metrics and setup_s rescale each op's latency (and each
#: set-up) to a host that runs one kernel call in REF_CALL_S.  Wall-clock
#: values are printed beside them.
REF_CALL_S = 50e-6
#: each sample lasts at least this long, or this share of the op before it
REF_MIN_S = 0.03
REF_SHARE = 0.02
#: set-up has only SETUP_REPEATS rounds to average over, so its samples
#: are longer: at least this long, or this share of the round
SETUP_REF_MIN_S = 0.1
SETUP_REF_SHARE = 0.1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, load_start) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_start": [round(x, 2) for x in load_start],
        "load_end": [round(x, 2) for x in os.getloadavg()],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
    }


class Runner:
    """Runs and checks ops of one workload, counting failures."""

    def __init__(self, workload, out: Path):
        self.w = workload
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.done: dict = {}

    def op(self, item, run=None):
        """One op (``run`` in place of the workload's, if given) and its
        check; returns its latency in seconds."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        self.attempted += 1
        result, problems = None, []
        t0 = perf_counter()
        try:
            result = (run or self.w.run)(item, self.out)
        except Exception:
            problems = ["exception:\n" + traceback.format_exc()]
        dt = perf_counter() - t0
        if not problems:
            try:
                problems = self.w.check(item, self.out, result)
                self.done[item.key] = item
                problems += self.w.check_group(self.done)
            except Exception:
                problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"FAILED {self.w.name} {item.key}: " + "; ".join(problems[:5]), file=sys.stderr)
        return dt


def _load(args):
    """Import the package (timed) and make the workload, its runner and
    its scratch directory."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "minkfeat" / "__init__.py").is_file() or not (tests / "helpers.py").is_file():
        print(f"bench: no minkfeat sources under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(tests)]
    t0 = perf_counter()
    import helpers  # noqa: F401
    import minkfeat  # noqa: F401
    import minkfeat.cli  # noqa: F401
    import_s = perf_counter() - t0

    import workloads

    w = workloads.WORKLOADS[args.workload](args.smoke)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return w, Runner(w, work / "out"), work, import_s


class SetUp:
    """Set-up rounds: each draws the run's inputs and runs one warm-up op,
    between two host-speed samples.  The warm-up input (of WARMUP_SEED)
    is drawn once, outside the rounds."""

    def __init__(self, args, w, runner, work, import_s):
        self.seed, self.w, self.runner, self.work = args.seed, w, runner, work
        self.import_s = import_s
        (work / "warm-up").mkdir()
        self.warm = w.inputs(WARMUP_SEED, work / "warm-up")[0]
        self.rounds, self.speed = [], []

    def round(self) -> list:
        """One round; returns the inputs it drew."""
        before = _call_seconds(SETUP_REF_MIN_S)
        t0 = perf_counter()
        items = self.w.inputs(self.seed, self.work)
        self.rounds.append(perf_counter() - t0 + self.runner.op(self.warm))
        self.speed.append((before, _call_seconds(
            max(SETUP_REF_MIN_S, SETUP_REF_SHARE * self.rounds[-1]))))
        return items

    def seconds(self):
        """Set-up time, wall clock and host-normalised: import plus the
        median round.  The import is scaled by the sample that opens the
        first round."""
        print("set-up rounds ms: " + " ".join(f"{1e3 * x:.0f}" for x in self.rounds))
        print("set-up host speed factors: " + " ".join(
            f"{a / REF_CALL_S:.3f}/{b / REF_CALL_S:.3f}" for a, b in self.speed))
        wall = self.import_s + statistics.median(self.rounds)
        norm = self.import_s * REF_CALL_S / self.speed[0][0] + statistics.median(
            x * REF_CALL_S / (0.5 * (a + b)) for x, (a, b) in zip(self.rounds, self.speed))
        return wall, norm


def _call_seconds(min_s: float) -> float:
    """Seconds per reference-kernel call, sampled for at least min_s."""
    import numpy as np
    from numpy.polynomial.polynomial import polyval2d

    coeffs = np.random.default_rng(0).normal(size=(17, 17))
    calls = 0
    t0 = perf_counter()
    while True:
        for i in range(50):
            polyval2d(0.1 + 1e-3 * i, 0.05, coeffs)
        calls += 50
        dt = perf_counter() - t0
        if dt >= min_s:
            return dt / calls


def _normalise(lat, speed):
    """Latencies rescaled to the reference host; speed[i] and speed[i + 1]
    are the samples taken before and after lat[i]."""
    return [x * REF_CALL_S / (0.5 * (speed[i] + speed[i + 1])) for i, x in enumerate(lat)]


def _tail(lat):
    """(latency, percentile, ops) at the highest percentile with
    TAIL_BEYOND ops beyond it, or None for too few ops."""
    if len(lat) <= TAIL_BEYOND:
        return None
    rank = len(lat) - TAIL_BEYOND
    return sorted(lat)[rank - 1], 100.0 * rank / len(lat), len(lat)


def _timed(args, w, items, runner, setup):
    lat = []
    speed = [_call_seconds(REF_MIN_S)]
    k = 1
    # whole cycles of the workload's input mix, until --seconds is reached;
    # the set-up rounds after the first run halfway through (the op after
    # that round is scaled by the samples on either side of both) and at
    # the end
    while not lat or sum(lat) < args.seconds or len(lat) % w.cycle:
        lat.append(runner.op(items[k % len(items)]))
        speed.append(_call_seconds(max(REF_MIN_S, REF_SHARE * lat[-1])))
        k += 1
        if len(setup.rounds) == 1 and sum(lat) >= args.seconds / 2 and len(lat) % w.cycle == 0:
            setup.round()
    while len(setup.rounds) < SETUP_REPEATS:
        setup.round()
    norm = _normalise(lat, speed)
    print("op latencies ms: " + " ".join(f"{1e3 * x:.0f}" for x in lat))
    print("host speed factors: " + " ".join(f"{s / REF_CALL_S:.3f}" for s in speed))
    metrics = {
        "ops_per_s_norm": (len(norm) / sum(norm), "op/s"),
        "op_p50_ms_norm": (1e3 * statistics.median(norm), "ms"),
    }
    wall = {
        "ops_per_s": (len(lat) / sum(lat), "op/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
    }
    return metrics, wall, _tail(lat)


def _traced(args, w, items, runner):
    import spans

    n = min(w.traced_ops, 2) if args.smoke else w.traced_ops
    todo = [items[(1 + j) % len(items)] for j in range(n)]
    tr = spans.Tracer()
    untraced = traced = 0.0
    # each op runs untraced and then traced, so both see the same machine load
    for j, item in enumerate(todo):
        untraced += runner.op(item)
        tr.install()
        try:
            traced += runner.op(item, run=lambda it, out: tr.run_op(j, w.run, it, out))
        finally:
            tr.uninstall()
    metrics = spans.layer_metrics(tr, untraced, traced)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    path = OUT / "spans" / f"{w.name}-seed{args.seed}.npz"
    tr.save(path, {"workload": w.name, "seed": args.seed, "ops": [it.key for it in todo]})
    print(f"spans: {len(tr.name)} written to {path.relative_to(ROOT)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {k: (v, units[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="summed op latency after which the timed loop stops")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids and a few ops, for the benchmark's own test")
    args = ap.parse_args(argv)
    load_start = os.getloadavg()

    w, runner, work, import_s = _load(args)
    try:
        setup = SetUp(args, w, runner, work, import_s)
        items = setup.round()
        if args.trace:
            metrics = _traced(args, w, items, runner)
        else:
            metrics, wall, tail = _timed(args, w, items, runner, setup)
            setup_wall, setup_s = setup.seconds()
            metrics["setup_s"] = (setup_s, "s")
            wall["setup_s"] = (setup_wall, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(_environment(args, load_start), sort_keys=True))
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {runner.attempted}  failed {runner.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in wall.items():
            print(f"  {name:40s} {value:14.6g} {unit} (wall clock)")
        if tail is None:
            print(f"  {'op_tail_ms':40s} {'n/a':>14s} ms (needs more than {TAIL_BEYOND} ops)")
        else:
            print(f"  {'op_tail_ms':40s} {1e3 * tail[0]:14.6g} ms "
                  f"(wall clock, p{tail[1]:.1f} of {tail[2]} ops)")
        print(f"  {'fail_ratio':40s} {runner.failed / runner.attempted:14.6g} 1 "
              f"({runner.failed} of {runner.attempted} ops)")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
