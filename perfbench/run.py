"""coneorder benchmark: closed-loop, single-thread runner over seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload checkiso --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One client runs one job at a time; the next job starts when the previous one
returns.  A run repeats whole rounds of its workload (see workloads.py) until
at least ``--seconds`` of job time and the workload's minimum number of
rounds have passed; every job's output is checked outside the timed region.
Times are reported in reference seconds (see HostSpeed and SETUP_REF_S).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the same round and prints per-layer metrics
from the spans (tracer.py); a job fails there if its traced output differs
from its untraced output.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# Reported times are reference seconds: seconds at the host speed at which
# reference_loop() takes REF_S.
REF_S = 0.010
REF_EVERY_S = 0.25
# setup_s is in reference seconds of its own.  Process start and imports
# follow the host's speed phases much less closely than the loop does, so
# each set-up is scaled by the start of a fresh interpreter that imports
# numpy: SETUP_REF_S is that reference start at the reference speed.
SETUP_REF_S = 0.15
SETUP_REF_ARGV = [sys.executable, "-c", "import numpy; print('ready')"]
WORKLOAD_NAMES = ("checkiso", "cones", "lattice", "psd")


def _import_workloads():
    """Import the library from the checkout's src/ and the benchmark modules."""
    for needed in (ROOT / "src" / "coneorder" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


class _Raised:
    """Stands in for the result of a job that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc


class Judge:
    """Checks each job once and holds later rounds to the checked result."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference: list = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0

    def __call__(self, index: int, raw, where: str) -> bool:
        job = self.jobs[index]
        self.attempted += 1
        ok = False
        try:
            if isinstance(raw, _Raised):
                raise raw.exc
            result = job.finish(raw)
            if self.reference[index] is None:
                ok = bool(job.check(result))
                self.reference[index] = (result, ok)
            else:
                ok = self.reference[index][1] and result == self.reference[index][0]
        except Exception:
            traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"perfbench: job {job.label} failed ({where})", file=sys.stderr)
        return ok


def run_round(jobs, speed=None, on_job_start=None, on_job_end=None):
    """Run every job once; returns raw results and per-job wall times."""
    raws, times = [], []
    clock = time.perf_counter_ns
    for i, job in enumerate(jobs):
        if on_job_start is not None:
            on_job_start(i)
        t0 = clock()
        try:
            raw = job.run()
        except Exception as exc:
            raw = _Raised(exc)
        t1 = clock()
        if on_job_end is not None:
            on_job_end(i, t0, t1)
        raws.append(raw)
        times.append((t1 - t0) * 1e-9)
        if speed is not None:
            speed.job_done()
    return raws, times


def tail_percentile(min_rounds: int, round_size: int) -> float:
    """Highest percentile with TAIL_BEYOND job runs beyond it in the shortest run.

    Fixed per workload, so runs that complete different numbers of rounds
    report the same percentile of the same job mix.
    """
    return 1.0 - TAIL_BEYOND / (min_rounds * round_size)


def percentile_lower(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[math.floor(q * (len(ordered) - 1))]


def reference_loop() -> float:
    """Wall time of a fixed pure-Python workload that never touches the
    library: integer arithmetic, Fraction arithmetic and dict updates, like
    the library's inner loops.  About REF_S at the reference speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    total = Fraction(0)
    for i in range(1, 750):
        total += Fraction(1, i)
    counts: dict[int, int] = {}
    for i in range(10000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    return time.perf_counter() - t0


class HostSpeed:
    """Scales job times to reference seconds.

    A shared host can switch speed by 1.7x for minutes at a time, and the
    library and the reference loop slow down together.  The loop is timed
    at the start, between jobs whenever REF_EVERY_S has passed since the last
    sample, and at the end; job j's time is multiplied by REF_S over the mean
    of the two samples around it.  The raw times stay in the info line.
    """

    def __init__(self):
        reference_loop()  # the first pass runs before the bytecode specialises
        self.done = 0
        self.samples = [(0, reference_loop())]  # (jobs done, loop time)
        self._last = time.perf_counter()

    def _sample(self) -> None:
        self.samples.append((self.done, reference_loop()))
        self._last = time.perf_counter()

    def job_done(self, sample: bool = False) -> None:
        self.done += 1
        if sample or time.perf_counter() - self._last >= REF_EVERY_S:
            self._sample()

    def finish(self) -> None:
        if self.samples[-1][0] != self.done:
            self._sample()

    def scales(self) -> list[float]:
        """Factor for every job done, in order."""
        out = []
        for (lo, t_lo), (hi, t_hi) in zip(self.samples, self.samples[1:]):
            out.extend([REF_S / ((t_lo + t_hi) / 2)] * (hi - lo))
        return out


def _ready_time(argv) -> float:
    """Wall time from starting a child process to its first line, 'ready'."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"child {argv[1:]} failed with exit code {code}")
    return t1 - t0


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Wall time from process start to ready-for-the-first-timed-job, in
    fresh processes run one after another.  Each is paired with the start of
    a reference process right after it; returns (setup, reference) pairs."""
    setup_argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                  "--seed", str(seed), "--setup-only"]
    return [(_ready_time(setup_argv), _ready_time(SETUP_REF_ARGV))
            for _ in range(SETUP_REPEATS)]


def untraced_run(wl, rnd, seconds: float):
    jobs = rnd.jobs
    judge = Judge(jobs)
    speed = HostSpeed()
    rounds: list[list[float]] = []
    while len(rounds) < wl.min_rounds or sum(map(sum, rounds)) < seconds:
        raws, t = run_round(jobs, speed)
        rounds.append(t)
        for i, raw in enumerate(raws):
            judge(i, raw, f"round {len(rounds) - 1}")
    speed.finish()
    return judge, rounds, speed


def end_to_end_metrics(wl, raw_rounds: list[list[float]], speed: HostSpeed, setups):
    """Timings as medians over the run's repeats, which ignore slow phases of
    a shared host that cover less than half the run.  Each job's time is its
    median over the rounds; p50 and tail are percentiles of those, and the
    throughput is the median round's.  Every job appears once per round, so
    the jobs beyond the tail percentile account for at least TAIL_BEYOND job
    runs in the shortest run."""
    size = len(raw_rounds[0])
    scales = speed.scales()
    rounds = [[t * f for t, f in zip(r, scales[k * size:])] for k, r in enumerate(raw_rounds)]
    per_job = [statistics.median(r[i] for r in rounds) for i in range(size)]
    round_s = [sum(r) for r in rounds]
    q = tail_percentile(wl.min_rounds, size)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = [t * SETUP_REF_S / ref for t, ref in setups]
    metrics = {
        "job_s_p50": (statistics.median(per_job), "s"),
        "job_s_tail": (percentile_lower(per_job, q), "s"),
        "jobs_per_s": (size / statistics.median(round_s), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {"jobs": size * len(rounds), "rounds": len(rounds), "round_s": round_s,
            "raw_round_s": [sum(r) for r in raw_rounds],
            "reference_loop_s": [t for _, t in speed.samples],
            "round_size": size, "tail_percentile": round(100 * q, 2),
            "setup_samples_s": setup_s, "raw_setup_s": [t for t, _ in setups],
            "setup_reference_s": [ref for _, ref in setups]}
    return metrics, info


def traced_run(wl, rnd, seconds: float, spans_path: Path):
    from tracer import SpanTable, Tracer

    jobs = rnd.jobs
    judge = Judge(jobs)
    tracer = Tracer()
    bounds: list[tuple[int, int, int]] = []
    speed = HostSpeed()
    times = []  # raw job times, untraced and traced passes alternating
    pairs = 0
    while pairs < 1 or sum(map(sum, times)) < seconds:
        raws, t = run_round(jobs, speed)
        times.append(t)
        for i, raw in enumerate(raws):
            judge(i, raw, f"untraced round {pairs}")

        def start(i, offset=pairs * len(jobs)):
            tracer.job_id = offset + i

        def end(i, t0, t1, offset=pairs * len(jobs)):
            bounds.append((offset + i, t0, t1))
            tracer.job_id = -1

        tracer.install()
        try:
            raws, t = run_round(jobs, speed, start, end)
        finally:
            tracer.uninstall()
        times.append(t)
        for i, raw in enumerate(raws):
            judge(i, raw, f"traced round {pairs}")
        pairs += 1
    speed.finish()

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path, bounds)
    table = SpanTable(tracer)
    scales = speed.scales()
    size = len(jobs)
    scaled = [sum(t * f for t, f in zip(r, scales[k * size:])) for k, r in enumerate(times)]
    base_s, traced_s = sum(scaled[0::2]), sum(scaled[1::2])
    traced_raw_s = sum(map(sum, times[1::2]))
    metrics = layer_metrics(table, pairs, base_s, traced_s, traced_raw_s,
                            traced_s / traced_raw_s)
    info = {"rounds": pairs, "round_size": len(jobs), "spans": len(table.dur),
            "spans_file": os.path.relpath(spans_path, ROOT)}
    return judge, metrics, info


def layer_metrics(tb, rounds: int, base_s: float, traced_s: float, traced_raw_s: float,
                  scale: float):
    """Per-layer metrics, per round (one pass over the workload's jobs).

    Times are scaled to reference seconds by `scale`; base_s and traced_s
    are the scaled job times of the untraced and traced passes, and
    traced_raw_s the raw traced job time that span durations compare with.
    """
    per = 1.0 / rounds

    def per_call_us(name):
        n = tb.all_calls(name)
        return 1e6 * tb.self_total_s(name) / n if n else 0.0

    battery = tb.notes_of("iso.battery")
    samples = sum(n[0] for n in battery)
    pair_notes = tb.notes_of("sampling.incomparable_pair")
    pair_calls = tb.all_calls("sampling.incomparable_pair")
    hits = sum(n[0] for n in pair_notes)
    dd = tb.notes_of("cones.dd")
    builds = tb.calls("cones.build")
    m = {
        "iso.battery.calls": (tb.calls("iso.battery") * per, "count/round"),
        "iso.battery.s": (tb.incl_s("iso.battery") * per, "s/round"),
        "iso.battery.us_per_pair": (1e6 * tb.incl_s("iso.battery") / samples if samples else 0.0,
                                    "us/pair"),
        "iso.battery.violations": (sum(n[1] for n in battery) * per, "count/round"),
        "iso.eval.calls": (tb.calls("iso.eval") * per, "count/round"),
        "iso.eval.self_s": (tb.self_total_s("iso.eval") * per, "s/round"),
        "iso.invert.calls": (tb.calls("iso.invert") * per, "count/round"),
        "iso.invert.self_s": (tb.self_total_s("iso.invert") * per, "s/round"),
        "cones.contains.calls": (tb.calls("cones.contains") * per, "count/round"),
        "cones.contains.self_us": (per_call_us("cones.contains"), "us/call"),
        "cones.leq.calls": (tb.calls("cones.leq") * per, "count/round"),
        "cones.leq.self_us": (per_call_us("cones.leq"), "us/call"),
        "sampling.cone_point.calls": (tb.calls("sampling.cone_point") * per, "count/round"),
        "sampling.cone_point.self_us": (per_call_us("sampling.cone_point"), "us/call"),
        "sampling.incomparable_pair.calls": (pair_calls * per, "count/round"),
        "sampling.incomparable_pair.hit_ratio": (hits / pair_calls if pair_calls else 0.0,
                                                 "pair/call"),
        "sampling.incomparable_pair.draws_per_hit": (
            tb.under("sampling.cone_point", "sampling.incomparable_pair") / hits if hits else 0.0,
            "draw/pair"),
        "iso.identities.s": (tb.incl_s("iso.identities") * per, "s/round"),
        "iso.affine_fit.s": (tb.incl_s("iso.affine_fit") * per, "s/round"),
        "iso.affine_fit.points": (sum(n[0] for n in tb.notes_of("iso.affine_fit")) * per,
                                  "count/round"),
        "cli.main.self_s": (tb.self_total_s("cli.main") * per, "s/round"),
        "serialize.parse_s": (tb.self_total_s("serialize.parse") * per, "s/round"),
        "serialize.dumps_s": (tb.incl_s("serialize.dumps") * per, "s/round"),
        "cones.build.calls": (builds * per, "count/round"),
        "cones.build.s": (tb.incl_s("cones.build") * per, "s/round"),
        "cones.dd.calls": (tb.calls("cones.dd") * per, "count/round"),
        "cones.dd.s": (tb.incl_s("cones.dd") * per, "s/round"),
        "cones.dd.per_build": (tb.under("cones.dd", "cones.build") / builds if builds else 0.0,
                               "call/build"),
        "cones.dd.in_constraints": (statistics.fmean(n[0] for n in dd) if dd else 0.0,
                                    "count/call"),
        "cones.dd.out_rays": (statistics.fmean(n[1] for n in dd) if dd else 0.0, "count/call"),
        "linalg.rref.calls": (tb.calls("linalg.rref") * per, "count/round"),
        "linalg.rref.self_s": (tb.self_total_s("linalg.rref") * per, "s/round"),
        "order.classify.s": (tb.incl_s("order.classify") * per, "s/round"),
        "order.bounds.calls": (tb.calls("order.bounds") * per, "count/round"),
        "order.bounds.s": (tb.incl_s("order.bounds") * per, "s/round"),
        "order.interval_sample.s": (tb.incl_s("order.interval_sample") * per, "s/round"),
        "order.halfline.s": (tb.incl_s("order.halfline") * per, "s/round"),
        "lp.solve_lp.calls": (tb.calls("lp.solve_lp") * per, "count/round"),
        "lp.solve_lp.s": (tb.incl_s("lp.solve_lp") * per, "s/round"),
        "psd.eigh_jacobi.calls": (tb.calls("psd.eigh_jacobi") * per, "count/round"),
        "psd.eigh_jacobi.self_us": (per_call_us("psd.eigh_jacobi"), "us/call"),
        "psd.psd_leq.calls": (tb.calls("psd.psd_leq") * per, "count/round"),
        "psd.psd_leq.self_us": (per_call_us("psd.psd_leq"), "us/call"),
        "psd.supcheck.s": (tb.incl_s("psd.supcheck") * per, "s/round"),
        "psd.approx.s": (tb.incl_s("psd.approx") * per, "s/round"),
        "psd.conj.s": (tb.incl_s("psd.conj") * per, "s/round"),
        "psd.witness.s": (tb.incl_s("psd.witness") * per, "s/round"),
        "trace.overhead_frac": ((traced_s - base_s) / base_s, "frac"),
        "trace.coverage_frac": (tb.root_time_in_jobs() / traced_raw_s, "frac"),
    }
    return {k: (v * scale if u.split("/")[0] in ("s", "us") else v, u)
            for k, (v, u) in m.items()}


def result_line(judge, metrics) -> str:
    return json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(args) -> int:
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        rnd = wl.build(args.seed, Path(tmp))
        warm = rnd.warmup
        warm_ok = bool(warm.check(warm.finish(warm.run())))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            spans = ROOT / ".perfbench-out" / f"spans-{wl.name}-seed{args.seed}.npz"
            judge, metrics, info = traced_run(wl, rnd, args.seconds, spans)
        else:
            judge, rounds, speed = untraced_run(wl, rnd, args.seconds)
            metrics, info = end_to_end_metrics(wl, rounds, speed,
                                               measure_setup(wl.name, args.seed))
    if not warm_ok:
        judge.failed += 1
        judge.attempted += 1
    info.update(workload=wl.name, seed=args.seed, trace=args.trace,
                failed_frac=judge.failed / judge.attempted, **rnd.notes)
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(result_line(judge, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, as a table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-1])
    columns = ["failed_frac"] + list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':44s}" + "".join(f"{n:>14s}" for n in rows) + "  unit")
    for col in columns:
        cells, unit = [], "frac"
        for res in rows.values():
            if col == "failed_frac":
                cells.append(res["failed"] / res["attempted"])
            else:
                cells.append(res["metrics"][col]["value"])
                unit = res["metrics"][col]["unit"]
        print(f"{col:44s}" + "".join(f"{c:14.6g}" for c in cells) + f"  {unit}")
    print(json.dumps({"machine": machine_info(), "workloads": rows}))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def machine_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "numpy": numpy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build inputs, run the warm-up job, print 'ready' and exit")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
