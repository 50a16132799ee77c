"""
latinpat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through `latinpat.cli.main` in this
process, using the package under ../src.  It sets up several times and
reports the median set-up time, then repeats the workload's round of
requests while another whole round fits in --seconds (at least once), and
checks every answer.  While a round runs, a timer interrupts it every 25 ms
to time a fixed probe, and the *_norm_* metrics scale each request's times
to the probe's reference speed (see SpeedMeter).  With --trace 0 it prints
the end-to-end metrics;
with --trace 1 it runs one untraced and one traced round and prints the
per-layer metrics.  The last line of stdout is one JSON object; a full
record of the run goes to bench/out/.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The package under test is the one in this checkout, ahead of any
# installed copy; main() refuses to run if the import resolved elsewhere.
if not (SRC / "latinpat" / "__init__.py").is_file():
    sys.exit(f"error: no latinpat package under {SRC}")
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import oracles  # noqa: E402
import latinpat  # noqa: E402
from latinpat import analysis, cli, construct, enumeration, perm, rectpat  # noqa: E402
from latinpat.enumeration import default_split_depth, partition_tasks  # noqa: E402
from latinpat.square import AvoidanceSpec  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, as_tuple, jobs1_argv, reduced_identity  # noqa: E402

#: set-up repetitions per run; setup_s is their median
SETUP_REPS = 5

#: The speed meter.  On a shared host the speed of the same code drifts by
#: tens of percent within seconds, as other tenants load the machine, and
#: that drift reads the same as a change in the program.  While a timed
#: round runs, a timer signal every PROBE_INTERVAL_S interrupts it to time
#: a fixed probe: the benchmark's own brute-force monotone-line scan
#: (oracles.max_monotone) of a 9 x 9 square, which takes PROBE_REF_S at the
#: reference speed.  The probe never calls latinpat, so a change to the
#: program cannot move it.  A request's wall time, less the probes inside
#: it, is scaled by the mean of PROBE_REF_S / (probe wall time) over the
#: probes inside it and the nearest one on either side, and its CPU time by
#: the same mean over the probes' thread CPU times: the *_norm_* metrics are
#: times at the reference speed.  Wall probes also catch the time the
#: process waits while other tenants hold the CPU, which CPU time leaves
#: out.  The raw times are printed and recorded beside them.  Each probe
#: also reads the resident set, which gives each round its own peak: the
#: process's lifetime peak is the largest of a handful of rounds, and how
#: far a pool's results pile up differs from round to round.
PROBE_GRID = tuple(tuple((i + j) % 9 + 1 for j in range(9)) for i in range(9))
PROBE_REF_S = 0.0003
PROBE_INTERVAL_S = 0.025


class SpeedMeter:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.ran: list[float] = []
        #: the largest resident set seen at a probe, in MiB
        self.peak_rss = 0.0
        self._busy = False

    def probe(self, signum=None, frame=None) -> None:
        if self._busy:  # a late signal while the last probe still runs
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0, c0 = time.perf_counter(), time.thread_time()
            oracles.max_monotone(PROBE_GRID)
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)
            self.ran.append(time.thread_time() - c0)
            self.peak_rss = max(self.peak_rss, harness.rss_mb())
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "SpeedMeter":
        self._saved = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.probe()

    def window(self, start: float, end: float) -> tuple[float, float, float, float]:
        """Wall and CPU seconds the probes took inside [start, end], and the wall and CPU speed factors over it."""
        i, j = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        near = slice(max(0, i - 1), j + 1)
        return (sum(self.took[i:j]), sum(self.ran[i:j]),
                statistics.fmean(PROBE_REF_S / t for t in self.took[near]),
                statistics.fmean(PROBE_REF_S / max(t, 1e-6) for t in self.ran[near]))


@dataclass
class Round:
    records: list
    #: raw and speed-scaled seconds, summed over the round's requests
    wall: float
    cpu: float
    wall_norm: float
    cpu_norm: float
    #: raw and speed-scaled wall seconds of each request
    request_walls: list[float]
    request_norm: list[float]
    #: wall seconds the round took
    elapsed: float
    #: the meter's probe wall times (empty for an unmetered round)
    probe_walls: list[float]
    #: largest resident set the meter saw, in MiB (0 for an unmetered round)
    peak_rss: float


def run_round(workload, tracer: Tracer | None = None, meter: SpeedMeter | None = None) -> Round:
    """One round; with a meter, timed under its probes and scaled by them."""
    workload.before_round()
    records = []
    t0 = time.perf_counter()
    with meter or contextlib.nullcontext():
        for rid, req in enumerate(workload.requests):
            if tracer is not None:
                tracer.request = rid
                sid = tracer.open("cli.main")
            records.append(harness.run_request(cli.main, req.argv, req.kind, req.expect))
            if tracer is not None:
                tracer.close(sid)
    elapsed = time.perf_counter() - t0
    walls, cpus, request_norm, cpu_norm = [], [], [], 0.0
    for rec in records:
        cpu = rec.cpu_self + rec.cpu_children
        spent_wall, spent_cpu, wall_factor, cpu_factor = (
            meter.window(rec.started, rec.started + rec.wall) if meter else (0.0, 0.0, 1.0, 1.0))
        walls.append(rec.wall - spent_wall)
        cpus.append(cpu - spent_cpu)
        request_norm.append(walls[-1] * wall_factor)
        cpu_norm += cpus[-1] * cpu_factor
    return Round(records, sum(walls), sum(cpus), sum(request_norm), cpu_norm, walls, request_norm, elapsed,
                 list(meter.took) if meter else [], meter.peak_rss if meter else 0.0)


def import_in_fresh_interpreter() -> None:
    """What every command-line call pays before it starts: a new interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import latinpat.cli"], env=env, cwd=ROOT, check=True)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(rounds: list[Round], setup_s: float) -> tuple[dict, dict, dict]:
    """Bounded metrics, metrics printed where they apply, and sample counts."""
    recs = [r for rd in rounds for r in rd.records]
    lat = [x for rd in rounds for x in rd.request_walls]
    lat_norm = [x for rd in rounds for x in rd.request_norm]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_norm_s": (statistics.median(rd.wall_norm for rd in rounds), "s"),
        "cpu_norm_s": (statistics.median(rd.cpu_norm for rd in rounds), "s"),
        # The median round's peak, the first round left out when there are
        # more: the heap grows during it, so its peak is lower, and how many
        # rounds fit would move the median.  Pool workers are left out, as
        # they are forked from this process and their resident sets count
        # the pages they share with it.
        "peak_rss_mb": (statistics.median(rd.peak_rss for rd in rounds[1:] or rounds), "MB"),
        "request_p50_norm_ms": (statistics.median(lat_norm) * 1000, "ms"),
        "request_p99_norm_ms": (quantile(lat_norm, 0.99) * 1000, "ms"),
    }
    # Printed and recorded, not bounded (see README.md): the raw times, which
    # carry the host's drift; requests_per_s, which carries what wall_s
    # carries for a fixed round; and the streaming metrics, which only the
    # workloads that run `enumerate` have.
    extra = {
        "wall_s": (statistics.median(rd.wall for rd in rounds), "s"),
        "cpu_s": (statistics.median(rd.cpu for rd in rounds), "s"),
        "request_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "request_p99_ms": (quantile(lat, 0.99) * 1000, "ms"),
        "host_speed": (PROBE_REF_S / statistics.median(p for rd in rounds for p in rd.probe_walls), "ratio"),
        "children_peak_rss_mb": (harness.children_peak_rss_mb(), "MB"),
        "requests_per_s": (len(recs) / sum(rd.wall for rd in rounds), "1/s"),
    }
    enum = [r for r in recs if r.argv[0] == "enumerate"]
    if enum:
        extra["first_square_s"] = (statistics.median(r.first_line for r in enum if r.first_line is not None), "s")
        extra["squares_per_s"] = (sum(r.lines for r in enum) / sum(r.wall for r in enum), "1/s")
    samples = {"rounds": len(rounds), "requests": len(recs), "enumerate_requests": len(enum),
               "beyond_p99": sum(1 for x in lat_norm if x * 1000 > metrics["request_p99_norm_ms"][0])}
    return metrics, extra, samples


def per_layer(workload, base: Round, traced: Round, tracer, refs: dict) -> dict:
    checker_calls, checker_s, checker_hits = tracer.counter("perm.checker")
    leaf_a = tracer.counter("analysis.leaf")
    leaf_e = tracer.counter("enumeration.leaf")
    lookups, _, lookup_hits = tracer.counter("cli.cache_lookup")
    to_json = tracer.counter("square.to_json")

    # Backtracker nodes: a computed `count` reports its own (split at depth
    # n, as the CLI always does); other requests give the traced total.
    nodes, node_wall = 0, 0.0
    for rid, (req, rec) in enumerate(zip(workload.requests, traced.records)):
        computed_count = req.argv[0] == "count" and (req.kind == "count" or req.expect.get("miss"))
        if computed_count and rec.rc == 0:
            n = json.loads(rec.text)["nodes_explored"]
        else:
            n = tracer.counters[rid].get("enumeration.search_nodes", [0])[0]
        if n:
            nodes += n
            node_wall += base.records[rid].wall

    partition_s, tasks = 0.0, 0
    for req in workload.requests:
        if req.partition is not None:
            n, rows, cols, syms = req.partition
            spec = AvoidanceSpec(tuple(map(as_tuple, rows)), tuple(map(as_tuple, cols)), tuple(map(as_tuple, syms)))
            t0 = time.perf_counter()
            tasks += len(partition_tasks(n, spec, default_split_depth(n)))
            partition_s += time.perf_counter() - t0

    # Pool workers are forked and report nothing back, so the pool is seen
    # from outside: CPU from getrusage, efficiency against the --jobs 1 runs.
    pooled = [(req, rec) for req, rec in zip(workload.requests, base.records) if req.jobs > 1]
    par_wall = sum(rec.wall for _, rec in pooled)
    ser_wall = sum(refs["serial"][jobs1_argv(req.argv)].wall for req, _ in pooled)
    jobs = max((req.jobs for req, _ in pooled), default=1)
    construct_s = sum(tracer.span_total(n) for n in ("construct.construct_s3_avoider",
                                                      "construct.complete_columns_avoiding", "construct.connolly_square"))
    return {
        "cli.parse_ms": (median_or_zero(tracer.per_request_total(("cli.build_parser", "cli.parse_args"))) * 1000, "ms"),
        "cli.cache_lookup_ms": (median_or_zero(tracer.durations("cli.cache_lookup")) * 1000, "ms"),
        "cli.cache_store_ms": (median_or_zero(tracer.durations("cli.cache_store")) * 1000, "ms"),
        "cli.cache_hit_ratio": (lookup_hits / lookups if lookups else 0.0, "ratio"),
        "perm.checker_calls": (checker_calls, "count"),
        "perm.checker_hit_ratio": (checker_hits / checker_calls if checker_calls else 0.0, "ratio"),
        "perm.checker_s": (checker_s, "s"),
        "perm.longest_monotone_s": (tracer.counter("perm.longest_monotone")[1], "s"),
        "perm.pattern_of_s": (tracer.counter("perm.pattern_of")[1], "s"),
        "perm.find_occurrence_s": (tracer.counter("perm.find_occurrence")[1], "s"),
        "enumeration.nodes": (nodes, "count"),
        "enumeration.nodes_per_s": (nodes / node_wall if node_wall else 0.0, "1/s"),
        "enumeration.search_self_s": (max(0.0, tracer.span_total("enumeration.search") - checker_s - leaf_a[1] - leaf_e[1]), "s"),
        "enumeration.partition_s": (partition_s, "s"),
        "enumeration.tasks": (tasks, "count"),
        "pool.parent_cpu_s": (sum(rec.cpu_self for _, rec in pooled), "s"),
        "pool.children_cpu_s": (sum(rec.cpu_children for _, rec in pooled), "s"),
        "pool.efficiency": (ser_wall / (jobs * par_wall) if par_wall else 0.0, "ratio"),
        "analysis.leaves": (leaf_a[0], "count"),
        "analysis.leaf_s": (leaf_a[1], "s"),
        "analysis.wilf_classes_s": (tracer.span_total("analysis.wilf_classes"), "s"),
        "analysis.lambda_exhaustive_s": (tracer.span_total("analysis.compute_lambda_exhaustive"), "s"),
        "analysis.verify_triple_s": (tracer.span_total("analysis.verify_triple_containment"), "s"),
        "analysis.lambda_bounds_s": (tracer.span_total("analysis.lambda_bound_report"), "s"),
        "square.to_json_calls": (to_json[0], "count"),
        "square.to_json_s": (to_json[1], "s"),
        "square.load_s": (tracer.span_total("square.load"), "s"),
        "rectpat.contains_calls": (len(tracer.durations("rectpat.contains_rectangle")), "count"),
        "rectpat.contains_s": (tracer.span_total("rectpat.contains_rectangle"), "s"),
        "construct.s": (construct_s, "s"),
        "trace.overhead_s": (traced.wall - base.wall, "s"),
    }


def environment(workload, seed: int) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "latinpat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
        "loop": workload.loop,
        "clients": workload.clients,
        "params": workload.params(),
    }


def measure(workload, seconds: float, trace: bool) -> tuple[list[Round], Tracer | None]:
    """Timed rounds, or one untraced and one traced round."""
    if trace:
        rounds = [run_round(workload)]
        tracer = Tracer()
        tracer.install(cli, enumeration, analysis, perm, rectpat, construct)
        try:
            rounds.append(run_round(workload, tracer))
        finally:
            tracer.uninstall()
        return rounds, tracer
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, meter=SpeedMeter()))
        typical = statistics.median(rd.elapsed for rd in rounds)
        if time.perf_counter() - start + typical > seconds:
            return rounds, None


def check_answers(workload, rounds: list[Round]) -> tuple[dict, int, list[dict]]:
    """Run the untimed reference requests, then check every answer."""
    refs = reduced_identity()
    reference = [harness.run_request(cli.main, r.argv, r.kind, r.expect) for r in workload.reference_requests()]
    refs["serial"] = {tuple(r.argv): r for r in reference}
    records = [r for rd in rounds for r in rd.records] + reference
    failures = []
    for rec in records:
        reason = workload.check(rec, refs)
        if reason is not None:
            failures.append({"argv": rec.argv, "reason": reason})
    return refs, len(records), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if SRC not in Path(latinpat.__file__).resolve().parents:
        sys.stderr.write(f"error: latinpat imported from {latinpat.__file__}, not from {SRC}\n")
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / f"work-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            import_in_fresh_interpreter()
            workload.setup(work / f"setup{rep}", cli)
            setup_times.append(time.perf_counter() - t0)
        rounds, tracer = measure(workload, args.seconds, bool(args.trace))
        refs, attempted, failures = check_answers(workload, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    predictions = {k: {"predicted": v} for k, v in workload.no_change.items()}
    if tracer is not None:
        metrics = per_layer(workload, rounds[0], rounds[1], tracer, refs)
        extra, samples = {}, {"rounds": 1, "requests": len(rounds[1].records)}
        for k, p in predictions.items():
            p["measured"] = metrics[k][0]
            p["held"] = p["measured"] == p["predicted"]
    else:
        metrics, extra, samples = end_to_end(rounds, statistics.median(setup_times))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "environment": environment(workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_times_s": setup_times,
        "round_walls_s": [rd.wall for rd in rounds],
        "round_walls_norm_s": [rd.wall_norm for rd in rounds],
        "round_peak_rss_mb": [rd.peak_rss for rd in rounds],
        "request_walls_s": [rd.request_walls for rd in rounds],
        "request_walls_norm_s": [rd.request_norm for rd in rounds],
        "probe": {"ref_s": PROBE_REF_S, "interval_s": PROBE_INTERVAL_S,
                  "walls_s": [p for rd in rounds for p in rd.probe_walls]},
        "samples": samples,
        "ops_failed_ratio": len(failures) / attempted,
        "unbounded_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "no_change_predictions": predictions,
        "failures": failures[:50],
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["tracing_overhead_s"] = rounds[1].wall - rounds[0].wall
        record["untraced_wall_s"] = rounds[0].wall
        record["self_time_s"] = tracer.self_times()
        record["missing_boundaries"] = tracer.missing
        record["spans_file"] = f"{stem}-spans.jsonl"
        tracer.dump(OUT / record["spans_file"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"requests={samples['requests']} record=bench/out/{stem}.json")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = ""
        if name == "request_p99_norm_ms":
            note = f"  (n={samples['requests']} requests, {samples['beyond_p99']} beyond it)"
        print(f"{name:32s} {value:>16.6g} {unit}{note}")
    for name, p in predictions.items():
        if "held" in p:
            print(f"prediction {name} = {p['predicted']}: {'holds' if p['held'] else 'does not hold'} ({p['measured']:.6g})")
    print(f"{'ops_failed_ratio':32s} {record['ops_failed_ratio']:>16.6g} ratio  ({len(failures)} failed / {attempted} attempted)")
    for f in failures[:10]:
        print(f"FAILED {' '.join(f['argv'])}: {f['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
