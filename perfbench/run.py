"""Run one benchmark workload against the partfan sources of this checkout.

    python3 perfbench/run.py --workload coxeter-rank3 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run imports partfan from ``src``,
builds the workload's inputs from the seed, then repeats whole rounds of
the workload's jobs until ``--seconds`` have passed (at least one round).
Every job's output is checked against oracles computed without partfan.

Standard output ends with two lines: a JSON record of the run (Python
version, source digest, job-level times, verdicts, problems, CLI output
digests) and the result object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 1`` one traced round is run, the metrics are
the per-layer ones, and the spans are written to ``.bench_out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

import tracer as tracing
import workloads

# The placement probe's time on the reference machine (a 2-vCPU Xeon virtual
# machine, Python 3.11.7).  Job and set-up times are reported at that speed:
# a time measured while the probe took p seconds is scaled by PROBE_REF_S / p.
PROBE_REF_S = 0.004


def at_reference_speed(seconds, probe_s):
    return seconds * PROBE_REF_S / probe_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def partfan_modules():
    return {n: m for n, m in sys.modules.items() if n == "partfan" or n.startswith("partfan.")}


def import_partfan():
    """A fresh import of partfan and the modules the workloads call."""
    for name in partfan_modules():
        del sys.modules[name]
    import partfan
    import partfan.catalog  # noqa: F401
    import partfan.cli  # noqa: F401
    return partfan


class SetupTimer:
    """Set-up samples: a fresh import of partfan plus building the inputs.

    The first sample's import is the one the run uses.  Later samples are
    spread through the run (see Pauses), so their median sees the same slow
    and fast spells of the machine as the jobs do.  A later sample puts the
    run's own modules back when it is done.  The oracles' data is built
    with the jobs, outside the timed set-up.  Each sample follows a
    placement, whose probe time it keeps.
    """

    def __init__(self, make_inputs, seed, placer):
        self.make_inputs, self.seed, self.placer = make_inputs, seed, placer
        placer()
        start = perf_counter()
        self.package = import_partfan()
        self.inputs = make_inputs(seed)
        self.samples = [perf_counter() - start]
        self.probes = [placer.probes[-1]]

    def sample(self):
        saved = partfan_modules()
        gc.collect()
        start = perf_counter()
        try:
            import_partfan()
            self.make_inputs(self.seed)
            self.samples.append(perf_counter() - start)
            self.probes.append(self.placer.probes[-1])
        finally:
            for name in partfan_modules():
                del sys.modules[name]
            sys.modules.update(saved)

    def median(self):
        """The median sample at reference speed."""
        return statistics.median(map(at_reference_speed, self.samples, self.probes))


def source_identity(root):
    """(git commit or None, sha256 of the partfan sources)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "partfan")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return git_commit(root), digest.hexdigest()


def git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class CpuPlacer:
    """Pins the process to the allowed CPU that runs a short fixed loop fastest.

    On a shared host one CPU can run 30-40% slower than the other for
    seconds at a time, while another tenant loads its core.  Placing the
    process often (see Pauses) keeps the measured work on the quieter CPU.
    It acts on this process only.  The chosen CPU's probe time measures the
    machine's speed at that moment, for ``at_reference_speed``.
    """

    PROBE_STEPS = 50000

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.placements = Counter()
        self.probes = []

    def _probe(self):
        start = perf_counter()
        total = 0
        for i in range(self.PROBE_STEPS):
            total += i * i % 7
        return perf_counter() - start

    def __call__(self):
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(self._probe(), self._probe()), cpu))
        probe, cpu = min(timings)
        os.sched_setaffinity(0, {cpu})
        self.probes.append(probe)
        self.placements[cpu] += 1


class Pauses:
    """Placement and one set-up sample, before each job and every INTERVAL_S
    seconds while a job runs (``during``, on SIGALRM).

    On the reference machine one moment's set-up time can differ from the
    next by 1.7x, so set-up is sampled at many moments spread over the whole
    run, even in a run of three long jobs.  A sample taken inside a job
    swaps partfan's modules and puts them back before the job goes on, and
    the job's code keeps its own.  The time of a pause is kept in ``spent``
    and left out of job times.
    """

    INTERVAL_S = 1.0

    def __init__(self, placer, setup):
        self.placer, self.setup = placer, setup
        self.spent = 0.0
        signal.signal(signal.SIGALRM, lambda signum, frame: self())

    def __call__(self):
        start = perf_counter()
        self.placer()
        self.setup.sample()
        self.spent += perf_counter() - start

    @contextmanager
    def during(self):
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def run_rounds(jobs, seconds, tracer, workload, pause):
    """Whole rounds of the jobs until ``seconds`` have passed (one when tracing)."""
    job_times = {name: [] for name, _, _ in jobs}    # at reference speed
    wall_times = {name: [] for name, _, _ in jobs}
    rounds, problems, errors = 0, [], Counter()
    sizes, digests = Counter(), {}
    attempted = failed = 0
    start = perf_counter()
    while True:
        for name, compute, check in jobs:
            if tracer is not None:
                tracer.job = name
            pause()
            gc.collect()   # each job starts from a collected heap, as in a fresh process
            probes = pause.placer.probes
            first, paused, t0 = len(probes) - 1, pause.spent, perf_counter()
            # A traced run keeps pauses out of its spans; it reports no set-up.
            with pause.during() if tracer is None else nullcontext():
                try:
                    result, error = compute(), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, error = None, type(exc).__name__
            elapsed = perf_counter() - t0 - (pause.spent - paused)
            attempted += 1
            wall_times[name].append(elapsed)
            job_times[name].append(at_reference_speed(elapsed,
                                                      statistics.mean(probes[first:])))
            if error is not None:
                failed += 1
                errors["%s: %s" % (name, error)] += 1
            else:
                problems += check(result, sizes if rounds == 0 else Counter())
            if workload == "cli-pipelines":
                digest = workloads.cli_digest(name, result, error)
                if digests.setdefault(name, digest) != digest:
                    problems.append("%s: output differs between rounds" % name)
            del result   # free the output before the next set-up sample
        rounds += 1
        if tracer is not None or perf_counter() - start >= seconds:
            break
    return {"job_times": job_times, "wall_times": wall_times, "rounds": rounds,
            "problems": problems,
            "errors": dict(errors), "sizes": sizes, "digests": digests,
            "attempted": attempted, "failed": failed}


def ungated_metrics(job_times):
    """Job-level figures that not every workload can report steadily: the
    median job, p90 when there are at least 100 jobs, and each job's median."""
    all_jobs = [t for times in job_times.values() for t in times]
    out = {"job_p50_s": {"value": statistics.median(all_jobs), "unit": "s"}}
    if len(all_jobs) >= 100:
        out["job_p90_s"] = {"value": statistics.quantiles(all_jobs, n=10)[-1], "unit": "s"}
    for name, times in job_times.items():
        out["job_s." + name] = {"value": statistics.median(times), "unit": "s"}
    return out


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "partfan", "__init__.py")):
        print("run.py: no partfan sources under %s/src" % root, file=sys.stderr)
        return 2
    # Write no bytecode, so partfan is compiled from source on every import,
    # set-up costs the same in every run and the checkout stays clean.
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(root, "src"))

    make_inputs, make_jobs = workloads.WORKLOADS[args.workload]
    placer = CpuPlacer()
    setup = SetupTimer(make_inputs, args.seed, placer)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    outcome = run_rounds(make_jobs(setup.package, setup.inputs), args.seconds,
                         tracer, args.workload, Pauses(placer, setup))

    # One round of the job list, each job at its median over the rounds, so
    # a slow spell of the machine during one round counts only once.
    run_s = sum(statistics.median(times) for times in outcome["job_times"].values())
    wall_run_s = sum(statistics.median(times) for times in outcome["wall_times"].values())
    commit, source = source_identity(root)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "commit": commit, "source_sha256": source,
        "rounds": outcome["rounds"], "jobs_per_round": len(outcome["job_times"]),
        "cpu_placements": dict(placer.placements), "setup_samples": len(setup.samples),
        "cpu_probe_median_s": statistics.median(placer.probes),
        "wall": {"run_s": wall_run_s, "setup_s": statistics.median(setup.samples)},
        "failed_operations": outcome["errors"], "problems": outcome["problems"][:20],
        "verdicts": {k: v for k, v in outcome["sizes"].items() if k.startswith("verdict.")},
        "ungated": ungated_metrics(outcome["job_times"]),
    }
    if outcome["digests"]:
        record["cli_digests"] = outcome["digests"]

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup.median(), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        tracer.counts.update({k: v for k, v in outcome["sizes"].items()
                              if k in tracer.counts})
        metrics = tracer.metrics()
        metrics["trace.run_s"] = {"value": run_s, "unit": "s"}
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write_spans(spans)
        record["spans"] = {"path": os.path.relpath(spans, root),
                           "count": len(tracer.spans)}

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not outcome["problems"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
