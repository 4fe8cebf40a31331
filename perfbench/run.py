"""Benchmark harness for the nodalbn command line.

    python3 perfbench/run.py --workload scan|catalog|bigtree --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a fixed list of
``nodalbn`` invocations on inputs made from the seed (``workloads.py``).
Every job runs in a fresh interpreter with ``PYTHONPATH=src`` and a fixed
``PYTHONHASHSEED``, one at a time: a closed loop with one client.  Each child
gets a timeout and an address-space cap, and its CPU time and peak RSS are
read with ``os.wait4``.

A run makes one untimed warm-up pass, whose outputs are checked in full
(exit codes, stdout digests against ``goldens.json`` for the default seed,
and spot checks against raw arithmetic and ``tests/oracles.py`` for every
seed).  Then it repeats rounds while another one fits in ``--seconds``: a
few set-up samples (a fresh interpreter running ``bn number``) and one timed
pass over the job list.  Timed passes must reproduce the warm-up outputs
byte for byte.  Any mismatch, timeout or crash counts as a failed job.

A shared host's speed drifts (on a 2-core box, by half between minutes and
by a fifth between seconds), so the set-up samples and each job of a timed
pass run between two runs of ``calibrate.py``, a fixed job that times the
host.  With
``--trace 0`` the metrics are per pass: ``wall_s`` and ``cpu_s`` (user+sys
of the children) take each job's time over the mean of its two
calibrations, times CALIBRATION_S, as the median over the passes, summed
over the job list: seconds on a host where ``calibrate.py`` takes
CALIBRATION_S.  ``setup_s`` is the median of the set-up samples scaled the
same way, and ``peak_rss_mb`` (largest child max-RSS) the median over the
passes.  The unscaled times are in the details line.

With ``--trace 1`` untraced and traced passes alternate; traced jobs run
under ``tracer.py`` and the metrics are per-layer self time (unscaled),
call counts and work counts per pass, plus the tracing overhead (the ratio
of scaled traced to untraced ``wall_s``, less one).

A line of run details (Python version, nproc, failure fraction, tail
percentiles) precedes the result, which is the last line of standard
output as one JSON object.

``--write-goldens`` records the default seed's stdout digests instead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # import tests/oracles.py read-only

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

DEFAULT_SEED = 0
GOLDENS = HERE / "goldens.json"
JOB_TIMEOUT_S = 60
RUN_DEADLINE_S = 170  # every run, builds aside, must end within 180 s
MEMORY_CAP = 1 << 30  # address space per child
SETUP_PER_ROUND = 3  # set-up samples taken before each timed pass
SETUP_ARGS = ("bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1")
SETUP_ANSWER = f"beta: {workloads.beta(3, 2, 4, 1)}\n".encode()
CALIBRATION_ANSWER = b"rows: 16807\n"
# Timings are reported for a host that runs calibrate.py in this long.
CALIBRATION_S = 0.15
CLI_ENTRY = "import sys; from nodalbn.cli import main; sys.exit(main())"

COUNTS = (
    "components.tuples_enumerated", "components.tuples_small_slope",
    "brill_noether.cells", "brill_noether.certified",
    "components.stability_evals", "components.radius_evals",
    "polarization.defect_evals", "cli.output_bytes", "cli.table_rows",
    "parsing.bytes", "curve.edge_splits_calls", "curve.connectivity_checks",
    "ordering.decompositions", "polarization.splits_checked",
)


@dataclass
class Outcome:
    """One finished child: what it printed and what it cost."""

    exit: int
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, job_id: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{job_id}: {e}" for e in errors)


class Runner:
    """Starts children one at a time under the resource rails."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env = env

    def argv(self, job: workloads.Job, trace_out: Path | None) -> list[str]:
        if trace_out is not None:
            return [sys.executable, str(HERE / "tracer.py"), str(trace_out), job.id,
                    job.kind, *job.args]
        if job.kind == workloads.CLI:
            return [sys.executable, "-c", CLI_ENTRY, *job.args]
        return [sys.executable, str(HERE / "libjob.py"), *job.args]

    def run(self, argv: list[str]) -> Outcome:
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return Outcome(-1, b"", 0.0, 0.0, 0.0, True)
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env, preexec_fn=_limit_child)
            lock = threading.Lock()
            state = {"reaped": False, "killed": False}

            def expire() -> None:
                with lock:
                    if not state["reaped"]:
                        state["killed"] = True
                        os.kill(proc.pid, 9)

            timer = threading.Timer(timeout, expire)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out_path.read_bytes(), wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       state["killed"])


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


# -- passes -----------------------------------------------------------


@dataclass
class Pass:
    """Totals of one pass; for a traced pass, also time and counts by layer."""

    walls: dict[str, float] = field(default_factory=dict)
    cpus: dict[str, float] = field(default_factory=dict)
    setup: list[Outcome] = field(default_factory=list)
    calibration: list[Outcome] = field(default_factory=list)  # around setup and each job
    rss_mb: float = 0.0
    self_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    @property
    def cpu(self) -> float:
        return sum(self.cpus.values())

    def scaled(self, attr: str) -> dict[str, float]:
        """Each job's wall or CPU time over the mean of the calibrations around it.

        In seconds at a host speed where calibrate.py takes CALIBRATION_S.
        """
        cal = [getattr(o, attr) for o in self.calibration]
        times = self.walls if attr == "wall" else self.cpus
        return {job: CALIBRATION_S * t * 2 / (cal[k] + cal[k + 1])
                for k, (job, t) in enumerate(times.items(), start=1)}

    def scaled_setup(self) -> list[float]:
        """Set-up wall times, scaled like the jobs' by the calibrations around them."""
        mean = (self.calibration[0].wall + self.calibration[1].wall) / 2
        return [CALIBRATION_S * o.wall / mean for o in self.setup]

    def add(self, job: workloads.Job, outcome: Outcome) -> None:
        self.walls[job.id] = outcome.wall
        self.cpus[job.id] = outcome.cpu
        self.rss_mb = max(self.rss_mb, outcome.rss_mb)
        if job.kind == workloads.CLI:
            self.counts["cli.output_bytes"] += len(outcome.stdout)

    def add_trace(self, trace: dict) -> None:
        """Fold in one job's spans: a span's self time excludes its children."""
        layers = [name.split(".", 1)[0] for name in trace["names"]]
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, parent, t0, t1 in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (name, _, t0, t1), child in zip(spans, covered):
            self.self_s[layers[name]] += t1 - t0 - child
            self.calls[layers[name]] += 1
        for key, value in trace["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{layer}.self_s": t for layer, t in self.self_s.items()}
        out.update({f"{layer}.calls": n for layer, n in self.calls.items()})
        out.update({key: self.counts[key] for key in COUNTS})
        count = self.counts.get
        out["components.small_slope_yield"] = _ratio(
            count("components.tuples_small_slope"), count("components.small_slope_in"))
        out["brill_noether.tuples_per_cell"] = _ratio(
            count("brill_noether.tuples_enumerated"), count("brill_noether.cells"))
        return out


def _ratio(part: int | None, whole: int | None) -> float:
    return (part or 0) / whole if whole else 0.0


def job_errors(job: workloads.Job, outcome: Outcome, want_digest: str | None) -> list[str]:
    if outcome.timed_out:
        return [f"timed out or not started (limit {JOB_TIMEOUT_S} s)"]
    errors = []
    if outcome.exit != job.exit:
        errors.append(f"exit code {outcome.exit}, want {job.exit}")
    if outcome.digest != want_digest:
        errors.append(f"stdout digest {outcome.digest[:12]} differs from the reference")
    return errors


def warm_up(runner: Runner, jobs, goldens: dict | None, tally: Tally) -> dict[str, str | None]:
    """Run and fully check one pass; return each job's reference digest.

    ``goldens`` maps job ids to the digests every run must reproduce, or is
    None where there are none.  A job that fails here gets no reference, so
    every later run of it fails too.
    """
    reference: dict[str, str | None] = {}
    for job in jobs:
        outcome = runner.run(runner.argv(job, None))
        want = outcome.digest if goldens is None else goldens.get(job.id, "no golden")
        errors = job_errors(job, outcome, want)
        if not outcome.timed_out:
            try:
                errors += job.check(outcome.stdout.decode("utf-8"))
            except (ValueError, IndexError, KeyError, UnicodeDecodeError) as exc:
                errors.append(f"output unreadable: {exc!r}")
        tally.record(job.id, errors)
        reference[job.id] = None if errors else outcome.digest
    return reference


def timed_pass(runner: Runner, jobs, reference, tally: Tally, traced: bool) -> Pass:
    """Take the set-up samples, then run the job list once.

    calibrate.py runs before and after the set-up samples and after every job.
    """
    result = Pass()
    result.calibration += calibrate(runner, tally)
    result.setup = sample(runner, tally, "setup", [sys.executable, "-c", CLI_ENTRY, *SETUP_ARGS],
                          SETUP_ANSWER, SETUP_PER_ROUND)
    result.calibration += calibrate(runner, tally)
    for job in jobs:
        trace_out = runner.work / f"trace-{job.id}.json" if traced else None
        outcome = runner.run(runner.argv(job, trace_out))
        tally.record(job.id, job_errors(job, outcome, reference[job.id]))
        result.add(job, outcome)
        if traced and trace_out.exists():
            result.add_trace(json.loads(trace_out.read_text()))
            trace_out.unlink()
        result.calibration += calibrate(runner, tally)
    return result


def calibrate(runner: Runner, tally: Tally) -> list[Outcome]:
    return sample(runner, tally, "calibration", [sys.executable, str(HERE / "calibrate.py")],
                  CALIBRATION_ANSWER, 1)


def sample(runner: Runner, tally: Tally, what: str, argv: list[str], answer: bytes,
           count: int) -> list[Outcome]:
    """Run ``argv`` ``count`` times; each run must print ``answer``."""
    outcomes = []
    for _ in range(count):
        outcome = runner.run(argv)
        ok = outcome.exit == 0 and answer in outcome.stdout and not outcome.timed_out
        tally.record(what, [] if ok else [f"wrong answer: {outcome.stdout[:80]!r}"])
        outcomes.append(outcome)
    return outcomes


# -- reporting --------------------------------------------------------


def tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    info = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        k = n - 10
        info[f"p{math.floor(100 * k / n)}"] = ordered[k - 1]
    return info


def typical_pass(per_job: list[dict[str, float]]) -> float:
    """Each job's median over the passes, summed over the job list.

    A burst of load from another tenant slows the jobs it overlaps.  Taken
    job by job, the median drops a burst that hits a different job in each
    pass, which the median of whole passes would count in every pass it hit.
    """
    return sum(statistics.median(p[job] for p in per_job) for job in per_job[0])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def trace_metrics(traced: list[Pass], tally: Tally) -> dict:
    """Median self time per layer; counts, which must agree between passes."""
    per_pass = [p.layer_metrics() for p in traced]
    metrics = {}
    unstable = []
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith(".self_s"):
            metrics[key] = metric(statistics.median(values), "s")
            continue
        if any(v != values[0] for v in values):
            unstable.append(f"{key} differs between traced passes: {values}")
        unit = ("ratio" if key.endswith(("_yield", "_per_cell"))
                else "bytes" if key.endswith("bytes") else "count")
        metrics[key] = metric(values[0], unit)
    tally.record("trace counts", unstable)
    return metrics


def run(args: argparse.Namespace) -> int:
    start = time.monotonic()
    oracles = _load_oracles()
    work = ROOT / "perfbench" / "_work" / args.workload
    jobs = workloads.build(args.workload, args.seed, ROOT, oracles)
    runner = Runner(work, start + RUN_DEADLINE_S)
    tally = Tally()

    if args.write_goldens:
        reference = warm_up(runner, jobs, None, tally)
        goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
        goldens[args.workload] = reference
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"errors": tally.errors}))
        return 0 if not tally.failed else 1

    goldens = json.loads(GOLDENS.read_text())[args.workload] if args.seed == DEFAULT_SEED else None
    reference = warm_up(runner, jobs, goldens, tally)
    plain: list[Pass] = []
    traced: list[Pass] = []
    began = time.monotonic()
    # Start a round only if one more of the same length still fits in --seconds.
    while not plain or (time.monotonic() - began) * (len(plain) + 1) / len(plain) <= args.seconds:
        plain.append(timed_pass(runner, jobs, reference, tally, traced=False))
        if args.trace:
            traced.append(timed_pass(runner, jobs, reference, tally, traced=True))

    walls = [p.scaled("wall") for p in plain]
    cpus = [p.scaled("cpu") for p in plain]
    setup = [s for p in plain for s in p.scaled_setup()]
    if args.trace:
        metrics = trace_metrics(traced, tally)
        overhead = typical_pass([p.scaled("wall") for p in traced]) / typical_pass(walls) - 1
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    else:
        metrics = {
            "wall_s": metric(typical_pass(walls), "s"),
            "cpu_s": metric(typical_pass(cpus), "s"),
            "peak_rss_mb": metric(statistics.median(p.rss_mb for p in plain), "MB"),
            "setup_s": metric(statistics.median(setup), "s"),
        }

    pass_walls = [sum(w.values()) for w in walls]
    details = {
        "workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "client": "closed loop, 1 client", "passes": len(plain),
        "traced_passes": len(traced), "fail_frac": tally.failed / tally.attempted,
        "wall_s": tail(pass_walls), "cpu_s": tail([sum(c.values()) for c in cpus]),
        "pass_wall_s": [round(w, 4) for w in pass_walls], "setup_s": tail(setup),
        "unscaled": {"wall_s": tail([p.wall for p in plain]),
                     "cpu_s": tail([p.cpu for p in plain]),
                     "setup_s": tail([o.wall for p in plain for o in p.setup])},
        "calibration_s": tail([o.wall for p in plain for o in p.calibration]),
        "errors": tally.errors[:20],
    }
    print("details: " + json.dumps(details))
    print(json.dumps({"correct": not tally.failed, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="record the default seed's stdout digests in goldens.json")
    args = parser.parse_args()
    missing = [p for p in ("src/nodalbn/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a nodalbn checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.write_goldens and args.seed != DEFAULT_SEED:
        parser.error(f"goldens are recorded for the default seed {DEFAULT_SEED}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
