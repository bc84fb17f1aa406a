"""hopfcleft benchmark: seeded CLI job lists, end-to-end and per-layer metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: its CLI jobs run one at a
time, each in a fresh Python process started through ``bench/launch.py``
with ``src`` on ``PYTHONPATH``. Inputs are generated from the seed into a
private work directory under ``bench/.work`` that is removed at the end.

``--trace 0`` runs the job list in rounds for about ``--seconds`` seconds
(at least one round) and reports the end-to-end metrics. ``--trace 1`` runs
one untraced round and one traced round and reports the per-layer metrics.
Every job's report bytes, exit code and written files are compared with
``bench/goldens.json`` and with semantic checks that do not depend on the
goldens. The last line of standard output is one JSON object; the exit code
is 0 when every job passed, 1 when one failed and 2 on a usage error.

``--record-goldens`` runs every job any seed can produce and rewrites
``bench/goldens.json``. Use it only when report bytes change on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable
from itertools import product

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "hopfcleft", "data")
GOLDENS = os.path.join(BENCH, "goldens.json")
LAUNCH = os.path.join(BENCH, "launch.py")
JOB_LIMIT_S = 170.0  # every run must end within 180 s

SHIPPED = ("qline_kc2_f3.had", "qline_kc4_f5.had", "kc4_zeta4.had", "kc2_q.had")
FIELD_TAGS = {"f": "F_{}", "q": "Q", "z": "Q(zeta_{})"}


# -- workloads ---------------------------------------------------------------


@dataclass
class Job:
    args: list[str]  # CLI arguments; file names are relative to the work dir
    check: Callable[[dict], str | None] | None = None  # semantic check: error or None
    outputs: tuple[str, ...] = ()  # files the job writes

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _ok(report):
    return None if report.get("ok") is True else "report is not ok"


def _notes_include(*wanted):
    def check(report):
        notes = report.get("notes", [])
        missing = [w for w in wanted if w not in notes]
        return _ok(report) or (f"missing notes {missing}" if missing else None)

    return check


def _qline(n, tag):
    return f"qline_kc{n}_{tag}.had"


def _census(n, p, classes=()):
    """census on the quantum line over kC_n and F_p: p restricted cocycles,
    and the given isomorphism classes."""
    notes = [f"restricted cocycles: {p}"] + [
        f"class {k}: cocycle indices [{', '.join(map(str, cls))}]"
        for k, cls in enumerate(classes)]
    return Job(["census", _qline(n, f"f{p}"), "--report", "json"], _notes_include(*notes))


def census_jobs(p_small):
    """Four census commands: kC4 over F_5 and F_3, kC2 over F_p and F_3."""
    return [
        [_census(4, 5, [[0], [1, 4], [2, 3]])],
        [_census(4, 3, [[0], [1], [2]])],
        [_census(2, p_small)],
        [_census(2, 3)],
    ]


def per_cocycle_jobs(k5, k7):
    """Per-cocycle commands on kC4 over F_5 and F_7 at one sigma index each,
    the oracle sweep of each input, and verify-hopf on each deformation."""
    groups = []
    for p, k in ((5, k5), (7, k7)):
        src = _qline(4, f"f{p}")
        sigma = ["--sigma-index", str(k), "--report", "json"]
        out = f"deformed_kc4_f{p}_s{k}.had"
        groups.append([
            Job(["oracle", src, "--role", "R", "--report", "json"],
                _notes_include(f"R: {p} restricted cocycles")),
            Job(["phi-inverse", src, *sigma], _ok),
            Job(["psi", src, *sigma], _ok),
            Job(["gr-check", src, *sigma], _ok),
            Job(["deform", src, *sigma, "--out", out], _ok, (out,)),
            Job(["verify-hopf", out, "--report", "json"], _ok),
        ])
    return groups


def char0_construct_jobs():
    """bosonize, verify-hopf and convolution-inverse over Q and Q(zeta_n)."""
    groups = []
    for n, tag in ((6, "q"), (8, "q"), (6, "z6"), (8, "z8")):
        out = f"boson_kc{n}_{tag}.had"
        groups.append([
            Job(["bosonize", _qline(n, tag), "--report", "json", "--out", out],
                _notes_include(f"bosonization: dim {2 * n}"), (out,)),
            Job(["verify-hopf", out, "--report", "json"], _ok),
            Job(["convolution-inverse", out, "--report", "json"], _ok),
        ])
    groups.append([
        Job(["verify-hopf", "kc4_zeta4.had", "--report", "json"], _ok),
        Job(["convolution-inverse", "kc4_zeta4.had", "--report", "json"], _ok),
    ])
    return groups


# a command with a trivial body, launched a few times before the first round:
# more set-up samples, and warm bytecode and page caches
SETUP_PROBE = Job(["verify-hopf", "kc2_q.had", "--report", "json"], _ok)
SETUP_PROBES = 6

# name -> (job-group builder, the choices the seed picks its arguments from)
WORKLOADS = {
    "census": (census_jobs, [(7, 11)]),
    "per_cocycle": (per_cocycle_jobs, [range(5), range(7)]),
    "char0_construct": (char0_construct_jobs, []),
}


def seeded_jobs(workload: str, seed: int) -> list[Job]:
    """The seed picks primes and sigma indices within a size class, and the
    order of the independent job groups."""
    builder, choices = WORKLOADS[workload]
    rng = random.Random(seed)
    groups = builder(*(rng.choice(list(c)) for c in choices))
    rng.shuffle(groups)
    return [job for group in groups for job in group]


def every_job(workload: str) -> list[Job]:
    """Every distinct job any seed can produce, for recording goldens."""
    builder, choices = WORKLOADS[workload]
    jobs = {SETUP_PROBE.key: SETUP_PROBE}
    for params in product(*choices):
        for group in builder(*params):
            for job in group:
                jobs.setdefault(job.key, job)
    return list(jobs.values())


# -- inputs ------------------------------------------------------------------


def prepare_inputs(jobs: list[Job], work: str):
    """Copy the shipped fixtures and generate the quantum-line inputs."""
    written = {o for job in jobs for o in job.outputs}
    needed = {a for job in jobs for a in job.args if a.endswith(".had")} - written
    for name in sorted(needed):
        path = os.path.join(work, name)
        if name in SHIPPED:
            shutil.copyfile(os.path.join(FIXTURES, name), path)
        else:
            generate_quantum_line(name, path)


def generate_quantum_line(name: str, path: str):
    """qline_kc<n>_<tag>.had: the quantum line over kC_n, with tag f<p> for
    F_p, q for Q and z<m> for Q(zeta_m)."""
    from hopfcleft import fixtures, io
    from hopfcleft.lifting import GradedYDHopf

    match = re.fullmatch(r"qline_kc(\d+)_([fqz])(\d*)\.had", name)
    if match is None:
        raise ValueError(f"no generator for input {name}")
    n, kind, arg = int(match[1]), match[2], match[3]
    field_ = io.parse_field(FIELD_TAGS[kind].format(arg))
    line = fixtures.quantum_line(fixtures.cyclic_group_hopf(field_, n))
    g = GradedYDHopf(line, fixtures.quantum_line_grading())
    io.save(io.graded_to_definition(g, ambient_name=f"KC{n}"), path)


# -- running jobs ------------------------------------------------------------


@dataclass
class JobResult:
    job: Job
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    setup_s: float | None
    outputs: dict = field(default_factory=dict)  # name -> sha256
    trace: dict | None = None


def run_job(job: Job, work: str, index: int, trace: bool, deadline: float) -> JobResult:
    record = os.path.join(work, f"job{index}.json")
    out_path = os.path.join(work, f"job{index}.out")
    err_path = os.path.join(work, f"job{index}.err")
    env = dict(os.environ, PYTHONPATH=SRC)
    for stale in (record, *(os.path.join(work, o) for o in job.outputs)):
        if os.path.exists(stale):
            os.remove(stale)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, LAUNCH, record, repr(spawn), "1" if trace else "0", "--", *job.args],
            cwd=work, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(max(deadline - spawn, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    stamps = {}
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            stamps = json.load(fh)
    body = stamps.get("body")
    result = JobResult(
        job, proc.returncode, stdout, stderr, end - spawn,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        None if body is None else body - spawn, trace=stamps.get("trace"))
    for name in job.outputs:
        path = os.path.join(work, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                result.outputs[name] = _digest(fh.read())
    return result


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_round(jobs: list[Job], work: str, trace: bool, deadline: float):
    start = time.monotonic()
    results = [run_job(job, work, i, trace, deadline) for i, job in enumerate(jobs)]
    return time.monotonic() - start, results


def check_result(r: JobResult, goldens: dict) -> list[str]:
    """The golden comparison and the semantic checks; the error texts."""
    golden = goldens.get(r.job.key)
    if golden is None:
        return ["no golden output recorded"] + semantic_errors(r)
    errors = []
    if r.exit != golden["exit"]:
        errors.append(f"exit code {r.exit}, golden {golden['exit']}")
    if _digest(r.stdout) != golden["stdout"]:
        errors.append("report bytes differ from the golden output")
    if r.outputs != golden["outputs"]:
        errors.append("written files differ from the golden output")
    return errors + semantic_errors(r)


def semantic_errors(r: JobResult) -> list[str]:
    """Checks that do not depend on the goldens: exit code 0 and the job's
    own check of its JSON report."""
    if r.exit != 0:
        return [f"exit code {r.exit}: {r.stderr.decode(errors='replace').strip()[-300:]}"]
    try:
        report = json.loads(r.stdout)
    except ValueError:
        return ["report is not JSON"]
    problem = r.job.check(report) if r.job.check else None
    return [problem] if problem else []


# -- metrics -----------------------------------------------------------------


def end_to_end(probes, rounds, failed: int, attempted: int) -> dict:
    jobs = [r for _, results in rounds for r in results]
    setups = [r.setup_s for r in probes + jobs if r.setup_s is not None]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "run_s": statistics.median(wall for wall, _ in rounds),
        "cpu_s": statistics.median(sum(r.cpu_s for r in results) for _, results in rounds),
        "job_p50_s": statistics.median(r.wall_s for r in jobs),
        "peak_rss_mb": max(r.maxrss_kb for r in jobs) / 1024,
        "failed_frac": failed / attempted,
        "jobs": len(jobs),
        "setups": len(setups),
        "rounds": len(rounds),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- entry points ------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, goldens: dict, work: str):
    """Run the workload; return (metrics, attempted, failed)."""
    deadline = time.monotonic() + JOB_LIMIT_S
    jobs = seeded_jobs(workload, seed)
    prepare_inputs(jobs + [SETUP_PROBE], work)
    _, probes = run_round([SETUP_PROBE] * SETUP_PROBES, work, False, deadline)
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append(run_round(jobs, work, False, deadline))
        elapsed = time.monotonic() - start
        if trace or elapsed + rounds[-1][0] > seconds:
            break
    traced = run_round(jobs, work, True, deadline) if trace else None
    untraced = probes + [r for _, results in rounds for r in results]
    checked = [(r, check_result(r, goldens)) for r in untraced]
    if traced:
        for r, plain in zip(traced[1], rounds[0][1]):
            errors = check_result(r, goldens)
            if r.stdout != plain.stdout:
                errors.append("traced report differs from the untraced report")
            checked.append((r, errors))
    failed = 0
    for r, errors in checked:
        if errors:
            failed += 1
            print(f"FAILED {r.job.key}: {'; '.join(errors)}", file=sys.stderr)
    attempted = len(checked)
    if traced:
        from tracer import layer_metrics

        metrics = layer_metrics([r.trace for r in traced[1] if r.trace],
                                sum(r.wall_s for r in traced[1]), rounds[0][0], traced[0])
    else:
        metrics = end_to_end(probes, rounds, failed, attempted)
    return metrics, attempted, failed


def record_goldens():
    goldens = {}
    work = _work_dir("record")
    try:
        for workload in WORKLOADS:
            jobs = every_job(workload)
            prepare_inputs(jobs, work)
            _, results = run_round(jobs, work, False, time.monotonic() + 3600)
            for r in results:
                errors = semantic_errors(r)
                if errors:
                    raise SystemExit(f"{r.job.key}: {'; '.join(errors)}")
                goldens[r.job.key] = {"exit": r.exit, "stdout": _digest(r.stdout),
                                      "outputs": r.outputs}
                print(f"{r.wall_s:7.2f}s  {r.job.key}", file=sys.stderr)
    finally:
        _remove_work_dir(work)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _work_dir(tag: str) -> str:
    path = os.path.join(BENCH, ".work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    return path


def _remove_work_dir(path: str):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))  # only when no other run is using it
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    opts = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hopfcleft")):
        print(f"error: no hopfcleft package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if opts.record_goldens:
        record_goldens()
        return 0
    if opts.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    work = _work_dir(opts.workload)
    try:
        metrics, attempted, failed = measure(
            opts.workload, opts.seed, opts.seconds, bool(opts.trace), goldens, work)
    finally:
        _remove_work_dir(work)
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    shown = wanted if opts.trace else wanted + [
        {"name": name, "unit": unit} for name, unit in
        (("job_p50_s", "s"), ("failed_frac", "ratio"), ("jobs", "count"),
         ("setups", "count"), ("rounds", "count"))]
    for m in shown:
        print(f"{m['name']:42s} {metrics.get(m['name'], 0.0):14.6f} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
