"""End-to-end job benchmark: load → supersteps → kill + recover → reads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pagerank-vc-20k-migrate-sim \\
        --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

The graph and the read stream are generated from ``--seed``.  Jobs
run back to back, each in a forked child, while the next one can end
within ``--seconds`` (at least one job, and with ``--trace 1`` at least
one plain and one traced job).  The output is a human-readable report,
one JSON record line with every job's raw numbers and the environment,
and as the last line the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ``end_to_end`` list of ``BENCHMARK.json`` with
``--trace 0`` and its ``per_layer`` list with ``--trace 1``.  See
``perfbench/README.md`` for what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import select
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: A run must end within 180 s; jobs still running at this point from
#: the start of the run are killed and counted as failed.
RUN_LIMIT_S = 170.0
#: The end-to-end metrics the report prints, in this order.
REPORT_E2E = ("setup_s", "total_s", "superstep_p50_ms", "recovery_s",
              "read_p50_us", "read_p99_us", "wrong_values", "read_misses",
              "peak_rss_mb")


class JobFailed(Exception):
    pass


def _load_program():
    """Import the program from this checkout's ``src/``, or exit."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _become_subreaper() -> None:
    """Adopt the orphans of finished jobs, so that processes a job
    leaves behind can be reaped here (Linux; elsewhere a no-op)."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _in_child(fn, args, timeout_s: float):
    """Run ``fn(*args)`` in a forked child, in its own process group.

    Returns ``(value, peak_rss_mb)``; raises :class:`JobFailed` on an
    exception, a timeout, or a process the job left behind.  Every
    process of the group has ended when this returns.
    """
    # Every child starts from the same collector state, so collections
    # land at the same points of every job.
    gc.collect()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            payload = pickle.dumps(("ok", fn(*args)))
        except BaseException:
            payload = pickle.dumps(("error", traceback.format_exc()))
            code = 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(len(payload).to_bytes(8, "little") + payload)
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except (PermissionError, ProcessLookupError):
        pass  # the child got there first
    # Length-prefixed, so a process the job leaves behind holding the
    # pipe open cannot stall the read.
    data, size, error = b"", None, None
    deadline = time.monotonic() + timeout_s
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while size is None or len(data) < size + 8:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([pipe], [], [], left)[0]:
                    error = f"timed out after {timeout_s:.0f}s"
                    try:
                        os.killpg(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    break
                chunk = pipe.read(1 << 20)
                if not chunk:
                    break
                data += chunk
                if size is None and len(data) >= 8:
                    size = int.from_bytes(data[:8], "little")
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted or terminated: take the job down
        _kill_group(pid)
        raise
    if _group_alive(pid):
        error = error or "the job left a process running"
        _kill_group(pid)
    if error is None and (size is None or len(data) < size + 8):
        error = f"the job process died (wait status {status})"
    if error is None:
        outcome, value = pickle.loads(data[8:])
        if outcome == "ok":
            return value, usage.ru_maxrss / 1024.0
        error = value
    raise JobFailed(error)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_group(pgid: int) -> None:
    """SIGKILL every process of the group and wait until all are gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:  # orphans were adopted by this process
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            break
    deadline = time.monotonic() + 5.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def _median(jobs: list[dict], name: str) -> float:
    values = [job[name] for job in jobs if name in job]
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    import jobs as bench

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        name, "not in BENCHMARK.json")
    workload = bench.WORKLOADS[name]
    run_start = time.monotonic()
    graph, reads, graph_seed = bench.make_inputs(workload, seed)
    ref, _ = _in_child(bench.reference, (workload, graph, seed, trace),
                       RUN_LIMIT_S)
    job_fn = bench.JOBS[workload.backend]

    done: list[dict] = []
    errors: list[str] = []
    attempted = 0
    last_job_s = 0.0
    measure_start = time.monotonic()
    # A job starts only if it can end within --seconds, judged by the
    # wall of the job before it.
    while (attempted < (2 if trace else 1)
           or time.monotonic() - measure_start + last_job_s <= seconds):
        traced = trace and attempted % 2 == 1
        attempted += 1
        job_start = time.monotonic()
        left = RUN_LIMIT_S - (job_start - run_start)
        try:
            job, peak_mb = _in_child(
                job_fn, (workload, graph, reads, ref, seed, traced), left)
        except JobFailed as exc:
            errors.append(str(exc))
            continue
        finally:
            last_job_s = time.monotonic() - job_start
        job["peak_rss_mb"] = peak_mb
        job["traced"] = traced
        done.append(job)
    for err in errors:
        print(f"perfbench: {name}: job failed:\n{err}", file=sys.stderr)

    plain = [j for j in done if not j["traced"]]
    traced_jobs = [j for j in done if j["traced"]]
    if trace:
        plain_total = _median(plain, "total_s")
        for job in traced_jobs:
            job["obs.unattributed_frac"] = 1.0 - (job["_covered_s"]
                                                  / job["total_s"])
            if plain_total:
                job["obs.trace_overhead_frac"] = (job["total_s"]
                                                  / plain_total - 1.0)
            job.update(ref["codec"])
        metrics = {m["name"]: _median(traced_jobs, m["name"])
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: _median(plain, m["name"])
                   for m in spec["end_to_end"]}
    correct = bool(done) and not errors and all(
        j["values_acceptable"] for j in done)

    env = {"workload": name, "seed": seed, "seconds": seconds,
           "measured_s": round(time.monotonic() - measure_start, 3),
           "run_s": round(time.monotonic() - run_start, 3),
           "graph_seed": graph_seed, "graph_edges": graph.num_edges,
           "trace": int(trace), "cpu_count": os.cpu_count(),
           "python": platform.python_version(),
           "numpy": bench.np.__version__}
    _print_report(env, why, workload, plain, traced_jobs, metrics,
                  units, len(errors))
    print(json.dumps({
        "record": {
            **env, "known_gap": workload.known_gap, "errors": errors,
            "jobs": [{k: v for k, v in j.items() if not k.startswith("_")}
                     for j in done],
        }
    }))
    if not done:
        raise SystemExit(f"perfbench: {name}: every job failed")
    return {"correct": correct, "attempted": attempted,
            "failed": len(errors),
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def _print_report(env, why, workload, plain, traced_jobs, metrics,
                  units, failed) -> None:
    print(f"== {env['workload']}  seed={env['seed']}  "
          f"graph_seed={env['graph_seed']}  edges={env['graph_edges']}  "
          f"jobs={len(plain)} "
          f"plain + {len(traced_jobs)} traced, {failed} failed  "
          f"cpu_count={env['cpu_count']}  python={env['python']}  "
          f"numpy={env['numpy']}")
    print(f"   why: {why}")
    if workload.known_gap:
        print(f"   known gap: {workload.known_gap}")
    print("   end to end (median of plain jobs):")
    for key in REPORT_E2E:
        shown = (f"{_median(plain, key):.6g}"
                 if any(key in job for job in plain) else "n/a")
        print(f"     {key:<20} {shown:>12} {units[key]}")
    if not traced_jobs:
        return
    total = _median(traced_jobs, "total_s")
    rows = ["partition.s", "ft.plan_s", "engine.construct_s"]
    if workload.backend == "sim":
        rows += ["engine.superstep0_s", "engine.steady_s",
                 "ft.recovery.failed_attempt_s", "ft.recovery.protocol_s",
                 "ft.recovery.finish_s", "ft.recovery.redo_s",
                 "engine.result_s"]
    else:
        rows += ["exec.mp.loop_s"]
    print("   per-layer wall time (median of traced jobs, share of "
          "total_s):")
    for key in rows:
        value = _median(traced_jobs, key)
        print(f"     {key:<30} {value:10.4f} s  {value / total:6.1%}")
    unattributed = metrics["obs.unattributed_frac"]
    print(f"     {'unattributed':<30} {unattributed * total:10.4f} s  "
          f"{unattributed:6.1%}")
    print(f"     {'total_s':<30} {total:10.4f} s")
    print("   per-layer metrics (traced):")
    for key, value in metrics.items():
        print(f"     {key:<34} {value:.6g} {units[key]}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # One process, no helper threads: the job is driven from a single
    # thread on a small host, and forked children must not inherit
    # thread pools.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _load_program()
    _become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, HERE)
    import jobs as bench

    names = (list(bench.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in bench.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choices: "
                     f"{', '.join(bench.WORKLOADS)}, all")
    results = {n: run_workload(n, args.seed, args.seconds,
                               bool(args.trace), spec) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
