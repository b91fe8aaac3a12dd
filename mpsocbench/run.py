"""The repository benchmark: one command per workload and seed.

    python3 mpsocbench/run.py --workload platform|observed|campaigns \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in a
fresh interpreter (so no warm daemon worker, decode cache or result
cache of an earlier run leaks into it), first a few set-up-only times
for ``setup_s``, then once for the timed rounds.  The last stdout line
is the result: with ``--trace 0`` every end-to-end metric, with
``--trace 1`` every per-layer metric.  A full record -- git sha, host
fingerprint, repeat count, median and IQR of every metric, call counts
and self times -- goes to ``.mpsocbench/``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from mpsocbench.metrics import END_TO_END, PER_LAYER, describe, tail  # noqa: E402
from mpsocbench.procs import live_children  # noqa: E402

WORKLOADS = ("platform", "observed", "campaigns")
SETUP_REPEATS = 3       # set-up-only processes, plus the timed one
CHILD_TIMEOUT_S = 150
PR_SET_CHILD_SUBREAPER = 36


def _fail(message: str, code: int = 2) -> int:
    print(f"mpsocbench: {message}", file=sys.stderr)
    return code


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so a worker that outlives its parent
    still shows up as left behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _child(args: argparse.Namespace, env: dict, setup_only: bool) -> dict:
    command = [sys.executable, "-m", "mpsocbench.child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spawned-at", repr(time.time())]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process exceeded "
                           f"{CHILD_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0:
        result.setdefault("error", f"workload process exited "
                                   f"{proc.returncode}")
        result["correct"] = False
    return result


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _host() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine()}


def _round_cost(rounds: list, workers: bool) -> dict:
    """Host wall and CPU seconds of one round's fixed work, and the
    median op latency.

    The host's interference comes in short bursts, so each op's fastest
    repetition is its undisturbed cost: the round's cost is the sum of
    those minima, and the median op latency their median.  When the ops
    ran in worker processes, a worker's time and CPU are not confined to
    the op that started it, so the median round and the median of every
    op stand in.  Rounds with a failed op are left out: their ops no
    longer line up with the others'."""
    clean = [r for r in rounds if r["clean"]] or rounds
    width = len(clean[0]["op_wall_s"])
    work = {"instrs": statistics.median(r["instrs"] for r in clean),
            "jobs": statistics.median(r["jobs"] for r in clean)}
    if not workers and all(len(r["op_wall_s"]) == width for r in clean):
        fastest = [min(r["op_wall_s"][i] for r in clean)
                   for i in range(width)]
        return {"estimator": f"per-op minima over {len(clean)} rounds",
                "wall_s": sum(fastest),
                "cpu_s": sum(min(r["op_cpu_s"][i] for r in clean)
                             for i in range(width)),
                "op_p50_s": statistics.median(fastest), **work}
    return {"estimator": f"median of {len(clean)} rounds",
            "wall_s": statistics.median(r["wall_s"] for r in clean),
            "cpu_s": statistics.median(r["cpu_s"] for r in clean),
            "op_p50_s": statistics.median(
                s for r in clean for s in r["op_wall_s"]), **work}


def _end_to_end(result: dict, setup: list, peak_rss_kb: int) -> dict:
    """End-to-end values plus the statistics behind each: the record
    keeps the per-round median, quartiles and IQR beside every value."""
    rounds = result["rounds"]
    cost = _round_cost(rounds, result["workers"])
    ops_ms = [1000 * s for s in result["op_seconds"]]
    op_tail = tail(ops_ms)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": cost["wall_s"],
        "cpu_s": cost["cpu_s"],
        "sim_minstr_per_s": cost["instrs"] / cost["wall_s"] / 1e6,
        "jobs_per_s": cost["jobs"] / cost["wall_s"],
        "op_p50_ms": 1000 * cost["op_p50_s"],
    }
    samples = {
        "setup_s": setup,
        "wall_s": [r["wall_s"] for r in rounds],
        "cpu_s": [r["cpu_s"] for r in rounds],
        "sim_minstr_per_s": [r["instrs"] / r["wall_s"] / 1e6
                             for r in rounds],
        "jobs_per_s": [r["jobs"] / r["wall_s"] for r in rounds],
        "op_p50_ms": ops_ms,
    }
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": END_TO_END[name],
                         **describe(samples[name])}
    for name in ("wall_s", "cpu_s", "sim_minstr_per_s", "jobs_per_s",
                 "op_p50_ms"):
        metrics[name]["estimator"] = cost["estimator"]
    metrics["op_tail_ms"] = {"value": op_tail["value"], "unit": "ms",
                             "percentile": op_tail["pct"],
                             "n": op_tail["n"]}
    metrics["peak_rss_mb"] = {"value": peak_rss_kb / 1024, "unit": "MB",
                              "n": 1}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r} "
                     f"(expected one of {', '.join(WORKLOADS)})")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        return _fail(f"no src/repro under {ROOT}: run from the root of a "
                     f"full checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    _become_subreaper()
    out_dir = os.path.join(ROOT, ".mpsocbench")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                           ROOT]),
               TMPDIR=scratch, PYTHONHASHSEED="0")
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            result = _child(args, env, setup_only=True)
            if "setup_s" not in result:
                return _fail(result.get("error", "set-up failed"), 1)
            setup.append(result["setup_s"])
        result = _child(args, env, setup_only=False)
        peak_rss_kb = max(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        left = live_children()
        if left:
            for pid in left:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            return _fail(f"processes left behind by the run: {left}", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = result.get("attempted", 0)
    failed = result.get("failed", 0)
    if result.get("correct") is False:
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return _fail(f"correctness gate: {result.get('error')}", 1)

    setup.append(result["setup_s"])
    end_to_end = _end_to_end(result, setup, peak_rss_kb)
    shown = result["layers"] if args.trace else end_to_end
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "source_digest": _source_digest(),
        "host": _host(), "repeats": len(result["rounds"]),
        "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "per_layer": result.get("layers"),
        "exact": result["exact"], "spans_file": result.get("spans_file"),
        "samples": {"setup_s": setup, "rounds": result["rounds"]},
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record_path = os.path.join(
        out_dir, f"record-{args.workload}-seed{args.seed}"
                 f"-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for name, entry in shown.items():
        extra = ""
        if "calls" in entry:
            extra = f"  calls={entry['calls']} self_ms={entry['self_ms']:.4g}"
        if "percentile" in entry:
            extra = f"  p{entry['percentile']:.2f} of {entry['n']} ops"
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}{extra}")
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": shown[name]["value"],
                           "unit": shown[name]["unit"]}
                    for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
