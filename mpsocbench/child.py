"""One workload run in a fresh interpreter (started by ``run.py``).

    python3 -m mpsocbench.child --workload W --seed N --seconds S \\
        --trace 0|1 --spawned-at EPOCH [--setup-only]

Set-up is everything from interpreter start (``--spawned-at``, the
parent's clock at spawn) to the first timed op: imports and seeded
input generation.  Then whole rounds repeat until ``--seconds`` have
passed.  With ``--trace 1`` the rounds alternate untraced and traced
(the gap between them is the tracing overhead), and the traced-run
probes follow.  The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _patch_public_functions(spans) -> None:
    """Time calls that layers make into other layers' public functions,
    by wrapping the names those callers look up.  ``SoC`` assembles
    through ``repro.vp.soc.assemble``; the debugger and ``SoC`` import
    ``checkpoint``/``restore`` from ``repro.snap`` at call time."""
    import repro.snap
    import repro.vp.soc
    repro.vp.soc.assemble = spans.wrap(repro.vp.soc.assemble,
                                       "vp.isa.assemble")
    repro.snap.checkpoint = spans.wrap(repro.snap.checkpoint,
                                       "snap.checkpoint")
    repro.snap.restore = spans.wrap(repro.snap.restore, "snap.restore")


def _no_children_left() -> None:
    """Every process this run started must be gone."""
    from mpsocbench.procs import live_children
    deadline = time.monotonic() + 10
    while True:
        multiprocessing.active_children()     # reaps finished workers
        left = live_children()
        if not left:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"child processes left behind: {left}")
        time.sleep(0.05)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import repro
    expected_src = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != expected_src:
        print(f"repro imported from {repro.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2
    from repro.farm import shutdown_daemons

    from mpsocbench.metrics import layer_metrics
    from mpsocbench.spans import Spans
    from mpsocbench.procs import process_cpu_seconds
    from mpsocbench.workloads import WORKLOADS, CorrectnessError, Recorder

    spans = Spans(enabled=False)
    rec = Recorder(spans)
    if args.trace:
        _patch_public_functions(spans)
    workload = WORKLOADS[args.workload](args.seed, rec)
    try:
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        rounds = []
        minimum = 4 if args.trace else 2
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < minimum or time.perf_counter() < deadline:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            spans.enabled = traced
            first_op, failed = len(rec.op_seconds), rec.failed
            cpu = process_cpu_seconds()
            start = time.perf_counter()
            result = workload.run_round()
            result.wall_s = time.perf_counter() - start
            result.cpu_s = process_cpu_seconds() - cpu
            result.traced = traced
            result.ops = (first_op, len(rec.op_seconds))
            result.clean = rec.failed == failed
            rounds.append(result)
        spans.enabled = bool(args.trace)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        workers = bool(multiprocessing.active_children()
                       or children.ru_utime + children.ru_stime)

        exact = rounds[0].exact()
        for index, result in enumerate(rounds[1:], start=1):
            if result.exact() != exact:
                raise CorrectnessError(
                    f"round {index} simulated counts {result.exact()} "
                    f"differ from round 0 {exact}")
        instrs = [workload.round_instrs(result) for result in rounds]

        out = {
            "setup_s": setup_s,
            "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                        "instrs": n, "jobs": r.jobs, "traced": r.traced,
                        "clean": r.clean,
                        "op_wall_s": rec.op_seconds[r.ops[0]:r.ops[1]],
                        "op_cpu_s": rec.op_cpu[r.ops[0]:r.ops[1]]}
                       for r, n in zip(rounds, instrs)],
            "op_seconds": rec.op_seconds,
            "workers": workers,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "exact": exact,
        }
        if args.trace:
            workload.probes()
            traced = [r for r in rounds if r.traced]
            bare = [r for r in rounds if not r.traced]
            out["layers"] = layer_metrics(
                spans, rec.tally, rec.samples, exact, len(traced),
                rec.attempted, rec.failed,
                [r.wall_s for r in traced], [r.wall_s for r in bare],
                workload.first_campaign_s)
            spans_path = os.path.join(
                ROOT, ".mpsocbench",
                f"spans-{args.workload}-seed{args.seed}.json")
            spans.dump(spans_path, meta={"workload": args.workload,
                                         "seed": args.seed,
                                         "rounds": len(rounds)})
            out["spans_file"] = os.path.relpath(spans_path, ROOT)
    except CorrectnessError as error:
        print(f"CORRECTNESS GATE FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "error": str(error),
                          "attempted": rec.attempted,
                          "failed": rec.failed}))
        return 1
    finally:
        workload.close()
        shutdown_daemons()
        _no_children_left()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
