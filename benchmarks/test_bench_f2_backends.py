"""F2 (farm backends): warm daemon workers amortize per-campaign setup.

The persistent daemon backend (what ``auto`` resolves to for any
``jobs > 1``) keeps the same worker processes alive across campaigns,
so anything a job memoizes at module level (here: a library of
assembled and decoded programs) is already hot when the next sweep
lands.  A cold start -- right after ``shutdown_daemons()`` -- pays the
fork, the assembly and the decode once per worker.

This bench runs a 50-job decode-heavy sweep (each job executes one
400-instruction program from a library that every worker process
assembles and decodes on first use) as a cold daemon pass followed by
a warm one, ``ROUNDS`` times, and once on the serial inline
reference.  Asserted shapes:

- every daemon pass reproduces the inline aggregate byte-for-byte;
- the median cold/warm wall ratio is at least ``MIN_COLD_OVER_WARM``
  (the savings come from work elimination, not parallelism, so the
  bound holds at any CPU count).
"""

from __future__ import annotations

import os
import statistics
import time

from repro.farm import Campaign, shutdown_daemons
from repro.vp import SoC, SoCConfig, assemble
from repro.vp.iss import decode_program

JOBS = 50
WORKERS = 2
LINES = 400
ROUNDS = 3

# Cold/warm wall ratio floor, from twenty runs on a 2-CPU x86-64 Linux
# host (Python 3.11).  Run alone, the median-of-3 ratio measured
# 8.9x-12.4x (median 10.2x).  Inside the full bench suite the warm pass
# is slower (cause not isolated) and the ratio measured 2.4x-8.9x
# (median 2.9x).  The floor sits below the lowest run.
MIN_COLD_OVER_WARM = 1.5


def build_source(seed: int) -> str:
    """A straight-line, decode-heavy program unique to ``seed``."""
    lines = ["    li r1, 0"]
    for index in range(LINES):
        lines.append(f"    addi r1, r1, {(seed + index) % 97}")
    lines.append("    sw r1, 8(r0)")
    lines.append("    halt")
    return "\n".join(lines)


# Module-level memo: persists inside daemon workers across campaigns and
# is inherited from the parent when a worker is forked.  The whole
# library is built at once, so a warm worker skips the parse and the
# per-instruction decode whichever jobs the FIFO hands it.
_PROGRAMS = {}


def program_library():
    """Every sweep program, assembled and decoded once per process."""
    if not _PROGRAMS:
        for seed in range(JOBS):
            program = assemble(build_source(seed))
            decode_program(program)
            _PROGRAMS[seed] = program
    return _PROGRAMS


def decode_job(config, seed):
    soc = SoC(SoCConfig(n_cores=1, ram_words=64),
              {0: program_library()[seed]})
    soc.run()
    return {"seed": seed, "sum": soc.mem(8)}


def run_decode_sweep(name: str, **policy):
    campaign = Campaign.build(name, **policy)
    for seed in range(JOBS):
        campaign.add(decode_job, seed=seed, name=f"decode[{seed}]")
    started = time.perf_counter()
    result = campaign.run().raise_on_failure()
    return result, time.perf_counter() - started


def run_experiment():
    passes = []
    for _ in range(ROUNDS):
        # A true cold start: no parked workers, and an empty parent memo
        # for the fresh workers to inherit.
        _PROGRAMS.clear()
        shutdown_daemons()
        cold = run_decode_sweep("f2-daemon-cold", jobs=WORKERS)
        warm = run_decode_sweep("f2-daemon-warm", jobs=WORKERS)
        passes.append((cold, warm))
    # The serial pass runs last because it fills the parent memo.
    serial = run_decode_sweep("f2-serial")
    return passes, serial


def test_bench_f2_backend_dispatch(benchmark, show, record_bench):
    passes, (serial, serial_seconds) = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)
    cpus = len(os.sched_getaffinity(0))

    daemon_cold_seconds = statistics.median(cold[1] for cold, _ in passes)
    daemon_warm_seconds = statistics.median(warm[1] for _, warm in passes)
    warm_ratio = statistics.median(
        cold[1] / max(warm[1], 1e-9) for cold, warm in passes)

    show(f"F2: {JOBS}-job decode-heavy sweep, cold vs warm daemons "
         f"(median of {ROUNDS})",
         [["daemon (cold start)", f"{daemon_cold_seconds:.2f}s", "1.00x"],
          ["daemon (warm)", f"{daemon_warm_seconds:.2f}s",
           f"{warm_ratio:.2f}x"],
          ["serial inline", f"{serial_seconds:.2f}s",
           f"{daemon_cold_seconds / max(serial_seconds, 1e-9):.2f}x"]],
         ["backend", "wall", "vs cold daemon"])

    # Claim shape 1: the backend never changes the answer.  Cold and
    # warm daemon passes are byte-identical to the inline reference.
    reference = serial.aggregate_json()
    for (cold, _), (warm, _) in passes:
        assert cold.aggregate_json() == reference
        assert warm.aggregate_json() == reference

    # Claim shape 2: warm daemons amortize fork + assembly + decode.
    assert warm_ratio >= MIN_COLD_OVER_WARM

    record_bench(warm_ratio=warm_ratio, cpus=cpus,
                 daemon_cold_seconds=daemon_cold_seconds,
                 daemon_warm_seconds=daemon_warm_seconds,
                 serial_seconds=serial_seconds)
