"""G1 (fuzz): differential-fuzzer throughput with a clean, replayable sweep.

The shrink-to-regression pipeline (DESIGN.md "Differential fuzzing") is
only useful if sweeps are cheap and replay exactly.  This bench runs a
fixed-seed campaign -- each seed is one generated scenario executed on
the cir interpreter and/or all four ISS backends and compared field by
field -- three ways: serial reference, a 2-worker farm with a cold
cache, and a warm re-run.  Asserted shapes:

- the sweep is **clean**: zero divergences across every seed (a
  divergence here is a real backend bug or a harness regression);
- the campaign aggregate is **byte-identical** across jobs=1 / jobs=2 /
  warm cache, and the warm re-run executes zero jobs;
- throughput stays usable: >= 2 programs/s on the serial path (the
  recorded headline tracks the real figure, ~50/s on the dev box).
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.farm import Executor
from repro.gen import run_fuzz_campaign

PROGRAMS = 40
BASE_SEED = 0
WORKERS = 2


def run_experiment():
    cache_root = tempfile.mkdtemp(prefix="repro-fuzz-g1-")
    try:
        started = time.perf_counter()
        serial = run_fuzz_campaign(PROGRAMS, base_seed=BASE_SEED)
        serial_seconds = time.perf_counter() - started

        started = time.perf_counter()
        parallel = run_fuzz_campaign(
            PROGRAMS, base_seed=BASE_SEED,
            executor=Executor(jobs=WORKERS, cache=cache_root))
        parallel_seconds = time.perf_counter() - started

        started = time.perf_counter()
        warm = run_fuzz_campaign(
            PROGRAMS, base_seed=BASE_SEED,
            executor=Executor(jobs=1, cache=cache_root))
        warm_seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return (serial, serial_seconds, parallel, parallel_seconds,
            warm, warm_seconds)


def test_bench_g1_fuzz_throughput(benchmark, show, record_bench):
    (serial, serial_seconds, parallel, parallel_seconds,
     warm, warm_seconds) = benchmark.pedantic(run_experiment, rounds=1,
                                              iterations=1)
    programs_per_sec = PROGRAMS / max(serial_seconds, 1e-9)

    show(f"G1: {PROGRAMS}-program differential fuzz sweep "
         f"(interp + 4 ISS backends per program)",
         [["serial (jobs=1)", f"{serial_seconds:.2f}s",
           f"{programs_per_sec:.1f}/s", serial["divergences"],
           serial["aggregate_sha"]],
          [f"farm (jobs={WORKERS})", f"{parallel_seconds:.2f}s",
           f"{PROGRAMS / max(parallel_seconds, 1e-9):.1f}/s",
           parallel["divergences"], parallel["aggregate_sha"]],
          ["farm, warm cache", f"{warm_seconds:.2f}s",
           f"{PROGRAMS / max(warm_seconds, 1e-9):.1f}/s",
           warm["divergences"], warm["aggregate_sha"]]],
         ["run", "wall", "throughput", "divergences", "aggregate"])

    # Claim shape 1: the fixed-seed sweep is clean on every path.
    assert serial["divergences"] == 0, serial["divergent_seeds"]
    assert parallel["divergences"] == 0
    assert warm["divergences"] == 0

    # Claim shape 2: sharding and caching never change the answer.
    assert parallel["aggregate_sha"] == serial["aggregate_sha"]
    assert warm["aggregate_sha"] == serial["aggregate_sha"]
    assert warm["stats"]["cached"] == PROGRAMS

    # Claim shape 3: throughput stays usable for overnight hunts.
    assert programs_per_sec >= 2.0

    record_bench(programs_per_sec=programs_per_sec,
                 divergences=serial["divergences"],
                 programs=PROGRAMS,
                 serial_seconds=serial_seconds,
                 parallel_seconds=parallel_seconds,
                 warm_seconds=warm_seconds)
