"""The three workloads: one *round* is the workload's fixed work.

A round runs every op of the seeded input once, in order, as a closed
loop (one caller, next op only after the previous one returns).  The
benchmark repeats rounds until its time is up; every round does the same
work, so per-round figures are comparable and the exact simulated counts
must repeat from round to round.

Correctness is checked inside the round, outside the op timings, and a
mismatch raises :class:`CorrectnessError`: it ends the run, it is never
counted as a failed op.  Anything else an op raises (a farm job failure,
a debugger error) is a failed op and goes into ``fail_frac``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.serde import dumps as serde_dumps, loads as serde_loads
from repro.gen.arch import generate_arch_candidates
from repro.gen.diff import run_firmware_leg, run_fuzz_campaign, \
    snapshot_digest
from repro.gen.expr import generate_expr_scenario
from repro.gen.firmware import generate_scenario
from repro.hopes import CICTranslator, explore_random_architectures
from repro.obs.metrics import MetricsRegistry
from repro.vp import Debugger, SoC, SoCConfig
from repro.vp.iss import BACKENDS, DEFAULT_BACKEND

from mpsocbench import inputs
from mpsocbench.apps import pipeline_app
from mpsocbench.procs import process_cpu_seconds
from mpsocbench.spans import Spans

MAX_EVENTS = 20_000_000
TIERS = ("reference", "fast", "compiled", "vector")
ISS_LEGS = 4          # ISS runs per differential fuzz job (oracle + 3)


class CorrectnessError(Exception):
    """The program produced a wrong or non-repeating result."""


def farm_workers() -> int:
    """At most ``nproc`` campaign workers, and at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# op bookkeeping
# ---------------------------------------------------------------------------

class Recorder:
    """Op latencies, failures and per-layer tallies of one run."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.op_seconds: List[float] = []
        self.op_cpu: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.tally: Counter = Counter()     # per-layer sums, traced rounds
        self.samples: Dict[str, List[float]] = {}

    def op(self, fn: Callable[[], Any]) -> Tuple[bool, Any]:
        """Run one op, timed (host wall and CPU seconds).  Returns
        ``(ok, value)``."""
        self.attempted += 1
        self.spans.op_id = self.attempted
        cpu = process_cpu_seconds()
        start = time.perf_counter()
        try:
            value = fn()
            ok = True
        except CorrectnessError:
            raise
        except Exception:
            traceback.print_exc(file=sys.stderr)
            value, ok = None, False
            self.failed += 1
        self.op_seconds.append(time.perf_counter() - start)
        self.op_cpu.append(process_cpu_seconds() - cpu)
        return ok, value

    def sample(self, name: str, value: float) -> None:
        if self.spans.enabled:
            self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: float = 1) -> None:
        if self.spans.enabled:
            self.tally[name] += value


def state_digest(soc: SoC) -> str:
    """Architectural state: RAM, every core, simulated time."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(array("q", soc.ram.words).tobytes())
    for core in soc.cores:
        digest.update(repr(core.state()).encode())
    digest.update(repr(soc.sim.now).encode())
    return digest.hexdigest()


def build_soc(platform: inputs.Platform, programs: Optional[Dict] = None,
              **config: Any) -> SoC:
    soc = SoC(SoCConfig(n_cores=platform.n_cores,
                        irq_vector=platform.irq_vector, **config),
              programs if programs is not None else platform.programs)
    if platform.irq_vector is not None:
        soc.intcs[0].add_source(0, soc.timers[0].irq)
    return soc


def soc_counts(soc: SoC) -> Counter:
    """Exact simulated counts of one finished run."""
    counts = Counter(
        instrs=sum(core.instr_count for core in soc.cores),
        cycles=sum(core.cycle_count for core in soc.cores),
        events=soc.sim.event_count,
        bus=soc.bus.reads + soc.bus.writes,
        dma_words=soc.dma.words_moved,
        timer_expirations=sum(t.expirations for t in soc.timers))
    for group in soc.lane_groups:
        counts.update(lanes_retired=group.lanes_retired,
                      shared=group.shared, windows=group.windows,
                      fallbacks=group.fallbacks)
    return counts


def check_platform(platform: inputs.Platform, soc: SoC, what: str) -> None:
    if not soc.all_halted:
        raise CorrectnessError(f"{what} {platform.name}: not all cores "
                               f"halted")
    wrong = {hex(address): (soc.mem(address), value)
             for address, value in platform.expected.items()
             if soc.mem(address) != value}
    if wrong:
        raise CorrectnessError(f"{what} {platform.name}: result words "
                               f"(got, expected) {wrong}")


class RoundResult:
    """What one round reports: host wall/CPU, units of work, and the
    exact simulated counts that must repeat from round to round."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.instrs = 0
        self.jobs = 0
        self.traced = False
        self.sim: Counter = Counter()
        self.ram = hashlib.blake2b(digest_size=8)

    def add_soc(self, soc: SoC) -> None:
        counts = soc_counts(soc)
        self.sim.update(counts)
        self.instrs += counts["instrs"]
        self.ram.update(array("q", soc.ram.words).tobytes())

    def exact(self) -> Dict[str, Any]:
        return dict(self.sim, ram_digest=self.ram.hexdigest())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Seeded inputs (built in ``__init__``: that is set-up), the timed
    ``run_round`` and the traced-run ``probes``."""

    name = ""
    first_campaign_s: Optional[float] = None   # campaigns only

    def __init__(self, seed: int, rec: Recorder) -> None:
        self.seed = seed
        self.rec = rec

    def run_round(self) -> RoundResult:
        raise NotImplementedError

    def round_instrs(self, result: RoundResult) -> int:
        """Simulated instructions one round retired."""
        return result.instrs

    def probes(self) -> None:
        """Traced-run-only measurements (per-tier legs, warm-up, ...)."""

    def close(self) -> None:
        """Release what set-up created."""


class PlatformWorkload(Workload):
    """Bare SoC runs at the default tier and quantum."""

    name = "platform"

    def __init__(self, seed: int, rec: Recorder) -> None:
        super().__init__(seed, rec)
        self.instances = inputs.platform_instances(seed)

    def run_round(self) -> RoundResult:
        result = RoundResult()
        spans = self.rec.spans
        for platform in self.instances:
            def op(platform=platform):
                with spans.span("vp.soc.build"):
                    soc = build_soc(platform)
                with spans.span("vp.soc.run"):
                    soc.run(max_events=MAX_EVENTS)
                return soc
            ok, soc = self.rec.op(op)
            if not ok:
                continue
            check_platform(platform, soc, "platform")
            result.add_soc(soc)
            result.jobs += 1
        return result

    def _sample(self) -> List[inputs.Platform]:
        """The first instance of every class."""
        seen, sample = set(), []
        for platform in self.instances:
            kind = platform.name.rstrip("0123456789")
            if kind not in seen:
                seen.add(kind)
                sample.append(platform)
        return sample

    def probes(self) -> None:
        spans, rec = self.rec.spans, self.rec
        for platform in self._sample():
            baseline = None
            for tier in TIERS:
                if tier not in BACKENDS:
                    continue
                soc = build_soc(platform, backend=tier)
                with spans.span(f"vp.iss.leg.{tier}"):
                    soc.run(max_events=MAX_EVENTS)
                check_platform(platform, soc, f"tier {tier}")
                digest = state_digest(soc)
                if baseline is not None and digest != baseline:
                    raise CorrectnessError(
                        f"platform {platform.name}: tier {tier} final "
                        f"state differs from the reference tier")
                baseline = digest
                counts = soc_counts(soc)
                rec.count(f"iss.instrs.{tier}", counts["instrs"])
                if tier == "vector":
                    for key in ("lanes_retired", "shared", "windows",
                                "fallbacks"):
                        rec.count(f"lanes.{key}", counts[key])
            # Decode/JIT warm-up: a cold run (programs are decoded lazily,
            # at run time), then a fresh SoC over the very same, now
            # decoded, AsmPrograms.  Only the runs are timed; the median
            # of three pairs keeps run-to-run noise out of the difference.
            pairs = []
            for _ in range(3):
                cold = build_soc(platform)
                start = time.perf_counter()
                cold.run(max_events=MAX_EVENTS)
                cold_s = time.perf_counter() - start
                warm = build_soc(platform, {index: core.program for index, core
                                            in enumerate(cold.cores)})
                start = time.perf_counter()
                warm.run(max_events=MAX_EVENTS)
                pairs.append(cold_s - (time.perf_counter() - start))
            rec.sample("jit.warmup_s", statistics.median(pairs))


class ObservedWorkload(Workload):
    """Telemetry-attached runs plus debugger sessions with time travel
    and checkpoint round trips."""

    name = "observed"

    def __init__(self, seed: int, rec: Recorder) -> None:
        super().__init__(seed, rec)
        self.sessions = inputs.observed_sessions(seed)
        # The bare run's end time places the debugger's stops; its final
        # state is what every other path must reproduce.
        self.bare: Dict[str, Tuple[float, str]] = {}
        for session in self.sessions:
            soc = build_soc(session.platform)
            soc.run(max_events=MAX_EVENTS)
            check_platform(session.platform, soc, "bare")
            self.bare[session.platform.name] = (soc.sim.now,
                                                state_digest(soc))

    def run_round(self) -> RoundResult:
        result = RoundResult()
        for session in self.sessions:
            self._traced_run(session, result)
            self._debug(session, result)
        return result

    def _traced_run(self, session: inputs.Session,
                    result: RoundResult) -> None:
        spans, platform = self.rec.spans, session.platform

        def op():
            with spans.span("vp.soc.build"):
                soc = build_soc(platform)
            with spans.span("vp.soc.instrument"):
                handle = soc.instrument(obs=True)
            with spans.span("vp.soc.run"):
                soc.run(max_events=MAX_EVENTS)
            with spans.span("obs.export"):
                trace = json.dumps(handle.sink.to_chrome())
            return soc, handle, trace
        ok, value = self.rec.op(op)
        result.jobs += 1
        if not ok:
            return
        soc, handle, trace = value
        check_platform(platform, soc, "traced")
        if state_digest(soc) != self.bare[platform.name][1]:
            raise CorrectnessError(f"observed {platform.name}: the "
                                   f"telemetry-attached final state "
                                   f"differs from the bare run")
        json.loads(trace)
        result.add_soc(soc)
        self.rec.count("obs.records", len(handle.sink))
        self.rec.count("obs.runs")

    def _debug(self, session: inputs.Session, result: RoundResult) -> None:
        rec, spans, platform = self.rec, self.rec.spans, session.platform
        end_time, final_digest = self.bare[platform.name]
        state: Dict[str, Any] = {}

        def attach():
            soc = build_soc(platform)
            dbg = Debugger(soc)
            dbg.enable_time_travel(interval=max(1.0, end_time / 6),
                                   capacity=8)
            dbg.add_breakpoint(*session.breakpoint)
            mask = session.watch_mask
            dbg.add_watchpoint("write", address=session.watch_address,
                               value_predicate=lambda v: v & mask == 0)
            state.update(soc=soc, dbg=dbg)
        ok, _ = rec.op(attach)
        result.jobs += 1
        if not ok:
            return
        soc, dbg = state["soc"], state["dbg"]
        sim = soc.sim

        def advance(until: Optional[float]) -> bool:
            """One op: debugger ``run`` commands up to the limit (or the
            end), resuming after every breakpoint or watchpoint stop.
            False if it failed."""
            def command():
                with spans.span("vp.debugger.run"):
                    while True:
                        reason = dbg.run(max_events=MAX_EVENTS,
                                         until_time=until)
                        if reason.kind not in ("breakpoint", "watchpoint"):
                            return
            ok, _ = rec.op(command)
            result.jobs += 1
            return ok

        stops: List[Tuple[float, str]] = []
        for index, fraction in enumerate(session.stop_fractions):
            if not advance(round(end_time * fraction)):
                return
            # Finish the events tied at the stop time, so the position
            # is "every event at or before now has run" -- the position
            # rewind_to(now) must land on.
            while sim.peek_time() is not None \
                    and sim.peek_time() <= sim.now:
                soc.step()
            stops.append((sim.now, state_digest(soc)))
            if index == session.checkpoint_pick:
                self._round_trip(session, dbg, result)
        if not advance(None):
            return
        result.instrs += sum(core.instr_count for core in soc.cores)
        if state_digest(soc) != final_digest:
            raise CorrectnessError(f"observed {platform.name}: the "
                                   f"debugger run's final state differs "
                                   f"from the bare run")

        for pick in session.rewind_picks:
            when, expected = stops[pick]

            def rewind(when=when):
                ring = [snap for snap in dbg.checkpoints
                        if snap.time <= when]
                with spans.span("vp.debugger.rewind"):
                    dbg.rewind_to(when)
                return sim.event_count - ring[-1].data["event_count"]
            ok, replayed = rec.op(rewind)
            result.jobs += 1
            if not ok:
                continue
            if state_digest(soc) != expected:
                raise CorrectnessError(
                    f"observed {platform.name}: rewind_to({when:g}) "
                    f"landed on a state the forward run did not have")
            rec.sample("debugger.replay_events", replayed)

        def reverse():
            with spans.span("vp.debugger.reverse_continue"):
                return dbg.reverse_continue()
        rec.op(reverse)
        result.jobs += 1
        dbg.detach()

    def _round_trip(self, session: inputs.Session, dbg: Debugger,
                    result: RoundResult) -> None:
        """Checkpoint -> serde dump -> load -> restore into a fresh SoC
        -> run to the end: must reach the uninterrupted final state."""
        spans, platform = self.rec.spans, session.platform

        def op():
            snap = dbg.checkpoint(note="bench")
            with spans.span("core.serde.dumps"):
                text = serde_dumps(snap)
            with spans.span("core.serde.loads"):
                loaded = serde_loads(text)
            fresh = build_soc(platform)
            fresh.restore(loaded)
            with spans.span("vp.soc.run.restored"):
                fresh.run(max_events=MAX_EVENTS)
            return fresh, snap
        ok, value = self.rec.op(op)
        result.jobs += 1
        if not ok:
            return
        fresh, snap = value
        if state_digest(fresh) != self.bare[platform.name][1]:
            raise CorrectnessError(f"observed {platform.name}: a restored "
                                   f"checkpoint did not run to the "
                                   f"uninterrupted final state")
        self.rec.sample("snap.kib", snap.size_bytes() / 1024)

    def probes(self) -> None:
        # Telemetry slowdown: traced against bare runs of each instance.
        traced_s = bare_s = 0.0
        for session in self.sessions:
            for _ in range(3):
                soc = build_soc(session.platform)
                start = time.perf_counter()
                soc.run(max_events=MAX_EVENTS)
                bare_s += time.perf_counter() - start
                soc = build_soc(session.platform)
                soc.instrument(obs=True)
                start = time.perf_counter()
                soc.run(max_events=MAX_EVENTS)
                traced_s += time.perf_counter() - start
        self.rec.sample("obs.slowdown_x", traced_s / bare_s)


class CampaignsWorkload(Workload):
    """A seeded sequence of farm campaigns through the default ``auto``
    backend, with one result cache per round."""

    name = "campaigns"

    def __init__(self, seed: int, rec: Recorder) -> None:
        super().__init__(seed, rec)
        self.plan = inputs.campaign_plan(seed)
        self.workers = farm_workers()
        self.cache_root = tempfile.mkdtemp(prefix="campaigns-")
        self.rounds = 0
        # Replay the round against an empty cache: which jobs each
        # campaign finds cached (the gate's expectation), and which fuzz
        # scenarios the round executes.
        self.expected_cached: Dict[str, int] = {}
        self.executed_seeds: List[Tuple[str, int]] = []
        seen: set = set()
        for op in self.plan:
            jobs = op.job_identities()
            self.expected_cached[op.label] = sum(job in seen for job in jobs)
            self.executed_seeds += [job[1:] for job in jobs
                                    if job[0] == "fuzz" and job not in seen]
            seen.update(jobs)
        self.instrs_per_seed: Dict[Tuple[str, int], int] = {}

    def run_round(self) -> RoundResult:
        result = RoundResult()
        rec, spans = self.rec, self.rec.spans
        cache = os.path.join(self.cache_root, f"round{self.rounds}")
        self.rounds += 1
        shas: Dict[str, str] = {}
        try:
            for op in self.plan:
                metrics = MetricsRegistry()

                def campaign(op=op, metrics=metrics):
                    farm = {"jobs": self.workers, "cache": cache,
                            "metrics": metrics}
                    with spans.span("farm.campaign"):
                        if op.kind == "fuzz":
                            report = run_fuzz_campaign(
                                op.count, base_seed=op.base_seed,
                                kinds=(op.fuzz_kind,), name=op.label,
                                **farm)
                            return (report["aggregate_sha"],
                                    report["divergences"])
                        explored = explore_random_architectures(
                            pipeline_app, seed=op.base_seed,
                            count=op.count, iterations=op.iterations,
                            **farm)
                        return hashlib.sha256(
                            explored.to_json().encode()).hexdigest()[:16], 0
                start = time.perf_counter()
                ok, value = rec.op(campaign)
                wall = time.perf_counter() - start
                if self.first_campaign_s is None:
                    self.first_campaign_s = wall
                self._tally(op, metrics, wall, ok)
                if not ok:
                    continue
                sha, divergences = value
                self._check(op, metrics, sha, divergences, shas)
                result.jobs += op.count
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return result

    def _check(self, op: inputs.CampaignOp, metrics: MetricsRegistry,
               sha: str, divergences: int, shas: Dict[str, str]) -> None:
        executed = metrics.counter("farm.jobs.executed").value
        cached = metrics.counter("farm.jobs.cached").value
        if divergences:
            raise CorrectnessError(f"campaign {op.label}: {divergences} "
                                   f"differential divergence(s)")
        expected = self.expected_cached[op.label]
        if cached != expected or executed != op.count - expected:
            raise CorrectnessError(
                f"campaign {op.label}: executed {executed:g} and cached "
                f"{cached:g} jobs, expected {op.count - expected} and "
                f"{expected}")
        if op.replay_of is not None and sha != shas[op.replay_of]:
            raise CorrectnessError(f"campaign {op.label}: warm replay "
                                   f"aggregate {sha} differs from the "
                                   f"cold {shas[op.replay_of]}")
        shas[op.label] = sha

    def _tally(self, op: inputs.CampaignOp, metrics: MetricsRegistry,
               wall: float, ok: bool) -> None:
        rec = self.rec
        jobs = metrics.counter("farm.jobs.submitted").value
        executed = metrics.counter("farm.jobs.executed").value
        retried = metrics.counter("farm.jobs.retried").value
        failed = metrics.counter("farm.jobs.failed").value
        rec.count("farm.campaigns")
        rec.count("farm.jobs", jobs)
        rec.count("farm.executed", executed)
        rec.count("farm.cached", metrics.counter("farm.jobs.cached").value)
        rec.count("farm.failed", failed)
        rec.count("farm.attempts", executed + failed + retried)
        rec.count("farm.exec_s", metrics.histogram("farm.job_seconds").sum)
        rec.count("farm.slot_s", wall * self.workers)
        if op.replay_of is not None:
            rec.count("farm.warm_s", wall)
            rec.count("farm.warm_jobs", jobs)

    def round_instrs(self, result: RoundResult) -> int:
        """ISS instructions the round's executed fuzz jobs retired (each
        job runs its scenario on every ISS leg).  Counted once per run,
        after the timed rounds."""
        if not self.instrs_per_seed:
            for kind, seed in self.executed_seeds:
                if kind == "firmware":
                    scenario = generate_scenario(seed)
                    leg = run_firmware_leg(scenario, DEFAULT_BACKEND,
                                           scenario["quantum"])
                    instrs = sum(leg["instrs"])
                else:
                    scenario = generate_expr_scenario(seed)
                    soc = SoC(SoCConfig(n_cores=1),
                              {0: scenario["asm_source"]})
                    soc.run(max_events=MAX_EVENTS)
                    instrs = soc.cores[0].instr_count
                self.instrs_per_seed[(kind, seed)] = instrs
        return ISS_LEGS * sum(self.instrs_per_seed.values())

    def probes(self) -> None:
        rec, spans = self.rec, self.rec.spans
        for seed in inputs.sample_fuzz_seeds(self.plan, "firmware"):
            with spans.span("gen.firmware.generate"):
                scenario = generate_scenario(seed)
            digests = set()
            for tier in TIERS:
                if tier not in BACKENDS:
                    continue
                quantum = 1 if tier == "reference" else scenario["quantum"]
                with spans.span(f"vp.iss.leg.{tier}"):
                    leg = run_firmware_leg(scenario, tier, quantum)
                rec.count(f"iss.instrs.{tier}", sum(leg["instrs"]))
                digests.add(snapshot_digest(leg))
            if len(digests) != 1:
                raise CorrectnessError(f"fuzz scenario {seed}: ISS tiers "
                                       f"disagree")
        for kind, seed in self.executed_seeds:
            if kind == "expr":
                with spans.span("gen.expr.generate"):
                    generate_expr_scenario(seed)
            else:
                with spans.span("gen.firmware.generate"):
                    generate_scenario(seed)
        for op in self.plan:
            if op.kind != "explore" or not op.cold:
                continue
            for arch in generate_arch_candidates(
                    random.Random(f"{op.base_seed}:arch"), count=op.count):
                app = pipeline_app()
                try:
                    with spans.span("hopes.translate"):
                        generated = CICTranslator(app, arch).translate()
                except ValueError:
                    continue      # infeasible candidate, as the explorer
                with spans.span("hopes.run"):
                    generated.run(iterations=op.iterations)

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (PlatformWorkload, ObservedWorkload, CampaignsWorkload)}
