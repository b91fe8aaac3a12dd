"""Metric definitions and the statistics every record carries.

``END_TO_END`` and ``PER_LAYER`` are the metric names and units of
``BENCHMARK.json``; ``layer_metrics`` turns one traced run's spans,
tallies and exact counts into the per-layer values.  A metric whose
layer the workload does not touch reads 0 with 0 calls.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence

from mpsocbench.spans import Spans

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "sim_minstr_per_s": "Minstr/s", "jobs_per_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}

TIERS = ("reference", "fast", "compiled", "vector")

PER_LAYER = {
    "desim.events": "count", "desim.events_per_instr": "ratio",
    "desim.events_per_s": "1/s",
    "vp.isa.assemble_ms": "ms", "vp.soc.build_ms": "ms",
    "vp.soc.run_ms": "ms",
    **{f"vp.iss.instr_per_s.{tier}": "1/s" for tier in TIERS},
    **{f"vp.iss.leg_ms.{tier}": "ms" for tier in TIERS},
    "vp.jit.warmup_ms": "ms",
    "vp.lanes.shared_ratio": "ratio", "vp.lanes.fallback_ratio": "ratio",
    "vp.bus.accesses": "count", "vp.bus.accesses_per_instr": "ratio",
    "vp.peripherals.dma_words": "count",
    "vp.peripherals.timer_expirations": "count",
    "sim.cycles": "count", "sim.instrs": "count", "sim.ram_digest": "hash",
    "obs.records": "count", "obs.export_ms": "ms", "obs.slowdown_x": "x",
    "vp.debugger.rewind_ms": "ms", "vp.debugger.reverse_continue_ms": "ms",
    "vp.debugger.replay_events": "count",
    "snap.checkpoint_ms": "ms", "snap.restore_ms": "ms", "snap.kib": "KiB",
    "core.serde.dumps_ms": "ms", "core.serde.loads_ms": "ms",
    "farm.campaign_ms": "ms", "farm.first_campaign_ms": "ms",
    "farm.job_exec_ms": "ms", "farm.overhead_us_per_job": "us",
    "farm.attempts_per_job": "ratio", "farm.cache.hit_ratio": "ratio",
    "farm.cache.hit_us_per_job": "us",
    "gen.firmware.generate_ms": "ms", "gen.expr.generate_ms": "ms",
    "hopes.translate_ms": "ms", "hopes.run_ms": "ms",
    "fail_frac": "ratio", "trace.overhead_pct": "%",
}

# Span behind each per-call timing metric.
SPAN_OF = {
    "vp.isa.assemble_ms": "vp.isa.assemble",
    "vp.soc.build_ms": "vp.soc.build",
    "vp.soc.run_ms": "vp.soc.run",
    **{f"vp.iss.leg_ms.{tier}": f"vp.iss.leg.{tier}" for tier in TIERS},
    "obs.export_ms": "obs.export",
    "vp.debugger.rewind_ms": "vp.debugger.rewind",
    "vp.debugger.reverse_continue_ms": "vp.debugger.reverse_continue",
    "snap.checkpoint_ms": "snap.checkpoint",
    "snap.restore_ms": "snap.restore",
    "core.serde.dumps_ms": "core.serde.dumps",
    "core.serde.loads_ms": "core.serde.loads",
    "farm.campaign_ms": "farm.campaign",
    "gen.firmware.generate_ms": "gen.firmware.generate",
    "gen.expr.generate_ms": "gen.expr.generate",
    "hopes.translate_ms": "hopes.translate",
    "hopes.run_ms": "hopes.run",
}

TAIL_BEYOND = 10


def describe(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and IQR of a sample (as the record stores it)."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def tail(values: Sequence[float]) -> Dict[str, Any]:
    """The highest percentile of ``values`` that has at least ten samples
    beyond it: the eleventh-largest sample.  Returns it with its
    percentile and the sample count."""
    ordered = sorted(values)
    count = len(ordered)
    rank = max(0, count - TAIL_BEYOND - 1)
    return {"pct": 100.0 * rank / count, "value": ordered[rank],
            "n": count}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, tally: Dict[str, float],
                  samples: Dict[str, List[float]], exact: Dict[str, Any],
                  traced_rounds: int, attempted: int, failed: int,
                  traced_wall: List[float], bare_wall: List[float],
                  first_campaign_s: Optional[float]) -> Dict[str, Dict]:
    """Every per-layer metric of one traced run."""
    table = spans.summary()
    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, calls: Optional[int] = None,
            self_ms: Optional[float] = None) -> None:
        entry: Dict[str, Any] = {"value": float(value),
                                 "unit": PER_LAYER[name]}
        if calls is not None:
            entry["calls"] = calls
            entry["self_ms"] = self_ms
        out[name] = entry

    for name, span in SPAN_OF.items():
        row = table.get(span)
        if row is None:
            put(name, 0.0, 0, 0.0)
        else:
            calls = row["calls"]
            put(name, 1000 * row["total_s"] / calls, calls,
                1000 * row["self_s"] / calls)

    instrs = exact.get("instrs", 0)
    events = exact.get("events", 0)
    put("desim.events", events)
    put("desim.events_per_instr", _ratio(events, instrs))
    run = table.get("vp.soc.run")
    run_s = run["total_s"] / traced_rounds if run and traced_rounds else 0
    put("desim.events_per_s", _ratio(events, run_s))
    for tier in TIERS:
        leg = table.get(f"vp.iss.leg.{tier}")
        put(f"vp.iss.instr_per_s.{tier}",
            _ratio(tally.get(f"iss.instrs.{tier}", 0),
                   leg["total_s"] if leg else 0))
    warmup = samples.get("jit.warmup_s", [])
    put("vp.jit.warmup_ms",
        1000 * statistics.median(warmup) if warmup else 0.0)
    put("vp.lanes.shared_ratio", _ratio(tally.get("lanes.shared", 0),
                                        tally.get("lanes.lanes_retired", 0)))
    put("vp.lanes.fallback_ratio", _ratio(tally.get("lanes.fallbacks", 0),
                                          tally.get("lanes.windows", 0)))
    put("vp.bus.accesses", exact.get("bus", 0))
    put("vp.bus.accesses_per_instr", _ratio(exact.get("bus", 0), instrs))
    put("vp.peripherals.dma_words", exact.get("dma_words", 0))
    put("vp.peripherals.timer_expirations",
        exact.get("timer_expirations", 0))
    put("sim.cycles", exact.get("cycles", 0))
    put("sim.instrs", instrs)
    digest = exact.get("ram_digest")
    put("sim.ram_digest", int(digest[:12], 16) if digest and instrs else 0)
    put("obs.records", _ratio(tally.get("obs.records", 0),
                              tally.get("obs.runs", 0)))
    slowdown = samples.get("obs.slowdown_x", [])
    put("obs.slowdown_x", statistics.median(slowdown) if slowdown else 0.0)
    replay = samples.get("debugger.replay_events", [])
    put("vp.debugger.replay_events",
        statistics.mean(replay) if replay else 0.0)
    kib = samples.get("snap.kib", [])
    put("snap.kib", statistics.mean(kib) if kib else 0.0)
    put("farm.first_campaign_ms",
        1000 * first_campaign_s if first_campaign_s else 0.0)
    executed = tally.get("farm.executed", 0)
    jobs = tally.get("farm.jobs", 0)
    put("farm.job_exec_ms", 1000 * _ratio(tally.get("farm.exec_s", 0),
                                          executed))
    put("farm.overhead_us_per_job",
        1e6 * _ratio(tally.get("farm.slot_s", 0)
                     - tally.get("farm.exec_s", 0), jobs))
    put("farm.attempts_per_job",
        _ratio(tally.get("farm.attempts", 0),
               executed + tally.get("farm.failed", 0)))
    put("farm.cache.hit_ratio", _ratio(tally.get("farm.cached", 0), jobs))
    put("farm.cache.hit_us_per_job",
        1e6 * _ratio(tally.get("farm.warm_s", 0),
                     tally.get("farm.warm_jobs", 0)))
    put("fail_frac", _ratio(failed, attempted))
    overhead = 0.0
    if traced_wall and bare_wall:
        overhead = 100 * (statistics.median(traced_wall)
                          / statistics.median(bare_wall) - 1)
    put("trace.overhead_pct", overhead)
    if set(out) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step with their "
                           f"definitions: {sorted(set(out) ^ set(PER_LAYER))}")
    return out
