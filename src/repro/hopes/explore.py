"""Architecture exploration over CIC applications.

Section V lists this explicitly as future work: "There are many issues to
be researched further in the future, which include optimal mapping of CIC
tasks to a given target architecture, **exploration of optimal target
architecture**, and optimizing the CIC translator for specific target
architectures."

Because the architecture lives in a separate XML file, exploration is just
a loop: generate candidate architecture files, translate the *unchanged*
CIC spec for each, run, and keep the Pareto front of (hardware cost,
end-to-end time).  This module does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.hopes.archfile import (ArchInfo, InterconnectInfo, ProcessorInfo,
                                  parse_arch_xml, to_arch_xml)
from repro.hopes.cic import CICApplication
from repro.hopes.runtime import ExecutionReport
from repro.hopes.translator import CICTranslator, TranslationError


@dataclass
class CandidatePoint:
    """One evaluated architecture."""

    arch: ArchInfo
    hardware_cost: float
    end_time: float
    mapping: Dict[str, str]
    report: ExecutionReport
    feasible: bool = True

    @property
    def label(self) -> str:
        return self.arch.name


DEFAULT_COSTS = {"host": 4.0, "smp": 2.0, "accel": 1.0}


def hardware_cost(arch: ArchInfo,
                  costs: Optional[Dict[str, float]] = None) -> float:
    """Area/cost model: per-processor class cost scaled by frequency, plus
    local store at 1/1024 per word."""
    costs = costs or DEFAULT_COSTS
    total = 0.0
    for proc in arch.processors:
        total += costs.get(proc.proc_type, 2.0) * proc.freq
        if proc.local_store:
            total += proc.local_store / 1024.0
    return total


def smp_candidates(max_cpus: int = 4, freq: float = 1.0) -> List[ArchInfo]:
    """Shared-memory candidates: 1..max_cpus identical CPUs."""
    result = []
    for n in range(1, max_cpus + 1):
        arch = ArchInfo(name=f"smp{n}", model="shared",
                        interconnect=InterconnectInfo("bus", 12.0, 0.25))
        for index in range(n):
            arch.processors.append(ProcessorInfo(f"cpu{index}", "smp", freq))
        result.append(arch)
    return result


def cell_candidates(max_spes: int = 4, local_store: int = 2048,
                    spe_freq: float = 2.0) -> List[ArchInfo]:
    """Distributed candidates: one host + 1..max_spes accelerators."""
    result = []
    for n in range(1, max_spes + 1):
        arch = ArchInfo(name=f"cell{n}", model="distributed",
                        interconnect=InterconnectInfo("dma", 60.0, 0.5))
        arch.processors.append(ProcessorInfo("ppe", "host", 1.0))
        for index in range(n):
            arch.processors.append(ProcessorInfo(f"spe{index}", "accel",
                                                 spe_freq, local_store))
        result.append(arch)
    return result


@dataclass
class ExplorationResult:
    """All evaluated points plus the Pareto front."""

    points: List[CandidatePoint] = field(default_factory=list)
    pareto: List[CandidatePoint] = field(default_factory=list)
    infeasible: List[str] = field(default_factory=list)

    def best_under_cost(self, budget: float) -> Optional[CandidatePoint]:
        affordable = [p for p in self.pareto if p.hardware_cost <= budget]
        if not affordable:
            return None
        return min(affordable, key=lambda p: p.end_time)

    def fastest(self) -> Optional[CandidatePoint]:
        if not self.points:
            return None
        return min(self.points, key=lambda p: p.end_time)

    def summary(self) -> Dict[str, Any]:
        """Plain-JSON summary of the whole exploration (candidate order
        preserved) -- the deterministic artifact campaign runs compare."""
        return {
            "points": [{"arch": p.arch.name,
                        "hardware_cost": p.hardware_cost,
                        "end_time": p.end_time,
                        "mapping": dict(sorted(p.mapping.items()))}
                       for p in self.points],
            "pareto": [p.arch.name for p in self.pareto],
            "infeasible": list(self.infeasible),
        }

    def to_json(self) -> str:
        from repro.farm.job import canonical_json
        return canonical_json(self.summary())


def evaluate_architecture_job(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Farm job: evaluate one candidate architecture (pure function).

    ``config`` carries the application factory by name
    (``module:qualname``), the candidate as its XML text, and the
    iteration count; the return value is plain JSON so it caches and
    aggregates byte-identically.  ``seed`` is unused -- HOPES runs are
    deterministic -- but part of the job identity.
    """
    from repro.farm.job import resolve_ref
    app_factory = resolve_ref(config["app_factory"])
    arch = parse_arch_xml(config["arch_xml"])
    app = app_factory()
    try:
        translator = CICTranslator(app, arch)
        generated = translator.translate()
        report = generated.run(iterations=config.get("iterations", 20))
    except (TranslationError, ValueError) as error:
        return {"feasible": False, "arch": arch.name,
                "error": f"{arch.name}: {error}"}
    return {"feasible": True, "arch": arch.name,
            "cost": hardware_cost(arch, config.get("costs")),
            "mapping": generated.mapping,
            "report": report.to_dict()}


def explore_architectures(app_factory: Callable[[], CICApplication],
                          candidates: List[ArchInfo],
                          iterations: int = 20,
                          costs: Optional[Dict[str, float]] = None,
                          executor: Optional[Any] = None,
                          **farm: Any) -> ExplorationResult:
    """Translate + run the app on every candidate; return the Pareto front
    of (hardware cost, end time).

    ``app_factory`` builds a fresh CIC application per candidate (task
    state lives in interpreters, so each run needs its own).  Candidates
    whose constraints cannot be satisfied are recorded as infeasible, not
    errors -- an explorer must survive bad corners of the space.

    With a :class:`repro.farm.Executor` -- or any of the uniform farm
    keywords (``jobs=``, ``backend=``, ``cache=``, ``timeout=``, ...) --
    candidates are evaluated as a farm campaign (parallel workers,
    result cache) instead of the serial in-process loop; ``app_factory``
    must then be a module-level function, and the result is identical to
    the serial path point for point.  Exploration is a batch of
    independent platform evaluations (the ANDROMEDA/MPPSoCGen framing),
    so the sweep parallelizes cleanly.
    """
    from repro.farm.engine import resolve_executor
    executor = resolve_executor(executor, **farm)
    if executor is not None:
        return _explore_on_farm(app_factory, candidates, iterations,
                                costs, executor)
    result = ExplorationResult()
    for arch in candidates:
        app = app_factory()
        try:
            translator = CICTranslator(app, arch)
            generated = translator.translate()
            report = generated.run(iterations=iterations)
        except (TranslationError, ValueError) as error:
            result.infeasible.append(f"{arch.name}: {error}")
            continue
        result.points.append(CandidatePoint(
            arch, hardware_cost(arch, costs), report.end_time,
            generated.mapping, report))
    result.pareto = _pareto_front(result.points)
    return result


def _explore_on_farm(app_factory: Callable[[], CICApplication],
                     candidates: List[ArchInfo], iterations: int,
                     costs: Optional[Dict[str, float]],
                     executor: Any) -> ExplorationResult:
    from repro.farm.engine import Campaign
    from repro.farm.job import func_ref
    factory_ref = func_ref(app_factory)
    campaign = Campaign.build("explore", executor=executor)
    for arch in candidates:
        config = {"app_factory": factory_ref,
                  "arch_xml": to_arch_xml(arch),
                  "iterations": iterations}
        if costs is not None:
            config["costs"] = costs
        campaign.add(evaluate_architecture_job, config=config,
                     name=arch.name)
    outcome = campaign.run().raise_on_failure()
    result = ExplorationResult()
    for arch, payload in zip(candidates, outcome.results):
        if not payload["feasible"]:
            result.infeasible.append(payload["error"])
            continue
        result.points.append(CandidatePoint(
            arch, payload["cost"], payload["report"]["end_time"],
            dict(payload["mapping"]),
            ExecutionReport.from_dict(payload["report"])))
    result.pareto = _pareto_front(result.points)
    return result


def explore_random_architectures(app_factory: Callable[[], CICApplication],
                                 seed: int, count: int = 16,
                                 iterations: int = 20,
                                 costs: Optional[Dict[str, float]] = None,
                                 executor: Optional[Any] = None,
                                 **farm: Any) -> ExplorationResult:
    """Explore a *generated* candidate space instead of the hand-written
    smp/cell ladders.

    Candidates come from :func:`repro.gen.arch.generate_arch_candidates`
    seeded per the house rule (``random.Random(f"{seed}:arch")``), so
    the same seed always explores the same space -- and, through the
    farm executor, caches and replays byte-identically.
    """
    import random

    from repro.gen.arch import generate_arch_candidates
    candidates = generate_arch_candidates(
        random.Random(f"{seed}:arch"), count=count)
    return explore_architectures(app_factory, candidates,
                                 iterations=iterations, costs=costs,
                                 executor=executor, **farm)


def _pareto_front(points: List[CandidatePoint]) -> List[CandidatePoint]:
    """Minimize both (hardware_cost, end_time)."""
    front: List[CandidatePoint] = []
    for point in sorted(points, key=lambda p: (p.hardware_cost, p.end_time)):
        if all(point.end_time < other.end_time + 1e-9 or
               point.hardware_cost < other.hardware_cost - 1e-9
               for other in front):
            dominated = any(
                other.hardware_cost <= point.hardware_cost + 1e-9 and
                other.end_time <= point.end_time + 1e-9
                for other in front)
            if not dominated:
                front.append(point)
    return front


__all__ = ["CandidatePoint", "ExplorationResult", "cell_candidates",
           "evaluate_architecture_job", "explore_architectures",
           "explore_random_architectures", "hardware_cost",
           "smp_candidates"]
