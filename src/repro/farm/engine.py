"""The campaign engine: deterministic job execution over two backends.

A :class:`Campaign` dispatches its jobs through an
:class:`~repro.farm.backends.ExecutorBackend` -- the in-process
``inline`` oracle (``jobs=1``) or persistent ``daemon`` workers (any
``jobs > 1``) -- from one FIFO queue that hands every free worker the
next job, and guarantees:

- **ordered aggregation** -- outcomes are merged in job-submission
  order, so the aggregate is byte-identical to the serial one no
  matter which worker finished first;
- **content-addressed caching** -- completed points are skipped on
  re-runs and resumed sweeps (see :mod:`repro.farm.cache`);
- **failure containment** -- a job that raises, exceeds its timeout or
  takes its worker down yields a structured :class:`JobFailure` in its
  submission slot (each worker runs one job, so a crash or a timeout
  kill names exactly one job and the worker is replaced); the rest of
  the sweep completes;
- **observability** -- per-job ``farm.*`` counters and histograms plus
  progress instants into any obs sink.  These are wall-clock
  operational telemetry and deliberately *outside* the determinism
  contract; the deterministic artifact is the ordered aggregate.

Normalization rule: every result -- freshly computed, worker-returned
or cache-rehydrated -- passes through one JSON round-trip before it
enters an outcome, so all three are indistinguishable and
``CampaignResult.aggregate_json()`` is byte-identical across backends,
worker counts and warm-cache re-runs.

Warm-state contract: daemon workers are forked at the first
multi-process campaign and keep the modules the parent had then; call
:func:`repro.farm.shutdown_daemons` after reloading or patching job
code.

The one construction surface is ``Campaign.build(...)`` /
``Campaign.resume(...)``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.farm.backends import (
    STATUS_ERROR, STATUS_OK, make_backend, require_fork,
)
from repro.farm.cache import CacheLike, ResultCache, as_cache_tier
from repro.farm.job import (
    FAILURE_CRASH, FAILURE_ERROR, FAILURE_TIMEOUT, Job, JobFailure,
    JobOutcome, canonical_json, json_roundtrip, resolve_ref, source_salt,
)
from repro.obs.metrics import MetricsRegistry

_BACKEND_NAMES = ("auto", "inline", "daemon")


@dataclass
class Executor:
    """Execution policy for campaigns: which backend, how wide, how
    patient, where the cache lives, and which obs sink/metrics receive
    farm telemetry.

    ``jobs=1`` (the default) resolves to the in-process reference
    backend and any wider ``auto`` executor to the daemon backend; the
    daemon backend requires every job function -- and every function
    named inside job configs -- to be a module-level importable
    function.

    ``cache`` accepts a directory path or a ready
    :class:`~repro.farm.cache.ResultCache`.
    """

    jobs: int = 1
    backend: str = "auto"             # auto | inline | daemon
    cache: CacheLike = None
    timeout: Optional[float] = None   # wall seconds per job attempt
    retries: int = 1                  # extra attempts after a failure
    sink: Optional[Any] = None
    metrics: Optional[MetricsRegistry] = None
    salt: str = ""                    # campaign-level cache salt

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.backend not in _BACKEND_NAMES:
            raise ValueError(f"unknown backend {self.backend!r} "
                             f"(expected one of {_BACKEND_NAMES})")

    # ------------------------------------------------------------------
    def resolved_backend(self) -> str:
        """The concrete backend name ``auto`` resolves to."""
        if self.backend != "auto":
            return self.backend
        return "inline" if self.jobs <= 1 else "daemon"

    def width(self) -> int:
        """Worker slots the resolved backend will run."""
        return 1 if self.resolved_backend() == "inline" else self.jobs

    def cache_tier(self) -> Optional[ResultCache]:
        """The result cache (None when caching is off)."""
        return as_cache_tier(self.cache)

    def campaign(self, name: str = "campaign") -> "Campaign":
        return Campaign(name, executor=self)


def resolve_executor(executor: Optional[Executor] = None, *,
                     jobs: Optional[int] = None,
                     backend: Optional[str] = None,
                     cache: CacheLike = None,
                     timeout: Optional[float] = None,
                     retries: Optional[int] = None,
                     salt: Optional[str] = None,
                     sink: Optional[Any] = None,
                     metrics: Optional[MetricsRegistry] = None,
                     ) -> Optional[Executor]:
    """The uniform ``executor=``/``jobs=``/``cache=`` merge every
    campaign surface uses.

    Returns ``None`` when nothing was requested (callers keep their
    serial fast paths); otherwise merges the keyword overrides onto
    ``executor`` (or a fresh default one).
    """
    overrides: Dict[str, Any] = {}
    for key, value in (("jobs", jobs), ("backend", backend),
                       ("cache", cache), ("timeout", timeout),
                       ("retries", retries), ("salt", salt), ("sink", sink),
                       ("metrics", metrics)):
        if value is not None:
            overrides[key] = value
    if executor is None and not overrides:
        return None
    base = executor if executor is not None else Executor()
    return replace(base, **overrides) if overrides else base


@dataclass
class CampaignResult:
    """All outcomes of one campaign, in job-submission order."""

    name: str
    outcomes: List[JobOutcome]
    workers: int
    wall_seconds: float = 0.0

    @property
    def results(self) -> List[Any]:
        """Per-slot results (``None`` where the job failed)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def failures(self) -> List[JobFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def executed(self) -> int:
        """Jobs that actually ran (cache hits excluded)."""
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def ok(self) -> bool:
        return not self.failures

    def aggregate_json(self) -> str:
        """The deterministic aggregate: canonical JSON of the ordered
        result list.  Bit-for-bit identical across backends, worker
        counts and cold/warm cache runs."""
        return canonical_json(self.results)

    def raise_on_failure(self) -> "CampaignResult":
        if self.failures:
            summary = "; ".join(f"{f.name}: {f.kind}: {f.message}"
                                for f in self.failures[:5])
            raise RuntimeError(
                f"campaign {self.name!r}: {len(self.failures)} job(s) "
                f"failed ({summary})")
        return self

    def stats(self) -> Dict[str, Any]:
        return {"jobs": len(self.outcomes), "executed": self.executed,
                "cached": self.cached, "failed": len(self.failures),
                "workers": self.workers,
                "wall_seconds": self.wall_seconds}

    def __repr__(self) -> str:
        return (f"CampaignResult({self.name!r}, jobs={len(self.outcomes)}, "
                f"executed={self.executed}, cached={self.cached}, "
                f"failed={len(self.failures)})")


class Campaign:
    """An ordered batch of jobs plus the policy to run them.

    Construct through :meth:`build` (one surface for every knob), add
    jobs with :meth:`add`/:meth:`extend`, execute with :meth:`run`;
    :meth:`resume` rebuilds and re-runs an interrupted campaign from its
    cache-persisted manifest.
    """

    def __init__(self, name: str = "campaign",
                 executor: Optional[Executor] = None) -> None:
        self.name = name
        self.executor = executor if executor is not None else Executor()
        self.jobs: List[Job] = []
        self._salts: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # the one construction surface
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, name: str = "campaign", *,
              executor: Optional[Executor] = None,
              resume_from: CacheLike = None,
              jobs: Optional[int] = None,
              backend: Optional[str] = None,
              cache: CacheLike = None,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              salt: Optional[str] = None,
              sink: Optional[Any] = None,
              metrics: Optional[MetricsRegistry] = None) -> "Campaign":
        """Build a campaign from an executor and/or individual knobs.

        Keyword overrides win over the ``executor`` baseline.  With
        ``resume_from=<cache>``, the job list, name and cache salt are
        rebuilt from the manifest that an earlier :meth:`run` persisted
        in that cache -- the cache and salt then always come from the
        manifest side so the content-addressed key set cannot drift,
        while execution policy (jobs/backend/timeout/...) remains fully
        overridable.
        """
        resolved = resolve_executor(
            executor, jobs=jobs, backend=backend, cache=cache,
            timeout=timeout, retries=retries, salt=salt, sink=sink,
            metrics=metrics)
        if resume_from is None:
            return cls(name, executor=resolved)
        cache = as_cache_tier(resume_from)
        manifest = cache.load_manifest(name)
        resolved = replace(resolved if resolved is not None else Executor(),
                           cache=cache, salt=manifest["salt"])
        campaign = cls(name, executor=resolved)
        for spec in manifest["jobs"]:
            campaign.add(resolve_ref(spec["ref"]), config=spec["config"],
                         seed=spec["seed"], name=spec["name"])
        return campaign

    @classmethod
    def resume(cls, cache: CacheLike, name: str = "campaign",
               executor: Optional[Executor] = None,
               **policy: Any) -> CampaignResult:
        """Resume an interrupted campaign: rebuild it from the persisted
        manifest and run it against the same cache.

        Completed jobs are cache hits and are skipped; only the
        incomplete remainder executes.  The aggregate is byte-identical
        to a never-interrupted run (the normalization rule makes cached
        and fresh results indistinguishable).  ``executor`` and/or
        policy keywords (``jobs=``, ``backend=``, ``timeout=``, ...)
        override execution policy -- the cache and salt always come from
        the manifest so the key set cannot drift.
        """
        return cls.build(name, executor=executor, resume_from=cache,
                         **policy).run()

    # ------------------------------------------------------------------
    def add(self, fn: Callable[[Any, int], Any], config: Any = None,
            seed: int = 0, name: Optional[str] = None) -> Job:
        """Submit one job; submission order is aggregation order."""
        job = Job.build(fn, config=config, seed=seed, name=name)
        if self.executor.resolved_backend() != "inline":
            # Multi-process campaigns must be able to fork workers and
            # re-import the function by name inside them; fail at
            # submission, not at the bottom of a 4-worker sweep.
            require_fork("a multi-process campaign backend")
            resolve_ref(job.ref)
        self.jobs.append(job)
        return job

    def extend(self, fn: Callable[[Any, int], Any],
               specs: Iterable[Tuple[Any, int]]) -> List[Job]:
        """Submit ``(config, seed)`` pairs in order."""
        return [self.add(fn, config=config, seed=seed)
                for config, seed in specs]

    # ------------------------------------------------------------------
    def _salt_for(self, job: Job) -> str:
        salt = self._salts.get(job.ref)
        if salt is None:
            salt = f"{self.executor.salt}:{source_salt(job.fn)}"
            self._salts[job.ref] = salt
        return salt

    def manifest(self) -> Dict[str, Any]:
        """The JSON-pure description from which this campaign can be
        rebuilt: executor salt plus the ordered job list."""
        return {
            "salt": self.executor.salt,
            "jobs": [{"ref": job.ref, "config": job.config,
                      "seed": job.seed, "name": job.name}
                     for job in self.jobs],
        }

    def run(self) -> CampaignResult:
        """Execute every job (cache permitting) and aggregate in order."""
        executor = self.executor
        metrics = executor.metrics if executor.metrics is not None \
            else MetricsRegistry()
        sink = executor.sink
        started = time.perf_counter()
        cache = executor.cache_tier()
        if cache is not None:
            # Persist the campaign manifest *before* dispatching any
            # work: a crash or SIGKILL mid-sweep leaves behind
            # the full job list, so Campaign.resume() can rebuild the
            # identical key set and skip completed jobs.
            cache.store_manifest(self.name, self.manifest())

        outcomes = [JobOutcome(index, job, job.key(self._salt_for(job)))
                    for index, job in enumerate(self.jobs)]
        metrics.counter("farm.jobs.submitted").inc(len(outcomes))

        pending: List[JobOutcome] = []
        for outcome in outcomes:
            if cache is not None:
                hit, result = cache.lookup(outcome.key)
                if hit:
                    outcome.result = result
                    outcome.cached = True
                    metrics.counter("farm.jobs.cached").inc()
                    continue
            pending.append(outcome)

        if pending:
            self._run_backend(pending, cache, metrics, sink,
                              len(outcomes))

        result = CampaignResult(self.name, outcomes,
                                workers=executor.width(),
                                wall_seconds=time.perf_counter() - started)
        if sink is not None:
            sink.instant("farm.campaign", track="farm",
                         campaign=self.name, **result.stats())
        return result

    # ------------------------------------------------------------------
    def _complete(self, outcome: JobOutcome, result: Any, elapsed: float,
                  cache: Optional[ResultCache], metrics: MetricsRegistry,
                  sink: Optional[Any], total: int, done: int) -> None:
        outcome.result = json_roundtrip(result)
        outcome.elapsed = elapsed
        metrics.counter("farm.jobs.executed").inc()
        metrics.histogram("farm.job_seconds").observe(elapsed)
        if cache is not None:
            cache.store(outcome.key, outcome.result,
                        meta={"fn": outcome.job.ref,
                              "name": outcome.job.name,
                              "seed": outcome.job.seed,
                              "config": outcome.job.config})
        self._progress(outcome, "ok", metrics, sink, total, done)

    def _fail(self, outcome: JobOutcome, kind: str, message: str,
              metrics: MetricsRegistry, sink: Optional[Any], total: int,
              done: int) -> None:
        outcome.failure = JobFailure(
            name=outcome.job.name, ref=outcome.job.ref,
            seed=outcome.job.seed, kind=kind, message=message,
            attempts=outcome.attempts)
        metrics.counter("farm.jobs.failed").inc()
        metrics.counter(f"farm.failures.{kind}").inc()
        self._progress(outcome, kind, metrics, sink, total, done)

    def _progress(self, outcome: JobOutcome, status: str,
                  metrics: MetricsRegistry, sink: Optional[Any],
                  total: int, done: int) -> None:
        if sink is not None:
            sink.instant("farm.job", track="farm", job=outcome.job.name,
                         status=status, attempts=outcome.attempts,
                         elapsed=round(outcome.elapsed, 6))
            sink.instant("farm.progress", track="farm", done=done,
                         total=total, campaign=self.name)

    # ------------------------------------------------------------------
    # the backend loop
    # ------------------------------------------------------------------
    def _run_backend(self, pending: List[JobOutcome],
                     cache: Optional[ResultCache],
                     metrics: MetricsRegistry, sink: Optional[Any],
                     total: int) -> None:
        """Run ``pending`` on the resolved backend until every job has
        completed or used up its attempts."""
        executor = self.executor
        timeout = executor.timeout
        backend = make_backend(executor.resolved_backend(),
                               executor.width())
        # The in-process oracle executes exactly once per job: there is
        # no crash or timeout to retry around, and an error is an error.
        max_attempts = 1 if backend.in_process else executor.retries + 1
        enforce_timeout = timeout is not None and not backend.in_process
        queue = deque(pending)
        in_flight: Dict[int, Tuple[JobOutcome, float]] = {}
        done = total - len(pending)

        def retry_or_fail(outcome: JobOutcome, kind: str,
                          message: str) -> None:
            nonlocal done
            if outcome.attempts < max_attempts:
                metrics.counter("farm.jobs.retried").inc()
                queue.append(outcome)
            else:
                done += 1
                self._fail(outcome, kind, message, metrics, sink, total,
                           done)

        try:
            while queue or in_flight:
                while queue and len(in_flight) < backend.width:
                    outcome = queue.popleft()
                    outcome.attempts += 1
                    backend.submit(outcome.index, outcome.job)
                    in_flight[outcome.index] = (outcome, time.monotonic())

                wait_timeout = None
                if enforce_timeout:
                    oldest = min(start for _, start in in_flight.values())
                    wait_timeout = max(oldest + timeout - time.monotonic(),
                                       0.01)
                crashed = False
                for completion in backend.drain(wait_timeout):
                    entry = in_flight.pop(completion.tag, None)
                    if entry is None:
                        continue
                    outcome = entry[0]
                    if completion.status == STATUS_OK:
                        done += 1
                        self._complete(outcome, completion.value,
                                       completion.elapsed, cache, metrics,
                                       sink, total, done)
                    elif completion.status == STATUS_ERROR:
                        metrics.counter("farm.errors").inc()
                        retry_or_fail(outcome, FAILURE_ERROR,
                                      completion.value)
                    else:  # STATUS_CRASH
                        crashed = True
                        retry_or_fail(outcome, FAILURE_CRASH,
                                      completion.value
                                      or "worker process died")
                if crashed:
                    metrics.counter("farm.crashes").inc()

                if not enforce_timeout:
                    continue
                now = time.monotonic()
                expired = [tag for tag, (_, start) in in_flight.items()
                           if now - start >= timeout]
                if not expired:
                    continue
                # Each worker runs one job, so killing an expired job
                # interrupts nothing else.
                backend.cancel(expired)
                for tag in expired:
                    outcome, _ = in_flight.pop(tag)
                    metrics.counter("farm.timeouts").inc()
                    if outcome.attempts < max_attempts:
                        # This timed-out job gets another attempt on a
                        # fresh worker.
                        metrics.counter("farm.retries").inc()
                    retry_or_fail(outcome, FAILURE_TIMEOUT,
                                  f"exceeded {timeout:g}s timeout")
        finally:
            backend.teardown()


__all__ = ["Campaign", "CampaignResult", "Executor", "resolve_executor"]
