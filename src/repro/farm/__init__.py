"""repro.farm -- deterministic parallel campaign engine.

Runs batches of named pure functions (``fn(config, seed) -> result``)
either in-process (``jobs=1``, the reference oracle) or on persistent
worker daemons (``jobs > 1``), with a content-addressed result cache,
per-job timeout/retry/crash containment, and ordered byte-identical
aggregation: the daemon aggregate equals the serial one bit-for-bit.

    from repro.farm import Campaign

    campaign = Campaign.build("sweep", jobs=4, cache=".farm")
    for seed in range(16):
        campaign.add(evaluate_point, config={"p": 0.1}, seed=seed)
    result = campaign.run().raise_on_failure()
    print(result.aggregate_json())

Daemon workers fork at the first multi-process campaign and keep the
modules the parent had then; call :func:`shutdown_daemons` after
reloading or patching job code.
"""

from repro.farm.backends import (
    Completion, DaemonBackend, ExecutorBackend, InlineBackend,
    fork_available, make_backend, require_fork, shutdown_daemons,
)
from repro.farm.cache import ResultCache, as_cache_tier
from repro.farm.engine import (
    Campaign, CampaignResult, Executor, resolve_executor,
)
from repro.farm.job import (
    FAILURE_CRASH, FAILURE_ERROR, FAILURE_TIMEOUT, Job, JobFailure,
    JobOutcome, canonical_json, func_ref, job_key, json_roundtrip,
    resolve_ref, source_salt,
)

__all__ = [
    "Campaign", "CampaignResult", "Completion", "DaemonBackend",
    "Executor", "ExecutorBackend", "FAILURE_CRASH", "FAILURE_ERROR",
    "FAILURE_TIMEOUT", "InlineBackend", "Job", "JobFailure", "JobOutcome",
    "ResultCache", "as_cache_tier", "canonical_json", "fork_available",
    "func_ref", "job_key", "json_roundtrip", "make_backend",
    "require_fork", "resolve_executor", "resolve_ref", "shutdown_daemons",
    "source_salt",
]
