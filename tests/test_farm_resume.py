"""Crash-resumable campaigns: manifest persistence, Campaign.resume(),
a real SIGKILL'd 4-worker sweep resumed in-process, and timeout retry
accounting (the ``farm.retries`` counter).
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.farm import (
    FAILURE_TIMEOUT, Campaign, Executor, ResultCache,
)
from repro.obs.metrics import MetricsRegistry


def sweep(fn, specs, executor=None, name="campaign"):
    """Run one campaign over ``(config, seed)`` specs via the build API."""
    campaign = Campaign.build(name, executor=executor)
    campaign.extend(fn, specs)
    return campaign.run()


# ---------------------------------------------------------------------------
# Module-level job functions (farm jobs must be importable by name).
# ---------------------------------------------------------------------------

def job_add(config, seed):
    return {"value": config["x"] + seed}


def job_gate(config, seed):
    # Blocks while the gate file exists; instant once it is removed.
    gate = config.get("gate")
    while gate and os.path.exists(gate):
        time.sleep(0.05)
    return {"x": config["x"], "seed": seed}


def job_sleep(config, seed):
    time.sleep(config["seconds"])
    return {"slept": config["seconds"]}


def _specs(n=6):
    return [({"x": x}, x) for x in range(n)]


# ---------------------------------------------------------------------------
# Manifest persistence
# ---------------------------------------------------------------------------

class TestManifest:
    def test_run_persists_manifest_before_dispatch(self, tmp_path):
        executor = Executor(cache=str(tmp_path), salt="v3")
        sweep(job_add, _specs(3), executor=executor, name="sweep")
        cache = ResultCache(str(tmp_path))
        manifest = cache.load_manifest("sweep")
        assert manifest["name"] == "sweep"
        assert manifest["salt"] == "v3"
        assert [job["seed"] for job in manifest["jobs"]] == [0, 1, 2]
        assert all(job["ref"].endswith(":job_add")
                   for job in manifest["jobs"])
        assert "sweep" in list(cache.manifests())

    def test_load_manifest_missing_raises(self, tmp_path):
        with pytest.raises(KeyError):
            ResultCache(str(tmp_path)).load_manifest("nope")

    def test_manifest_files_do_not_pollute_result_keys(self, tmp_path):
        executor = Executor(cache=str(tmp_path))
        sweep(job_add, _specs(2), executor=executor, name="sweep")
        assert len(ResultCache(str(tmp_path))) == 2  # results only

    def test_build_resume_from_rebuilds_identical_campaign(self, tmp_path):
        executor = Executor(cache=str(tmp_path), salt="s1")
        original = Campaign("sweep", executor=executor)
        original.extend(job_add, _specs(4))
        original.run()
        rebuilt = Campaign.build("sweep", resume_from=str(tmp_path))
        assert rebuilt.manifest() == original.manifest()
        # same salt + jobs -> same keys -> a resume is all cache hits
        result = rebuilt.run()
        assert result.cached == 4 and result.executed == 0


# ---------------------------------------------------------------------------
# Resume semantics
# ---------------------------------------------------------------------------

class TestResume:
    def test_resume_executes_only_incomplete_jobs(self, tmp_path):
        executor = Executor(cache=str(tmp_path))
        full = Campaign("sweep", executor=executor)
        full.extend(job_add, _specs(6))
        # Simulate a crash after three shards: persist the full manifest
        # (exactly what run() does before dispatch), but complete only
        # the first three jobs via a partial sweep sharing the cache.
        ResultCache(str(tmp_path)).store_manifest("sweep", full.manifest())
        partial = Campaign("partial", executor=executor)
        partial.extend(job_add, _specs(3))
        partial.run()

        resumed = Campaign.resume(str(tmp_path), "sweep")
        assert resumed.cached == 3 and resumed.executed == 3
        reference = sweep(job_add, _specs(6))
        assert resumed.aggregate_json() == reference.aggregate_json()

    def test_resume_executor_override_keeps_cache_and_salt(self, tmp_path):
        executor = Executor(cache=str(tmp_path), salt="pinned")
        sweep(job_add, _specs(3), executor=executor, name="sweep")
        resumed = Campaign.resume(
            str(tmp_path), "sweep",
            executor=Executor(jobs=1, cache="/nonexistent", salt="x"))
        # the cache and salt come from the manifest, not the override
        assert resumed.cached == 3 and resumed.executed == 0

    def test_sigkilled_pool_campaign_resumes_byte_identical(self, tmp_path):
        """Launch a 4-worker campaign in a subprocess, SIGKILL the whole
        process group mid-sweep, then Campaign.resume() it in-process:
        only the incomplete shards execute and the aggregate is
        byte-identical to a never-interrupted run."""
        cache_root = str(tmp_path / "cache")
        gate = str(tmp_path / "gate")
        with open(gate, "w") as handle:
            handle.write("hold")

        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")!r})
            sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
            import test_farm_resume as jobs
            from repro.farm import Campaign, Executor
            campaign = Campaign("killed",
                                executor=Executor(jobs=4,
                                                  cache={cache_root!r}))
            for x in range(8):
                config = {{"x": x, "gate": {gate!r} if x >= 4 else None}}
                campaign.add(jobs.job_gate, config=config, seed=x)
            campaign.run()
        """)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                start_new_session=True)
        try:
            cache = ResultCache(cache_root)
            deadline = time.monotonic() + 60
            # the four ungated jobs complete and hit the cache; the four
            # gated ones occupy every worker, pinned mid-flight
            while len(cache) < 4:
                assert proc.poll() is None, "campaign exited prematurely"
                assert time.monotonic() < deadline, \
                    f"only {len(cache)} shards cached before deadline"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            if os.path.exists(gate):
                os.remove(gate)

        resumed = Campaign.resume(cache_root, "killed",
                                  executor=Executor(jobs=1))
        assert resumed.ok
        assert resumed.cached >= 4
        assert resumed.executed == 8 - resumed.cached < 8

        reference = Campaign("killed")
        for x in range(8):
            reference.add(job_gate, config={"x": x,
                                            "gate": gate if x >= 4 else None},
                          seed=x)
        assert resumed.aggregate_json() == reference.run().aggregate_json()


# ---------------------------------------------------------------------------
# Timeout retry accounting
# ---------------------------------------------------------------------------

class TestRetryCounter:
    def test_timeout_retry_increments_farm_retries(self):
        metrics = MetricsRegistry()
        result = sweep(
            job_sleep, [({"seconds": 30.0}, 0)],
            executor=Executor(jobs=2, timeout=1.0, retries=1,
                              metrics=metrics))
        [failure] = result.failures
        assert failure.kind == FAILURE_TIMEOUT
        assert failure.attempts == 2
        assert failure.as_dict()["attempts"] == 2
        assert metrics.counter("farm.retries").value == 1
        assert metrics.counter("farm.timeouts").value == 2

    def test_no_retry_budget_means_no_retry_counter(self):
        metrics = MetricsRegistry()
        result = sweep(
            job_sleep, [({"seconds": 30.0}, 0)],
            executor=Executor(jobs=2, timeout=1.0, retries=0,
                              metrics=metrics))
        [failure] = result.failures
        assert failure.attempts == 1
        assert metrics.counter("farm.retries").value == 0
        assert metrics.counter("farm.timeouts").value == 1
