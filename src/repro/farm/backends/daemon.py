"""Persistent worker daemons behind the ExecutorBackend protocol.

This is the farm's one multi-process backend (``auto`` resolves to it
whenever ``jobs > 1``).  It keeps a module-global pool of long-lived
worker processes connected over ``socketpair`` pipes, so the *same*
worker processes serve campaign after campaign and everything a job
function caches at module level (assembled programs, decode caches,
JIT'd superblocks) stays warm.

Warm-state contract: workers are forked the first time a multi-process
campaign needs them and keep the modules the parent had imported *at
that moment*.  Reloading or patching job code in the parent afterwards
does not reach them -- call :func:`shutdown_daemons` after doing so,
and the next campaign forks fresh workers from the current parent.

Wire protocol -- length-prefixed canonical-JSON frames (``">I"`` byte
count, then UTF-8 JSON)::

    parent -> worker   {"op": "job", "tag": n, "ref": .., "config": .., "seed": ..}
    worker -> parent   {"op": "done", "tag": n, "status": "ok"|"error",
                        "value": .., "elapsed": ..}
    parent -> worker   {"op": "ping", "n": k}     worker -> {"op": "pong", "n": k}
    parent -> worker   {"op": "exit"}

Everything on the wire is JSON the job contract already guarantees
(configs and results are canonical-JSON-validated at submission), so
there is no pickling anywhere in this backend.

Liveness: each worker runs exactly one job at a time, so a dead socket
*is* an attributable crash -- the backend reports ``crash`` for the tag
the worker carried, replaces the worker, and the engine's retry
budget does the rest.  Idle workers are heartbeat-pinged on
acquisition and silently replaced if dead.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import select
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence

from repro.core.serde import canonical_json
from repro.farm.backends.base import (
    STATUS_CRASH, STATUS_ERROR, STATUS_OK, Completion, ExecutorBackend,
    execute_payload, require_fork,
)
from repro.farm.job import Job

_HEADER = struct.Struct(">I")
_MAX_FRAME = 256 * 1024 * 1024
_PING_TIMEOUT = 5.0


def _send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    data = canonical_json(payload).encode("utf-8")
    if len(data) > _MAX_FRAME:
        raise ValueError(f"frame of {len(data)} bytes exceeds wire limit")
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        return None
    body = _recv_exact(sock, length)
    if body is None:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _worker_main(sock: socket.socket) -> None:
    """Daemon worker loop: serve job/ping frames until exit or EOF."""
    while True:
        try:
            frame = _recv_frame(sock)
        except OSError:
            break
        if frame is None or frame.get("op") == "exit":
            break
        op = frame.get("op")
        try:
            if op == "ping":
                _send_frame(sock, {"op": "pong", "n": frame.get("n")})
            elif op == "job":
                status, value, elapsed = execute_payload(
                    (frame["ref"], frame["config"], frame["seed"]))
                _send_frame(sock, {"op": "done", "tag": frame["tag"],
                                   "status": status, "value": value,
                                   "elapsed": elapsed})
        except OSError:
            break
    try:
        sock.close()
    except OSError:
        pass


class DaemonWorker:
    """One long-lived worker process plus its parent-side socket."""

    def __init__(self) -> None:
        require_fork("the daemon backend")
        parent_sock, child_sock = socket.socketpair()
        context = multiprocessing.get_context("fork")
        self.process = context.Process(target=_worker_main,
                                       args=(child_sock,), daemon=True)
        self.process.start()
        child_sock.close()
        self.sock = parent_sock
        self.tag: Optional[int] = None   # in-flight tag, None when idle
        self._pings = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def send(self, payload: Dict[str, Any]) -> None:
        _send_frame(self.sock, payload)

    def ping(self, timeout: float = _PING_TIMEOUT) -> bool:
        """Heartbeat: round-trip a ping; False means the worker is dead
        or wedged and must be replaced."""
        self._pings += 1
        token = self._pings
        try:
            self.send({"op": "ping", "n": token})
            while True:
                readable, _, _ = select.select([self.sock], [], [], timeout)
                if not readable:
                    return False
                frame = _recv_frame(self.sock)
                if frame is None:
                    return False
                if frame.get("op") == "pong" and frame.get("n") == token:
                    return True
                # Anything else on the wire here is protocol desync
                # (e.g. a stale done frame after a kill): replace.
                return False
        except OSError:
            return False

    def kill(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self.process.kill()
        except (OSError, ValueError, AttributeError):
            pass
        try:
            self.process.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass

    def shutdown(self) -> None:
        """Polite exit: send the exit frame, then make sure."""
        try:
            self.send({"op": "exit"})
        except OSError:
            pass
        try:
            self.process.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass
        self.kill()


# ---------------------------------------------------------------------------
# the persistent pool (module-global: this is what makes workers warm
# across campaigns in one driving process)
# ---------------------------------------------------------------------------

_IDLE: List[DaemonWorker] = []
_SHUTDOWN_REGISTERED = False


def _register_shutdown() -> None:
    global _SHUTDOWN_REGISTERED
    if not _SHUTDOWN_REGISTERED:
        atexit.register(shutdown_daemons)
        _SHUTDOWN_REGISTERED = True


def acquire_workers(count: int) -> List[DaemonWorker]:
    """Check ``count`` live workers out of the persistent pool, pinging
    idle ones and replacing any that died while parked."""
    _register_shutdown()
    workers: List[DaemonWorker] = []
    while _IDLE and len(workers) < count:
        worker = _IDLE.pop(0)
        if worker.process.is_alive() and worker.ping():
            workers.append(worker)
        else:
            worker.kill()
    while len(workers) < count:
        workers.append(DaemonWorker())
    return workers


def release_workers(workers: Sequence[DaemonWorker]) -> None:
    """Return workers to the pool warm; anything still carrying a job
    is wedged and is killed instead."""
    for worker in workers:
        if worker.tag is None and worker.process.is_alive():
            _IDLE.append(worker)
        else:
            worker.kill()


def shutdown_daemons() -> None:
    """Stop every parked daemon worker (atexit, and tests)."""
    while _IDLE:
        _IDLE.pop().shutdown()


def warm_worker_pids(count: int) -> List[int]:
    """Pids of ``count`` pool workers (spawning as needed) -- used by
    tests and benches to prove warm reuse without running a campaign."""
    workers = acquire_workers(count)
    pids = [worker.pid for worker in workers]
    release_workers(workers)
    return [pid for pid in pids if pid is not None]


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------

class DaemonBackend(ExecutorBackend):
    """Campaign-facing view over ``width`` persistent workers."""

    kind = "daemon"

    def __init__(self, width: int) -> None:
        require_fork("the daemon backend")
        if width < 1:
            raise ValueError(f"daemon backend width must be >= 1, "
                             f"got {width}")
        self.width = width
        self._workers = acquire_workers(width)
        self._free: List[DaemonWorker] = list(self._workers)
        self._busy: Dict[int, DaemonWorker] = {}
        self._buffered: List[Completion] = []

    # ------------------------------------------------------------------
    def _replace(self, worker: DaemonWorker) -> DaemonWorker:
        worker.kill()
        fresh = DaemonWorker()
        self._workers = [fresh if w is worker else w for w in self._workers]
        return fresh

    def submit(self, tag: int, job: Job) -> None:
        if not self._free:
            raise RuntimeError("daemon backend over-subscribed: no free "
                               "worker (submit beyond width?)")
        worker = self._free.pop(0)
        frame = {"op": "job", "tag": tag, "ref": job.ref,
                 "config": job.config, "seed": job.seed}
        try:
            worker.send(frame)
        except OSError:
            # The parked worker died between heartbeat and use: replace
            # it and retry once on the fresh process.
            worker = self._replace(worker)
            try:
                worker.send(frame)
            except OSError:
                worker = self._replace(worker)
                self._free.append(worker)
                self._buffered.append(Completion(
                    tag, STATUS_CRASH, "daemon worker unreachable"))
                return
        worker.tag = tag
        self._busy[tag] = worker

    def drain(self, timeout: Optional[float]) -> List[Completion]:
        if self._buffered:
            completions, self._buffered = self._buffered, []
            return completions
        if not self._busy:
            return []
        socks = {worker.sock: worker for worker in self._busy.values()}
        readable, _, _ = select.select(list(socks), [], [], timeout)
        completions: List[Completion] = []
        for sock in readable:
            worker = socks[sock]
            tag = worker.tag
            try:
                frame = _recv_frame(sock)
            except OSError:
                frame = None
            if frame is None or frame.get("op") != "done" \
                    or frame.get("tag") != tag:
                # EOF or protocol desync: the worker died under its job.
                # One worker == one job, so blame is certain; restart.
                if tag is not None:
                    self._busy.pop(tag, None)
                    completions.append(Completion(
                        tag, STATUS_CRASH, "daemon worker died"))
                fresh = self._replace(worker)
                self._free.append(fresh)
                continue
            self._busy.pop(tag, None)
            worker.tag = None
            self._free.append(worker)
            status = STATUS_OK if frame.get("status") == "ok" \
                else STATUS_ERROR
            completions.append(Completion(
                tag, status, frame.get("value"),
                float(frame.get("elapsed") or 0.0)))
        return completions

    def cancel(self, tags: Sequence[int]) -> None:
        # Daemon workers run one job each, so a timed-out job is killed
        # without interrupting any sibling.
        for tag in tags:
            worker = self._busy.pop(tag, None)
            if worker is None:
                continue
            fresh = self._replace(worker)
            self._free.append(fresh)

    def teardown(self) -> None:
        # Busy workers at teardown are wedged (the engine only tears
        # down after draining); release_workers kills them and parks the
        # idle ones warm for the next campaign.
        self._buffered.clear()
        self._busy.clear()
        release_workers(self._workers)
        self._workers = []
        self._free = []


__all__ = [
    "DaemonBackend", "DaemonWorker", "acquire_workers", "release_workers",
    "shutdown_daemons", "warm_worker_pids",
]
