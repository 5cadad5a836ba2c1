"""Exception taxonomy for the Hurricane reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base type. Subsystem-specific failures get their own
subclasses; the simulated failure modes that the paper's evaluation exercises
(Spark OOM crashes, job timeouts) have dedicated types so the benchmark
harnesses can distinguish "crashed" from "did not finish" exactly the way
Figure 12 does (negative bar = crash, full bar = >1h timeout).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """An application graph is malformed (cycle, dangling bag, duplicate id)."""


class BagError(ReproError):
    """Illegal operation on a data or work bag."""


class BagSealedError(BagError):
    """Insert attempted on a bag that has been sealed (its producers finished)."""


class SerdeError(ReproError):
    """A chunk could not be encoded or decoded."""


class ChunkOverflowError(SerdeError):
    """A single record does not fit in one chunk (records may not span chunks)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SchedulingError(ReproError):
    """The runtime could not schedule a task (e.g. unknown task id)."""


class WorkerCrash(ReproError):
    """A (simulated) compute-node worker crashed while executing a task."""


class TaskMemoryExceeded(ReproError):
    """A baseline task exceeded its per-task memory limit (Spark-style OOM)."""

    def __init__(self, task: str, needed_bytes: int, limit_bytes: int):
        super().__init__(
            f"task {task!r} needs {needed_bytes} bytes but the per-task "
            f"limit is {limit_bytes} bytes"
        )
        self.task = task
        self.needed_bytes = needed_bytes
        self.limit_bytes = limit_bytes


class JobTimeout(ReproError):
    """A job did not complete within the experiment's wall-clock budget."""

    def __init__(self, job: str, budget_seconds: float):
        super().__init__(f"job {job!r} exceeded its budget of {budget_seconds}s")
        self.job = job
        self.budget_seconds = budget_seconds


class JobCrashed(ReproError):
    """A whole baseline job aborted (e.g. repeated task OOMs)."""

    def __init__(self, job: str, reason: str):
        super().__init__(f"job {job!r} crashed: {reason}")
        self.job = job
        self.reason = reason


class JournalCorrupt(ReproError):
    """A write-ahead journal is damaged *inside* its record sequence.

    A torn tail (the writer died mid-append) is legal WAL state and is
    silently dropped, because a record that never fully landed describes
    an effect that never happened. A bad frame with intact frames
    *after* it is different: the effects of those later records did
    happen, so stopping early would silently replay a prefix of history
    and resurrect already-consumed work. Recovery must fail loudly
    instead of proceeding from a truncated past.
    """

    def __init__(self, path: str, offset: int, reason: str):
        super().__init__(
            f"journal {path!r} corrupt at offset {offset}: {reason} "
            f"(intact frames follow, so this is not a torn tail)"
        )
        self.path = path
        self.offset = offset
        self.reason = reason


class RemoteTaskError(ReproError):
    """A task function raised in a distributed worker process.

    Carries the worker-side exception rendered as text (type, message, and
    traceback) because arbitrary exception objects do not round-trip
    reliably across process boundaries.
    """

    def __init__(self, node_id: str, error: str, remote_traceback: str = ""):
        super().__init__(f"node {node_id!r} failed in worker: {error}")
        self.node_id = node_id
        self.error = error
        self.remote_traceback = remote_traceback


class ReplicationError(ReproError):
    """Not enough live replicas to serve a bag after storage failures."""


class FetchTimeout(ReproError):
    """A chunk fetcher produced nothing within the caller's timeout.

    The documented ``get`` contract is "a chunk, or ``None`` at end of
    bag" — a timeout is neither, and used to escape as the stdlib's
    bare ``queue.Empty``, which callers had to know was an
    implementation detail. This type makes the timeout a first-class
    protocol signal: it promises no chunk was lost (the request is
    still in flight or will be retried), so polling callers just try
    again after their housekeeping.
    """


class FrameError(ReproError):
    """A mux frame could not be encoded, or the byte stream is corrupt.

    Raised by :func:`repro.dist.protocol.encode_frame` for oversized
    payloads and by :class:`repro.dist.protocol.FrameDecoder` for headers
    that cannot be valid (unknown kind, length past
    ``MAX_FRAME_PAYLOAD``). Unlike the journal's framing — where a torn
    tail means "the log ends here" — a corrupt frame on a live stream
    means sender and receiver have lost sync, so the only safe reaction
    is tearing the connection down. An *unencodable reply* is instead
    the one call's failure: the server answers it with this error by
    name (which is why it lives here, where the client resolves names).
    """


class StorageNodeDown(ReproError):
    """An in-flight storage request was lost because its server crashed.

    Clients catch this and re-issue the request; with replication the retry
    is served by a backup replica (Section 4.4).
    """


class NotPrimary(ReproError):
    """A replicated storage shard refused to serve a bag it does not own.

    Destructive reads (chunk removal) and snapshot reads must be served by
    exactly one replica at a time — the *primary* — or two clients could
    consume the same chunk from two copies. Each shard gates those ops on
    the master-pushed demotion-epoch vector; a request landing on a
    backup is refused with this error, whose message carries the shard's
    current epoch vector (``repr`` of a ``{shard: epoch}`` dict) so the
    client can adopt it and re-route to the real primary.
    """

