"""Hurricane reproduction: taming skew in large-scale analytics.

A from-scratch Python reproduction of *"Rock You like a Hurricane: Taming
Skew in Large Scale Analytics"* (Bindschaedler et al., EuroSys 2018) — the
adaptive work-partitioning analytics system built on task cloning, shared
data bags of fixed-size chunks, application-defined merges, and a
decentralized batch-sampled storage layer.

Two engines share one application model:

* :class:`~repro.runtime.job.SimJob` runs cost-annotated applications on a
  discrete-event model of the paper's 32-machine cluster — this is what
  regenerates every table and figure (see :mod:`repro.experiments`);
* :class:`~repro.local.runtime.LocalRuntime` executes real task functions
  over real chunked records in threads, demonstrating the semantics
  (exactly-once bags, clone-invariant merges) on live data.

Quickstart (the paper's Figure 3 API, a record at a time, because that
is the form the paper teaches; ``ctx.batches()`` / ``ctx.emit_many()`` are
the same thing a chunk at a time)::

    from repro import Application, LocalRuntime

    app = Application("wordcount")
    lines = app.bag("lines", codec="str")
    words = app.bag("words", codec="str")
    counts = app.bag("counts")

    def tokenize(ctx):
        for line in ctx.records():
            for word in line.split():
                ctx.emit("words", word)

    def count(ctx):
        from collections import Counter
        return Counter(ctx.records())

    app.task("tokenize", [lines], [words], fn=tokenize)
    app.task("count", [words], [counts], fn=count, merge="counter")
    result = LocalRuntime(app, workers=4).run({"lines": ["a b", "b c"]})
    print(result.value("counts"))
"""

from repro.local import LocalResult, LocalRuntime
from repro.model import Application, TaskCost
from repro.runtime import (
    FaultPlan,
    HurricaneConfig,
    InputSpec,
    RunReport,
    SimJob,
    run_app,
)
from repro.cluster import ClusterSpec, MachineSpec, paper_cluster

__version__ = "1.0.0"

__all__ = [
    "Application",
    "ClusterSpec",
    "FaultPlan",
    "HurricaneConfig",
    "InputSpec",
    "LocalResult",
    "LocalRuntime",
    "MachineSpec",
    "RunReport",
    "SimJob",
    "TaskCost",
    "paper_cluster",
    "run_app",
    "__version__",
]
