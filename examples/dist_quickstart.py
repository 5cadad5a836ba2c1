"""Quickstart for the multiprocess engine: same app, real parallelism.

The word-count from ``examples/quickstart.py`` runs unchanged on
``DistRuntime``: a master process schedules the tasks onto forked worker
processes, the bags are spread across two storage-shard processes
(exactly-once chunk removal across processes, bag-homed routing), and
the ``counter`` merge reconciles the ``count`` family's partials exactly
as the local engine does — so the result must match ``LocalRuntime``'s,
which this script asserts.

Run:  python examples/dist_quickstart.py
"""

from collections import Counter

from repro import Application, LocalRuntime
from repro.dist import DistRuntime

LINES = [
    "the wind the rain the storm",
    "a hurricane tames the skew",
    "the storm the storm the storm",
    "skew is the rule not the exception",
] * 50


# Per-record on purpose: the same Figure 3 task functions as quickstart.py,
# so what this example shows is the engine swap and nothing else.
def tokenize(ctx):
    for line in ctx.records():
        for word in line.split():
            ctx.emit("words", word)


def count(ctx):
    counter = Counter()
    for word in ctx.records():
        counter[word] += 1
    return counter


def build_app() -> Application:
    app = Application("wordcount-dist")
    lines = app.bag("lines", codec="str")
    words = app.bag("words", codec="str")
    counts = app.bag("counts")
    app.task("tokenize", [lines], [words], fn=tokenize)
    app.task("count", [words], [counts], fn=count, merge="counter")
    return app


def main() -> None:
    local = LocalRuntime(build_app(), workers=1, cloning=False).run(
        {"lines": LINES}, timeout=60
    )
    # A small chunk size so this toy input is many chunks to share out.
    dist = DistRuntime(build_app(), workers=4, shards=2, chunk_size=256).run(
        {"lines": LINES}, timeout=60
    )
    local_counts = local.value("counts")
    dist_counts = dist.value("counts")
    assert dist_counts == local_counts, "dist result diverged from local"
    top = sorted(dist_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    print(f"top words: {top}")
    print(
        f"clones: {dist.total_clones()}  "
        f"chunks: {dist.chunks_processed}  "
        f"shards: {dist.shards}  "
        f"worker deaths: {dist.worker_deaths}"
    )
    print("dist result matches local: OK")


if __name__ == "__main__":
    main()
