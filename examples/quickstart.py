"""Quickstart: write a skew-resilient Hurricane application in ~40 lines.

A word-count over real data on the local engine: a streaming ``tokenize``
task feeds a ``count`` aggregation whose clones reconcile through the
``counter`` merge. The runtime decides cloning on its own — note in the
output that the result is identical whether or not clones were spawned.

The tasks read ``ctx.records()`` and write ``ctx.emit()`` — the paper's
Figure 3 API, kept here because it is the one the paper teaches; see the
README for the same tasks a chunk at a time.

Run:  python examples/quickstart.py
"""

from collections import Counter

from repro import Application, LocalRuntime


def tokenize(ctx):
    """Streaming task: no merge needed, outputs simply concatenate."""
    for line in ctx.records():
        for word in line.split():
            ctx.emit("words", word.lower().strip(".,!?"))


def count(ctx):
    """Aggregation task: returns its partial output; clones merge."""
    counter = Counter()
    for word in ctx.records():
        counter[word] += 1
    return counter


def build_app() -> Application:
    app = Application("wordcount")
    lines = app.bag("lines", codec="str")
    words = app.bag("words", codec="str")
    counts = app.bag("counts")
    app.task("tokenize", [lines], [words], fn=tokenize)
    app.task("count", [words], [counts], fn=count, merge="counter")
    return app


def main() -> None:
    corpus = [
        "the hurricane tames skew",
        "skew makes stragglers and stragglers make sad clusters",
        "clone the task and merge the partial outputs",
        "the bag hands every chunk to exactly one clone",
    ] * 500

    # Many workers, aggressive cloning.
    cloned = LocalRuntime(
        build_app(), workers=8, cloning=True, chunk_size=512, clone_min_chunks=1
    ).run({"lines": corpus})

    # One worker, no cloning: the reference execution.
    plain = LocalRuntime(build_app(), workers=1, cloning=False).run(
        {"lines": corpus}
    )

    top = cloned.value("counts").most_common(5)
    print("top words:", top)
    print(f"clones spawned: {cloned.total_clones()}")
    print(f"records processed: {cloned.records_processed}")
    identical = cloned.value("counts") == plain.value("counts")
    print(f"cloned result == un-cloned result: {identical}")
    assert identical


if __name__ == "__main__":
    main()
