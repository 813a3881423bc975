"""Outside-in tracing of facesim's layer boundaries.

The tracer swaps module attributes for timing wrappers, so no facesim source
changes. A boundary named "<module>.<attr>" wraps that module's binding; when
the function is defined in that module, every other facesim module that
re-imported the same function object is wrapped under the same name too
(`selector.classify_query` counts as `attributes.classify_query`). A function
imported from elsewhere is wrapped only where the boundary names it, which is
how `evaluator.similarity_score` and `selector.similarity_score` stay apart
although both are `metric.similarity_score`. A boundary whose function is
gone reports 0 calls.

`metric.project` and `metric.cosine` stay unwrapped: they run tens of
thousands of times per pass, and wrapping them would distort what it measures.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "facesim"


def _rows_returned(args, kwargs, result):
    return len(result)


def _rows_passed(args, kwargs, result):
    return len(args[0] if args else kwargs["table"])


# (span name, module, attributes, item counter). The item counter, when given,
# turns the call's arguments and result into a number of rows handled.
BOUNDARIES = (
    ("cli.run", "cli", ("run",), None),
    *(
        (f"cli.{attr}", "cli", (attr,), None)
        for attr in (
            "cmd_ingest",
            "cmd_validate",
            "cmd_split",
            "cmd_train",
            "cmd_eval_triplets",
            "cmd_eval_attributes",
            "cmd_select",
            "cmd_synth",
        )
    ),
    ("corpus.load_embeddings", "corpus", ("load_embeddings",), _rows_returned),
    ("corpus.save_embeddings", "corpus", ("save_embeddings",), _rows_passed),
    ("corpus.load_annotations", "corpus", ("load_annotations",), None),
    ("corpus.load_manifest", "corpus", ("load_manifest",), None),
    (
        "corpus.aggregate",
        "corpus",
        ("validate_annotators", "aggregate_triplets", "build_datasets"),
        None,
    ),
    ("corpus.split_eval", "corpus", ("split_eval",), None),
    ("corpus.audit_partition", "corpus", ("audit_partition",), None),
    ("trainer.train", "trainer", ("train",), None),
    ("trainer.batch_loss_and_gradient", "trainer", ("batch_loss_and_gradient",), None),
    ("trainer.triplet_loss", "trainer", ("triplet_loss",), None),
    ("evaluator.eval_triplets", "evaluator", ("eval_triplets",), None),
    ("evaluator.similarity_score", "evaluator", ("similarity_score",), None),
    ("attributes.build_groups", "attributes", ("build_groups",), None),
    ("attributes.evaluate_classification", "attributes", ("evaluate_classification",), None),
    ("attributes.classify_query", "attributes", ("classify_query",), None),
    ("attributes.group_distance", "attributes", ("group_distance",), None),
    ("selector.recommend", "selector", ("recommend",), None),
    ("selector.rank_candidates", "selector", ("rank_candidates",), None),
    ("selector.similarity_score", "selector", ("similarity_score",), None),
    ("synth.planted", "synth", ("planted",), None),
    ("synth.clustered_attributes", "synth", ("clustered_attributes",), None),
)

SPAN_NAMES = tuple(b[0] for b in BOUNDARIES)

# The exact per-item counts of the seed program, at every input size the
# benchmark uses. A change that moves one on purpose edits its value here;
# the self-test fails on any other difference, 0 calls included.
SEED_COUNTS = {
    # 8 in eval-attributes (4 for AUC, 4 again in classify_query) + 4 in select
    "attributes.group_distance.calls_per_query": 12.0,
    # the CLI ranks each query in recommend and again for --ranking
    "selector.rank_candidates.calls_per_query": 2.0,
    # 150 candidates in the chosen group, ranked twice
    "selector.similarity_score.calls_per_query": 300.0,
    # the post-step active-fraction recompute
    "trainer.triplet_loss.calls_per_triplet_epoch": 1.0,
    # one similar and one dissimilar pair per validation or test triplet
    "evaluator.similarity_score.calls_per_triplet": 2.0,
}


class Tracer:
    """Records one span per wrapped call while installed.

    A span is the list [name, start, end, parent index, items]; parent -1
    marks a root. Spans stay in memory until `take_spans` hands them over.
    """

    def __init__(self):
        self._spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, items):
        spans = self._spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if items is not None:
                try:
                    span[4] = items(args, kwargs, result)
                except (TypeError, KeyError, IndexError):
                    pass  # a changed signature loses the row count, not the call
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, module_name, attrs, items in BOUNDARIES:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            for attr in attrs:
                fn = getattr(home, attr, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(name, fn, items)
                bindings = [(home, attr)]
                if getattr(fn, "__module__", None) == home.__name__:
                    bindings += [
                        (m, a)
                        for m in modules
                        if m is not home
                        for a, v in vars(m).items()
                        if v is fn
                    ]
                for module, a in bindings:
                    self._saved.append((module, a, fn))
                    setattr(module, a, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take_spans(self) -> list:
        spans = self._spans[:]
        self._spans.clear()
        return spans


def summarize(spans: list) -> dict:
    """Per span name: calls, busy seconds, self seconds and items.

    Self time is a span's duration minus the durations of its direct
    children; wrapped calls nest, so children never overlap each other.
    Also returns the seconds spent in each name under each parent name, and
    the total duration of root spans.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0} for n in SPAN_NAMES}
    under = defaultdict(float)
    root_s = 0.0
    for i, (name, start, end, parent, items) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["busy_s"] += end - start
        s["self_s"] += end - start - child_s[i]
        s["items"] += items
        if parent >= 0:
            under[(spans[parent][0], name)] += end - start
        else:
            root_s += end - start
    return {"stats": stats, "under": dict(under), "root_s": root_s}
