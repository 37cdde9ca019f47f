"""Spans around towersim's functions, installed from outside the package.

Every wrapper is installed under the name its caller looks up at run time.
``from .embedding import lookup`` binds the function into ``exchange``, so
the span for embedding lookups replaces ``exchange.lookup``; patching
``embedding.lookup`` would time nothing. A span is named after the layer
that owns the function, so ``exchange.lookup`` records ``embedding.lookup``.

``topology.link_class`` and ``class_members`` run about 10^4 times per
collective and a wrapper would cost more than the call, so they have no span:
their time shows in the self time of the simnet and exchange spans.

Spans stay in memory, per command, as (name, start, end, parent, RSS rise,
tracer time) and are written out once, after the last command.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import time
from collections import Counter

from towersim import simnet

# (attribute the caller looks up, span name)
WRAPPED = (
    ("cli.RunContext", "cli.RunContext"),
    ("cli.read_embeddings", "cli.read_embeddings"),
    ("cli.compare_exact", "cli.compare_exact"),
    ("cli.make_batch", "embedding.make_batch"),
    ("cli.shard_tables", "embedding.shard_tables"),
    ("cli.init_table_deterministic", "embedding.init_table"),
    ("embedding.SparseBatch.validate", "embedding.validate"),
    ("exchange.lookup", "embedding.lookup"),
    ("exchange.all_to_all", "simnet.all_to_all"),
    ("exchange.reduce_scatter", "simnet.reduce_scatter"),
    ("simnet.CommTrace.save", "simnet.trace_save"),
    ("exchange.baseline_exchange", "exchange.baseline_exchange"),
    ("exchange.tower_exchange", "exchange.tower_exchange"),
    ("exchange.realign", "exchange.realign"),
    ("exchange.tm_forward", "towermod.tm_forward"),
    ("exchange.init_tm_weights", "towermod.init_tm_weights"),
    ("costmodel.pipeline_cost", "costmodel.pipeline_cost"),
    ("partitioner.affinity_from_embeddings", "partitioner.affinity"),
    ("partitioner.mds_embed", "partitioner.mds_embed"),
    ("partitioner.stress_gradient", "partitioner.stress_gradient"),
    ("partitioner.linear_sum_assignment", "partitioner.linear_sum_assignment"),
    ("partitioner.constrained_kmeans", "partitioner.constrained_kmeans"),
    ("partitioner.partition_score", "partitioner.partition_score"),
)

ROOT = "cli.main"
LAYERS = ("cli", "embedding", "simnet", "exchange", "towermod", "costmodel", "partitioner")
# Set-up time of a command: building tables, placement and batch, or reading
# the partitioner's embeddings.
SETUP = ("cli.RunContext", "cli.read_embeddings")
# Spans whose rise in peak RSS is recorded.
RSS = ("embedding.make_batch", "exchange.baseline_exchange", "exchange.tower_exchange")
# Results read for the simulated statistics of an observed command: the
# warm-up and every traced command. Traced commands also count the rows each
# lookup reads.
OBSERVED = (
    "exchange.baseline_exchange",
    "exchange.tower_exchange",
    "partitioner.mds_embed",
    "partitioner.partition_score",
)
PIPELINE_STEPS = {"baseline": ("a", "c"), "tower": ("a", "d", "f")}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans for the names it times, and observations for observed commands.

    ``timed`` names get a span. Names in OBSERVED are wrapped too when the
    command is observed; an untimed wrapper only calls through and reads the
    result. Observations are reduced to numbers at once, so no result outlives
    the point where the program would free it.

    The tracer's own work outside a span's clock (its bookkeeping, reading
    RSS, observing) is timed and taken off every enclosing span, so the
    benchmark's counting lands in no layer's time.
    """

    def __init__(self) -> None:
        # Per command: [name, start, end, parent, rss_rise_kib, hidden_s];
        # parent is an index into the same command's list, -1 for the root;
        # hidden_s is the tracer's own time inside [start, end].
        self.spans: dict[int, list[list]] = {}
        self.observed: dict[int, dict | None] = {}
        self._current: list[list] = []
        self._obs: dict | None = None
        self._stack = [-1]
        self._hidden_s = 0.0

    def _observe(self, name: str, args: tuple, result) -> None:
        obs = self._obs
        if obs is None:
            return
        if name == "embedding.lookup":
            obs["lookup_rows"] += sum(len(bag) for bag in args[1])
        elif name in ("exchange.baseline_exchange", "exchange.tower_exchange"):
            pipeline = name.split(".")[1].split("_")[0]
            count_trace(obs, pipeline, result.trace)
        elif name == "partitioner.mds_embed":
            obs["final_stress"] = float(result.final_stress)
        elif name == "partitioner.partition_score":
            obs["score"] = float(result)

    def _wrap(self, name: str, fn, timed: bool):
        if not timed:
            def observer(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._observe(name, args, result)
                return result
            return observer
        stack, clock = self._stack, time.perf_counter
        rss = name in RSS

        def span(*args, **kwargs):
            entered = clock()
            spans = self._current
            record = [name, 0.0, 0.0, stack[-1], 0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            before = _maxrss_kib() if rss else 0
            hidden = self._hidden_s
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[5] = self._hidden_s - hidden
            if rss:
                record[4] = _maxrss_kib() - before
            self._observe(name, args, result)
            self._hidden_s += (record[1] - entered) + (clock() - record[2])
            return result
        return span

    @contextlib.contextmanager
    def installed(self, timed: frozenset, observe: bool):
        """Patch every timed name, and the OBSERVED ones if ``observe``, for the block."""
        patched = []
        try:
            for attr, name in WRAPPED:
                if name not in timed and not (observe and name in OBSERVED):
                    continue
                path, _, leaf = attr.rpartition(".")
                module, _, cls = path.partition(".")
                owner = importlib.import_module(f"towersim.{module}")
                if cls:
                    owner = getattr(owner, cls)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(name, original, name in timed))
                patched.append((owner, leaf, original))
            yield
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)

    def run(self, fn, command: int, root: bool, observe: bool):
        """Run ``fn`` as one command, under the root span if ``root``."""
        self._current = self.spans[command] = []
        self._obs = self.observed[command] = (
            {"bytes": Counter(), "messages": 0, "empty": 0, "step_a_indices": 0,
             "lookup_rows": 0} if observe else None
        )
        if root:
            fn = self._wrap(ROOT, fn, True)
        return fn()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for command, spans in self.spans.items():
                for name, start, end, parent, rise, hidden in spans:
                    fh.write(json.dumps(
                        {"command": command, "name": name, "start": start,
                         "end": end, "parent": parent, "rss_rise_kib": rise,
                         "tracer_s": hidden}
                    ) + "\n")


def count_trace(obs: dict, pipeline: str, trace) -> None:
    """Add a pipeline's byte totals per step, messages, empty messages and step-a indices."""
    for step in PIPELINE_STEPS[pipeline]:
        intra, cross = trace.byte_totals(step)
        obs["bytes"][f"simnet.bytes.{pipeline}.{step}.intra"] += intra
        obs["bytes"][f"simnet.bytes.{pipeline}.{step}.cross"] += cross
    for entry in trace.entries:
        obs["messages"] += 1
        obs["empty"] += entry.nbytes == 0
        if entry.label == "a":
            obs["step_a_indices"] += entry.nbytes // simnet.BYTES_PER_ELEMENT


def setup_seconds(spans: list[list]) -> float:
    return sum(s[2] - s[1] - s[5] for s in spans if s[0] in SETUP)


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Inclusive time, call count, layer self time and RSS rise of one command.

    A span's duration is its clock time minus the tracer's own time inside
    it, and its self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the root span's
    duration. Times and RSS rises of a name add up over its calls.
    """
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    children: Counter = Counter()
    for name, start, end, parent, _, hidden in spans:
        inclusive[name] += end - start - hidden
        calls[name] += 1
        if parent >= 0:
            children[parent] += end - start - hidden
    selfs: Counter = Counter()
    rises: Counter = Counter()
    for i, (name, start, end, _, rise_kib, hidden) in enumerate(spans):
        selfs[name.split(".")[0]] += (end - start - hidden) - children[i]
        rises[name] += rise_kib
    out = {f"{name}.s": value for name, value in inclusive.items()}
    out.update({f"{name}.calls": float(n) for name, n in calls.items()})
    out.update({f"{layer}.self.s": float(selfs[layer]) for layer in LAYERS})
    out.update({f"{name}.rss_rise_mb": rises[name] / 1024 for name in RSS if name in calls})
    return out
