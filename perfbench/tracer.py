"""In-memory span and counter tracer for the plantsearch benchmark.

The tracer wraps public functions of the package at every module
attribute that refers to them, so calls made through ``from .x import
f`` names are caught as well as ``module.f`` lookups. Each wrapped call
updates per-name aggregates (calls, total seconds, self seconds) and,
for coarse layers, appends a span ``(span_id, parent_id, op, name,
start, end)``. Self time is a call's duration minus the time its
wrapped children took; calls are sequential, so children never
overlap. Hooks derive layer counters from a call's arguments and
result (texts featurized, bytes hashed, active hinge terms, ...).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _featurize_hook(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    text = args[0] if args else kwargs["text"]
    if text not in t.texts:
        t.texts.add(text)
        t.counters["encoder.featurize.new"] += 1


def _sha256_hook(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counters["storage.sha256_file.bytes"] += os.path.getsize(args[0])


def _active_hook(name: str) -> Hook:
    """Count calls whose hinge loss is positive, i.e. that lead to a parameter update."""
    def hook(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
        t.counters[f"{name}.active"] += int(result[0] > 0.0)
    return hook


def _quality_filter_hook(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counters["pairs.quality_filter.in"] += len(args[0].triplets)
    t.counters["pairs.quality_filter.kept"] += len(result.triplets)


def _sample_triplets_hook(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counters["triplets.emitted"] += len(result.triplets)
    t.counters["triplets.skipped"] += result.skipped


def _train_ge_hook(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    g, _, cfg = args[:3]
    t.counters["graph_embed.train_graph_embeddings.edges"] += len(g.edges) * cfg.epochs


# (module, attribute, span name, keep every span, counter hook). Fine-grained
# layers called thousands of times per operation keep aggregates only.
TARGETS: list[tuple[str, str, str, bool, Hook | None]] = [
    ("cli", "stage_synth", "cli.synth", True, None),
    ("cli", "stage_build_graph", "cli.build-graph", True, None),
    ("cli", "stage_train_ge", "cli.train-ge", True, None),
    ("cli", "stage_sample_triplets", "cli.sample-triplets", True, None),
    ("cli", "stage_train_docsim", "cli.train-docsim", True, None),
    ("cli", "stage_gen_pairs", "cli.gen-pairs", True, None),
    ("cli", "_train_biencoder_variant", "cli.train-biencoder", True, None),
    ("cli", "stage_evaluate", "cli.evaluate", True, None),
    ("synth", "generate_plant", "synth.generate_plant", True, None),
    ("kg", "load_graph", "kg.load_graph", True, None),
    ("kg", "predict_links", "kg.predict_links", True, None),
    ("kg", "expand_context", "kg.expand_context", False, None),
    ("storage", "sha256_file", "storage.sha256_file", False, _sha256_hook),
    ("storage", "write_matrix", "storage.write_matrix", True, None),
    ("storage", "read_matrix", "storage.read_matrix", True, None),
    ("graph_embed", "train_graph_embeddings", "graph_embed.train_graph_embeddings", True,
     _train_ge_hook),
    ("graph_embed", "eval_link_prediction", "graph_embed.eval_link_prediction", True, None),
    ("losses", "edge_ranking_loss_grad", "losses.edge_ranking_loss_grad", False,
     _active_hook("losses.edge_ranking_loss_grad")),
    ("losses", "mnr_loss_grad", "losses.mnr_loss_grad", False, None),
    ("losses", "triplet_loss_grad", "losses.triplet_loss_grad", False,
     _active_hook("losses.triplet_loss_grad")),
    ("ann", "knn", "ann.knn", False, None),
    ("ann", "build_index", "ann.build_index", True, None),
    ("triplets", "sample_triplets", "triplets.sample_triplets", True, _sample_triplets_hook),
    ("encoder", "featurize", "encoder.featurize", False, _featurize_hook),
    ("encoder", "encode", "encoder.encode", False, None),
    ("pairs", "quality_filter", "pairs.quality_filter", True, _quality_filter_hook),
    ("train", "train_docsim", "train.train_docsim", True, None),
    ("train", "train_biencoder", "train.train_biencoder", True, None),
    ("ir_eval", "evaluate_run", "ir_eval.evaluate_run", True, None),
    ("ir_eval", "rank_corpus", "ir_eval.rank_corpus", True, None),
]


class Tracer:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.texts: set[str] = set()
        self.op = 0
        self._stack: list[list] = [[0, 0.0]]  # [span id, child seconds]; root frame
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, t0: float, t1: float, keep: bool) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        dur = t1 - t0
        parent[1] += dur
        self.calls[name] += 1
        self.seconds[name] += dur
        self.self_seconds[name] += dur - frame[1]
        if keep:
            self.spans.append((frame[0], parent[0], self.op, name, t0, t1))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, t0, time.perf_counter(), True)

    def begin_op(self, reset_texts: bool) -> None:
        """Give later spans a fresh op id; with ``reset_texts`` every text counts as new again."""
        self.op += 1
        if reset_texts:
            self.texts.clear()

    def _wrap(self, fn: Callable, name: str, keep: bool, hook: Hook | None) -> Callable:
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, name, t0, time.perf_counter(), keep)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each plantsearch module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "plantsearch" or n.startswith("plantsearch."))]
        for mod_name, attr, name, keep, hook in TARGETS:
            original = getattr(sys.modules[f"plantsearch.{mod_name}"], attr, None)
            if original is None:
                # A renamed or removed function: its metrics read 0 and the result says why.
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(original, name, keep, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
            # cli.main dispatches through its STAGES table, not module globals.
            stages = getattr(sys.modules["plantsearch.cli"], "STAGES", {})
            for key, value in list(stages.items()):
                if value is original:
                    self._patches.append((stages, key, value))
                    stages[key] = wrapped

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics; counts and seconds are per round of the workload."""
        per = 1.0 / rounds
        c, s, own, k = self.calls, self.seconds, self.self_seconds, self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for stage in ("synth", "build-graph", "train-ge", "sample-triplets", "train-docsim",
                      "gen-pairs", "train-biencoder", "evaluate"):
            out[f"cli.{stage}_s"] = s[f"cli.{stage}"] * per
        out["synth.generate_plant.calls"] = c["synth.generate_plant"] * per
        out["synth.generate_plant.s"] = s["synth.generate_plant"] * per
        out["kg.load_graph.calls"] = c["kg.load_graph"] * per
        out["kg.load_graph.s"] = s["kg.load_graph"] * per
        out["kg.predict_links.s"] = s["kg.predict_links"] * per
        out["kg.expand_context.s"] = s["kg.expand_context"] * per
        out["storage.sha256_file.calls"] = c["storage.sha256_file"] * per
        out["storage.sha256_file.mb"] = k["storage.sha256_file.bytes"] / 1e6 * per
        out["storage.sha256_file.s"] = s["storage.sha256_file"] * per
        out["storage.write_matrix.s"] = s["storage.write_matrix"] * per
        out["storage.read_matrix.s"] = s["storage.read_matrix"] * per
        ge = "graph_embed.train_graph_embeddings"
        out[f"{ge}.s"] = s[ge] * per
        out[f"{ge}.self_s"] = own[ge] * per
        out[f"{ge}.edges_per_s"] = ratio(k[f"{ge}.edges"], s[ge])
        out["graph_embed.eval_link_prediction.s"] = s["graph_embed.eval_link_prediction"] * per
        edge = "losses.edge_ranking_loss_grad"
        out[f"{edge}.calls"] = c[edge] * per
        out[f"{edge}.us_per_call"] = 1e6 * ratio(s[edge], c[edge])
        out[f"{edge}.active_frac"] = ratio(k[f"{edge}.active"], c[edge])
        out["losses.mnr_loss_grad.calls"] = c["losses.mnr_loss_grad"] * per
        out["losses.mnr_loss_grad.s"] = s["losses.mnr_loss_grad"] * per
        out["losses.triplet_loss_grad.calls"] = c["losses.triplet_loss_grad"] * per
        out["losses.triplet_loss_grad.active_frac"] = ratio(
            k["losses.triplet_loss_grad.active"], c["losses.triplet_loss_grad"])
        out["ann.knn.calls"] = c["ann.knn"] * per
        out["ann.knn.us_per_call"] = 1e6 * ratio(s["ann.knn"], c["ann.knn"])
        out["ann.build_index.s"] = s["ann.build_index"] * per
        out["triplets.sample_triplets.s"] = s["triplets.sample_triplets"] * per
        out["triplets.emitted"] = k["triplets.emitted"] * per
        out["triplets.skipped"] = k["triplets.skipped"] * per
        feat = "encoder.featurize"
        out[f"{feat}.calls"] = c[feat] * per
        out[f"{feat}.distinct_texts"] = k[f"{feat}.new"] * per
        out[f"{feat}.distinct_frac"] = ratio(k[f"{feat}.new"], c[feat])
        out[f"{feat}.repeat_frac"] = ratio(c[feat] - k[f"{feat}.new"], c[feat])
        out[f"{feat}.s"] = s[feat] * per
        out["encoder.encode.calls"] = c["encoder.encode"] * per
        out["encoder.encode.s"] = s["encoder.encode"] * per
        out["pairs.quality_filter.calls"] = c["pairs.quality_filter"] * per
        out["pairs.quality_filter.s"] = s["pairs.quality_filter"] * per
        out["pairs.quality_filter.kept_frac"] = ratio(
            k["pairs.quality_filter.kept"], k["pairs.quality_filter.in"])
        out["train.train_docsim.s"] = s["train.train_docsim"] * per
        out["train.train_docsim.self_s"] = own["train.train_docsim"] * per
        out["train.train_biencoder.calls"] = c["train.train_biencoder"] * per
        out["train.train_biencoder.s"] = s["train.train_biencoder"] * per
        out["train.train_biencoder.self_s"] = own["train.train_biencoder"] * per
        out["ir_eval.evaluate_run.s"] = s["ir_eval.evaluate_run"] * per
        out["ir_eval.rank_corpus.calls"] = c["ir_eval.rank_corpus"] * per
        out["ir_eval.rank_corpus.self_s"] = own["ir_eval.rank_corpus"] * per
        return out
