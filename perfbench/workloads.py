"""The benchmark's three workloads: pipeline, search and graph.

Each workload builds every input from the benchmark seed during
``setup``, runs rounds of operations in ``run_round`` (the timed
section), checks each operation's output, and derives its quality
metrics in ``finish``. A round is the unit a user waits for: one
pipeline run, one build-graph -> train-ge -> sample-triplets chain, or
a batch of 40 search queries.
"""

from __future__ import annotations

import json
import logging
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from plantsearch import cli, encoder, graph_embed, ir_eval, kg, pairs, synth
from plantsearch.graph_embed import RELATION_SIGNATURES
from plantsearch.storage import derive_seed

from tracer import Tracer

log = logging.getLogger("perfbench")

QUALITY_KEYS = ("ndcg10", "map10", "mrr10", "mrr_full", "auc")


class SetupError(RuntimeError):
    """The workload could not build its inputs."""


Interval = tuple[float, float]  # perf_counter start and end


@dataclass
class Round:
    parts: list[Interval]  # the timed pieces that make up the round's wall time
    requests: list[list[Interval]]  # one latency sample per request, the sum of its pieces
    attempted: int
    failed: int


@dataclass
class Finish:
    quality: dict[str, float]
    failed: int = 0
    info: dict[str, Any] = field(default_factory=dict)


def _op_span(tracer: Tracer | None, name: str, new_texts: bool):
    if tracer is None:
        return nullcontext()
    tracer.begin_op(reset_texts=new_texts)
    return tracer.span(name)


def _finite(values: Mapping[str, float]) -> bool:
    return all(math.isfinite(v) for v in values.values())


# ---------------------------------------------------------------------------
# Ranking oracle shared by the search and pipeline checks


def oracle_rankings(params: encoder.EncoderParams, corpus: Mapping[str, str],
                    queries: Sequence[str]) -> list[list[str]]:
    """Per-text encode, per-row cosine, order by (-score, id)."""
    doc_ids = sorted(corpus)
    vecs = [encoder.encode(params, corpus[d]) for d in doc_ids]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    out = []
    for text in queries:
        q = encoder.encode(params, text)
        qn = float(np.linalg.norm(q))
        scores = [0.0 if n == 0.0 or qn == 0.0 else float(np.dot(v, q)) / (n * qn)
                  for v, n in zip(vecs, norms)]
        order = sorted(range(len(doc_ids)), key=lambda i: (-scores[i], doc_ids[i]))
        out.append([doc_ids[i] for i in order])
    return out


def full_rank_quality(ranking: Sequence[str], grades: Mapping[str, int]) -> tuple[float, float]:
    """Reciprocal rank of the first relevant doc and ROC-AUC, over the whole ranking."""
    relevant = [i for i, d in enumerate(ranking) if grades.get(d, 0) > 0]
    if not relevant:
        return 0.0, 0.0
    n_rel, n_non = len(relevant), len(ranking) - len(relevant)
    # Non-relevant docs ranked below each relevant one, summed over relevant docs.
    below = sum(n_non - (pos - k) for k, pos in enumerate(relevant))
    return 1.0 / (relevant[0] + 1), (below / (n_rel * n_non) if n_non else 1.0)


def ranking_quality(rankings: Sequence[Sequence[str]],
                    grades: Sequence[Mapping[str, int]]) -> dict[str, float]:
    """Mean MAP/MRR/nDCG at 10 plus full-ranking MRR and AUC, in percent."""
    rows = []
    for ranking, g in zip(rankings, grades):
        relevant = {d for d, v in g.items() if v > 0}
        rows.append((ir_eval.ndcg_at_k(ranking, g, 10), ir_eval.ap_at_k(ranking, relevant, 10),
                     ir_eval.rr_at_k(ranking, relevant, 10), *full_rank_quality(ranking, g)))
    means = np.mean(np.array(rows), axis=0) * 100.0
    return dict(zip(QUALITY_KEYS, (float(v) for v in means)))


def _macro(per_plant: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    keys = next(iter(per_plant.values())).keys()
    return {k: float(np.mean([m[k] for m in per_plant.values()])) for k in keys}


def _load_plant_benchmark(out: Path, pid: str):
    pdir = out / "plants" / pid
    g = kg.load_graph(pdir / "nodes.jsonl", pdir / "edges.jsonl")
    corpus = {n.id: n.text for n in g.text_logs()}
    queries = ir_eval.load_queries(pdir / "queries.jsonl").get(pid, [])
    qrels = ir_eval.load_qrels(pdir / "qrels.txt")
    return corpus, queries, qrels


def _snapshot(out: Path, patterns: Sequence[str]) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for pattern in patterns for p in sorted(out.glob(pattern))}


# ---------------------------------------------------------------------------
# pipeline: the default config end to end, as users reproduce the paper


WARMUP_CONFIG = {
    "plants": [
        {"plant_id": "W", "n_fl": 8, "n_logs": 60, "n_queries": 3, "training": True},
        {"plant_id": "V", "n_fl": 8, "n_logs": 40, "n_queries": 3},
    ],
    "graph_embed": {"dim": 16, "epochs": 2, "negatives_per_edge": 4, "lp_test_fraction": 0.05},
    "sampling": {"k_hard": 10, "min_text_chars": 40},
    "docsim": {"epochs": 1, "batch_size": 8},
    "biencoder": {"epochs": 1, "batch_size": 16, "warmup_steps": 2},
    "ablations": [{"name": "docsim+sid+get", "use_get": True, "use_sid": True, "docsim": True}],
}

REPORT_ROW = "docsim+sid+get"
PIPELINE_SNAPSHOT = ("manifest-*.json", "report*.json", "report*.txt")


class PipelineWorkload:
    """``plantsearch pipeline`` on the built-in default config, through ``cli.main``."""

    name = "pipeline"
    min_rounds = 2  # the second run is the byte-identity check of the first

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = {"cli": ["pipeline", "--seed", str(seed)], "run_config": "built-in default",
                       "warmup_config": WARMUP_CONFIG}
        self.first: dict[str, bytes] | None = None
        self.rounds = 0

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cfg_path = self.work / "warmup.json"
        cfg_path.write_text(json.dumps({"seed": self.seed, **WARMUP_CONFIG}), encoding="utf-8")
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(self.work / "warmup")])
        if rc != 0:
            raise SetupError(f"warm-up pipeline exited {rc}")
        shutil.rmtree(self.work / "warmup")

    def _out(self, k: int) -> Path:
        return self.work / f"run-{k}"

    def run_round(self, tracer: Tracer | None) -> Round:
        out = self._out(self.rounds)
        self.rounds += 1
        t0 = time.perf_counter()
        with _op_span(tracer, "op.pipeline", new_texts=True):
            try:
                rc = cli.main(["pipeline", "--seed", str(self.seed), "--out", str(out)])
            except Exception:
                log.exception("pipeline run raised")
                rc = -1
        run = (t0, time.perf_counter())
        ok = rc == 0 and self._check(out)
        if out != self._out(0):
            shutil.rmtree(out, ignore_errors=True)
        return Round([run], [[run]], 1, 0 if ok else 1)

    def _check(self, out: Path) -> bool:
        snap = _snapshot(out, PIPELINE_SNAPSHOT)
        report = json.loads(snap["report.json"])
        if not all(_finite({k: v for k, v in row["metrics"].items() if k.startswith("mean")})
                   for row in report["rows"]):
            log.error("pipeline: non-finite report metrics in %s", out)
            return False
        if self.first is None:
            self.first = snap
            return True
        if snap != self.first:
            diff = sorted(k for k in set(snap) | set(self.first)
                          if snap.get(k) != self.first.get(k))
            log.error("pipeline: rerun differs from the first run in %s", diff)
            return False
        return True

    def finish(self) -> Finish:
        out = self._out(0)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = {row["ablation"]["name"]: row["metrics"] for row in report["rows"]}
        row = rows[REPORT_ROW]
        adir = out / "ablations" / REPORT_ROW
        params = encoder.load_encoder(adir / "biencoder.gemb", adir / "biencoder.json")
        plants = json.loads((out / "benchmark.json").read_text(encoding="utf-8"))["plants"]
        per_plant = {}
        for meta in plants:
            corpus, queries, qrels = _load_plant_benchmark(out, meta["plant_id"])
            rankings = oracle_rankings(params, corpus, [q.text for q in queries])
            per_plant[meta["plant_id"]] = ranking_quality(
                rankings, [qrels.get(q.query_id, {}) for q in queries])
        oracle = _macro(per_plant)
        quality = {"ndcg10": 100.0 * row["mean_ndcg10"], "map10": 100.0 * row["mean_map10"],
                   "mrr10": 100.0 * row["mean_mrr10"],
                   "mrr_full": oracle["mrr_full"], "auc": oracle["auc"]}
        # evaluate_run must agree with the oracle ranking on every @10 metric.
        failed = 0
        for key in ("ndcg10", "map10", "mrr10"):
            if not math.isclose(quality[key], oracle[key], rel_tol=1e-9, abs_tol=1e-9):
                log.error("pipeline: report %s %.6f != oracle %.6f", key, quality[key], oracle[key])
                failed = 1
        lp = {}
        for path in sorted((out / "ge").glob("*.lp.json")):
            lp[path.name.split(".")[0]] = json.loads(path.read_text(encoding="utf-8"))
        info = {
            "report_rows": {name: {k: 100.0 * m[k] for k in ("mean_ndcg10", "mean_map10",
                                                               "mean_mrr10")}
                            for name, m in rows.items()},
            "lp_coarse_not_gated": lp,
        }
        return Finish(quality, failed, info)


# ---------------------------------------------------------------------------
# search: closed-loop queries against one plant corpus, the encoder read path


SEARCH_PLANT = {"n_fl": 40, "n_logs": 500, "n_queries": 20}
SEARCH_BATCH = 40  # queries per round
SEARCH_JUDGED = 200  # the first timed queries; quality and latency p95 need at least these
SEARCH_CHECK_EVERY = 10  # every 10th judged query is checked against the oracle
SEARCH_WARMUP = 3


class QueryStream:
    """Distinct query texts with their relevance grades, all from the seed.

    Order: warm-up queries, then a shuffled judged block holding the
    plant's benchmark queries and extractive queries, then an unbounded
    tail of extractive and two-document queries.
    """

    def __init__(self, plant: ir_eval.BenchmarkPlant, seed: int):
        self.rng = np.random.default_rng(derive_seed(seed, "perfbench:queries"))
        self.corpus = plant.corpus
        self.stats = pairs.CorpusStats.from_texts(plant.corpus.values())
        self.doc_ids = sorted(plant.corpus)
        self.seen: set[str] = set()
        self.bench = [(q.text, dict(plant.qrels.get(q.query_id, {}))) for q in plant.queries]
        self._it = self._generate()

    def _fresh(self, text: str) -> bool:
        if text in self.seen:
            return False
        self.seen.add(text)
        return True

    def _extractive(self, m: int) -> Iterator[tuple[str, dict[str, int]]]:
        for i in self.rng.permutation(len(self.doc_ids)):
            doc = self.doc_ids[i]
            text = pairs.generate_query(self.corpus[doc], m, self.stats)
            if self._fresh(text):
                yield text, {doc: 1}

    def _generate(self) -> Iterator[tuple[str, dict[str, int]]]:
        yield from _take(self._extractive(6), SEARCH_WARMUP)
        block = [q for q in self.bench if self._fresh(q[0])]
        block += _take(self._extractive(3), SEARCH_JUDGED - len(block))
        for i in self.rng.permutation(len(block)):
            yield block[i]
        for m in (2, 4, 5):
            yield from self._extractive(m)
        while True:
            a, b = self.rng.choice(len(self.doc_ids), size=2, replace=False)
            da, db = self.doc_ids[a], self.doc_ids[b]
            text = (pairs.generate_query(self.corpus[da], 2, self.stats) + " "
                    + pairs.generate_query(self.corpus[db], 2, self.stats))
            if self._fresh(text):
                yield text, {da: 1, db: 1}

    def take(self, n: int) -> list[tuple[str, dict[str, int]]]:
        return _take(self._it, n)


def _take(it: Iterator, n: int) -> list:
    return [x for _, x in zip(range(n), it)]


class SearchWorkload:
    """One client sends distinct queries through ``ir_eval.rank_corpus``, one at a time."""

    name = "search"
    min_rounds = SEARCH_JUDGED // SEARCH_BATCH

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = {"plant": SEARCH_PLANT, "encoder": {"dim": 64, "vocab_buckets": 65536},
                       "batch": SEARCH_BATCH, "judged": SEARCH_JUDGED,
                       "check_every": SEARCH_CHECK_EVERY, "warmup_queries": SEARCH_WARMUP}

    def setup(self) -> None:
        pcfg = synth.PlantConfig(plant_id="S", seed=derive_seed(self.seed, "perfbench:plant"),
                                 **SEARCH_PLANT)
        self.plant = synth.generate_plant(pcfg).bench
        self.params = encoder.init_encoder(64, 65536, derive_seed(self.seed, "perfbench:encoder"))
        self.stream = QueryStream(self.plant, self.seed)
        for text, _ in self.stream.take(SEARCH_WARMUP):
            ir_eval.rank_corpus(self.params, text, self.plant.corpus)
        self.served = 0
        self.texts: set[str] = set()
        self.judged: list[tuple[str, dict[str, int], list[str]]] = []

    def run_round(self, tracer: Tracer | None) -> Round:
        batch = self.stream.take(SEARCH_BATCH)
        queries = []
        failed = 0
        t_round = time.perf_counter()
        for text, grades in batch:
            t0 = time.perf_counter()
            with _op_span(tracer, "op.query", new_texts=False):
                try:
                    ranking = ir_eval.rank_corpus(self.params, text, self.plant.corpus)
                except Exception:
                    log.exception("query %r raised", text)
                    ranking = None
            queries.append([(t0, time.perf_counter())])
            if ranking is None or len(ranking) != len(self.plant.corpus):
                failed += 1
            elif self.served < SEARCH_JUDGED:
                self.judged.append((text, grades, ranking))
            self.served += 1
            self.texts.add(text)
        return Round([(t_round, time.perf_counter())], queries, len(batch), failed)

    def finish(self) -> Finish:
        checked = self.judged[::SEARCH_CHECK_EVERY]
        oracle = oracle_rankings(self.params, self.plant.corpus, [q[0] for q in checked])
        failed = sum(ranking[:10] != want[:10] for (_, _, ranking), want in zip(checked, oracle))
        if failed:
            log.error("search: %d of %d checked queries differ from the oracle top 10",
                      failed, len(checked))
        quality = ranking_quality([r for _, _, r in self.judged], [g for _, g, _ in self.judged])
        info = {
            "queries_served": self.served,
            "queries_checked": len(checked),
            "judged_queries": len(self.judged),
            "benchmark_queries": len(self.plant.queries),
            "corpus_docs": len(self.plant.corpus),
            "query_repeat_frac": 1.0 - len(self.texts) / self.served,
        }
        return Finish(quality, failed, info)


# ---------------------------------------------------------------------------
# graph: build-graph -> train-ge -> sample-triplets on larger training plants


GRAPH_CONFIG = {
    "plants": [
        {"plant_id": "P", "n_fl": 60, "n_logs": 800, "n_queries": 8, "training": True},
        {"plant_id": "Q", "n_fl": 60, "n_logs": 800, "n_queries": 8, "training": True},
    ],
    "graph_embed": {"epochs": 10, "lp_test_fraction": 0.1},
}
GRAPH_STAGES = ("build-graph", "train-ge", "sample-triplets")
GRAPH_SNAPSHOT = {"build-graph": (), "train-ge": ("ge/*.lp.json",),
                  "sample-triplets": ("triplets/meta.json",)}


class GraphWorkload:
    """The graph stages through ``cli.main``; synth runs during setup."""

    name = "graph"
    min_rounds = 3  # later chains are identity checks of the first; 3 give a median

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = {"run_config": GRAPH_CONFIG, "stages": list(GRAPH_STAGES)}
        self.cfg_path = work / "graph.json"
        self.template = work / "synth"
        self.out = work / "chain"
        self.first: dict[str, dict[str, bytes]] = {}

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg_path.write_text(json.dumps({"seed": self.seed, **GRAPH_CONFIG}),
                                 encoding="utf-8")
        rc = cli.main(["synth", "--config", str(self.cfg_path), "--out", str(self.template)])
        if rc != 0:
            raise SetupError(f"synth exited {rc}")

    def run_round(self, tracer: Tracer | None) -> Round:
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(self.template, self.out)
        stages = []
        failed = 0
        for k, stage in enumerate(GRAPH_STAGES):
            t0 = time.perf_counter()
            with _op_span(tracer, f"op.{stage}", new_texts=k == 0):
                try:
                    rc = cli.main([stage, "--config", str(self.cfg_path), "--out", str(self.out)])
                except Exception:
                    log.exception("%s raised", stage)
                    rc = -1
            stages.append((t0, time.perf_counter()))
            failed += not (rc == 0 and self._check(stage))
        return Round(stages, [stages], len(GRAPH_STAGES), failed)

    def _check(self, stage: str) -> bool:
        snap = _snapshot(self.out, GRAPH_SNAPSHOT[stage])
        if stage == "sample-triplets":
            meta = json.loads(snap["triplets/meta.json"])
            if not all(p["triplets"] > 0 for p in meta["plants"].values()):
                log.error("graph: a training plant yielded no triplets")
                return False
        want = self.first.setdefault(stage, snap)
        if snap != want:
            log.error("graph: %s outputs differ from the first chain", stage)
            return False
        return True

    def finish(self) -> Finish:
        cfg = cli.load_run_config(str(self.cfg_path), None)
        fraction = float(cfg.raw["graph_embed"]["lp_test_fraction"])
        per_plant, failed, info = {}, 0, {}
        for p in GRAPH_CONFIG["plants"]:
            pid = p["plant_id"]
            reported = json.loads((self.out / "ge" / f"{pid}.lp.json").read_text(encoding="utf-8"))
            ranks, aucs = _lp_ranks(self.out, pid, fraction, derive_seed(self.seed,
                                                                         f"ge-split:{pid}"))
            at10 = ranks <= 10
            per_plant[pid] = {
                "ndcg10": 100.0 * float(np.mean(np.where(at10, 1.0 / np.log2(ranks + 1), 0.0))),
                "map10": 100.0 * float(np.mean(np.where(at10, 1.0 / ranks, 0.0))),
                "mrr10": 100.0 * float(np.mean(np.where(at10, 1.0 / ranks, 0.0))),
                "mrr_full": 100.0 * reported["mrr"],
                "auc": 100.0 * reported["auc"],
            }
            # The recomputed rankings must reproduce eval_link_prediction's report.
            if not (math.isclose(float((1.0 / ranks).mean()), reported["mrr"], rel_tol=1e-12)
                    and math.isclose(float(aucs.mean()), reported["auc"], rel_tol=1e-12)
                    and len(ranks) == reported["n_edges"]):
                log.error("graph: recomputed link prediction for %s differs from %s.lp.json",
                          pid, pid)
                failed = 1
            info[pid] = {"lp": reported, "test_edges": len(ranks)}
        meta = json.loads((self.out / "triplets" / "meta.json").read_text(encoding="utf-8"))
        info["triplets"] = meta["plants"]
        return Finish(_macro(per_plant), failed, info)


def _lp_ranks(out: Path, pid: str, fraction: float, split_seed: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Pessimistic rank and AUC of each held-out edge, as train-ge scores them."""
    gdir = out / "graphs" / pid
    g = kg.load_graph(gdir / "nodes.jsonl", gdir / "edges.jsonl")
    _, test = graph_embed.split_edges(g, fraction, split_seed)
    emb = graph_embed.load_embeddings(out / "ge" / pid)
    pool: dict[kg.NodeKind, list[str]] = {kind: [] for kind in kg.NodeKind}
    for node_id in sorted(g.nodes):
        pool[g.nodes[node_id].kind].append(node_id)
    ranks = np.empty(len(test))
    aucs = np.empty(len(test))
    for i, e in enumerate(test):
        true = graph_embed.score_edge(emb, e.src, e.rel, e.dst)
        cands = [c for c in pool[RELATION_SIGNATURES[e.rel][1]] if c != e.dst]
        if not cands:
            ranks[i], aucs[i] = 1.0, 1.0
            continue
        scores = np.array([graph_embed.score_edge(emb, e.src, e.rel, c) for c in cands])
        ranks[i] = 1 + int((scores >= true).sum())
        aucs[i] = (int((scores < true).sum()) + 0.5 * int((scores == true).sum())) / len(cands)
    return ranks, aucs


WORKLOADS = {w.name: w for w in (PipelineWorkload, SearchWorkload, GraphWorkload)}
