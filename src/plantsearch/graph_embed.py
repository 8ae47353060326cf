"""Shallow graph embeddings with translated-cosine edge scoring.

Each node gets a vector, each relation a translation vector; an edge
(src, rel, dst) is scored by cos(src + rel, dst). Training is mini-batch
SGD on a margin ranking loss against corrupted-destination negatives, the
usual shallow knowledge-graph embedding recipe scaled down to desk size.
Each batch of ``BATCH`` edges is scored in one array pass and takes one
update, as in PyTorch-BigGraph (Lerer et al. 2019, arXiv:1903.12287),
but every edge keeps its own negatives.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .kg import Edge, KnowledgeGraph, NodeKind, Relation, RELATION_SIGNATURES
from .losses import NonFiniteError, cosine, edge_scores, edge_steps
from .storage import EmbeddingFileError, read_json, read_table, write_table

logger = logging.getLogger(__name__)


class InitMode(str, Enum):
    RANDOM = "random"
    TEXT_VECTORS = "text_vectors"


@dataclass
class GETrainConfig:
    dim: int = 64
    epochs: int = 30
    learning_rate: float = 0.1
    ranking_margin: float = 0.1
    negatives_per_edge: int = 10
    rng_seed: int = 0
    init_mode: InitMode = InitMode.RANDOM

    def validate(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.ranking_margin <= 0:
            raise ValueError(f"ranking_margin must be positive, got {self.ranking_margin}")
        if self.negatives_per_edge < 1:
            raise ValueError(
                f"negatives_per_edge must be >= 1, got {self.negatives_per_edge}"
            )


class EmbeddingTable:
    """Node vectors plus one translation vector per relation."""

    def __init__(
        self,
        node_ids: Sequence[str],
        vectors: np.ndarray,
        relation_params: Mapping[Relation, np.ndarray],
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(node_ids):
            raise ValueError(
                f"vector matrix shape {vectors.shape} does not match {len(node_ids)} ids"
            )
        if vectors.shape[1] < 2:
            raise ValueError(f"dim must be >= 2, got {vectors.shape[1]}")
        if not np.isfinite(vectors).all():
            raise ValueError("node vectors contain non-finite values")
        self.node_ids = list(node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("duplicate node ids in embedding table")
        self.vectors = vectors
        self.relation_params = {}
        for rel in Relation:
            if rel not in relation_params:
                raise ValueError(f"missing relation parameter for {rel.value}")
            p = np.asarray(relation_params[rel], dtype=np.float64)
            if p.shape != (vectors.shape[1],) or not np.isfinite(p).all():
                raise ValueError(f"bad relation parameter for {rel.value}")
            self.relation_params[rel] = p
        self._row = {node_id: i for i, node_id in enumerate(self.node_ids)}

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._row

    def row(self, node_id: str) -> int:
        return self._row[node_id]

    def vector(self, node_id: str) -> np.ndarray:
        return self.vectors[self._row[node_id]]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(
            self.node_ids,
            self.vectors.copy(),
            {rel: p.copy() for rel, p in self.relation_params.items()},
        )


def init_embeddings(
    g: KnowledgeGraph,
    cfg: GETrainConfig,
    text_vectors: Mapping[str, np.ndarray] | None = None,
) -> EmbeddingTable:
    """Fresh table over the graph's nodes, in sorted-id row order.

    Random mode draws i.i.d. uniform [-1/dim, 1/dim]; text-vector mode
    copies the supplied vectors, which must cover every node at the
    configured dimension. Relation translations start at zero.
    """
    cfg.validate()
    node_ids = sorted(g.nodes)
    if not node_ids:
        raise ValueError("graph has no nodes")
    if cfg.init_mode is InitMode.RANDOM:
        rng = np.random.default_rng(cfg.rng_seed)
        bound = 1.0 / cfg.dim
        vectors = rng.uniform(-bound, bound, size=(len(node_ids), cfg.dim))
    else:
        if text_vectors is None:
            raise ValueError("init_mode=text_vectors requires text_vectors")
        rows = []
        for node_id in node_ids:
            if node_id not in text_vectors:
                raise KeyError(f"no text vector for node {node_id!r}")
            v = np.asarray(text_vectors[node_id], dtype=np.float64)
            if v.shape != (cfg.dim,):
                raise ValueError(
                    f"text vector for {node_id!r} has shape {v.shape}, expected ({cfg.dim},)"
                )
            rows.append(v)
        vectors = np.stack(rows)
    rels = {rel: np.zeros(cfg.dim) for rel in Relation}
    return EmbeddingTable(node_ids, vectors, rels)


def score_edge(emb: EmbeddingTable, src: str, rel: Relation, dst: str) -> float:
    """cos(src_vector + relation_translation, dst_vector); zero vectors score 0."""
    return cosine(emb.vector(src) + emb.relation_params[rel], emb.vector(dst))


def _corruption_candidates(
    g: KnowledgeGraph, emb: EmbeddingTable
) -> dict[NodeKind, np.ndarray]:
    by_kind: dict[NodeKind, np.ndarray] = {}
    for kind in NodeKind:
        ids = sorted(n.id for n in g.nodes_of_kind(kind))
        by_kind[kind] = np.array([emb.row(i) for i in ids], dtype=np.int64)
    return by_kind


def _allowed_corruptions(
    g: KnowledgeGraph, emb: EmbeddingTable, edges: Sequence[Edge]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Allowed corruption rows per distinct (src, rel), as one CSR table.

    Returns ``(indptr, rows, group)``: edge i belongs to group
    ``group[i]``, and group j's allowed rows, the same-kind rows minus the
    true neighbors of its (src, rel), are ``rows[indptr[j]:indptr[j + 1]]``.
    """
    by_kind = _corruption_candidates(g, emb)
    pool_pos = np.empty(len(emb.node_ids), dtype=np.int64)  # row -> position in its kind's pool
    for pool in by_kind.values():
        pool_pos[pool] = np.arange(pool.size)
    groups: dict[tuple[str, Relation], int] = {}
    group = np.empty(len(edges), dtype=np.int64)
    pools: list[np.ndarray] = []
    keeps: list[np.ndarray] = []
    for i, e in enumerate(edges):
        j = groups.get((e.src, e.rel))
        if j is None:
            j = groups[(e.src, e.rel)] = len(pools)
            pool = by_kind[RELATION_SIGNATURES[e.rel][1]]
            keep = np.ones(pool.size, dtype=bool)
            keep[pool_pos[[emb.row(d) for d in g.out_neighbors(e.src, e.rel)]]] = False
            pools.append(pool)
            keeps.append(keep)
        group[i] = j
    indptr = np.zeros(len(pools) + 1, dtype=np.int64)
    np.cumsum([keep.sum() for keep in keeps], out=indptr[1:])
    # Filled in place: the table is the largest array of training, and a
    # concatenation would hold it twice.
    rows = np.empty(indptr[-1], dtype=np.int64)
    for j, (pool, keep) in enumerate(zip(pools, keeps)):
        rows[indptr[j]:indptr[j + 1]] = pool[keep]
    return indptr, rows, group


def _draw_negatives(
    rng: np.random.Generator, indptr: np.ndarray, rows: np.ndarray, groups: np.ndarray, k: int
) -> np.ndarray:
    """(len(groups), k) rows drawn with replacement from each group's allowed rows.

    One ``rng.integers`` call with per-row bounds draws exactly the stream
    of one ``rng.choice(rows[indptr[j]:indptr[j + 1]], size=k,
    replace=True)`` call per group j of ``groups``, in order. Every listed
    group must be non-empty.
    """
    starts = indptr[groups]
    picks = rng.integers(0, (indptr[groups + 1] - starts)[:, None], size=(groups.size, k))
    return rows[starts[:, None] + picks]


# Edges per mini-batch: one edge_scores pass and one update each.
BATCH = 64


def train_graph_embeddings(
    g: KnowledgeGraph, emb: EmbeddingTable, cfg: GETrainConfig
) -> EmbeddingTable:
    """Mini-batch SGD margin-ranking training over the graph's edges.

    Per epoch the edges are visited in a seeded shuffled order; each
    edge draws ``negatives_per_edge`` destination corruptions uniformly
    from same-kind nodes minus the true neighbors of (src, rel). Each
    epoch's negatives are drawn in one call, the same stream as one
    ``rng.choice`` per edge. epochs == 0 returns an untouched copy.

    The shuffled edges that draw negatives run in consecutive batches of
    ``BATCH``. One ``edge_scores`` pass scores a batch against the table
    as it stands at the batch start, and ``edge_steps`` forms the mean
    hinge gradients of its edges with an active hinge. Node rows then
    take those steps through one ``np.subtract.at``, sources, then
    destinations, then negatives, in batch order. Each relation row takes
    the mean of its active edges' steps: every edge of a relation shares
    its translation, so a sum would scale its step with their number.
    At ``BATCH = 1`` this is the per-edge SGD loop, bit for bit.
    """
    cfg.validate()
    for node_id in g.nodes:
        if node_id not in emb:
            raise ValueError(f"embedding table does not cover node {node_id!r}")
    out = emb.copy()
    if cfg.epochs == 0:
        return out
    edges = list(g.edges)
    if not edges:
        raise ValueError("graph has no edges")

    rng = np.random.default_rng(cfg.rng_seed)
    indptr, allowed, group = _allowed_corruptions(g, out, edges)
    # An edge whose same-kind nodes are all true neighbors draws nothing and is skipped.
    drawable = indptr[group + 1] > indptr[group]
    src_rows = np.array([out.row(e.src) for e in edges], dtype=np.int64)
    dst_rows = np.array([out.row(e.dst) for e in edges], dtype=np.int64)
    rel_index = {rel: j for j, rel in enumerate(Relation)}
    rel_ids = np.array([rel_index[e.rel] for e in edges], dtype=np.int64)
    # The relation translations become row views of one matrix, so that a
    # batch can gather them and an update changes them in place.
    rel_mat = np.stack([out.relation_params[rel] for rel in Relation])
    out.relation_params = dict(zip(Relation, rel_mat))

    vec = out.vectors
    lr, margin = cfg.learning_rate, cfg.ranking_margin
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(edges))
        order = order[drawable[order]]
        negs = _draw_negatives(rng, indptr, allowed, group[order], cfg.negatives_per_edge)
        src, dst, rel = src_rows[order], dst_rows[order], rel_ids[order]
        epoch_loss = 0.0
        active = batches = idle = 0
        for lo in range(0, order.size, BATCH):
            batches += 1
            blk = slice(lo, lo + BATCH)
            a = vec[src[blk]] + rel_mat[rel[blk]]
            d, b = vec[dst[blk]], vec[negs[blk]]
            sc = edge_scores(a, d, b, margin)
            act = (sc.terms > 0.0).any(axis=1).nonzero()[0]
            if act.size == 0:
                idle += 1
                continue
            loss, g_a, g_dst, g_negs = edge_steps(a[act], d[act], b[act], sc.take(act))
            epoch_loss += float(loss.sum())
            active += act.size
            # Rows may repeat within a batch; np.subtract.at applies every step in this order.
            rows = np.concatenate([src[blk][act], dst[blk][act], negs[blk][act].ravel()])
            steps = np.concatenate([g_a, g_dst, g_negs.reshape(-1, g_a.shape[1])])
            steps *= lr
            np.subtract.at(vec, rows, steps)
            r = rel[blk][act]
            for j in np.flatnonzero(np.bincount(r)):  # the relations with active edges
                mine = g_a[r == j]  # summed one by one in batch order
                rel_mat[j] -= lr * (np.cumsum(mine, axis=0)[-1] / len(mine))
        if not np.isfinite(epoch_loss):
            raise NonFiniteError(f"non-finite training loss in epoch {epoch}")
        logger.debug("ge epoch %d mean loss %.6f, %d active edges in %d batches (%d with none)",
                     epoch, epoch_loss / len(edges), active, batches, idle)
    if not np.isfinite(vec).all():
        raise NonFiniteError("non-finite node vectors after training")
    return out


def split_edges(
    g: KnowledgeGraph, test_fraction: float, seed: int
) -> tuple[list[Edge], list[Edge]]:
    """Seeded uniform (train, test) partition of the edge list.

    The test size is round(test_fraction * |edges|); together the two
    parts are exactly the input edges.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    edges = list(g.edges)
    if not edges:
        raise ValueError("graph has no edges")
    n_test = int(np.floor(test_fraction * len(edges) + 0.5))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(edges))
    test = [edges[i] for i in order[:n_test]]
    train = [edges[i] for i in order[n_test:]]
    return train, test


@dataclass
class LPReport:
    """Link-prediction metrics, all in [0, 1]; formatting scales by 100."""

    mrr: float
    hits_at_1: float
    hits_at_10: float
    auc: float
    n_edges: int = 0

    def scaled(self) -> dict[str, float]:
        return {
            "mrr": 100.0 * self.mrr,
            "hits_at_1": 100.0 * self.hits_at_1,
            "hits_at_10": 100.0 * self.hits_at_10,
            "auc": 100.0 * self.auc,
        }

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in ("mrr", "hits_at_1", "hits_at_10", "auc")}
        d["n_edges"] = self.n_edges
        return d


def eval_link_prediction(
    emb: EmbeddingTable,
    test_edges: Sequence[Edge],
    candidate_pool: Sequence[str],
    kinds: Mapping[str, NodeKind],
    train_edges: Sequence[Edge] | None = None,
) -> LPReport:
    """Filtered-pool ranking evaluation of edge scoring.

    For each test edge the true destination is ranked among the
    type-valid pool members under score_edge, with pessimistic ties
    (equal-scored corruptions rank ahead of the true edge). AUC is the
    mean fraction of corruptions scored strictly below the true edge,
    counting ties as half; an edge with no corruptions contributes rank
    1 and AUC 1.0. When ``train_edges`` is given it must be disjoint
    from ``test_edges``.
    """
    if not test_edges:
        raise ValueError("no test edges")
    pool = sorted(set(candidate_pool))
    if not pool:
        raise ValueError("empty candidate pool")
    if train_edges is not None:
        overlap = set(test_edges) & set(train_edges)
        if overlap:
            raise ValueError(f"{len(overlap)} test edge(s) also in training edges")
    for node_id in pool:
        if node_id not in kinds:
            raise KeyError(f"no kind known for pool node {node_id!r}")

    # Per kind: candidate positions and vectors, built once. Each edge's true
    # and candidate scores come from one edge_scores call, whose ddots
    # (np.vecdot, like np.dot) make them equal cosine() bit for bit.
    pool_by_kind: dict[NodeKind, list[str]] = {kind: [] for kind in NodeKind}
    for node_id in pool:
        pool_by_kind[kinds[node_id]].append(node_id)
    cands = {kind: ({c: j for j, c in enumerate(ids)}, emb.vectors[[emb.row(c) for c in ids]])
             for kind, ids in pool_by_kind.items()}

    ranks = np.empty(len(test_edges), dtype=np.float64)
    aucs = np.empty(len(test_edges), dtype=np.float64)
    for i, e in enumerate(test_edges):
        pos, vectors = cands[RELATION_SIGNATURES[e.rel][1]]
        a = emb.vector(e.src) + emb.relation_params[e.rel]
        sc = edge_scores(a[None], emb.vector(e.dst)[None], vectors[None], 0.0)
        true_score, scores = sc.s_pos[0], sc.s_neg[0]
        dst_pos = pos.get(e.dst)
        if dst_pos is not None:
            scores = np.delete(scores, dst_pos)
        if scores.size == 0:
            ranks[i], aucs[i] = 1.0, 1.0
            continue
        higher_or_tied = int((scores >= true_score).sum())
        ties = int((scores == true_score).sum())
        below = int((scores < true_score).sum())
        ranks[i] = 1 + higher_or_tied
        aucs[i] = (below + 0.5 * ties) / scores.size

    return LPReport(
        mrr=float((1.0 / ranks).mean()),
        hits_at_1=float((ranks <= 1).mean()),
        hits_at_10=float((ranks <= 10).mean()),
        auc=float(aucs.mean()),
        n_edges=len(test_edges),
    )


# ---------------------------------------------------------------------------
# Persistence: matrix + ids sidecar + relation translations


def save_embeddings(emb: EmbeddingTable, stem: str | Path) -> None:
    write_table(stem, emb.node_ids, emb.vectors)
    rels = {rel.value: emb.relation_params[rel].tolist() for rel in Relation}
    Path(f"{stem}.rels.json").write_text(json.dumps(rels, sort_keys=True) + "\n",
                                         encoding="utf-8")


def load_embeddings(stem: str | Path) -> EmbeddingTable:
    """Read a saved table; any corrupt or inconsistent part is a CorruptFileError."""
    node_ids, vectors = read_table(stem)
    rels = read_json(f"{stem}.rels.json",
                     lambda obj: {Relation(k): np.asarray(v, dtype=np.float64)
                                  for k, v in obj.items()},
                     "not a record of numeric translations by relation")
    try:
        return EmbeddingTable(node_ids, vectors, rels)
    except ValueError as exc:  # a missing or misshapen translation, a repeated id, dim < 2
        raise EmbeddingFileError(f"{stem}: corrupt embedding table ({exc})") from None
