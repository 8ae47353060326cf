"""Shallow graph embeddings with translated-cosine edge scoring.

Each node gets a vector, each relation a translation vector; an edge
(src, rel, dst) is scored by cos(src + rel, dst). Training is SGD on a
margin ranking loss against corrupted-destination negatives, the usual
shallow knowledge-graph embedding recipe scaled down to desk size.
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
from .losses import NonFiniteError, cosine, edge_ranking_loss_grad
from .storage import EmbeddingFileError, read_ids, read_matrix, write_ids, write_matrix

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


def train_graph_embeddings(
    g: KnowledgeGraph, emb: EmbeddingTable, cfg: GETrainConfig
) -> EmbeddingTable:
    """SGD margin-ranking training over the graph's edges.

    Per epoch the edges are visited in a seeded shuffled order; each
    edge draws ``negatives_per_edge`` destination corruptions uniformly
    from same-kind nodes minus the true neighbors of (src, rel), and
    takes one SGD step on the mean hinge loss. epochs == 0 returns an
    untouched copy.
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
    by_kind = _corruption_candidates(g, out)
    # Allowed corruption rows per (src, rel): same-kind rows minus true neighbors.
    allowed_cache: dict[tuple[str, Relation], np.ndarray] = {}

    def allowed_rows(src: str, rel: Relation) -> np.ndarray:
        key = (src, rel)
        got = allowed_cache.get(key)
        if got is None:
            kind = RELATION_SIGNATURES[rel][1]
            neighbor_rows = {out.row(d) for d in g.out_neighbors(src, rel)}
            pool = by_kind[kind]
            got = pool[~np.isin(pool, list(neighbor_rows))]
            allowed_cache[key] = got
        return got

    vec = out.vectors
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        order = rng.permutation(len(edges))
        for edge_idx in order:
            e = edges[edge_idx]
            allowed = allowed_rows(e.src, e.rel)
            if allowed.size == 0:
                continue  # every same-kind node is a true neighbor
            neg_rows = rng.choice(allowed, size=cfg.negatives_per_edge, replace=True)
            src_row, dst_row = out.row(e.src), out.row(e.dst)
            rel_vec = out.relation_params[e.rel]
            loss, g_src, g_rel, g_dst, g_negs = edge_ranking_loss_grad(
                vec[src_row], rel_vec, vec[dst_row], vec[neg_rows], cfg.ranking_margin
            )
            epoch_loss += loss
            if loss == 0.0:
                continue
            lr = cfg.learning_rate
            vec[src_row] -= lr * g_src
            rel_vec -= lr * g_rel
            vec[dst_row] -= lr * g_dst
            # neg_rows may repeat; accumulate before applying.
            np.subtract.at(vec, neg_rows, lr * g_negs)
        if not np.isfinite(epoch_loss):
            raise NonFiniteError(f"non-finite training loss in epoch {epoch}")
        logger.debug("ge epoch %d mean loss %.6f", epoch, epoch_loss / len(edges))
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

    # Per kind: candidate positions, vectors and norms, built once. A score
    # is dot / (na * nb) with each dot one ddot (np.vecdot, like np.dot), so
    # it equals cosine(a, vector) bit for bit.
    pool_by_kind: dict[NodeKind, list[str]] = {kind: [] for kind in NodeKind}
    for node_id in pool:
        pool_by_kind[kinds[node_id]].append(node_id)
    cands: dict[NodeKind, tuple[dict[str, int], np.ndarray, np.ndarray]] = {}
    for kind, ids in pool_by_kind.items():
        vectors = emb.vectors[[emb.row(c) for c in ids]]
        cands[kind] = ({c: j for j, c in enumerate(ids)}, vectors,
                       np.sqrt(np.vecdot(vectors, vectors)))

    ranks = np.empty(len(test_edges), dtype=np.float64)
    aucs = np.empty(len(test_edges), dtype=np.float64)
    for i, e in enumerate(test_edges):
        pos, vectors, norms = cands[RELATION_SIGNATURES[e.rel][1]]
        a = emb.vector(e.src) + emb.relation_params[e.rel]
        true_score = cosine(a, emb.vector(e.dst))
        na = np.linalg.norm(a)
        scores = np.divide(np.vecdot(vectors, a), na * norms, out=np.zeros(norms.size),
                           where=(norms != 0.0) & (na != 0.0))
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
    stem = Path(stem)
    write_matrix(stem.with_suffix(".gemb"), emb.vectors)
    write_ids(stem.with_suffix(".ids"), emb.node_ids)
    rels = {rel.value: emb.relation_params[rel].tolist() for rel in Relation}
    stem.with_suffix(".rels.json").write_text(
        json.dumps(rels, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_embeddings(stem: str | Path) -> EmbeddingTable:
    """Read a saved table; any corrupt or inconsistent part is an EmbeddingFileError."""
    stem = Path(stem)
    vectors = read_matrix(stem.with_suffix(".gemb"))
    try:
        node_ids = read_ids(stem.with_suffix(".ids"))
        rels_path = stem.with_suffix(".rels.json")
        rels_raw = json.loads(rels_path.read_text(encoding="utf-8"))
        if not isinstance(rels_raw, dict):
            raise ValueError(f"{rels_path}: expected a JSON object")
        rels = {Relation(k): np.asarray(v, dtype=np.float64) for k, v in rels_raw.items()}
        return EmbeddingTable(node_ids, vectors, rels)
    except EmbeddingFileError:
        raise
    except (ValueError, KeyError, TypeError) as exc:  # JSON, UTF-8, relation or shape errors
        raise EmbeddingFileError(f"{stem}: corrupt embedding table ({exc})") from None
