"""Shallow graph embeddings with translated-cosine edge scoring.

Each node gets a vector, each relation a translation vector; an edge
(src, rel, dst) is scored by cos(src + rel, dst). Training is mini-batch
SGD on a margin ranking loss against corrupted-destination negatives, the
usual shallow knowledge-graph embedding recipe scaled down to desk size.
Each batch of ``BATCH`` edges is scored in one array pass and takes one
update, as in PyTorch-BigGraph (Lerer et al. 2019, arXiv:1903.12287),
but every edge keeps its own negatives, drawn by position among its
kind's nodes that are not true neighbours, and only the live (edge,
negative) pairs, those with a positive hinge term, take steps. Several
plants train in one lockstep loop over a stacked table, each exactly as
it trains alone.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .kg import Edge, KnowledgeGraph, NodeKind, Relation, RELATION_SIGNATURES
from .losses import NonFiniteError, cosines, edge_scores, edge_steps, rows_at
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
    a, b = emb.vector(src) + emb.relation_params[rel], emb.vector(dst)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class _Corruptions(NamedTuple):
    """The allowed destination corruptions of each distinct (src, rel) group of edges.

    Group j draws from its kind's pool, the rows ``pool[base[j]:base[j] +
    size]`` in id order, at the ``free[j]`` positions that hold no true
    neighbour of its (src, rel). Its neighbours' sorted distinct positions,
    each less its rank, are ``key[start[j]:start[j + 1]] - j * width``: the
    groups lie ``width`` apart, so ``key`` is sorted whole and one
    ``searchsorted`` maps the picks of every group. All of it is built in
    array passes over the listed neighbours, and no (groups x pool) table
    is built.
    """

    free: np.ndarray  # (groups,)
    base: np.ndarray  # (groups,)
    start: np.ndarray  # (groups + 1,)
    key: np.ndarray
    width: int
    pool: np.ndarray

    @classmethod
    def build(cls, pool: np.ndarray, bases: np.ndarray | Sequence[int],
              sizes: np.ndarray | Sequence[int], owner: np.ndarray, taken: np.ndarray
              ) -> "_Corruptions":
        """Groups with the pool ranges ``bases``/``sizes``, where ``taken`` lists the
        positions of true neighbours in their group's range, distinct within a group and
        in any order, and ``owner`` the group of each."""
        width = int(np.max(sizes, initial=0)) + 1
        key = np.sort(owner * width + taken)
        count = np.bincount(key // width, minlength=len(sizes))
        start = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(count, out=start[1:])
        key -= np.arange(key.size) - np.repeat(start[:-1], count)  # less the rank in the group
        free = np.array(sizes, dtype=np.int64) - count
        return cls(free, np.array(bases, dtype=np.int64), start, key, width, pool)


def _corruptions(
    g: KnowledgeGraph, emb: EmbeddingTable, ends: np.ndarray
) -> tuple[_Corruptions, np.ndarray]:
    """The allowed corruptions of the (src, rel) groups of ``g``'s edges, and each edge's
    group, from the edges' (src row, dst row, relation index) ``ends`` in ``emb``, in edge
    order.

    One ``np.unique`` over ``src * len(Relation) + rel`` finds the groups, numbered by first
    appearance. ``ends`` lists every edge of ``g``, so a group's true neighbours are its own
    members' destinations, at their positions in their kind's pool.
    """
    pools = [np.array([emb.row(i) for i in sorted(n.id for n in g.nodes_of_kind(kind))],
                      dtype=np.int64) for kind in NodeKind]
    pool_pos = np.empty(len(emb.node_ids), dtype=np.int64)  # row -> position in its kind's pool
    for rows in pools:
        pool_pos[rows] = np.arange(rows.size)
    size = np.array([rows.size for rows in pools], dtype=np.int64)
    base = np.cumsum(size) - size
    kinds = list(NodeKind)
    dst_kind = np.array([kinds.index(RELATION_SIGNATURES[rel][1]) for rel in Relation])
    keys, first, inverse = np.unique(ends[:, 0] * len(Relation) + ends[:, 2],
                                     return_index=True, return_inverse=True)
    order = np.argsort(first)  # the groups in order of first appearance
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    group = number[inverse]
    kind = dst_kind[keys[order] % len(Relation)]
    return _Corruptions.build(np.concatenate(pools), base[kind], size[kind], group,
                              pool_pos[ends[:, 1]]), group


def _draw_negatives(
    rng: np.random.Generator, c: _Corruptions, groups: np.ndarray, k: int
) -> np.ndarray:
    """(len(groups), k) rows drawn with replacement from each group's allowed rows.

    One ``rng.integers`` call with per-row bounds draws exactly the stream
    of one ``rng.choice(allowed_j, size=k, replace=True)`` call per group j
    of ``groups``, in order, where ``allowed_j`` is the group's pool without
    its true neighbours. Pick p maps to the p-th free position, p plus
    the number of the group's neighbours that precede it. ``e - r`` free
    positions precede the neighbour at position e of rank r, so that
    number is the count of the group's keys ``e - r`` at or below p: one
    ``searchsorted`` over ``key`` counts it for every pick at once. Every
    listed group must have a free position.
    """
    picks = rng.integers(0, c.free[groups][:, None], size=(groups.size, k))
    taken = np.searchsorted(c.key, picks + (groups * c.width)[:, None], side="right")
    return c.pool[c.base[groups][:, None] + picks + taken - c.start[groups][:, None]]


# Edges per mini-batch: one edge_scores pass and one update each.
BATCH = 64


class _Plant(NamedTuple):
    """One plant's id, its generator, its edges' (src, dst, rel) rows in the stacked tables,
    and the (src, rel) groups' corruptions."""

    pid: str
    rng: np.random.Generator
    ends: np.ndarray  # (edges, 3)
    group: np.ndarray
    corruptions: _Corruptions


def train_plant_embeddings(
    plants: Mapping[str, tuple[KnowledgeGraph, EmbeddingTable, GETrainConfig]],
) -> dict[str, EmbeddingTable]:
    """Mini-batch SGD margin-ranking training of every plant's (graph, table, config), by
    plant id, in one lockstep loop.

    Per epoch each plant's edges are visited in a seeded shuffled order;
    each edge draws ``negatives_per_edge`` destination corruptions uniformly
    from same-kind nodes minus the true neighbors of (src, rel). Each
    epoch's negatives are drawn in one call per plant, the same stream as
    one ``rng.choice`` per edge. epochs == 0 returns untouched copies.

    The shuffled edges that draw negatives run in consecutive batches of
    ``BATCH``. One ``edge_scores`` pass scores a batch against the table
    as it stands at the batch start; its (edges, negatives, dim) gather of
    negative rows lives only for that call, and it reads its destinations'
    and negatives' norms from one held norm per node row, which the loop
    renews for the rows each scatter writes. ``edge_steps`` then forms the
    mean hinge gradients of the edges with an active hinge from the live
    pairs' negative rows, taken from the table again. Node rows take those
    steps through one ordered scatter ``rows_at``, sources, then
    destinations, then negatives, in batch order. Each relation row
    takes the mean of its active edges' steps: every edge of a relation
    shares its translation, so a sum would scale its step with their number.
    At ``BATCH = 1`` this is the per-edge SGD loop, bit for bit.

    The plants' node rows are stacked into one table and their relation
    rows into one matrix, and step b of an epoch runs batch b of every
    plant that has one through one ``edge_scores``/``edge_steps``/scatter
    pass. Each plant's table comes out exactly as it trains alone: the
    plants share no row, every operation is per row, and each plant keeps
    its own generator, edge order and negatives, and the order of its
    scatter. The configs may differ only in ``rng_seed``. A non-finite
    edge score, loss or trained row raises NonFiniteError naming its plant.
    """
    if not plants:  # a run config may name no training plant
        return {}
    _, head, cfg = next(iter(plants.values()))
    for pid, (g, emb, plant_cfg) in plants.items():
        plant_cfg.validate()
        if replace(plant_cfg, rng_seed=cfg.rng_seed) != cfg or emb.dim != head.dim:
            raise ValueError("plants trained together must share their config but rng_seed, "
                             "and their table dim")
        for node_id in g.nodes:
            if node_id not in emb:
                raise ValueError(f"plant {pid!r}: embedding table does not cover node "
                                 f"{node_id!r}")
    if cfg.epochs == 0:
        return {pid: emb.copy() for pid, (_, emb, _) in plants.items()}

    # One stacked node table and relation matrix; each plant's table is a view of its rows.
    sizes = [len(emb.node_ids) for _, emb, _ in plants.values()]
    vec = np.concatenate([emb.vectors for _, emb, _ in plants.values()])
    rel_mat = np.stack([emb.relation_params[rel] for _, emb, _ in plants.values()
                        for rel in Relation])
    rel_index = {rel: j for j, rel in enumerate(Relation)}
    outs, state = {}, []
    for p, (pid, (g, emb, plant_cfg)) in enumerate(plants.items()):
        o, r = sum(sizes[:p]), p * len(Relation)
        out = EmbeddingTable(emb.node_ids, vec[o:o + sizes[p]],
                             dict(zip(Relation, rel_mat[r:r + len(Relation)])))
        if not g.edges:
            raise ValueError(f"plant {pid!r}: graph has no edges")
        src, dst, rel = zip(*g.edges)
        ends = np.column_stack([_values(out._row, src), _values(out._row, dst),
                                _values(rel_index, rel)])  # rows in `out`, relation index
        c, group = _corruptions(g, out, ends)
        ends += (o, o, r)
        state.append(_Plant(pid, np.random.default_rng(plant_cfg.rng_seed), ends, group,
                            c._replace(pool=c.pool + o)))
        outs[pid] = out

    lr, margin, k = cfg.learning_rate, cfg.ranking_margin, cfg.negatives_per_edge
    norm = np.sqrt(np.vecdot(vec, vec))  # each row's norm, renewed where a scatter writes
    for epoch in range(cfg.epochs):
        orders = [pl.rng.permutation(len(pl.ends)) for pl in state]
        # An edge whose same-kind nodes are all true neighbors draws nothing and is skipped.
        orders = [o[pl.corruptions.free[pl.group[o]] > 0] for pl, o in zip(state, orders)]
        # Step b holds batch b of every plant that has one, in plant order.
        counts = [o.size for o in orders]
        batch = np.concatenate([np.arange(n) // BATCH for n in counts])
        by_step = np.argsort(batch, kind="stable")
        step, plant = batch[by_step], np.repeat(np.arange(len(state)), counts)[by_step]
        src, dst, rel = np.concatenate([pl.ends[o] for pl, o in zip(state, orders)])[by_step].T
        negs = np.concatenate([_draw_negatives(pl.rng, pl.corruptions, pl.group[o], k)
                               for pl, o in zip(state, orders)])[by_step]
        n_on = np.zeros(by_step.size, dtype=np.int64)  # live pairs per edge
        edge_loss = np.zeros(by_step.size)
        bounds = np.concatenate([[0], np.cumsum(np.bincount(step))]).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            a = vec[src[lo:hi]] + rel_mat[rel[lo:hi]]
            d = vec[dst[lo:hi]]
            sc = edge_scores(a, d, vec[negs[lo:hi]], margin,  # the gather dies with the call
                             norm[dst[lo:hi]], norm[negs[lo:hi]])
            if not np.isfinite(sc.terms).all():  # a NaN term would read as inactive below
                bad = state[plant[lo + np.isfinite(sc.terms).all(axis=1).argmin()]]
                raise NonFiniteError(f"plant {bad.pid!r}: non-finite edge scores in epoch {epoch}")
            on = sc.terms > 0.0
            n_on[lo:hi] = on.sum(axis=1)
            act = n_on[lo:hi].nonzero()[0]
            if act.size == 0:
                continue
            live = negs[lo:hi][on]
            loss, g_a, g_dst, g_negs = edge_steps(a, d, vec[live], sc)
            del a, d, sc  # none is held through the scatter
            edge_loss[lo:hi] = loss
            # Rows may repeat within a plant's batch; the scatter applies every step in this
            # order, which keeps each plant's sources, then destinations, then negatives.
            rows = np.concatenate([src[lo:hi][act], dst[lo:hi][act], live])
            steps = np.concatenate([g_a, g_dst, g_negs])
            del g_dst, g_negs
            steps *= lr
            rows_at(np.subtract, vec, rows, steps)
            del steps
            written = np.zeros(len(vec), dtype=bool)
            written[rows] = True
            rows = written.nonzero()[0]
            new = vec[rows]
            norm[rows] = np.sqrt(np.vecdot(new, new))
            # Each relation's steps, summed one by one in batch order from +0.0 (g_a holds
            # no -0.0, so the first add returns the first step itself).
            r = rel[lo:hi][act]
            total = np.zeros(rel_mat.shape)
            rows_at(np.add, total, r, g_a)
            count = np.bincount(r, minlength=len(rel_mat))
            j = count.nonzero()[0]
            rel_mat[j] -= lr * (total[j] / count[j][:, None])
        _log_epoch(epoch, state, counts, plant, step, n_on, edge_loss)
    for pid, out in outs.items():
        if not np.isfinite(out.vectors).all():
            raise NonFiniteError(f"plant {pid!r}: non-finite node vectors after training")
    return outs


def _values(index: Mapping, keys: Sequence) -> np.ndarray:
    """``index[key]`` of each of ``keys``, read in one C-level pass."""
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


def _log_epoch(epoch: int, state: Sequence[_Plant], counts: Sequence[int], plant: np.ndarray,
               step: np.ndarray, n_on: np.ndarray, edge_loss: np.ndarray) -> None:
    """Check each plant's epoch loss and log its counts, from the epoch's per-edge live
    pairs and losses in step order."""
    n = len(state)
    active = n_on > 0
    seg = (step * n + plant)[active]  # (step, plant) of each active edge, sorted
    busy = seg[np.diff(seg, prepend=-1) != 0] % n  # the plant of each busy batch
    loss = np.bincount(plant, weights=edge_loss, minlength=n)
    live = np.bincount(plant, weights=n_on, minlength=n)
    edges = np.bincount(plant[active], minlength=n)
    busy_batches = np.bincount(busy, minlength=n)
    for p, pl in enumerate(state):
        if not np.isfinite(loss[p]):
            raise NonFiniteError(f"plant {pl.pid!r}: non-finite training loss in epoch {epoch}")
        batches = -(-counts[p] // BATCH)
        logger.debug("ge epoch %d plant %s mean loss %.6f, %d live pairs, %d active edges in "
                     "%d batches (%d with none)", epoch, pl.pid, loss[p] / len(pl.ends),
                     live[p], edges[p], batches, batches - busy_batches[p])


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


# Scores per link-prediction block: 400 KB, the size of a (64, 800) kNN score block.
LP_BLOCK = 64 * 800


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

    The test edges of each destination kind are scored together against
    that kind's pool members, in blocks of at most ``LP_BLOCK`` scores,
    and the members' norms are computed once. Each score is one ddot over
    the norm product that score_edge divides by, so it equals score_edge
    bit for bit, and the rank and AUC counts of a block are vectorized
    with the true destination's own column left out.
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

    pool_by_kind: dict[NodeKind, list[str]] = {kind: [] for kind in NodeKind}
    for node_id in pool:
        pool_by_kind[kinds[node_id]].append(node_id)
    edges_by_kind: dict[NodeKind, list[int]] = {kind: [] for kind in NodeKind}
    for i, e in enumerate(test_edges):
        edges_by_kind[RELATION_SIGNATURES[e.rel][1]].append(i)

    ranks = np.empty(len(test_edges), dtype=np.float64)
    aucs = np.empty(len(test_edges), dtype=np.float64)
    for kind, which in edges_by_kind.items():
        if not which:
            continue
        ids = pool_by_kind[kind]
        col = {c: j for j, c in enumerate(ids)}
        cands = emb.vectors[[emb.row(c) for c in ids]]
        norms = np.sqrt(np.vecdot(cands, cands))
        edges = [test_edges[i] for i in which]
        a = emb.vectors[[emb.row(e.src) for e in edges]] + np.stack(
            [emb.relation_params[e.rel] for e in edges])
        d = emb.vectors[[emb.row(e.dst) for e in edges]]
        na = np.sqrt(np.vecdot(a, a))
        true = cosines(np.vecdot(a, d), na, np.sqrt(np.vecdot(d, d)))[:, None]
        own = np.array([col.get(e.dst, -1) for e in edges])
        counts = np.empty((3, len(edges)), dtype=np.int64)  # above or tied, tied, below
        step = max(1, LP_BLOCK // max(1, len(ids)))
        for lo in range(0, len(edges), step):
            hi = lo + step
            scores = cosines(np.vecdot(cands, a[lo:hi, None, :]), na[lo:hi, None], norms)
            r = np.flatnonzero(own[lo:hi] >= 0)
            scores[r, own[lo:hi][r]] = np.nan  # the true destination itself: in no count
            t = true[lo:hi]
            counts[:, lo:hi] = [np.count_nonzero(cmp, axis=1)
                                for cmp in (scores >= t, scores == t, scores < t)]
        size = len(ids) - (own >= 0)  # each edge's corruptions
        auc = np.ones(len(edges))  # an edge with no corruptions: rank 1 and AUC 1
        some = size > 0
        auc[some] = (counts[2][some] + 0.5 * counts[1][some]) / size[some]
        ranks[which], aucs[which] = 1.0 + counts[0], auc

    return LPReport(
        mrr=float((1.0 / ranks).mean()),
        hits_at_1=float((ranks <= 1).mean()),
        hits_at_10=float((ranks <= 10).mean()),
        auc=float(aucs.mean()),
        n_edges=len(test_edges),
    )


# ---------------------------------------------------------------------------
# Persistence: matrix + ids sidecar + relation translations


def save_embeddings(emb: EmbeddingTable, stem: str | Path) -> EmbeddingTable:
    """Write a table; returns it as :func:`load_embeddings` reads it back, its node vectors
    rounded to float32 (the translations' JSON floats read back exactly)."""
    vectors = write_table(stem, emb.node_ids, emb.vectors)
    rels = {rel.value: emb.relation_params[rel].tolist() for rel in Relation}
    Path(f"{stem}.rels.json").write_text(json.dumps(rels, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return EmbeddingTable(emb.node_ids, vectors, emb.relation_params)


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
