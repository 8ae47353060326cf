"""Independent brute-force reference implementations.

Everything here is written straight from the mathematical definitions
in plain Python (lists, math module), deliberately sharing no code or
vectorization strategy with the package, so agreement is meaningful
evidence rather than a tautology. The exception is the bit-exact
section at the end: the former per-row numpy loops that the package's
array code replaced, kept so that tests can demand equality to the bit.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np


def oracle_cosine(a: Sequence[float], b: Sequence[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def oracle_knn(
    vectors: Mapping[str, Sequence[float]],
    query_id: str,
    k: int,
    among: set[str] | None = None,
) -> list[str]:
    """Top-k ids by cosine to the query vector; ties by ascending id."""
    candidates = set(vectors if among is None else among) - {query_id}
    scored = [(oracle_cosine(vectors[query_id], vectors[c]), c) for c in sorted(candidates)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [c for _, c in scored[:k]]


def oracle_ap(ranking: Sequence[str], relevant: set[str], k: int) -> float:
    hits = 0
    total = 0.0
    for pos, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            hits += 1
            total += hits / pos
    return total / min(len(relevant), k)


def oracle_rr(ranking: Sequence[str], relevant: set[str], k: int) -> float:
    for pos, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            return 1.0 / pos
    return 0.0


def oracle_ndcg(ranking: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    dcg = 0.0
    for pos, doc in enumerate(ranking[:k], start=1):
        grade = grades.get(doc, 0)
        if grade > 0:
            dcg += grade / math.log2(pos + 1)
    ideal_grades = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum(g / math.log2(pos + 1) for pos, g in enumerate(ideal_grades, start=1))
    return dcg / idcg


def oracle_edge_score(
    vectors: Mapping[str, Sequence[float]],
    rel_params: Mapping[str, Sequence[float]],
    src: str,
    rel: str,
    dst: str,
) -> float:
    translated = [s + r for s, r in zip(vectors[src], rel_params[rel])]
    return oracle_cosine(translated, vectors[dst])


def oracle_link_prediction(
    vectors: Mapping[str, Sequence[float]],
    rel_params: Mapping[str, Sequence[float]],
    test_edges: Sequence[tuple[str, str, str]],  # (src, dst, rel)
    pool: Sequence[str],
    kinds: Mapping[str, str],
    dst_kind_of_rel: Mapping[str, str],
) -> dict[str, float]:
    """MRR / Hits@1 / Hits@10 / AUC with pessimistic tie handling.

    For each test edge the true destination is ranked against every
    same-kind pool member except itself: rank = 1 + #{corruptions with
    score >= true}. AUC per edge is (#below + 0.5 * #ties) / n; an edge
    with no corruptions gets rank 1 and AUC 1.
    """
    recip, h1, h10, aucs = [], [], [], []
    for src, dst, rel in test_edges:
        want = dst_kind_of_rel[rel]
        true_score = oracle_edge_score(vectors, rel_params, src, rel, dst)
        corruptions = [c for c in sorted(set(pool)) if kinds[c] == want and c != dst]
        if not corruptions:
            rank, auc = 1, 1.0
        else:
            scores = [oracle_edge_score(vectors, rel_params, src, rel, c) for c in corruptions]
            rank = 1 + sum(1 for s in scores if s >= true_score)
            ties = sum(1 for s in scores if s == true_score)
            below = sum(1 for s in scores if s < true_score)
            auc = (below + 0.5 * ties) / len(corruptions)
        recip.append(1.0 / rank)
        h1.append(1.0 if rank <= 1 else 0.0)
        h10.append(1.0 if rank <= 10 else 0.0)
        aucs.append(auc)
    n = len(test_edges)
    return {
        "mrr": sum(recip) / n,
        "hits_at_1": sum(h1) / n,
        "hits_at_10": sum(h10) / n,
        "auc": sum(aucs) / n,
    }


def _logsumexp(values: Sequence[float]) -> float:
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def oracle_mnr(
    queries: Sequence[Sequence[float]],
    docs: Sequence[Sequence[float]],
    scale: float,
) -> float:
    """Mean of -log softmax(scale * cos(q_i, d_j)) at j == i."""
    total = 0.0
    for i, q in enumerate(queries):
        logits = [scale * oracle_cosine(q, d) for d in docs]
        total += _logsumexp(logits) - logits[i]
    return total / len(queries)


def oracle_fnv1a_64(data: bytes) -> int:
    value = 0xCBF29CE484222325
    for byte in data:
        value = value ^ byte
        value = (value * 0x100000001B3) % (1 << 64)
    return value


def oracle_scatter(acc: dict, bucket_ids, counts, total: int, g_vec) -> None:
    """The per-bucket dict scatter: add (count_b / total) * g_vec to acc[b]."""
    if total == 0:
        return
    weights = counts.astype(float) / total
    for b, w in zip(bucket_ids.tolist(), weights.tolist()):
        got = acc.get(b)
        if got is None:
            acc[b] = w * g_vec
        else:
            got += w * g_vec


def oracle_flush(acc: dict, table, lr: float) -> None:
    """Apply the accumulated bucket gradients as one SGD step on the table rows."""
    for b, g in acc.items():
        table[b] = table[b] - lr * g


def oracle_sgd_step(table, texts, lr: float) -> None:
    """One SGD step from (TokenFeatures, vector gradient) pairs via the dict scatter."""
    acc: dict = {}
    for feats, g_vec in texts:
        oracle_scatter(acc, feats.bucket_ids, feats.counts, feats.total, g_vec)
    oracle_flush(acc, table, lr)


def oracle_np_cosine(a, b) -> float:
    """cos(a, b) as one np.dot over np.linalg.norm; zero norms give 0."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def oracle_cosine_grads(a, b):
    """(cos, d cos/d a, d cos/d b); zero vectors give zero everywhere."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        z = np.zeros_like(a, dtype=np.float64)
        return 0.0, z, z.copy()
    cos = float(np.dot(a, b) / (na * nb))
    ga = b / (na * nb) - cos * a / (na * na)
    gb = a / (na * nb) - cos * b / (nb * nb)
    return cos, ga, gb


def oracle_edge_ranking_loss_grad(src, rel, dst, neg_dsts, margin):
    """The per-negative loop: mean hinge max(0, margin - s(pos) + s(neg))."""
    from plantsearch.losses import NonFiniteError

    src = np.asarray(src, dtype=np.float64)
    rel = np.asarray(rel, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    negs = np.atleast_2d(np.asarray(neg_dsts, dtype=np.float64))
    if negs.shape[0] == 0:
        raise ValueError("need at least one negative")
    a = src + rel
    s_pos, g_a_pos, g_dst_pos = oracle_cosine_grads(a, dst)
    m = negs.shape[0]
    loss = 0.0
    g_a = np.zeros_like(a)
    g_dst = np.zeros_like(dst)
    g_negs = np.zeros_like(negs)
    for j in range(m):
        s_neg, g_a_neg, g_neg = oracle_cosine_grads(a, negs[j])
        term = margin - s_pos + s_neg
        if term > 0.0:
            loss += term
            g_a += (g_a_neg - g_a_pos) / m
            g_dst -= g_dst_pos / m
            g_negs[j] = g_neg / m
    loss /= m
    if not np.isfinite(loss):
        raise NonFiniteError("non-finite ranking loss")
    return float(loss), g_a.copy(), g_a, g_dst, g_negs


def oracle_np_link_prediction(emb, test_edges, candidate_pool, kinds, dst_kind_of_rel):
    """Link-prediction metrics with one oracle_np_cosine call per candidate."""
    pool = sorted(set(candidate_pool))
    ranks = np.empty(len(test_edges))
    aucs = np.empty(len(test_edges))
    for i, e in enumerate(test_edges):
        want = dst_kind_of_rel[e.rel]
        a = emb.vector(e.src) + emb.relation_params[e.rel]
        true_score = oracle_np_cosine(a, emb.vector(e.dst))
        corruptions = [c for c in pool if kinds[c] == want and c != e.dst]
        if not corruptions:
            ranks[i], aucs[i] = 1.0, 1.0
            continue
        scores = np.array([oracle_np_cosine(a, emb.vector(c)) for c in corruptions])
        ranks[i] = 1 + int((scores >= true_score).sum())
        below, ties = int((scores < true_score).sum()), int((scores == true_score).sum())
        aucs[i] = (below + 0.5 * ties) / len(corruptions)
    return {
        "mrr": float((1.0 / ranks).mean()),
        "hits_at_1": float((ranks <= 1).mean()),
        "hits_at_10": float((ranks <= 10).mean()),
        "auc": float(aucs.mean()),
    }


def oracle_filtered_random_sample(corpus, excluded, c, rng):
    """c ids drawn without replacement from sorted(set(corpus) - excluded)."""
    candidates = sorted(set(corpus) - excluded)
    picks = rng.choice(len(candidates), size=c, replace=False)
    return [candidates[i] for i in picks]


def oracle_train_graph_embeddings(g, emb, cfg):
    """The per-edge SGD loop: one rng.choice and one loss call per edge."""
    from plantsearch.kg import RELATION_SIGNATURES, NodeKind
    from plantsearch.losses import NonFiniteError, edge_ranking_loss_grad

    cfg.validate()
    out = emb.copy()
    if cfg.epochs == 0:
        return out
    edges = list(g.edges)
    rng = np.random.default_rng(cfg.rng_seed)
    by_kind = {
        kind: np.array([out.row(i) for i in sorted(n.id for n in g.nodes_of_kind(kind))],
                       dtype=np.int64)
        for kind in NodeKind
    }
    vec = out.vectors
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for edge_idx in rng.permutation(len(edges)):
            e = edges[edge_idx]
            pool = by_kind[RELATION_SIGNATURES[e.rel][1]]
            neighbor_rows = {out.row(d) for d in g.out_neighbors(e.src, e.rel)}
            allowed = pool[~np.isin(pool, list(neighbor_rows))]
            if allowed.size == 0:
                continue
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
            np.subtract.at(vec, neg_rows, lr * g_negs)
        if not np.isfinite(epoch_loss):
            raise NonFiniteError(f"non-finite training loss in epoch {epoch}")
    return out
