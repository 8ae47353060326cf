"""Independent brute-force reference implementations.

Everything here is written straight from the mathematical definitions
in plain Python (lists, math module), deliberately sharing no code or
vectorization strategy with the package, so agreement is meaningful
evidence rather than a tautology.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence


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
