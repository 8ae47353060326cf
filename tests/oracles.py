"""Independent brute-force reference implementations.

Everything here is written straight from the mathematical definitions
in plain Python (lists, math module), deliberately sharing no code or
vectorization strategy with the package, so agreement is meaningful
evidence rather than a tautology. The exception is the bit-exact
section at the end: the former per-row numpy loops that the package's
array code replaced, kept so that tests can demand equality to the bit
or, for the per-text training loops, whose batched gemms sum in another
order, a stated tolerance. The whole-table training loops there are the
former batched code, which training on gathered rows must equal bit for
bit. Last comes ``finite_diff_check``, the central-difference gradient
check that the loss tests and the acceptance gate run.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence

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


def oracle_triplet_loss_grad(dq, dp, dn, margin):
    """The per-row triplet loss: np.linalg.norm distances, unit-vector gradients."""
    from plantsearch.losses import NonFiniteError

    dq, dp, dn = (np.asarray(v, dtype=np.float64) for v in (dq, dp, dn))
    for name, v in (("query", dq), ("positive", dp), ("negative", dn)):
        if not np.isfinite(v).all():
            raise NonFiniteError(f"non-finite {name} vector")
    value = np.linalg.norm(dq - dp) - np.linalg.norm(dq - dn) + margin
    loss = float(max(value, 0.0))
    gq = np.zeros_like(dq)
    gp = np.zeros_like(dp)
    gn = np.zeros_like(dn)
    if loss > 0.0:
        diff_p, diff_n = dq - dp, dq - dn
        norm_p, norm_n = np.linalg.norm(diff_p), np.linalg.norm(diff_n)
        if norm_p > 0.0:
            gq += diff_p / norm_p
            gp -= diff_p / norm_p
        if norm_n > 0.0:
            gq -= diff_n / norm_n
            gn += diff_n / norm_n
    return loss, gq, gp, gn


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
    if len(candidates) < c:
        raise ValueError(f"cannot draw {c} ids from {len(candidates)} remaining candidates")
    picks = rng.choice(len(candidates), size=c, replace=False)
    return [candidates[i] for i in picks]


def oracle_np_knn(index, query_id, k, among=None):
    """One query's top-k (id, cosine): the whole index scored by one ``np.vecdot`` per
    query, the candidates masked, and a stable argsort over ascending rows."""
    mask = np.ones(len(index), dtype=bool) if among is None else among.copy()
    q = index.row(query_id)
    mask[q] = False
    rows = np.flatnonzero(mask)
    if k > rows.size:
        raise ValueError(f"k={k} exceeds {rows.size} available candidates")
    scores = np.vecdot(index.matrix, index.matrix[q])[rows]
    top = np.argsort(-scores, kind="stable")[:k]
    return [(index.ids[r], s) for r, s in zip(rows[top].tolist(), scores[top].tolist())]


def oracle_sample_triplets(index, g, p):
    """(triplets, skipped) of the per-query loop: one ``oracle_np_knn`` call and one
    ``oracle_filtered_random_sample`` over the eligible ids for each query."""
    from plantsearch.triplets import NegKind, Triplet

    corpus = sorted(index.ids)
    eligible_ids = [i for i in corpus if len(g.nodes[i].text) >= p.min_text_chars]
    eligible = set(eligible_ids)
    eligible_rows = index.row_mask(eligible_ids)
    rng = np.random.default_rng(p.rng_seed)
    triplets = []
    skipped = 0
    for query in corpus:
        if query not in eligible or len(eligible) - 1 < p.k_hard + p.c_easy:
            skipped += 1
            continue
        neighbors = [n for n, _ in oracle_np_knn(index, query, p.k_hard, eligible_rows)]
        positives = neighbors[p.k_pos - p.c_pos : p.k_pos]
        hard = neighbors[p.k_hard - p.c_hard : p.k_hard]
        easy = oracle_filtered_random_sample(eligible_ids, set(neighbors) | {query},
                                             p.c_easy, rng)
        emitted = 0
        for kind, negs in ((NegKind.EASY, easy), (NegKind.HARD, hard)):
            for neg in negs:
                triplets.append(Triplet(query, positives[emitted % len(positives)], neg, kind))
                emitted += 1
    return triplets, skipped


def oracle_unique_pooling_weights(fm, rows):
    """``FeatureMatrix.pooling_weights`` with ``u`` and the columns from ``np.unique``."""
    starts = fm.indptr[rows]
    lengths = fm.indptr[rows + 1] - starts
    text = np.repeat(np.arange(len(rows)), lengths)
    entry = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    u, col = np.unique(fm.bucket_ids[entry], return_inverse=True)
    w = np.zeros((len(rows), len(u)))
    w.ravel()[text * len(u) + col] = fm.counts[entry] / fm.totals[rows][text]
    return u, w


def oracle_train_graph_embeddings(g, emb, cfg):
    """The per-edge SGD loop: one rng.choice and one per-negative loss loop per edge."""
    from plantsearch.kg import RELATION_SIGNATURES, NodeKind
    from plantsearch.losses import NonFiniteError

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
            loss, g_src, g_rel, g_dst, g_negs = oracle_edge_ranking_loss_grad(
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


def oracle_minibatch_train_graph_embeddings(g, emb, cfg, batch):
    """The per-edge loop of ``oracle_train_graph_embeddings`` in batches of ``batch`` edges
    that draw negatives: every active edge of a batch takes its gradients from the table at
    the batch start. Then the node rows take their steps, sources, then destinations, then
    negatives, in batch order, and each relation row the mean of its active edges' steps,
    added one by one in batch order."""
    from plantsearch.kg import RELATION_SIGNATURES, NodeKind, Relation

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
    vec, lr = out.vectors, cfg.learning_rate
    for _ in range(cfg.epochs):
        drawn = []
        for edge_idx in rng.permutation(len(edges)):
            e = edges[edge_idx]
            pool = by_kind[RELATION_SIGNATURES[e.rel][1]]
            neighbor_rows = {out.row(d) for d in g.out_neighbors(e.src, e.rel)}
            allowed = pool[~np.isin(pool, list(neighbor_rows))]
            if allowed.size:
                drawn.append((e, rng.choice(allowed, size=cfg.negatives_per_edge, replace=True)))
        for lo in range(0, len(drawn), batch):
            steps = []
            for e, neg_rows in drawn[lo:lo + batch]:
                src_row, dst_row = out.row(e.src), out.row(e.dst)
                loss, g_src, g_rel, g_dst, g_negs = oracle_edge_ranking_loss_grad(
                    vec[src_row], out.relation_params[e.rel], vec[dst_row], vec[neg_rows],
                    cfg.ranking_margin,
                )
                if loss != 0.0:
                    steps.append((e.rel, src_row, dst_row, neg_rows, g_src, g_rel, g_dst, g_negs))
            for _, src_row, _, _, g_src, _, _, _ in steps:
                vec[src_row] -= lr * g_src
            for _, _, dst_row, _, _, _, g_dst, _ in steps:
                vec[dst_row] -= lr * g_dst
            for _, _, _, neg_rows, _, _, _, g_negs in steps:
                for row, g_neg in zip(neg_rows, g_negs):
                    vec[row] -= lr * g_neg
            for rel in Relation:
                mine = [g_rel for r, _, _, _, _, g_rel, _, _ in steps if r is rel]
                if mine:
                    total = mine[0].copy()
                    for g_rel in mine[1:]:
                        total += g_rel
                    out.relation_params[rel] -= lr * (total / len(mine))
    return out


def oracle_sgd_step(table, texts, lr: float) -> None:
    """One SGD step from (TokenFeatures, vector gradient) pairs, one pair per text.

    Texts add (count_b / total) * g into one zeroed buffer over the union
    of their buckets, in the given order; empty texts are skipped.
    """
    texts = [(f, g) for f, g in texts if f.total]
    if not texts:
        return
    rows, inv = np.unique(np.concatenate([f.bucket_ids for f, _ in texts]), return_inverse=True)
    grads = np.zeros((len(rows), table.shape[1]))
    lo = 0
    for f, g in texts:
        hi = lo + len(f.bucket_ids)
        grads[inv[lo:hi]] += (f.counts / f.total)[:, None] * g
        lo = hi
    table[rows] -= lr * grads


def oracle_init_table(seed, dim, vocab_buckets):
    """An encoder's init table drawn block by block from its seed, as a new writable array:
    bucket j's row is row j % 16 of the (16, dim) Gaussian(0, 1/sqrt(dim)) draw of the
    stream seeded with [seed, j // 16]."""
    blocks = [np.random.default_rng([seed, b]).normal(0.0, 1.0 / np.sqrt(dim), size=(16, dim))
              for b in range((vocab_buckets + 15) // 16)]
    return np.concatenate(blocks)[:vocab_buckets]


def dense_table(p):
    """Every row of an encoder's table, bucket by bucket."""
    return p.rows(np.arange(p.vocab_buckets))


def oracle_dense_round_trip(table, path):
    """A whole table written to one .gemb and read back, as encoders were stored before they
    kept only their trained rows: float64(float32(table))."""
    from plantsearch.storage import read_matrix, write_matrix

    write_matrix(path, table)
    return read_matrix(path)


class DenseRun(NamedTuple):
    """What a whole-table training oracle returns."""

    table: np.ndarray
    epoch_losses: list[float]
    steps: int


def feature_row(fm, i):
    """Text i of a ``FeatureMatrix`` as the ``TokenFeatures`` that ``featurize`` gives it."""
    from plantsearch.encoder import TokenFeatures

    lo, hi = fm.indptr[i], fm.indptr[i + 1]
    return TokenFeatures(fm.bucket_ids[lo:hi], fm.counts[lo:hi], int(fm.totals[i]))


def _encode_dense(table, f):
    if f.total == 0:
        return np.zeros(table.shape[1])
    return (f.counts.astype(np.float64) @ table[f.bucket_ids]) / f.total


def oracle_train_docsim(table, triplets, texts, cfg):
    """Per-text docsim SGD on a copy of a whole table: three encodes and one per-row triplet
    loss per triplet."""
    from plantsearch.encoder import featurize_many
    from plantsearch.losses import NonFiniteError

    cfg.validate()
    table = table.copy()
    if cfg.epochs == 0 or not triplets:
        return DenseRun(table, [], 0)
    doc_ids = list(dict.fromkeys(
        d for t in triplets for d in (t.query, t.positive, t.negative)
    ))
    fm = featurize_many([texts[d] for d in doc_ids], len(table))
    feats = {d: feature_row(fm, i) for i, d in enumerate(doc_ids)}
    rng = np.random.default_rng(cfg.rng_seed)
    n = len(triplets)
    epoch_losses = []
    steps = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = [triplets[i] for i in order[lo : lo + cfg.batch_size]]
            grads = []
            for t in batch:
                fq, fp, fn = feats[t.query], feats[t.positive], feats[t.negative]
                loss, gq, gp, gn = oracle_triplet_loss_grad(
                    _encode_dense(table, fq), _encode_dense(table, fp),
                    _encode_dense(table, fn), cfg.margin,
                )
                total_loss += loss
                if loss == 0.0:
                    continue
                coeff = 1.0 / len(batch)
                grads += [(fq, coeff * gq), (fp, coeff * gp), (fn, coeff * gn)]
            oracle_sgd_step(table, grads, cfg.learning_rate)
            steps += 1
        if not np.isfinite(total_loss):
            raise NonFiniteError(f"non-finite docsim loss in epoch {epoch}")
        epoch_losses.append(total_loss / n)
    return DenseRun(table, epoch_losses, steps)


def oracle_train_biencoder(table, pairs, texts, cfg):
    """Per-text bi-encoder MNR SGD on a copy of a whole table: texts encoded one by one,
    gradients scattered per text."""
    from collections import defaultdict

    from plantsearch.encoder import featurize_many
    from plantsearch.losses import mnr_loss_grad
    from plantsearch.pairs import PairLabel
    from plantsearch.train import _pack_batches, effective_lr

    cfg.validate()
    table = table.copy()
    positives = [pr for pr in pairs if pr.label is PairLabel.POSITIVE]
    negatives = defaultdict(list)
    for pr in pairs:
        if pr.label is PairLabel.NEGATIVE and pr.doc_id not in negatives[pr.query_text]:
            negatives[pr.query_text].append(pr.doc_id)
    doc_ids = list(dict.fromkeys(pr.doc_id for pr in pairs))
    queries = list(dict.fromkeys(pr.query_text for pr in pairs))
    fm = featurize_many([texts[d] for d in doc_ids] + queries, len(table))
    doc_feats = {d: feature_row(fm, i) for i, d in enumerate(doc_ids)}
    query_feats = {q: feature_row(fm, len(doc_ids) + i) for i, q in enumerate(queries)}
    if cfg.epochs == 0:
        return DenseRun(table, [], 0)
    rng = np.random.default_rng(cfg.rng_seed)
    epoch_losses = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(positives))
        loss_sum = 0.0
        rows_seen = 0
        for batch in _pack_batches(positives, order, cfg.batch_size):
            batch_docs = [pr.doc_id for pr in batch]
            extras = []
            for pr in batch:
                for doc_id in negatives.get(pr.query_text, ()):
                    if doc_id != pr.doc_id and doc_id not in batch_docs and doc_id not in extras:
                        extras.append(doc_id)
            q_feats = [query_feats[pr.query_text] for pr in batch]
            d_feats = [doc_feats[d] for d in batch_docs + extras]
            q_mat = np.stack([_encode_dense(table, f) for f in q_feats])
            d_mat = np.stack([_encode_dense(table, f) for f in d_feats])
            loss, g_q, g_d = mnr_loss_grad(q_mat, d_mat, cfg.similarity_scale)
            loss_sum += loss * len(batch)
            rows_seen += len(batch)
            step += 1
            lr = effective_lr(cfg.learning_rate, step, cfg.warmup_steps)
            oracle_sgd_step(table, list(zip(q_feats, g_q)) + list(zip(d_feats, g_d)), lr)
        epoch_losses.append(loss_sum / rows_seen)
    return DenseRun(table, epoch_losses, step)


def dense_train_docsim(table, triplets, texts, cfg):
    """The batched docsim SGD on a copy of a whole table, as it ran before training gathered
    only its texts' rows: the same gemms over the table's own bucket ids."""
    from plantsearch.encoder import featurize_many
    from plantsearch.losses import triplet_loss_grad_batch

    table = table.copy()
    if cfg.epochs == 0 or not triplets:
        return DenseRun(table, [], 0)
    doc_ids = list(dict.fromkeys(
        d for t in triplets for d in (t.query, t.positive, t.negative)
    ))
    fm = featurize_many([texts[d] for d in doc_ids], len(table))
    row_of = {d: i for i, d in enumerate(doc_ids)}
    members = np.array([[row_of[t.query], row_of[t.positive], row_of[t.negative]]
                        for t in triplets])
    rng = np.random.default_rng(cfg.rng_seed)
    n = len(triplets)
    epoch_losses = []
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = members[order[lo : lo + cfg.batch_size]]
            m = len(batch)
            u, w = fm.pooling_weights(batch.T.ravel())
            x = w @ table[u]
            losses, gq, gp, gn = triplet_loss_grad_batch(x[:m], x[m : 2 * m], x[2 * m :],
                                                         cfg.margin)
            for loss in losses.tolist():
                total_loss += loss
            if np.count_nonzero(losses):
                table[u] -= cfg.learning_rate * (w.T @ ((1.0 / m) * np.concatenate([gq, gp, gn])))
            steps += 1
        epoch_losses.append(total_loss / n)
    return DenseRun(table, epoch_losses, steps)


def dense_train_biencoder(table, pairs, texts, cfg):
    """The batched bi-encoder MNR SGD on a copy of a whole table, as it ran before training
    gathered only its texts' rows."""
    from collections import defaultdict

    from plantsearch.encoder import featurize_many
    from plantsearch.losses import mnr_loss_grad
    from plantsearch.pairs import PairLabel
    from plantsearch.train import _pack_batches, effective_lr

    table = table.copy()
    positives = [pr for pr in pairs if pr.label is PairLabel.POSITIVE]
    negatives = defaultdict(list)
    for pr in pairs:
        if pr.label is PairLabel.NEGATIVE:
            negatives[pr.query_text].append(pr.doc_id)
    doc_ids = list(dict.fromkeys(pr.doc_id for pr in pairs))
    queries = list(dict.fromkeys(pr.query_text for pr in pairs))
    fm = featurize_many([texts[d] for d in doc_ids] + queries, len(table))
    doc_row = {d: i for i, d in enumerate(doc_ids)}
    query_row = {q: len(doc_ids) + i for i, q in enumerate(queries)}
    if cfg.epochs == 0:
        return DenseRun(table, [], 0)
    rng = np.random.default_rng(cfg.rng_seed)
    epoch_losses = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(positives))
        loss_sum = 0.0
        rows_seen = 0
        for batch in _pack_batches(positives, order, cfg.batch_size):
            all_docs = [pr.doc_id for pr in batch]
            seen = set(all_docs)
            for pr in batch:
                for doc_id in negatives.get(pr.query_text, ()):
                    if doc_id not in seen:
                        seen.add(doc_id)
                        all_docs.append(doc_id)
            u, w = fm.pooling_weights(np.array([query_row[pr.query_text] for pr in batch]
                                               + [doc_row[d] for d in all_docs]))
            x = w @ table[u]
            loss, g_q, g_d = mnr_loss_grad(x[: len(batch)], x[len(batch) :],
                                           cfg.similarity_scale)
            loss_sum += loss * len(batch)
            rows_seen += len(batch)
            step += 1
            table[u] -= effective_lr(cfg.learning_rate, step, cfg.warmup_steps) * (
                w.T @ np.concatenate([g_q, g_d]))
        epoch_losses.append(loss_sum / rows_seen)
    return DenseRun(table, epoch_losses, step)


def oracle_rank_corpus(p, query_texts, corpus):
    """Per query: per-text ``encode``, one ``np.dot`` cosine per document, order by (-score, id)."""
    from plantsearch.encoder import encode

    docs = {d: encode(p, text) for d, text in corpus.items()}
    rankings = []
    for text in query_texts:
        q = encode(p, text)
        scores = {d: oracle_np_cosine(v, q) for d, v in docs.items()}
        rankings.append(sorted(corpus, key=lambda d: (-scores[d], d)))
    return rankings


def finite_diff_check(
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: np.ndarray,
    probe_count: int = 32,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes ``probe_count`` random coordinates of ``params`` (all of them
    when the vector is small). Callers are responsible for keeping the
    probes away from hinge boundaries, where the loss is not
    differentiable.
    """
    params = np.asarray(params, dtype=np.float64)
    flat = params.ravel()
    _, grad = loss_and_grad(params)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != flat.shape:
        raise ValueError(f"gradient shape {grad.shape} != params shape {flat.shape}")

    rng = np.random.default_rng(seed)
    if probe_count >= flat.size:
        coords = np.arange(flat.size)
    else:
        coords = rng.choice(flat.size, size=probe_count, replace=False)

    worst = 0.0
    for c in coords:
        bumped = flat.copy()
        bumped[c] += eps
        hi, _ = loss_and_grad(bumped.reshape(params.shape))
        bumped[c] -= 2 * eps
        lo, _ = loss_and_grad(bumped.reshape(params.shape))
        numeric = (hi - lo) / (2 * eps)
        denom = max(abs(grad[c]), abs(numeric), 1e-8)
        worst = max(worst, abs(grad[c] - numeric) / denom)
    return worst
