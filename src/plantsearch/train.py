"""Two-stage contrastive fine-tuning of the hashed text encoder.

Stage one (document similarity) fits triplets under a euclidean margin
loss; stage two (bi-encoder) fits query-document pairs under the
multiple negatives ranking loss with in-batch negatives. Both stages
update only the encoder's bucket table, and because the encoder is
linear in that table the chain rule reduces to scattering each text
vector gradient onto the text's buckets with its mean-pooling weights.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .encoder import EncoderParams, TokenFeatures, encode_features, featurize_many
from .losses import NonFiniteError, mnr_loss_grad, triplet_loss_grad
from .pairs import PairLabel, QueryDocPair
from .triplets import TripletSet

logger = logging.getLogger(__name__)


@dataclass
class DocSimConfig:
    margin: float = 1.0
    epochs: int = 3
    learning_rate: float = 0.1
    batch_size: int = 16
    rng_seed: int = 0

    def validate(self) -> None:
        _validate_common(self.epochs, self.learning_rate, self.batch_size)
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")


@dataclass
class BiEncoderConfig:
    epochs: int = 5
    batch_size: int = 64
    warmup_steps: int = 1000
    similarity_scale: float = 20.0
    learning_rate: float = 0.05
    rng_seed: int = 0

    def validate(self) -> None:
        _validate_common(self.epochs, self.learning_rate, self.batch_size)
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.similarity_scale <= 0:
            raise ValueError(f"similarity_scale must be positive, got {self.similarity_scale}")


def _validate_common(epochs, learning_rate, batch_size) -> None:
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def effective_lr(base: float, step: int, warmup_steps: int) -> float:
    """Linear warmup to the base rate, then constant (step is 1-based)."""
    if warmup_steps <= 0 or step >= warmup_steps:
        return base
    return base * step / warmup_steps


@dataclass
class TrainResult:
    params: EncoderParams
    epoch_losses: list[float]
    steps: int
    wall_time: float


def _sgd_step(table: np.ndarray, texts: Sequence[tuple[TokenFeatures, np.ndarray]],
              lr: float) -> None:
    """One SGD step from (features, vector gradient) pairs, one pair per encoded text.

    d encode / d table[b] = count_b / total, so each vector gradient
    lands on its text's buckets with the pooling weights. Texts add into
    one zeroed buffer over the union of their buckets, in the given
    order; buckets are unique within a text, so every bucket sums its
    terms in text order.
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


def train_docsim(
    p: EncoderParams,
    tset: TripletSet,
    texts: Mapping[str, str],
    cfg: DocSimConfig,
) -> TrainResult:
    """Triplet-margin SGD over document triplets; returns updated params.

    Texts are resolved once through ``texts`` (missing ids raise
    KeyError) and featurized once; mini-batches follow a seeded shuffle
    each epoch and the mean epoch loss is recorded in the result.
    """
    cfg.validate()
    start = time.perf_counter()
    out = p.copy()
    if cfg.epochs == 0 or not tset.triplets:
        return TrainResult(out, [], 0, time.perf_counter() - start)

    doc_ids = list(dict.fromkeys(
        d for t in tset.triplets for d in (t.query, t.positive, t.negative)
    ))
    for doc_id in doc_ids:
        if doc_id not in texts:
            raise KeyError(f"no text for document {doc_id!r}")
    fm = featurize_many([texts[d] for d in doc_ids], out.vocab_buckets)
    feats = {d: fm.row(i) for i, d in enumerate(doc_ids)}

    rng = np.random.default_rng(cfg.rng_seed)
    table = out.embedding_table
    n = len(tset.triplets)
    epoch_losses: list[float] = []
    steps = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = [tset.triplets[i] for i in order[lo : lo + cfg.batch_size]]
            grads: list[tuple[TokenFeatures, np.ndarray]] = []
            for t in batch:
                fq, fp, fn = feats[t.query], feats[t.positive], feats[t.negative]
                loss, gq, gp, gn = triplet_loss_grad(
                    encode_features(out, fq), encode_features(out, fp),
                    encode_features(out, fn), cfg.margin,
                )
                total_loss += loss
                if loss == 0.0:
                    continue
                coeff = 1.0 / len(batch)
                grads += [(fq, coeff * gq), (fp, coeff * gp), (fn, coeff * gn)]
            _sgd_step(table, grads, cfg.learning_rate)
            steps += 1
        if not np.isfinite(total_loss):
            raise NonFiniteError(f"non-finite docsim loss in epoch {epoch}")
        epoch_losses.append(total_loss / n)
        logger.debug("docsim epoch %d mean loss %.6f", epoch, epoch_losses[-1])
    if not np.isfinite(table).all():
        raise NonFiniteError("non-finite encoder table after docsim training")
    return TrainResult(out, epoch_losses, steps, time.perf_counter() - start)


def _pack_batches(
    positives: Sequence[QueryDocPair], order: np.ndarray, batch_size: int
) -> list[list[QueryDocPair]]:
    """Greedy packing that never repeats a query text within a batch."""
    batches: list[list[QueryDocPair]] = []
    queries: list[set[str]] = []
    for i in order:
        pair = positives[i]
        for b, qset in zip(batches, queries):
            if len(b) < batch_size and pair.query_text not in qset:
                b.append(pair)
                qset.add(pair.query_text)
                break
        else:
            batches.append([pair])
            queries.append({pair.query_text})
    return batches


def train_biencoder(
    p: EncoderParams,
    pairs: Sequence[QueryDocPair],
    texts: Mapping[str, str],
    cfg: BiEncoderConfig,
) -> TrainResult:
    """MNR training on positive pairs with in-batch plus explicit negatives.

    Positive rows form the batches (duplicate queries spread across
    batches); each query's label-0 docs are appended to its batch as
    extra negative columns. The learning rate follows a linear warmup
    over ``warmup_steps`` optimizer steps, then stays at the base rate.
    """
    cfg.validate()
    start = time.perf_counter()
    out = p.copy()
    positives = [pr for pr in pairs if pr.label is PairLabel.POSITIVE]
    if not positives:
        raise ValueError("no positive pairs to train on")
    negatives: dict[str, list[str]] = defaultdict(list)
    for pr in pairs:
        if pr.label is PairLabel.NEGATIVE and pr.doc_id not in negatives[pr.query_text]:
            negatives[pr.query_text].append(pr.doc_id)

    doc_ids = list(dict.fromkeys(pr.doc_id for pr in pairs))
    for doc_id in doc_ids:
        if doc_id not in texts:
            raise KeyError(f"no text for document {doc_id!r}")
    queries = list(dict.fromkeys(pr.query_text for pr in pairs))
    fm = featurize_many([texts[d] for d in doc_ids] + queries, out.vocab_buckets)
    doc_feats = {d: fm.row(i) for i, d in enumerate(doc_ids)}
    query_feats = {q: fm.row(len(doc_ids) + i) for i, q in enumerate(queries)}

    if cfg.epochs == 0:
        return TrainResult(out, [], 0, time.perf_counter() - start)

    rng = np.random.default_rng(cfg.rng_seed)
    table = out.embedding_table
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(positives))
        loss_sum = 0.0
        rows_seen = 0
        for batch in _pack_batches(positives, order, cfg.batch_size):
            batch_docs = [pr.doc_id for pr in batch]
            extras: list[str] = []
            for pr in batch:
                for doc_id in negatives.get(pr.query_text, ()):
                    if doc_id != pr.doc_id and doc_id not in batch_docs and doc_id not in extras:
                        extras.append(doc_id)
            all_docs = batch_docs + extras
            q_feats = [query_feats[pr.query_text] for pr in batch]
            d_feats = [doc_feats[d] for d in all_docs]
            q_mat = np.stack([encode_features(out, f) for f in q_feats])
            d_mat = np.stack([encode_features(out, f) for f in d_feats])
            loss, g_q, g_d = mnr_loss_grad(q_mat, d_mat, cfg.similarity_scale)
            if not np.isfinite(loss):
                raise NonFiniteError(f"non-finite bi-encoder loss in epoch {epoch}")
            loss_sum += loss * len(batch)
            rows_seen += len(batch)
            step += 1
            lr = effective_lr(cfg.learning_rate, step, cfg.warmup_steps)
            _sgd_step(table, list(zip(q_feats, g_q)) + list(zip(d_feats, g_d)), lr)
        epoch_losses.append(loss_sum / rows_seen)
        logger.debug("bi-encoder epoch %d mean loss %.6f", epoch, epoch_losses[-1])
    if not np.isfinite(table).all():
        raise NonFiniteError("non-finite encoder table after bi-encoder training")
    return TrainResult(out, epoch_losses, step, time.perf_counter() - start)
