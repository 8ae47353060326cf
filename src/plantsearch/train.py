"""Two-stage contrastive fine-tuning of the hashed text encoder.

Stage one (document similarity) fits triplets under a euclidean margin
loss; stage two (bi-encoder) fits query-document pairs under the
multiple negatives ranking loss with in-batch negatives. Both stages
update only the encoder's bucket table, and because the encoder is
linear in that table, each SGD step is two gemms over the mini-batch's
buckets: the texts' vectors are ``W @ table[u]`` and the table gradient
is ``W.T @ G``, with W the batch's pooling weights
(``FeatureMatrix.pooling_weights``). ``table`` holds only the rows of the
training texts' buckets, gathered once, and the texts' bucket ids are
renumbered to positions in it (``FeatureMatrix.compact``).
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .encoder import EncoderParams, featurize_many
from .losses import NonFiniteError, mnr_loss_grad, triplet_loss_grad_batch
from .pairs import PairLabel, QueryDocPair
from .triplets import Triplet

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
    warmup_steps: int = 20
    similarity_scale: float = 20.0
    learning_rate: float = 0.1
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


def train_docsim(
    p: EncoderParams,
    triplets: Sequence[Triplet],
    texts: Mapping[str, str],
    cfg: DocSimConfig,
) -> TrainResult:
    """Triplet-margin SGD over document triplets; returns updated params.

    Texts are resolved once through ``texts`` (missing ids raise
    KeyError) and featurized once; mini-batches follow a seeded shuffle
    each epoch and the mean epoch loss is recorded in the result.
    """
    cfg.validate()
    if cfg.epochs == 0 or not triplets:
        return TrainResult(p, [], 0)

    doc_ids = list(dict.fromkeys(
        d for t in triplets for d in (t.query, t.positive, t.negative)
    ))
    for doc_id in doc_ids:
        if doc_id not in texts:
            raise KeyError(f"no text for document {doc_id!r}")
    fm, buckets = featurize_many([texts[d] for d in doc_ids], p.vocab_buckets).compact()
    row_of = {d: i for i, d in enumerate(doc_ids)}
    members = np.array([[row_of[t.query], row_of[t.positive], row_of[t.negative]]
                        for t in triplets])

    rng = np.random.default_rng(cfg.rng_seed)
    table = p.rows(buckets)
    n = len(triplets)
    epoch_losses: list[float] = []
    steps = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        active = 0
        for lo in range(0, n, cfg.batch_size):
            batch = members[order[lo : lo + cfg.batch_size]]
            m = len(batch)
            u, w = fm.pooling_weights(batch.T.ravel())  # queries, positives, negatives
            x = w @ table[u]
            losses, gq, gp, gn = triplet_loss_grad_batch(x[:m], x[m : 2 * m], x[2 * m :],
                                                         cfg.margin)
            for loss in losses.tolist():  # one by one in batch order, not a pairwise sum
                total_loss += loss
            batch_active = int(np.count_nonzero(losses))
            if batch_active:
                g = (1.0 / m) * np.concatenate([gq, gp, gn])
                table[u] -= cfg.learning_rate * (w.T @ g)
            active += batch_active
            steps += 1
        if not np.isfinite(total_loss):
            raise NonFiniteError(f"non-finite docsim loss in epoch {epoch}")
        epoch_losses.append(total_loss / n)
        logger.debug("docsim epoch %d mean loss %.6f, %d of %d triplets active",
                     epoch, epoch_losses[-1], active, n)
    if not np.isfinite(table).all():
        raise NonFiniteError("non-finite encoder table after docsim training")
    return TrainResult(p.with_rows(buckets, table), epoch_losses, steps)


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
    positives = [pr for pr in pairs if pr.label is PairLabel.POSITIVE]
    if not positives:
        raise ValueError("no positive pairs to train on")
    negatives: dict[str, list[str]] = defaultdict(list)
    for pr in pairs:
        if pr.label is PairLabel.NEGATIVE:
            negatives[pr.query_text].append(pr.doc_id)

    doc_ids = list(dict.fromkeys(pr.doc_id for pr in pairs))
    for doc_id in doc_ids:
        if doc_id not in texts:
            raise KeyError(f"no text for document {doc_id!r}")
    queries = list(dict.fromkeys(pr.query_text for pr in pairs))
    fm, buckets = featurize_many([texts[d] for d in doc_ids] + queries,
                                 p.vocab_buckets).compact()
    doc_row = {d: i for i, d in enumerate(doc_ids)}
    query_row = {q: len(doc_ids) + i for i, q in enumerate(queries)}

    if cfg.epochs == 0:
        return TrainResult(p, [], 0)

    rng = np.random.default_rng(cfg.rng_seed)
    table = p.rows(buckets)
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(positives))
        loss_sum = 0.0
        rows_seen = 0
        batches = _pack_batches(positives, order, cfg.batch_size)
        widest = (0, 0)
        for batch in batches:
            all_docs = [pr.doc_id for pr in batch]
            seen = set(all_docs)
            for pr in batch:
                for doc_id in negatives.get(pr.query_text, ()):
                    if doc_id not in seen:
                        seen.add(doc_id)
                        all_docs.append(doc_id)
            u, w = fm.pooling_weights(np.array([query_row[pr.query_text] for pr in batch]
                                               + [doc_row[d] for d in all_docs]))
            if w.shape[1] > widest[1]:
                widest = w.shape
            x = w @ table[u]
            loss, g_q, g_d = mnr_loss_grad(x[: len(batch)], x[len(batch) :],
                                           cfg.similarity_scale)
            if not np.isfinite(loss):
                raise NonFiniteError(f"non-finite bi-encoder loss in epoch {epoch}")
            loss_sum += loss * len(batch)
            rows_seen += len(batch)
            step += 1
            lr = effective_lr(cfg.learning_rate, step, cfg.warmup_steps)
            table[u] -= lr * (w.T @ np.concatenate([g_q, g_d]))
        epoch_losses.append(loss_sum / rows_seen)
        logger.debug("bi-encoder epoch %d mean loss %.6f, %d steps, widest batch %d texts x "
                     "%d buckets", epoch, epoch_losses[-1], len(batches), *widest)
    if not np.isfinite(table).all():
        raise NonFiniteError("non-finite encoder table after bi-encoder training")
    return TrainResult(p.with_rows(buckets, table), epoch_losses, step)
