"""Two-stage contrastive fine-tuning of the hashed text encoder.

Stage one (document similarity) fits triplets under a euclidean margin
loss; stage two (bi-encoder) fits query-document pairs under the
multiple negatives ranking loss with in-batch negatives. Both run one SGD
loop over the encoder's bucket table, each stage giving only its batches
and its loss. As the encoder is linear in that table, each step is two
gemms over the whole run table: the texts' vectors are ``W @ table`` and
the table gradient is ``W.T @ G``, with W the batch's pooling weights,
count / total, over every bucket of the run. ``table`` holds only the rows
of the training texts' buckets, gathered once, and the texts' bucket ids
are renumbered to positions in it (``FeatureMatrix.compact``). Each run
holds its texts' counts once, as the dense texts × table-rows matrix that
every encoder read pools from (``encoder.count_matrix``), so a batch's W
is a row gather and one division, and every step reads and updates
``table`` itself. Each run takes its texts' rows from a
``Featurizer``: its own, or one that a pipeline stage shares among its
runs, so that the stage featurizes each text once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .encoder import EncoderParams, Featurizer, concat_ranges, count_matrix
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
    features: Featurizer | None = None,
) -> TrainResult:
    """Triplet-margin SGD over document triplets; returns updated params.

    Texts are resolved once through ``texts`` (missing ids raise
    KeyError) and taken once from ``features`` (a new ``Featurizer`` when
    none is given); mini-batches follow a seeded shuffle each epoch and the
    mean epoch loss is recorded in the result.
    """
    cfg.validate()
    if cfg.epochs == 0 or not triplets:
        return TrainResult(p, [], 0)

    doc_ids = list(dict.fromkeys(d for t in triplets for d in (t.query, t.positive, t.negative)))
    for doc_id in doc_ids:
        if doc_id not in texts:
            raise KeyError(f"no text for document {doc_id!r}")
    row_of = {d: i for i, d in enumerate(doc_ids)}
    members = np.array([[row_of[t.query], row_of[t.positive], row_of[t.negative]]
                        for t in triplets])
    n, size = len(triplets), cfg.batch_size
    rng = np.random.default_rng(cfg.rng_seed)
    epochs = ([(b.T.ravel(), len(b))  # queries, positives, negatives
               for b in np.split(members[rng.permutation(n)], range(size, n, size))]
              for _ in range(cfg.epochs))

    def loss(x, m):  # an inactive hinge has a zero gradient; a batch with none takes no step
        losses, *g = triplet_loss_grad_batch(x[:m], x[m : 2 * m], x[2 * m :], cfg.margin)
        return losses.tolist(), int(np.count_nonzero(losses)), (1.0 / m) * np.concatenate(g)

    return _fit(p, [texts[d] for d in doc_ids], features, epochs, loss,
                cfg.learning_rate, 0, "docsim", "triplets")


def _pack_batches(
    positives: Sequence[QueryDocPair], order: np.ndarray, batch_size: int
) -> list[list[int]]:
    """Greedy packing of positions into ``positives`` that never repeats a query text within
    a batch."""
    batches: list[list[int]] = []
    queries: list[set[str]] = []
    for i in order.tolist():
        query = positives[i].query_text
        for b, qset in zip(batches, queries):
            if len(b) < batch_size and query not in qset:
                b.append(i)
                qset.add(query)
                break
        else:
            batches.append([i])
            queries.append({query})
    return batches


def train_biencoder(
    p: EncoderParams,
    pairs: Sequence[QueryDocPair],
    texts: Mapping[str, str],
    cfg: BiEncoderConfig,
    features: Featurizer | None = None,
) -> TrainResult:
    """MNR training on positive pairs with in-batch plus explicit negatives.

    Positive rows form the batches (duplicate queries spread across
    batches); each query's label-0 docs are appended to its batch as
    extra negative columns, each once, after the batch's positives. Texts
    are taken once from ``features`` (a new ``Featurizer`` when none is
    given). The learning rate follows a linear warmup over
    ``warmup_steps`` optimizer steps, then stays at the base rate.
    """
    cfg.validate()
    positives = [pr for pr in pairs if pr.label is PairLabel.POSITIVE]
    if not positives:
        raise ValueError("no positive pairs to train on")
    doc_ids = list(dict.fromkeys(pr.doc_id for pr in pairs))
    for doc_id in doc_ids:
        if doc_id not in texts:
            raise KeyError(f"no text for document {doc_id!r}")
    if cfg.epochs == 0:
        return TrainResult(p, [], 0)

    queries = list(dict.fromkeys(pr.query_text for pr in pairs))
    doc_row = {d: i for i, d in enumerate(doc_ids)}
    query_row = {q: len(doc_ids) + i for i, q in enumerate(queries)}
    pos_query = np.array([query_row[pr.query_text] for pr in positives], dtype=np.int64)
    pos_doc = np.array([doc_row[pr.doc_id] for pr in positives], dtype=np.int64)
    # Each query's label-0 docs in pair order, as CSR over the text rows: query row r's are
    # neg_doc[neg_ptr[r]:neg_ptr[r + 1]].
    neg = np.array([(query_row[pr.query_text], doc_row[pr.doc_id]) for pr in pairs
                    if pr.label is PairLabel.NEGATIVE], dtype=np.int64).reshape(-1, 2)
    neg = neg[np.argsort(neg[:, 0], kind="stable")]
    neg_doc = neg[:, 1]
    neg_ptr = np.searchsorted(neg[:, 0], np.arange(len(doc_ids) + len(queries) + 1))

    def batch(positions: list[int]) -> tuple[np.ndarray, int]:
        q, d = pos_query[positions], pos_doc[positions]
        starts = neg_ptr[q]
        # the label-0 docs at their first appearance after the batch's positives
        docs = np.concatenate([d, neg_doc[concat_ranges(starts, neg_ptr[q + 1] - starts)]])
        first = np.unique(docs, return_index=True)[1]
        return np.concatenate([q, d, docs[np.sort(first[first >= len(d)])]]), len(positions)

    rng = np.random.default_rng(cfg.rng_seed)
    epochs = ([batch(b) for b in _pack_batches(positives, rng.permutation(len(positives)),
                                               cfg.batch_size)]
              for _ in range(cfg.epochs))

    def loss(x, m):  # every row of an MNR batch has a gradient
        value, *g = mnr_loss_grad(x[:m], x[m:], cfg.similarity_scale)
        return [value * m], m, np.concatenate(g)

    return _fit(p, [texts[d] for d in doc_ids] + queries, features, epochs, loss,
                cfg.learning_rate, cfg.warmup_steps, "bi-encoder", "positive pairs")


def _fit(p: EncoderParams, texts: list[str], features: Featurizer | None,
         epochs: Iterable[list[tuple[np.ndarray, int]]],
         loss: Callable[[np.ndarray, int], tuple[list[float], int, np.ndarray]],
         learning_rate: float, warmup_steps: int, stage: str, items: str) -> TrainResult:
    """SGD of the rows of ``texts``' buckets, the loop of both stages. Each epoch lists its
    batches as (text rows to pool, number of ``items`` they hold). ``loss`` maps a batch's
    pooled vectors and item count to its epoch-loss terms, its active items and the vectors'
    gradient; a batch with an active item steps at ``effective_lr``."""
    counts, totals, buckets = count_matrix(
        (features or Featurizer(p.vocab_buckets)).take(texts, p.vocab_buckets))
    table = p.rows(buckets)
    epoch_losses: list[float] = []
    step = 0
    for epoch, batches in enumerate(epochs):
        total, seen, active, widest = 0.0, 0, 0, 0
        for rows, m in batches:
            w = counts[rows] / totals[rows, None]
            widest = max(widest, len(w))
            terms, batch_active, g = loss(w @ table, m)
            for term in terms:  # one by one in batch order, not a pairwise sum
                total += term
            if not np.isfinite(total):
                raise NonFiniteError(f"non-finite {stage} loss in epoch {epoch}")
            step += 1
            if batch_active:
                table -= effective_lr(learning_rate, step, warmup_steps) * (w.T @ g)
            del w, g  # freed before the next batch's weights are built
            seen += m
            active += batch_active
        epoch_losses.append(total / seen)
        logger.debug("%s epoch %d mean loss %.6f, %d of %d %s active, %d steps, widest batch "
                     "%d texts x %d table rows", stage, epoch, epoch_losses[-1], active, seen,
                     items, len(batches), widest, len(table))
    if not np.isfinite(table).all():
        raise NonFiniteError(f"non-finite encoder table after {stage} training")
    return TrainResult(p.with_rows(buckets, table), epoch_losses, step)
