"""Retrieval benchmark evaluation: MAP@10, MRR@10, nDCG@10 across plants.

Rankings come from encoder cosine against the full plant corpus, ties
broken by ascending doc id. AP@k uses the min(|relevant|, k)
normalizer, so a perfect top-k is 1.0 even when k is smaller than the
relevant set; the report header states this.
"""

from __future__ import annotations

import functools
import logging
import math
import weakref
from collections import ChainMap
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import storage
from .encoder import EncoderParams, count_matrix, encode_batch, featurize_many, pool
from .losses import cosines
from .storage import CorruptFileError, read_json_lines, write_json_lines

logger = logging.getLogger(__name__)

AP_NORMALIZER_NOTE = "AP@k normalizer: min(|relevant|, k)"
K = 10  # the cutoff of every evaluate_run metric, which each report field and header names


class Query(NamedTuple):
    query_id: str
    text: str


@dataclass
class BenchmarkPlant:
    plant_id: str
    corpus: dict[str, str]  # doc id -> text
    queries: list[Query]
    qrels: dict[str, dict[str, int]]  # query id -> doc id -> grade


@dataclass
class Benchmark:
    plants: list[BenchmarkPlant]

    def validate(self) -> None:
        seen_plants: set[str] = set()
        seen_docs: set[str] = set()
        seen_queries: set[str] = set()
        for plant in self.plants:
            if plant.plant_id in seen_plants:
                raise ValueError(f"duplicate plant id {plant.plant_id!r}")
            seen_plants.add(plant.plant_id)
            for doc_id in plant.corpus:
                if doc_id in seen_docs:
                    raise ValueError(f"doc id {doc_id!r} appears in two plants")
                seen_docs.add(doc_id)
            if not plant.queries:  # its metrics would be the mean of nothing
                raise ValueError(f"plant {plant.plant_id!r} has no queries")
            query_ids = {q.query_id for q in plant.queries}
            for q in plant.queries:
                if q.query_id in seen_queries:
                    raise ValueError(f"duplicate query id {q.query_id!r}")
                seen_queries.add(q.query_id)
            for query_id, graded in plant.qrels.items():
                if query_id not in query_ids:
                    raise ValueError(
                        f"qrels reference unknown query {query_id!r} in {plant.plant_id}"
                    )
                for doc_id, grade in graded.items():
                    if doc_id not in plant.corpus:
                        raise ValueError(
                            f"qrels reference unknown doc {doc_id!r} in {plant.plant_id}"
                        )
                    if grade < 0:
                        raise ValueError(f"negative grade for {query_id!r}/{doc_id!r}")
            for q in plant.queries:
                graded = plant.qrels.get(q.query_id, {})
                if not any(g > 0 for g in graded.values()):
                    raise ValueError(f"query {q.query_id!r} has no relevant document")


def rank_corpus(p: EncoderParams, query_text: str, corpus: Mapping[str, str]) -> list[str]:
    """All doc ids by descending encoder cosine, ties by ascending id."""
    return rank_queries(p, [query_text], corpus)[0]


class _Corpus:
    """A corpus's doc ids in ascending order, their texts' count matrix in that order, the
    table of their words' bucket ids and, for each live encoder, its document vectors and norms.

    The word table is the one the corpus's own ``featurize_many`` pass collected, at the
    memo key's bucket count; queries read it through a ``ChainMap`` and never add to it.

    The vectors are keyed weakly by the encoder, which hashes by identity: an encoder that
    ``with_rows`` returns is a new key, and an encoder's entry goes when it is collected. The
    held arrays are read-only, as are an encoder's trained rows, so no write in place can make
    them disagree.
    """

    def __init__(self, ids: np.ndarray, matrix: tuple[np.ndarray, np.ndarray, np.ndarray],
                 words: dict[str, list[int]]):
        ids.flags.writeable = False
        self.ids = ids  # an object array, so a ranking is one ``ids[order].tolist()``
        self.matrix = matrix  # encoder.count_matrix
        self.words = words  # word -> bucket ids, as featurize_many takes them
        self._vectors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def __contains__(self, p: EncoderParams) -> bool:
        return p in self._vectors

    def vectors(self, p: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
        """Every document's vector under ``p`` and its norm, encoded on the first call."""
        held = self._vectors.get(p)
        if held is None:
            docs = pool(p, self.matrix)
            norms = np.sqrt(np.vecdot(docs, docs))
            docs.flags.writeable = norms.flags.writeable = False
            held = self._vectors[p] = docs, norms
        return held


@functools.lru_cache
def _corpus_pooling(vocab_buckets: int, ids: tuple[str, ...], texts: tuple[str, ...]) -> _Corpus:
    """The prepared corpus of the doc ids ``ids`` with the texts ``texts``, memoized by both
    as the caller's mapping orders them."""
    doc_ids, doc_texts = zip(*sorted(zip(ids, texts)))  # ids are distinct: no text compared
    words: dict[str, list[int]] = {}
    matrix = count_matrix(featurize_many(doc_texts, vocab_buckets, words))
    return _Corpus(np.array(doc_ids, dtype=object), matrix, words)


def rank_queries(p: EncoderParams, query_texts: Sequence[str],
                 corpus: Mapping[str, str]) -> list[list[str]]:
    """:func:`rank_corpus` for each query.

    The corpus comes from an LRU memo keyed by its ids and its texts in the mapping's order,
    two tuples built without a sort, so on a memo hit only the queries are featurized and
    the ids come sorted from the memo; a corpus under other ids, or inserted in another
    order, is another entry. The queries are encoded against the corpus's word table, so
    only their words outside the corpus are hashed, and the table does not grow. The memo
    holds each live encoder's document vectors, so an encoder encodes a corpus once. Each
    score is one ddot (``np.vecdot``), so documents with equal vectors tie exactly, and
    :func:`_descending` over id-sorted rows puts tied documents in ascending id order; it
    sorts stably only the rows that hold a tie. The memo's hit count and the debug line are
    read only when debug logging is on.
    """
    if not corpus:
        raise ValueError("empty corpus")
    debug = logger.isEnabledFor(logging.DEBUG)
    hits = _corpus_pooling.cache_info().hits if debug else 0
    prepared = _corpus_pooling(p.vocab_buckets, tuple(corpus), tuple(corpus.values()))
    if debug:
        hit = _corpus_pooling.cache_info().hits > hits
        logger.debug("rank_queries: corpus memo %s, texts featurized: %d, doc vectors %s",
                     "hit" if hit else "miss", len(query_texts) + (0 if hit else len(corpus)),
                     "held" if p in prepared else "encoded")
    docs, doc_norms = prepared.vectors(p)
    queries = encode_batch(p, query_texts, ChainMap({}, prepared.words))
    scores = cosines(np.vecdot(docs[None, :, :], queries[:, None, :]), doc_norms[None, :],
                     np.sqrt(np.vecdot(queries, queries))[:, None])
    return prepared.ids[_descending(scores)].tolist()


def _descending(scores: np.ndarray) -> np.ndarray:
    """``np.argsort(-scores, axis=1, kind="stable")``: each row's columns by descending score,
    ties by ascending column, NaNs last.

    Every row is sorted by numpy's default argsort, which is not stable: it orders the scores
    as the stable sort does but may order a tie's columns otherwise. So only the rows where two
    adjacent ranked scores are equal (``+0.0`` equals ``-0.0``) or the last is NaN (a NaN equals
    nothing, and NaNs sort last) are sorted again, stably. Every other row's scores are
    distinct, and one order fits them.
    """
    neg = -scores
    order = np.argsort(neg, axis=1)
    # one flat gather of every row's ranked scores (take_along_axis costs more per call)
    ranked = neg.ravel()[order + np.arange(0, neg.size, neg.shape[1])[:, None]]
    redo = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1) | np.isnan(ranked[:, -1])
    if redo.any():
        order[redo] = np.argsort(neg[redo], axis=1, kind="stable")
    return order


def ap_at_k(ranking: Sequence[str], relevant: set[str], k: int) -> float:
    """Average precision over the top k with a min(|relevant|, k) normalizer."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("empty relevant set")
    hits = 0
    precision_sum = 0.0
    for i, doc_id in enumerate(ranking[:k], start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    return precision_sum / min(len(relevant), k)


def rr_at_k(ranking: Sequence[str], relevant: set[str], k: int) -> float:
    """Reciprocal rank of the first relevant doc within the top k, else 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        raise ValueError("empty relevant set")
    for i, doc_id in enumerate(ranking[:k], start=1):
        if doc_id in relevant:
            return 1.0 / i
    return 0.0


def ndcg_at_k(ranking: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    """nDCG with DCG = sum grade / log2(position + 1) over the top k.

    Any grade > 0 counts as relevant; the ideal ranking sorts grades
    descending. Queries with no relevant doc are an error.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    positive = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not positive:
        raise ValueError("no relevant documents in grades")
    dcg = 0.0
    for i, doc_id in enumerate(ranking[:k], start=1):
        g = grades.get(doc_id, 0)
        if g > 0:
            dcg += g / math.log2(i + 1)
    ideal = sum(g / math.log2(i + 1) for i, g in enumerate(positive[:k], start=1))
    return dcg / ideal


@dataclass
class PlantMetrics:
    map10: float
    mrr10: float
    ndcg10: float


@dataclass
class EvalReport:
    per_plant: dict[str, PlantMetrics]
    mean_map10: float
    mean_mrr10: float
    mean_ndcg10: float
    mean: float  # mean of the three cross-plant means
    note: str = AP_NORMALIZER_NOTE

    def format_table(self) -> str:
        """Aligned text table, metrics scaled by 100."""
        lines = [f"# {self.note}"]
        header = f"{'plant':<12}{'MAP@10':>10}{'MRR@10':>10}{'nDCG@10':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for pid in sorted(self.per_plant):
            m = self.per_plant[pid]
            lines.append(
                f"{pid:<12}{100 * m.map10:>10.2f}{100 * m.mrr10:>10.2f}{100 * m.ndcg10:>10.2f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'mean':<12}{100 * self.mean_map10:>10.2f}{100 * self.mean_mrr10:>10.2f}"
            f"{100 * self.mean_ndcg10:>10.2f}"
        )
        lines.append(f"{'Mean':<12}{100 * self.mean:>10.2f}")
        return "\n".join(lines)


def evaluate_run(p: EncoderParams, b: Benchmark) -> EvalReport:
    """Macro-averaged retrieval metrics at ``K``: per plant, then unweighted across plants.

    Each plant's queries are ranked in one batch by :func:`rank_queries`, whose memo holds
    each plant corpus's count matrix across evaluations, and its document vectors under
    ``p`` while ``p`` lives.
    """
    b.validate()
    if not b.plants:
        raise ValueError("benchmark has no plants")
    per_plant: dict[str, PlantMetrics] = {}
    for plant in b.plants:
        rankings = rank_queries(p, [q.text for q in plant.queries], plant.corpus)
        aps, rrs, ndcgs = [], [], []
        for q, ranking in zip(plant.queries, rankings):
            grades = plant.qrels.get(q.query_id, {})
            relevant = {d for d, g in grades.items() if g > 0}
            aps.append(ap_at_k(ranking, relevant, K))
            rrs.append(rr_at_k(ranking, relevant, K))
            ndcgs.append(ndcg_at_k(ranking, grades, K))
        per_plant[plant.plant_id] = PlantMetrics(
            map10=float(np.mean(aps)), mrr10=float(np.mean(rrs)), ndcg10=float(np.mean(ndcgs))
        )
    mean_map = float(np.mean([m.map10 for m in per_plant.values()]))
    mean_mrr = float(np.mean([m.mrr10 for m in per_plant.values()]))
    mean_ndcg = float(np.mean([m.ndcg10 for m in per_plant.values()]))
    return EvalReport(
        per_plant=per_plant,
        mean_map10=mean_map,
        mean_mrr10=mean_mrr,
        mean_ndcg10=mean_ndcg,
        mean=float(np.mean([mean_map, mean_mrr, mean_ndcg])),
    )


# ---------------------------------------------------------------------------
# File formats: TREC qrels and line-JSON queries


def save_qrels(qrels: Mapping[str, Mapping[str, int]], path: str | Path
               ) -> dict[str, dict[str, int]]:
    """Write one line per grade, by query id, then doc id; returns the qrels as
    :func:`load_qrels` reads them back."""
    out: dict[str, dict[str, int]] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for query_id in sorted(qrels):
            for doc_id in sorted(qrels[query_id]):
                fh.write(f"{query_id} 0 {doc_id} {qrels[query_id][doc_id]}\n")
                out.setdefault(query_id, {})[doc_id] = qrels[query_id][doc_id]
    return out


def load_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:  # UnicodeDecodeError is a ValueError
                query_id, _, doc_id, grade = line.decode("utf-8").split()
                out.setdefault(query_id, {})[doc_id] = int(grade)
            except ValueError:
                raise CorruptFileError(
                    f"{path}:{line_no}: expected 4 fields, the last an integer grade"
                ) from None
    return out


def save_queries(queries: Mapping[str, list[Query]], path: str | Path) -> None:
    """Write queries grouped per plant id."""
    records = []
    for plant_id in sorted(queries):
        for q in queries[plant_id]:
            records.append({"query_id": q.query_id, "text": q.text, "plant": plant_id})
    write_json_lines(path, records)


def load_queries(path: str | Path) -> dict[str, list[Query]]:
    out: dict[str, list[Query]] = {}
    for plant, query in read_json_lines(
        path, lambda rec: (storage.field(rec, "plant", str), Query(
            storage.field(rec, "query_id", str), storage.field(rec, "text", str))),
        "query line is not a record with a string query_id, text and plant",
    ):
        out.setdefault(plant, []).append(query)
    return out
