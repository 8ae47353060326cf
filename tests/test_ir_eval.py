import gc
import math
from dataclasses import asdict

import numpy as np
import pytest

from plantsearch import encoder, ir_eval, pairs, synth
from plantsearch.encoder import EncoderParams, encode_batch, featurize_many, init_encoder
from plantsearch.ir_eval import (
    AP_NORMALIZER_NOTE,
    Benchmark,
    BenchmarkPlant,
    Query,
    ap_at_k,
    evaluate_run,
    load_qrels,
    load_queries,
    ndcg_at_k,
    rank_corpus,
    rank_queries,
    rr_at_k,
    save_qrels,
    save_queries,
)

from oracles import (
    dense_table,
    oracle_ap,
    oracle_ndcg,
    oracle_rank_corpus,
    oracle_rr,
    oracle_uncached_rank_queries,
)


def test_ap_hand_computed():
    # relevant at positions 1 and 3 of 4, |relevant| = 2
    ranking = ["a", "b", "c", "d"]
    relevant = {"a", "c"}
    want = (1 / 1 + 2 / 3) / 2
    assert ap_at_k(ranking, relevant, 4) == pytest.approx(want, abs=1e-15)
    # k cuts off the second hit
    assert ap_at_k(ranking, relevant, 2) == pytest.approx((1 / 1) / 2, abs=1e-15)
    # normalizer switches to k when |relevant| > k: perfect top-1 scores 1.0
    assert ap_at_k(["a"], {"a", "c", "d"}, 1) == 1.0
    # no relevant retrieved
    assert ap_at_k(["b", "d"], {"a"}, 2) == 0.0


def test_rr_hand_computed():
    assert rr_at_k(["x", "y", "z"], {"z"}, 3) == pytest.approx(1 / 3)
    assert rr_at_k(["x", "y", "z"], {"x", "z"}, 3) == 1.0
    assert rr_at_k(["x", "y"], {"z"}, 2) == 0.0  # beyond k


def test_ndcg_hand_computed():
    # grades: a=3, c=1; ranking puts c first, a second
    ranking = ["c", "a", "b"]
    grades = {"a": 3, "c": 1, "b": 0}
    dcg = 1 / math.log2(2) + 3 / math.log2(3)
    ideal = 3 / math.log2(2) + 1 / math.log2(3)
    assert ndcg_at_k(ranking, grades, 3) == pytest.approx(dcg / ideal, abs=1e-15)
    # perfect ordering scores exactly 1
    assert ndcg_at_k(["a", "c"], grades, 2) == 1.0
    # nothing relevant retrieved scores 0
    assert ndcg_at_k(["b"], grades, 1) == 0.0


def test_metric_argument_errors():
    with pytest.raises(ValueError):
        ap_at_k(["a"], {"a"}, 0)
    with pytest.raises(ValueError):
        ap_at_k(["a"], set(), 1)
    with pytest.raises(ValueError):
        rr_at_k(["a"], set(), 1)
    with pytest.raises(ValueError):
        ndcg_at_k(["a"], {"a": 0}, 1)


def test_metrics_match_oracles_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        docs = [f"d{i}" for i in range(n)]
        ranking = list(rng.permutation(docs))
        grades = {d: int(rng.integers(0, 4)) for d in docs if rng.random() < 0.6}
        relevant = {d for d, g in grades.items() if g > 0}
        if not relevant:
            grades[docs[0]] = 1
            relevant = {docs[0]}
        k = int(rng.integers(1, 15))
        assert ap_at_k(ranking, relevant, k) == oracle_ap(ranking, relevant, k)
        assert rr_at_k(ranking, relevant, k) == oracle_rr(ranking, relevant, k)
        assert ndcg_at_k(ranking, grades, k) == pytest.approx(
            oracle_ndcg(ranking, grades, k), abs=1e-12
        )


def test_rank_corpus_ties_and_zero_vectors():
    p = init_encoder(dim=8, vocab_buckets=64, seed=3)
    corpus = {
        "b": "pumpe leckt",
        "a": "pumpe leckt",   # same text as b: exact tie, a wins by id
        "c": "kessel druck",
        "z": "",              # zero vector: cosine 0, ranked by sign of others
    }
    ranking = rank_corpus(p, "pumpe leckt", corpus)
    assert set(ranking) == set(corpus)
    assert ranking[:2] == ["a", "b"]
    with pytest.raises(ValueError, match="empty corpus"):
        rank_corpus(p, "x", {})


def test_descending_equals_the_stable_argsort():
    """``ir_eval._descending`` equals ``np.argsort(-s, axis=1, kind="stable")`` on crafted
    scores: exact ties, ``+0.0`` beside ``-0.0``, one NaN and several, a row where every score
    ties (a zero query vector), one column, long runs of ties over a few values in rows of 500,
    and a batch that mixes tied and untied rows. The long runs are where the default argsort
    orders a tie otherwise, so the rows with a tie must be sorted again stably."""
    rng = np.random.default_rng(17)
    untied = rng.permutation(np.linspace(-1.0, 1.0, 500))
    few = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5], size=(8, 500))
    mixed = np.vstack([untied, few[0], rng.permutation(untied), np.zeros(500),
                       np.where(rng.random(500) < 0.1, np.nan, untied)])
    cases = {
        "exact ties": np.array([[0.5, 0.2, 0.5, 0.1, 0.2, 0.5]]),
        "signed zeros": np.array([[0.0, -0.0, 0.3, -0.0, 0.0, -0.2, 0.0]]),
        "one NaN": np.array([[0.1, np.nan, 0.7, 0.3]]),
        "several NaNs": np.array([[np.nan, 0.2, np.nan, 0.9, np.nan, -0.1]]),
        "every score ties": np.zeros((2, 500)),
        "one column": np.array([[0.4], [np.nan], [-0.0], [0.0]]),
        "long runs of ties": few,
        "mixed batch": mixed,
        "untied": np.vstack([untied, -untied]),
    }
    for name, scores in cases.items():
        want = np.argsort(-scores, axis=1, kind="stable")
        got = ir_eval._descending(scores)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("seed", [7, 301])
def test_rank_queries_matches_oracle_on_synth_plants(seed):
    plant = synth.generate_plant(synth.PlantConfig(plant_id="S", seed=seed)).bench
    p = init_encoder(dim=64, vocab_buckets=1 << 16, seed=seed)
    stats = pairs.CorpusStats.from_texts(plant.corpus.values())
    doc_ids = sorted(plant.corpus)
    queries = [q.text for q in plant.queries] + [
        pairs.generate_query(plant.corpus[d], m, stats) for m in (2, 3) for d in doc_ids[::25]
    ]
    want = oracle_rank_corpus(p, queries, plant.corpus)
    assert rank_queries(p, queries, plant.corpus) == want
    assert [rank_corpus(p, text, plant.corpus) for text in queries[:5]] == want[:5]


def test_rank_queries_duplicate_texts_tie_by_ascending_id():
    """Equal texts score bit-identically wherever their rows sit, so ascending id breaks the tie."""
    rng = np.random.default_rng(5)
    words = [f"teil{i}" for i in range(60)]
    p = init_encoder(dim=64, vocab_buckets=4096, seed=1)
    for _ in range(30):
        n = int(rng.integers(20, 400))
        texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 8)))) for _ in range(n // 3)]
        corpus = {f"d{i:03d}": texts[int(rng.integers(len(texts)))] for i in rng.permutation(n)}
        queries = [texts[0], " ".join(rng.choice(words, size=3)), ""]
        assert rank_queries(p, queries, corpus) == oracle_rank_corpus(p, queries, corpus)


def test_pair_scores_and_rankings_keep_the_former_zero_norm_rule():
    """``EncoderCosineScorer.score_pairs`` and ``rank_queries`` score with ``losses.cosines``,
    whose quotient is set to 0.0 where either norm is 0.0, on texts with no word token (zero
    norms) and texts whose vectors overflow (inf norms; the dot product of two of them sums
    +inf and -inf to NaN). An encoder holds no NaN row, so NaN reaches these call sites only
    so.

    The pair scores equal the former ``np.where(zero, 0.0, dots / np.where(zero, 1.0,
    na * nb))`` bit for bit. The former ranking rule tested the product of the norms for 0.0,
    so the rankings differ from it where a 0.0 norm meets an inf norm: the former product was
    NaN, and so was the score. A table of float32 values gives no inf norm."""
    p = init_encoder(dim=8, vocab_buckets=4096, seed=2)
    ids = featurize_many(["leckt"], 4096).bucket_ids
    p = p.with_rows(ids, 1e200 * np.where(np.arange(len(ids) * 8) % 3, 1.0, -1.0).reshape(-1, 8))
    texts = ["pumpe leckt", "!!!", "filter druck", "", "ventil leckt", "motor heiss", "filter"]
    with np.errstate(over="ignore", invalid="ignore"):  # the overflows and inf - inf
        vecs = encode_batch(p, texts)
        norms = np.sqrt(np.vecdot(vecs, vecs))
        assert (norms == 0.0).sum() == 2 and np.isinf(norms).sum() == 2

        i, j = np.divmod(np.arange(len(texts) ** 2), len(texts))  # every pair of texts
        zero = (norms[i] == 0.0) | (norms[j] == 0.0)
        cos = np.where(zero, 0.0,
                       np.vecdot(vecs[i], vecs[j]) / np.where(zero, 1.0, norms[i] * norms[j]))
        got = pairs.EncoderCosineScorer(p).score_pairs(list(zip(np.take(texts, i).tolist(),
                                                                np.take(texts, j).tolist())))
        assert np.isnan(cos).any() and np.array(got).tobytes() == (10.0 * cos).tobytes()

        corpus = {f"d{k}": text for k, text in enumerate(texts)}  # ids sort as the texts do
        dots = np.vecdot(vecs[None, :, :], vecs[:, None, :])
        products = norms[None, :] * norms[:, None]
        former = np.where(products == 0.0, 0.0, dots / np.where(products == 0.0, 1.0, products))
        either_zero = (norms[None, :] == 0.0) | (norms[:, None] == 0.0)
        assert (either_zero & np.isnan(former)).any()
        order = np.argsort(-np.where(either_zero, 0.0, former), axis=1, kind="stable")
        assert rank_queries(p, texts, corpus) == [[f"d{k}" for k in row] for row in order.tolist()]


def _memo_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "plantsearch.ir_eval"]


def test_rank_queries_logs_memo_hits_and_texts_featurized(caplog):
    p = init_encoder(dim=8, vocab_buckets=64, seed=3)
    corpus = {"a": "pumpe leckt", "b": "kessel druck", "c": "ventil klemmt"}
    other = {"x": "filter verstopft"}
    with caplog.at_level("DEBUG", logger="plantsearch.ir_eval"):
        rank_queries(p, ["pumpe", "kessel"], corpus)
        rank_queries(p, ["ventil"], corpus)  # kept from the first call
        rank_queries(p, ["filter"], other)
        rank_queries(p, ["ventil", "druck"], corpus)  # still kept after another corpus
    assert _memo_lines(caplog) == [
        "rank_queries: corpus memo miss, texts featurized: 5, doc vectors encoded",
        "rank_queries: corpus memo hit, texts featurized: 1, doc vectors held",
        "rank_queries: corpus memo miss, texts featurized: 2, doc vectors encoded",
        "rank_queries: corpus memo hit, texts featurized: 2, doc vectors held"]


def test_corpus_memo_follows_the_table_and_the_texts(caplog):
    rng = np.random.default_rng(9)
    words = [f"wort{i}" for i in range(40)]
    corpus = {f"d{i:02d}": " ".join(rng.choice(words, size=4)) for i in range(30)}
    query = "wort1 wort2 wort3"
    p = init_encoder(dim=16, vocab_buckets=512, seed=5)
    with caplog.at_level("DEBUG", logger="plantsearch.ir_eval"):
        rank_corpus(p, query, corpus)
        before = rank_corpus(p, query, corpus)
        # ``with_rows`` returns a new encoder, so the memo encodes its vectors afresh
        p = p.with_rows(np.arange(512), dense_table(init_encoder(16, 512, seed=6)))
        after = rank_corpus(p, query, corpus)
        # the same texts under other ids, in the same id order: another memo entry
        renamed = {f"x{d}": text for d, text in corpus.items()}
        renamed_ranking = rank_corpus(p, query, renamed)
        changed = dict(corpus, d07=corpus["d07"] + " wort39")
        changed_ranking = rank_corpus(p, query, changed)
    assert before == oracle_rank_corpus(init_encoder(16, 512, 5), [query], corpus)[0]
    assert after != before
    assert after == oracle_rank_corpus(p, [query], corpus)[0]
    assert renamed_ranking == [f"x{d}" for d in after]
    assert changed_ranking == oracle_rank_corpus(p, [query], changed)[0]
    assert [line.split(",")[0] for line in _memo_lines(caplog)] == [
        f"rank_queries: corpus memo {event}" for event in ("miss", "hit", "hit", "miss", "miss")]


def test_corpus_memo_keys_the_mapping_as_given(caplog):
    """The memo keys a corpus by its ids and texts in insertion order, so one corpus in two
    orders, its texts under other ids, and a dict changed in place between calls are each
    their own entry, and each ranks as the per-text oracle does."""
    rng = np.random.default_rng(4)
    words = [f"teil{i}" for i in range(12)]
    corpus = {f"d{i:02d}": " ".join(rng.choice(words, size=3)) for i in rng.permutation(40)}
    corpus["d99"] = corpus["d03"]  # an exact tie, which ascending id breaks
    queries = [corpus["d03"], "teil1 teil2", ""]
    p = init_encoder(dim=16, vocab_buckets=256, seed=8)
    reordered = dict(sorted(corpus.items()))
    renamed = {f"x{d}": text for d, text in reversed(corpus.items())}
    edited = dict(corpus)
    with caplog.at_level("DEBUG", logger="plantsearch.ir_eval"):
        for mapping in (corpus, reordered, renamed, edited, corpus, reordered):
            assert rank_queries(p, queries, mapping) == oracle_rank_corpus(p, queries, mapping)
        # in place: a delete, a new text, and one text moved to a new id
        for change in (lambda d: d.pop("d05"), lambda d: d.update(d07="teil1 teil2"),
                       lambda d: d.update(d40=d.pop("d01"))):
            change(edited)
            assert rank_queries(p, queries, edited) == oracle_rank_corpus(p, queries, edited)
    events = [line.split(",")[0].split()[-1] for line in _memo_lines(caplog)]
    assert events == ["miss", "miss", "miss", "hit", "hit", "hit", "miss", "miss", "miss"]


def test_corpus_memo_holds_the_recent_corpora(caplog):
    """The memo keeps the most recently ranked corpora, as many as its LRU size, by content."""
    p = init_encoder(dim=8, vocab_buckets=64, seed=3)
    size = ir_eval._corpus_pooling.cache_info().maxsize
    corpora = [{"a": f"pumpe {i}", "b": "kessel"} for i in range(size + 1)]
    with caplog.at_level("DEBUG", logger="plantsearch.ir_eval"):
        for corpus in corpora[1:]:
            rank_corpus(p, "pumpe", corpus)
        # the oldest of them and a fresh copy of the newest are kept
        for corpus in (corpora[1], dict(corpora[-1])):
            assert [rank_corpus(p, "pumpe", corpus)] == oracle_rank_corpus(p, ["pumpe"], corpus)
        rank_corpus(p, "pumpe", corpora[0])  # one more corpus evicts the least recent, corpora[2]
        rank_corpus(p, "pumpe", corpora[2])
    events = [line.split(",")[0].split()[-1] for line in _memo_lines(caplog)]
    assert events == ["miss"] * size + ["hit", "hit", "miss", "miss"]
    assert ir_eval._corpus_pooling.cache_info().currsize == size


@pytest.fixture
def encodes(monkeypatch):
    """Every ``encoder.pool`` call of the test, as (count matrix, encoder)."""
    calls = []
    pool = encoder.pool

    def counted(p, matrix):
        calls.append((matrix, p))
        return pool(p, matrix)

    for module in (encoder, ir_eval):
        monkeypatch.setattr(module, "pool", counted)
    return calls


def _prepared(p, corpus):
    return ir_eval._corpus_pooling(p.vocab_buckets, tuple(corpus), tuple(corpus.values()))


def test_corpus_vectors_are_encoded_once_per_encoder(encodes):
    """An encoder encodes a corpus once over many calls; another encoder of the same seed, and
    the encoder that ``with_rows`` returns, each encode their own. Every ranking equals the
    per-text oracle and the path that encodes the corpus on each call."""
    plant = synth.generate_plant(synth.PlantConfig(plant_id="S", seed=7, n_logs=120)).bench
    queries = [q.text for q in plant.queries]
    p = init_encoder(dim=16, vocab_buckets=1024, seed=4)
    twin = init_encoder(dim=16, vocab_buckets=1024, seed=4)
    trained = p.with_rows(np.arange(1024), dense_table(init_encoder(16, 1024, seed=5)))
    for text in queries[:10]:
        assert rank_corpus(p, text, plant.corpus) == oracle_rank_corpus(p, [text], plant.corpus)[0]
    for q in (twin, trained, p, twin, trained):
        ranked = rank_queries(q, queries, plant.corpus)
        assert ranked == oracle_uncached_rank_queries(q, queries, plant.corpus)
        assert ranked == oracle_rank_corpus(q, queries, plant.corpus)
    prepared = _prepared(p, plant.corpus)
    assert [q for matrix, q in encodes if matrix is prepared.matrix] == [p, twin, trained]
    assert p in prepared and twin in prepared and trained in prepared
    assert prepared.vectors(p)[0].tobytes() == prepared.vectors(twin)[0].tobytes()


def test_queries_read_the_corpus_word_table_and_never_add_to_it(monkeypatch):
    """The corpus's featurize pass hashes each of its words once, into the table its memo
    entry holds. Queries made only of corpus words hash no string; a query's other words are
    hashed for that call alone, and the held table stays as it was. Every ranking equals the
    per-text oracle."""
    rng = np.random.default_rng(3)
    words = [f"wort{i}" for i in range(30)] + ["läuft", "über", "öl"]
    corpus = {f"d{i:02d}": " ".join(rng.choice(words, size=5)) for i in range(40)}
    known = ["wort1 wort2", "LÄUFT über wort3 wort3", "Öl", "", "!!!"]
    unknown = ["zylinder wort1", "Ölwanne läuft", "wort99 ärger"]
    p = init_encoder(dim=16, vocab_buckets=512, seed=2)
    want = oracle_rank_corpus(p, known + unknown, corpus)
    hashed = []
    fnv1a_64 = encoder.fnv1a_64
    monkeypatch.setattr(encoder, "fnv1a_64", lambda data: hashed.append(data) or fnv1a_64(data))
    assert rank_queries(p, known, corpus) == want[: len(known)]
    table = _prepared(p, corpus).words
    corpus_words = {w for text in corpus.values() for w in encoder.word_tokens(text)}
    assert set(table) == corpus_words
    assert sorted(hashed) == sorted(f.encode("utf-8") for w in corpus_words
                                    for f in encoder._word_features(w))
    held = {word: list(ids) for word, ids in table.items()}
    hashed.clear()
    assert rank_queries(p, known, corpus) == want[: len(known)]
    assert [rank_corpus(p, text, corpus) for text in known] == want[: len(known)]
    assert hashed == []
    assert rank_queries(p, unknown, corpus) == want[len(known) :]
    assert rank_queries(p, unknown, corpus) == want[len(known) :]
    new = ["zylinder", "ölwanne", "wort99", "ärger"]
    assert sorted(hashed) == sorted(2 * [f.encode("utf-8") for w in new
                                         for f in encoder._word_features(w)])
    assert _prepared(p, corpus).words is table and table == held


def test_a_corpus_holds_one_word_table_per_bucket_count():
    """One corpus ranked at 256 and at 512 buckets is two memo entries, each with the word
    table of its own bucket count, and both rank as the per-text oracle does."""
    plant = synth.generate_plant(synth.PlantConfig(plant_id="S", seed=11, n_logs=80)).bench
    queries = [q.text for q in plant.queries] + ["zylinder pumpe", "Öl läuft über", ""]
    encoders = [init_encoder(dim=16, vocab_buckets=b, seed=1) for b in (256, 512)]
    for _ in range(2):
        for p in encoders:
            assert rank_queries(p, queries, plant.corpus) == oracle_rank_corpus(
                p, queries, plant.corpus)
    small, large = (_prepared(p, plant.corpus).words for p in encoders)
    assert small.keys() == large.keys() and small != large
    for p, table in zip(encoders, (small, large)):
        assert all(max(ids) < p.vocab_buckets for ids in table.values())
    assert ir_eval._corpus_pooling.cache_info().currsize == 2


def test_corpus_drops_the_vectors_of_a_collected_encoder():
    corpus = {"a": "pumpe leckt", "b": "kessel druck"}
    p = init_encoder(dim=8, vocab_buckets=64, seed=3)
    rank_corpus(p, "pumpe", corpus)
    prepared = _prepared(p, corpus)
    assert p in prepared and len(prepared._vectors) == 1
    del p
    gc.collect()
    assert len(prepared._vectors) == 0


def test_held_vectors_and_tables_are_read_only():
    corpus = {"a": "pumpe leckt", "b": "kessel druck"}
    p = init_encoder(dim=8, vocab_buckets=64, seed=3).with_rows(np.array([1, 5]), np.ones((2, 8)))
    rank_corpus(p, "pumpe", corpus)
    prepared = _prepared(p, corpus)
    docs, norms = prepared.vectors(p)
    for array in (docs, norms, prepared.ids, p.trained, p.bucket_ids):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert rank_corpus(p, "pumpe", corpus) == oracle_rank_corpus(p, ["pumpe"], corpus)[0]


def test_a_table_built_from_views_ignores_writes_to_their_bases():
    """A table copies an array that is a view, so a later write to the view's base changes
    neither the table nor the vectors held for it; the caller's base stays writeable."""
    corpus = {"a": "pumpe leckt", "b": "kessel druck"}
    ids, rows = np.array([0, 1, 5, 9]), np.ones((4, 8))
    p = EncoderParams(3, 8, 64, ids[1:3], rows[1:3])
    before = rank_corpus(p, "pumpe", corpus)
    ids[1:3], rows[1:3] = [2, 7], -1.0
    assert p.bucket_ids.tolist() == [1, 5] and (p.trained == 1.0).all()
    assert rank_corpus(p, "pumpe", corpus) == before == oracle_rank_corpus(p, ["pumpe"], corpus)[0]
    assert ids.flags.writeable and rows.flags.writeable


def test_evaluations_share_the_rank_queries_memo(caplog):
    """Three evaluations of a 7-plant benchmark featurize each corpus once, and each plant
    ranks as ``rank_queries`` and the per-text oracle do."""
    bench = Benchmark([
        BenchmarkPlant(f"P{i}", {f"p{i}d{j}": f"teil{i} pumpe {j} {'leckt' * (j % 2)}"
                                 for j in range(5)},
                       [Query(f"p{i}q1", "pumpe leckt"), Query(f"p{i}q2", f"teil{i} 3")],
                       {f"p{i}q1": {f"p{i}d1": 1}, f"p{i}q2": {f"p{i}d3": 2, f"p{i}d0": 0}})
        for i in range(7)])
    encoders = [init_encoder(dim=16, vocab_buckets=256, seed=seed) for seed in (1, 2, 3)]
    with caplog.at_level("DEBUG", logger="plantsearch.ir_eval"):
        reports = [evaluate_run(p, bench) for p in encoders]
    events = [line.split(",")[0].split()[-1] for line in _memo_lines(caplog)]
    assert events.count("miss") == 7 and events.count("hit") == 14
    for p, report in zip(encoders, reports):
        for plant in bench.plants:
            texts = [q.text for q in plant.queries]
            rankings = rank_queries(p, texts, plant.corpus)
            assert rankings == oracle_rank_corpus(p, texts, plant.corpus)
            metrics = [(ap_at_k(r, {d for d, g in plant.qrels[q.query_id].items() if g > 0}, 10),
                        ndcg_at_k(r, plant.qrels[q.query_id], 10))
                       for q, r in zip(plant.queries, rankings)]
            assert report.per_plant[plant.plant_id].map10 == np.mean([m[0] for m in metrics])
            assert report.per_plant[plant.plant_id].ndcg10 == np.mean([m[1] for m in metrics])


def _benchmark():
    return Benchmark(
        plants=[
            BenchmarkPlant(
                plant_id="P1",
                corpus={"d1": "pumpe leckt öl", "d2": "kessel druck hoch", "d3": "ventil klemmt"},
                queries=[Query("q1", "pumpe öl"), Query("q2", "ventil")],
                qrels={"q1": {"d1": 2}, "q2": {"d3": 1}},
            ),
            BenchmarkPlant(
                plant_id="P2",
                corpus={"e1": "filter verstopft", "e2": "motor heiß"},
                queries=[Query("q3", "motor temperatur")],
                qrels={"q3": {"e2": 1, "e1": 0}},
            ),
        ]
    )


def test_benchmark_validate_passes():
    _benchmark().validate()


def test_benchmark_validate_errors():
    b = _benchmark()
    b.plants[1].plant_id = "P1"
    with pytest.raises(ValueError, match="duplicate plant id"):
        b.validate()

    b = _benchmark()
    b.plants[1].corpus["d1"] = "x"
    with pytest.raises(ValueError, match="appears in two plants"):
        b.validate()

    b = _benchmark()
    b.plants[1].queries.append(Query("q1", "x"))
    b.plants[1].qrels["q1"] = {"e1": 1}
    with pytest.raises(ValueError, match="duplicate query id"):
        b.validate()

    b = _benchmark()
    b.plants[0].qrels["q9"] = {"d1": 1}
    with pytest.raises(ValueError, match="unknown query"):
        b.validate()

    b = _benchmark()
    b.plants[0].qrels["q1"]["nope"] = 1
    with pytest.raises(ValueError, match="unknown doc"):
        b.validate()

    b = _benchmark()
    b.plants[0].qrels["q1"]["d2"] = -1
    with pytest.raises(ValueError, match="negative grade"):
        b.validate()

    b = _benchmark()
    b.plants[0].qrels["q1"] = {"d1": 0}
    with pytest.raises(ValueError, match="no relevant document"):
        b.validate()

    b = _benchmark()
    b.plants[1].queries, b.plants[1].qrels = [], {}
    with pytest.raises(ValueError, match="plant 'P2' has no queries"):
        b.validate()


def test_evaluate_run_matches_rank_corpus():
    p = init_encoder(dim=16, vocab_buckets=256, seed=5)
    b = _benchmark()
    report = evaluate_run(p, b)
    # recompute every metric through the public ranking function
    for plant in b.plants:
        aps, rrs, ndcgs = [], [], []
        for q in plant.queries:
            ranking = rank_corpus(p, q.text, plant.corpus)
            grades = plant.qrels[q.query_id]
            relevant = {d for d, g in grades.items() if g > 0}
            aps.append(ap_at_k(ranking, relevant, 10))
            rrs.append(rr_at_k(ranking, relevant, 10))
            ndcgs.append(ndcg_at_k(ranking, grades, 10))
        m = report.per_plant[plant.plant_id]
        assert m.map10 == pytest.approx(np.mean(aps), abs=1e-15)
        assert m.mrr10 == pytest.approx(np.mean(rrs), abs=1e-15)
        assert m.ndcg10 == pytest.approx(np.mean(ndcgs), abs=1e-15)
    # cross-plant means are unweighted over plants, and the headline
    # number is the mean of the three means
    assert report.mean_map10 == pytest.approx(
        np.mean([report.per_plant[p_].map10 for p_ in report.per_plant]), abs=1e-15
    )
    assert report.mean == pytest.approx(
        np.mean([report.mean_map10, report.mean_mrr10, report.mean_ndcg10]), abs=1e-15
    )


def test_evaluations_featurize_each_corpus_once(monkeypatch):
    """Count matrices depend on no table, so evaluations of one benchmark under several
    encoders featurize each plant's corpus once per bucket count."""
    corpus_sizes = []
    featurize = ir_eval.featurize_many
    monkeypatch.setattr(ir_eval, "featurize_many", lambda texts, vocab_buckets, words=None: (
        corpus_sizes.append(len(texts)) or featurize(texts, vocab_buckets, words)))
    b = _benchmark()
    encoders = [init_encoder(dim=16, vocab_buckets=256, seed=seed) for seed in (1, 2, 3)]
    encoders.append(init_encoder(dim=16, vocab_buckets=512, seed=1))
    reports = [asdict(evaluate_run(p, b)) for p in encoders]
    assert corpus_sizes == [3, 2, 3, 2]  # P1 and P2 at 256 buckets, then at 512
    assert reports == [asdict(evaluate_run(p, _benchmark())) for p in encoders]


def test_evaluate_run_empty_benchmark():
    p = init_encoder(dim=8, vocab_buckets=64, seed=0)
    with pytest.raises(ValueError, match="no plants"):
        evaluate_run(p, Benchmark(plants=[]))


def test_report_serialization_and_table():
    p = init_encoder(dim=16, vocab_buckets=256, seed=5)
    report = evaluate_run(p, _benchmark())
    d = asdict(report)
    assert d["note"] == AP_NORMALIZER_NOTE
    assert list(d["per_plant"]) == ["P1", "P2"]  # benchmark order; dumps sort the keys
    table = report.format_table()
    lines = table.splitlines()
    assert lines[0] == f"# {AP_NORMALIZER_NOTE}"
    assert "MAP@10" in lines[1] and "nDCG@10" in lines[1]
    assert lines[-2].startswith("mean")
    assert lines[-1].startswith("Mean")
    # metrics render scaled by 100
    assert f"{100 * report.mean:.2f}" in lines[-1]


def test_qrels_round_trip(tmp_path):
    qrels = {"q2": {"d1": 0, "d3": 2}, "q1": {"d2": 1}}
    path = tmp_path / "qrels.txt"
    save_qrels(qrels, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "q1 0 d2 1"  # sorted, TREC 4-column
    assert load_qrels(path) == qrels


def test_qrels_blank_lines_and_errors(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q1 0 d1 1\n\nq1 0 d2 0\n", encoding="utf-8")
    assert load_qrels(path) == {"q1": {"d1": 1, "d2": 0}}
    bad = tmp_path / "bad.txt"
    bad.write_text("q1 0 d1 1\nq1 d1 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.txt:2: expected 4 fields"):
        load_qrels(bad)


def test_queries_round_trip(tmp_path):
    queries = {
        "P1": [Query("q1", "pumpe öl"), Query("q2", "ventil")],
        "P2": [Query("q3", "motor")],
    }
    path = tmp_path / "queries.jsonl"
    save_queries(queries, path)
    assert load_queries(path) == queries
