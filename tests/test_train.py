import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import (
    dense_table,
    dense_train_biencoder,
    dense_train_docsim,
    oracle_dense_round_trip,
    oracle_np_cosine,
    oracle_pooling_weights,
    oracle_train_biencoder,
    oracle_train_docsim,
)
from plantsearch import encoder, train
from plantsearch.encoder import (
    Featurizer,
    encode,
    featurize_many,
    init_encoder,
    load_encoder,
    save_encoder,
)
from plantsearch.pairs import PairLabel, PairSource, QueryDocPair
from plantsearch.train import (
    BiEncoderConfig,
    DocSimConfig,
    TrainResult,
    _pack_batches,
    effective_lr,
    train_biencoder,
    train_docsim,
)
from plantsearch.triplets import NegKind, Triplet


def test_effective_lr_schedule():
    assert effective_lr(1.0, 1, 4) == 0.25
    assert effective_lr(1.0, 2, 4) == 0.5
    assert effective_lr(1.0, 3, 4) == 0.75
    assert effective_lr(1.0, 4, 4) == 1.0
    assert effective_lr(1.0, 99, 4) == 1.0
    assert effective_lr(0.5, 1, 0) == 0.5  # no warmup
    assert effective_lr(2.0, 10, 1000) == 2.0 * 10 / 1000


def test_config_validation():
    DocSimConfig().validate()
    BiEncoderConfig().validate()
    with pytest.raises(ValueError):
        DocSimConfig(margin=0).validate()
    with pytest.raises(ValueError):
        DocSimConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        BiEncoderConfig(warmup_steps=-1).validate()
    with pytest.raises(ValueError):
        BiEncoderConfig(similarity_scale=0).validate()


def _pair(q, d, label):
    return QueryDocPair(q, d, label, PairSource.SID)


def test_pack_batches_never_repeats_query():
    pairs = [
        _pair("alpha", f"d{i}", PairLabel.POSITIVE) for i in range(4)
    ] + [
        _pair("beta", f"e{i}", PairLabel.POSITIVE) for i in range(2)
    ]
    order = np.arange(len(pairs))
    batches = [[pairs[i] for i in batch] for batch in _pack_batches(pairs, order, batch_size=4)]
    for batch in batches:
        queries = [p.query_text for p in batch]
        assert len(queries) == len(set(queries))
        assert len(batch) <= 4
    flat = [p for b in batches for p in b]
    assert sorted((p.query_text, p.doc_id) for p in flat) == sorted(
        (p.query_text, p.doc_id) for p in pairs
    )
    # four "alpha" rows force at least four batches
    assert len(batches) >= 4


_TEXTS = {
    "a1": "pumpe leckt am flansch dichtung defekt",
    "a2": "pumpe undicht flansch tropft dichtung",
    "b1": "filter verstopft druck steigt kessel",
    "b2": "filter zugesetzt differenzdruck hoch kessel",
    "c1": "ventil klemmt antrieb blockiert",
}


def _docsim_triplets():
    return [
        Triplet("a1", "a2", "b1", NegKind.HARD),
        Triplet("a2", "a1", "b2", NegKind.EASY),
        Triplet("b1", "b2", "a1", NegKind.HARD),
        Triplet("b2", "b1", "c1", NegKind.EASY),
    ]


def test_train_docsim_learns_and_reports():
    p = init_encoder(dim=16, vocab_buckets=512, seed=0)
    cfg = DocSimConfig(margin=1.0, epochs=8, learning_rate=0.5, batch_size=2, rng_seed=4)
    result = train_docsim(p, _docsim_triplets(), _TEXTS, cfg)
    assert isinstance(result, TrainResult)
    assert len(result.epoch_losses) == 8
    assert result.steps == 8 * 2  # 4 triplets / batch 2
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    # the input params are untouched; the result carries the update
    assert not np.array_equal(dense_table(result.params), dense_table(p))
    # paired documents moved together relative to their negatives
    d_pos = np.linalg.norm(
        encode(result.params, _TEXTS["a1"]) - encode(result.params, _TEXTS["a2"])
    )
    d_neg = np.linalg.norm(
        encode(result.params, _TEXTS["a1"]) - encode(result.params, _TEXTS["b1"])
    )
    assert d_pos < d_neg


def test_train_docsim_epochs_zero_and_empty():
    p = init_encoder(dim=8, vocab_buckets=64, seed=1)
    r0 = train_docsim(p, _docsim_triplets(), _TEXTS, DocSimConfig(epochs=0))
    np.testing.assert_array_equal(dense_table(r0.params), dense_table(p))
    r1 = train_docsim(p, [], _TEXTS, DocSimConfig(epochs=3))
    assert r1.steps == 0 and r1.epoch_losses == []


def test_train_docsim_missing_text():
    p = init_encoder(dim=8, vocab_buckets=64, seed=1)
    with pytest.raises(KeyError, match="ghost"):
        train_docsim(p, [Triplet("a1", "ghost", "b1", NegKind.EASY)], _TEXTS, DocSimConfig())


def test_train_docsim_deterministic():
    p = init_encoder(dim=8, vocab_buckets=128, seed=2)
    cfg = DocSimConfig(epochs=3, rng_seed=7)
    r1 = train_docsim(p, _docsim_triplets(), _TEXTS, cfg)
    r2 = train_docsim(p, _docsim_triplets(), _TEXTS, cfg)
    np.testing.assert_array_equal(dense_table(r1.params), dense_table(r2.params))
    assert r1.epoch_losses == r2.epoch_losses


def _biencoder_pairs():
    return [
        _pair("pumpe leckt", "a1", PairLabel.POSITIVE),
        _pair("pumpe leckt", "b1", PairLabel.NEGATIVE),
        _pair("pumpe leckt", "c1", PairLabel.NEGATIVE),
        _pair("filter verstopft", "b1", PairLabel.POSITIVE),
        _pair("filter verstopft", "a2", PairLabel.NEGATIVE),
        _pair("ventil klemmt", "c1", PairLabel.POSITIVE),
    ]


def test_train_biencoder_learns():
    p = init_encoder(dim=16, vocab_buckets=512, seed=3)
    cfg = BiEncoderConfig(epochs=20, batch_size=3, warmup_steps=5,
                          learning_rate=0.3, rng_seed=1)
    result = train_biencoder(p, _biencoder_pairs(), _TEXTS, cfg)
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    assert result.steps >= 20
    trained = result.params
    for query, pos, neg in [
        ("pumpe leckt", "a1", "b1"),
        ("filter verstopft", "b1", "a2"),
    ]:
        s_pos = oracle_np_cosine(encode(trained, query), encode(trained, _TEXTS[pos]))
        s_neg = oracle_np_cosine(encode(trained, query), encode(trained, _TEXTS[neg]))
        assert s_pos > s_neg, query


def test_train_biencoder_requires_positives():
    p = init_encoder(dim=8, vocab_buckets=64, seed=0)
    only_negatives = [_pair("q", "a1", PairLabel.NEGATIVE)]
    with pytest.raises(ValueError, match="no positive pairs"):
        train_biencoder(p, only_negatives, _TEXTS, BiEncoderConfig())


def test_train_biencoder_missing_doc_text():
    p = init_encoder(dim=8, vocab_buckets=64, seed=0)
    rows = [_pair("q", "ghost", PairLabel.POSITIVE)]
    with pytest.raises(KeyError, match="ghost"):
        train_biencoder(p, rows, _TEXTS, BiEncoderConfig())


def test_train_biencoder_warmup_shrinks_early_updates():
    p = init_encoder(dim=8, vocab_buckets=256, seed=5)
    pairs = _biencoder_pairs()
    hot = BiEncoderConfig(epochs=1, batch_size=3, warmup_steps=0,
                          learning_rate=0.5, rng_seed=2)
    cold = BiEncoderConfig(epochs=1, batch_size=3, warmup_steps=10_000,
                           learning_rate=0.5, rng_seed=2)
    moved_hot = np.abs(
        dense_table(train_biencoder(p, pairs, _TEXTS, hot).params) - dense_table(p)
    ).sum()
    moved_cold = np.abs(
        dense_table(train_biencoder(p, pairs, _TEXTS, cold).params) - dense_table(p)
    ).sum()
    assert moved_cold < moved_hot / 100


def test_train_biencoder_deterministic():
    p = init_encoder(dim=8, vocab_buckets=128, seed=6)
    cfg = BiEncoderConfig(epochs=2, batch_size=2, warmup_steps=2, rng_seed=3)
    r1 = train_biencoder(p, _biencoder_pairs(), _TEXTS, cfg)
    r2 = train_biencoder(p, _biencoder_pairs(), _TEXTS, cfg)
    np.testing.assert_array_equal(dense_table(r1.params), dense_table(r2.params))


def test_train_biencoder_epochs_zero(monkeypatch):
    """No epoch returns the start params before any text is featurized, but after the check
    that every document has a text."""
    featurized = []
    monkeypatch.setattr(encoder, "featurize_many", lambda *args: featurized.append(args))
    p = init_encoder(dim=8, vocab_buckets=64, seed=1)
    features = Featurizer(64)
    result = train_biencoder(p, _biencoder_pairs(), _TEXTS, BiEncoderConfig(epochs=0), features)
    np.testing.assert_array_equal(dense_table(result.params), dense_table(p))
    assert result.steps == 0
    result = train_biencoder(p, _biencoder_pairs(), _TEXTS, BiEncoderConfig(epochs=0))
    assert result.steps == 0 and result.params is p
    assert featurized == [] and features.requested == features.distinct == 0
    with pytest.raises(KeyError, match="ghost"):
        train_biencoder(p, [_pair("q", "ghost", PairLabel.POSITIVE)], _TEXTS,
                        BiEncoderConfig(epochs=0))


def _assert_matches_oracle(got, want):
    """Batched gemms sum in another order than the per-text loops: a few float64 ulps."""
    fast, slow = dense_table(got.params), want.table
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)
    # .gemb stores float32, where that drift vanishes
    assert fast.astype("<f4").tobytes() == slow.astype("<f4").tobytes()
    assert len(got.epoch_losses) == len(want.epoch_losses)
    np.testing.assert_allclose(got.epoch_losses, want.epoch_losses, rtol=0, atol=1e-12)
    assert got.steps == want.steps


def _random_corpus(rng, n_docs):
    words = ["pumpe", "leckt", "flansch", "dichtung", "filter", "druck", "kessel", "ventil",
             "klemmt", "antrieb", "motor", "lager", "heiss", "welle", "sensor", "ausfall"]
    texts = {f"r{i}": " ".join(rng.choice(words, size=int(rng.integers(1, 12))))
             for i in range(n_docs)}
    texts["e1"], texts["e2"] = "", "!!!"  # texts without word tokens
    return texts


@pytest.mark.parametrize("epochs", [0, 3])
def test_docsim_matches_per_text_oracle(epochs):
    rng = np.random.default_rng(epochs)
    texts = dict(_TEXTS, **_random_corpus(rng, 30))
    ids = sorted(texts)
    # a1 repeats across triplets and as its own positive (a zero distance); e1/e2 are empty
    fixed = _docsim_triplets() + [Triplet("e1", "a1", "e2", NegKind.EASY),
                                           Triplet("a1", "a1", "b1", NegKind.HARD)]
    drawn = [Triplet(*rng.choice(ids, size=3), NegKind.EASY) for _ in range(60)]
    for dim, buckets, batch_size, lr, margin in [(8, 64, 2, 0.5, 1.0), (16, 256, 16, 0.3, 0.5),
                                                 (5, 32, 1, 0.2, 2.0)]:
        p = init_encoder(dim=dim, vocab_buckets=buckets, seed=dim)  # few buckets: shared rows
        triplets = fixed + drawn
        cfg = DocSimConfig(margin=margin, epochs=epochs, learning_rate=lr,
                           batch_size=batch_size, rng_seed=dim)
        got = train_docsim(p, triplets, texts, cfg)
        _assert_matches_oracle(got, oracle_train_docsim(dense_table(p), triplets, texts, cfg))
        if epochs:
            assert not np.array_equal(dense_table(got.params), dense_table(p))


@pytest.mark.parametrize("epochs", [0, 3])
def test_biencoder_matches_per_text_oracle(epochs):
    rng = np.random.default_rng(epochs)
    texts = dict(_TEXTS, **_random_corpus(rng, 30))
    docs = sorted(d for d in texts if d not in ("e1", "e2"))  # zero-norm rows are an MNR error
    queries = ["pumpe leckt", "filter verstopft", "ventil klemmt", "motor heiss", "lager welle"]
    # label-0 docs join their query's batch as extra negative columns, some already in it
    pairs = _biencoder_pairs() + [_pair("filter verstopft", "a1", PairLabel.POSITIVE)] + [
        _pair(str(rng.choice(queries)), str(rng.choice(docs)),
              PairLabel.POSITIVE if rng.random() < 0.6 else PairLabel.NEGATIVE)
        for _ in range(40)
    ]
    for dim, buckets, batch_size in [(8, 64, 3), (16, 256, 8), (5, 32, 64)]:
        start = init_encoder(dim=dim, vocab_buckets=buckets, seed=dim)
        cfg = BiEncoderConfig(epochs=epochs, batch_size=batch_size, warmup_steps=2,
                              learning_rate=0.3, rng_seed=dim)
        got = train_biencoder(start, pairs, texts, cfg)
        _assert_matches_oracle(got, oracle_train_biencoder(dense_table(start), pairs, texts, cfg))
        if epochs:
            assert not np.array_equal(dense_table(got.params), dense_table(start))


def test_run_counts_give_the_former_batch_weights():
    """Each batch's weights from a run's ``encoder.count_matrix``, ``counts[rows] /
    totals[rows, None]`` as ``train._fit`` forms them, equal the former scatter
    (``oracle_pooling_weights`` over the compact matrix and every column of the run) byte for
    byte: batches that hold every column or some, repeated rows, texts with no word token, and
    a bucket count above 255, which needs uint16 counts."""
    rng = np.random.default_rng(12)
    words = ["pumpe", "leckt", "filter", "druck", "ventil", "lager", "motor", "welle"]
    texts = ["", "!!!"] + [" ".join(rng.choice(words, size=int(rng.integers(1, 8))))
                           for _ in range(40)]
    kinds = Counter()
    for vocab_buckets, extra, dtype in [(64, [], np.uint8), (2**16, [], np.uint8),
                                        (2**16, ["motor " * 300], np.uint16)]:
        fm = featurize_many(texts + extra, vocab_buckets)
        counts, totals, buckets = encoder.count_matrix(fm)
        compact, want_buckets = fm.compact()
        assert buckets.tobytes() == want_buckets.tobytes()
        assert counts.dtype == dtype and counts.shape == (len(texts + extra), len(buckets))
        n = len(counts)
        batches = [np.arange(n), np.arange(n)[::-1], np.array([0, 1]), np.array([0, 0, 1]),
                   np.array([], dtype=np.int64), np.array([n - 1, n - 1])] + [
            rng.integers(0, n, size=int(rng.integers(1, 3 * n))) for _ in range(30)]
        for rows in batches:
            w = counts[rows] / totals[rows, None]
            _, want = oracle_pooling_weights(compact, rows, np.arange(len(buckets)))
            assert w.shape == want.shape and w.tobytes() == want.tobytes()
            kinds["whole" if counts[rows].any(0).all() else "partial"] += 1
    assert min(kinds["whole"], kinds["partial"]) >= 3, kinds


def test_biencoder_run_holds_no_float64_texts_by_buckets_matrix():
    """A bi-encoder run over 2,000 texts and 2,000 compact buckets peaks below one float64
    texts x buckets matrix: the run holds its counts as uint8 and drops its int64 feature
    matrix before the first batch. The texts are dense (a fifth of the buckets each) and the
    batches wide, so the feature matrix held through the loop would cross the line too."""
    rng = np.random.default_rng(5)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lexicon = ["".join(rng.choice(letters, size=int(rng.integers(4, 9)))) for _ in range(3000)]
    texts = {f"d{i}": " ".join(rng.choice(lexicon, size=70)) for i in range(1000)}
    pairs = [_pair(" ".join(rng.choice(lexicon, size=70)), d, PairLabel.POSITIVE) for d in texts]
    all_texts = list(texts.values()) + [pr.query_text for pr in pairs]
    features = Featurizer(2048)
    n_texts, n_buckets = len(set(all_texts)), len(np.unique(
        features.take(all_texts, 2048).bucket_ids))  # held before tracing starts
    assert n_texts >= 2000 and n_buckets >= 2000
    cfg = BiEncoderConfig(epochs=1, batch_size=384, warmup_steps=0)
    tracemalloc.start()
    try:
        result = train_biencoder(init_encoder(dim=8, vocab_buckets=2048, seed=2), pairs, texts,
                                 cfg, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.steps == 3
    assert peak < n_texts * n_buckets * 8, (peak, n_texts * n_buckets * 8)


def _assert_compact_equals_whole_table(tmp_path, rng, texts, dim, buckets, batch_sizes=(4, 8)):
    """Training on the gathered rows of its texts' buckets equals training on the whole table
    bit for bit, for docsim, for the bi-encoder, and for the bi-encoder from the docsim table
    saved and read back (its float32-rounded start)."""
    ids = sorted(texts)
    triplets = _docsim_triplets() + [
        Triplet(*rng.choice(ids, size=3), NegKind.EASY) for _ in range(60)]
    docs = sorted(d for d in texts if d not in ("e1", "e2"))
    queries = ["pumpe leckt", "filter verstopft", "ventil klemmt", "motor heiss"]
    pairs = _biencoder_pairs() + [
        _pair(str(rng.choice(queries)), str(rng.choice(docs)),
              PairLabel.POSITIVE if rng.random() < 0.6 else PairLabel.NEGATIVE)
        for _ in range(40)
    ]
    dcfg = DocSimConfig(margin=0.5, epochs=3, learning_rate=0.3, batch_size=batch_sizes[0],
                        rng_seed=dim)
    bcfg = BiEncoderConfig(epochs=3, batch_size=batch_sizes[1], warmup_steps=2,
                           learning_rate=0.3, rng_seed=dim)
    p = init_encoder(dim=dim, vocab_buckets=buckets, seed=dim)
    start = dense_table(p)

    def same(got, want):
        assert dense_table(got.params).tobytes() == want.table.tobytes()
        assert got.epoch_losses == want.epoch_losses and got.steps == want.steps

    docsim = train_docsim(p, triplets, texts, dcfg)
    dense_docsim = dense_train_docsim(start, triplets, texts, dcfg)
    same(docsim, dense_docsim)
    same(train_biencoder(p, pairs, texts, bcfg), dense_train_biencoder(start, pairs, texts, bcfg))
    save_encoder(docsim.params, tmp_path / "docsim.gemb", tmp_path / "docsim.json")
    rounded = oracle_dense_round_trip(dense_docsim.table, tmp_path / "whole.gemb")
    same(train_biencoder(load_encoder(tmp_path / "docsim.gemb", tmp_path / "docsim.json"),
                         pairs, texts, bcfg),
         dense_train_biencoder(rounded, pairs, texts, bcfg))


@pytest.mark.parametrize("dim, buckets", [(8, 64), (5, 32), (64, 1 << 16)])
def test_compact_training_equals_whole_table_training(tmp_path, dim, buckets):
    rng = np.random.default_rng(dim)
    _assert_compact_equals_whole_table(tmp_path, rng, dict(_TEXTS, **_random_corpus(rng, 30)),
                                       dim, buckets)


def test_compact_training_equals_whole_table_training_on_a_wide_run(tmp_path):
    """A run of several hundred buckets whose batches of dozens of texts each miss some: each
    step's gemm runs over every bucket of the run, as the whole-table oracle's do. OpenBLAS
    sums a gemm of this size in blocks along the buckets, so a gemm over only a batch's own
    buckets moves the last bits; the small gemms of the runs above sum in one pass either
    way."""
    rng = np.random.default_rng(41)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lexicon = ["".join(rng.choice(letters, size=int(rng.integers(4, 9)))) for _ in range(80)]
    texts = dict(_TEXTS, **_random_corpus(rng, 10), **{
        f"w{i}": " ".join(rng.choice(lexicon, size=int(rng.integers(2, 10)))) for i in range(40)})
    n_buckets = len(np.unique(featurize_many(list(texts.values()), 1 << 16).bucket_ids))
    assert n_buckets >= 600, n_buckets
    _assert_compact_equals_whole_table(tmp_path, rng, texts, 64, 1 << 16, (16, 16))


def test_training_logs_per_epoch_diagnostics(caplog):
    """Both stages log one line per epoch in the shared loop's format: the epoch's mean loss,
    its active items, its steps and its widest batch."""
    p = init_encoder(dim=8, vocab_buckets=64, seed=4)
    # margin 0.15 keeps the four fixture hinges active and a1 -> a1 -> b1 inactive
    triplets = _docsim_triplets() + [Triplet("a1", "a1", "b1", NegKind.HARD)]
    with caplog.at_level("DEBUG", logger="plantsearch.train"):
        train_docsim(p, triplets, _TEXTS, DocSimConfig(margin=0.15, epochs=2, batch_size=3))
        train_biencoder(p, _biencoder_pairs(), _TEXTS,
                        BiEncoderConfig(epochs=1, batch_size=2, rng_seed=1))
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 3
    shared = (r"(?P<stage>\S+) epoch (?P<epoch>\d) mean loss \S+, (?P<active>\d) of (?P<n>\d) "
              r"(?P<items>[a-z ]+) active, (?P<steps>\d) steps, "
              r"widest batch (?P<texts>\d+) texts x \d+ table rows")
    for epoch, line in enumerate(lines[:2]):
        m = re.fullmatch(shared, line)
        # five triplets in batches of three and two, each pooling three texts per triplet
        assert m and (m["stage"], m["epoch"], m["n"], m["items"], m["steps"]) == (
            "docsim", str(epoch), "5", "triplets", "2"), line
        assert 1 <= int(m["active"]) <= 4 and m["texts"] in ("6", "9"), line
    # three positives with distinct queries, two per batch; the first batch pools two
    # queries, their two positives and both label-0 docs of "pumpe leckt"
    m = re.fullmatch(shared, lines[2])
    assert m and (m["stage"], m["epoch"], m["active"], m["n"], m["items"], m["steps"],
                  m["texts"]) == ("bi-encoder", "0", "3", "3", "positive pairs", "2", "6"), lines[2]
