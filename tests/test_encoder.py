import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import (
    dense_table,
    feature_row,
    oracle_dense_round_trip,
    oracle_fnv1a_64,
    oracle_init_table,
    oracle_unique_pooling_weights,
)
from plantsearch import encoder
from plantsearch.encoder import (
    EncoderParams,
    encode,
    encode_batch,
    feature_strings,
    featurize,
    featurize_many,
    fnv1a_64,
    init_encoder,
    load_encoder,
    save_encoder,
    word_tokens,
)


def test_fnv1a_64_published_vectors():
    # Reference values from the FNV specification's test suite.
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_fnv1a_64_matches_independent_implementation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        data = bytes(rng.integers(0, 256, size=rng.integers(0, 40)).tolist())
        assert fnv1a_64(data) == oracle_fnv1a_64(data)


def test_word_tokens_lowercase_umlauts():
    assert word_tokens("Lömi LECKT, am Flansch-7!") == ["lömi", "leckt", "am", "flansch", "7"]
    assert word_tokens("...") == []


def test_feature_strings_hand_count():
    # "<lömi>" has 6 chars -> 4 trigrams; "<leckt>" has 7 -> 5 trigrams.
    feats = feature_strings("Lömi leckt")
    assert feats == [
        "<lömi>", "<lö", "löm", "ömi", "mi>",
        "<leckt>", "<le", "lec", "eck", "ckt", "kt>",
    ]
    assert len(feats) == 11


def test_featurize_counts_multiplicity():
    # "<ab>" contributes itself plus trigrams "<ab" and "ab>": 3 features.
    tf = featurize("ab", vocab_buckets=2**16)
    assert tf.total == 3
    tf2 = featurize("ab ab", vocab_buckets=2**16)
    assert tf2.total == 6
    assert int(tf2.counts.sum()) == 6
    np.testing.assert_array_equal(tf2.counts, 2 * tf.counts)
    np.testing.assert_array_equal(tf2.bucket_ids, tf.bucket_ids)
    assert np.all(np.diff(tf2.bucket_ids) > 0)


def test_featurize_empty_text():
    tf = featurize("!!!", vocab_buckets=16)
    assert tf.total == 0
    assert tf.bucket_ids.size == 0


@pytest.mark.parametrize("vocab_buckets", [7, 256, 2**16])
def test_featurize_many_rows_equal_featurize(vocab_buckets):
    texts = [
        "Pumpe leckt am Flansch, Pumpe tropft",
        "",
        "!!! ... ,;",
        "Lömi ÄRGER über Öl-Straße",
        "ab ab ab cd",
        "Pumpe leckt am Flansch, Pumpe tropft",
        "x",
    ]
    fm = featurize_many(texts, vocab_buckets)
    assert len(fm.totals) == len(texts)
    assert fm.indptr[0] == 0 and fm.indptr[-1] == len(fm.bucket_ids) == len(fm.counts)
    for arr in (fm.indptr, fm.bucket_ids, fm.counts, fm.totals):
        assert arr.dtype == np.int64
    for i, text in enumerate(texts):
        want = featurize(text, vocab_buckets)
        got = feature_row(fm, i)
        np.testing.assert_array_equal(got.bucket_ids, want.bucket_ids)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got.total == want.total
        # and against the independent hash over the feature multiset
        expected = Counter(
            oracle_fnv1a_64(f.encode("utf-8")) % vocab_buckets for f in feature_strings(text)
        )
        assert dict(zip(got.bucket_ids.tolist(), got.counts.tolist())) == expected
        assert got.total == sum(expected.values())
    assert feature_row(fm, 1).total == 0 and feature_row(fm, 2).total == 0
    assert len(featurize_many([], vocab_buckets).totals) == 0


def _same_matrix(got, want):
    for key in ("indptr", "bucket_ids", "counts", "totals"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key


def test_featurizer_takes_featurize_many_rows_featurizing_each_text_once(monkeypatch):
    """Every take equals ``featurize_many`` of its texts, array for array, and featurizes in one
    call only the texts no earlier take held."""
    texts = ["Pumpe leckt am Flansch", "", "!!!", "Lömi ÄRGER über Öl", "ab ab cd", "x y"]
    calls = []

    def counted(batch, vocab_buckets):
        calls.append(list(batch))
        return featurize_many(batch, vocab_buckets)

    monkeypatch.setattr(encoder, "featurize_many", counted)
    features = encoder.Featurizer(64)
    for take in (texts[2:4] + texts[2:3], texts[:0], texts[::-1], texts[4:] + ["neu"]):
        _same_matrix(features.take(take, 64), featurize_many(take, 64))
    assert calls == [texts[2:4], ["x y", "ab ab cd", "", "Pumpe leckt am Flansch"],
                     ["neu"]]
    assert features.distinct == 7 and features.requested == 3 + 0 + 6 + 3
    with pytest.raises(ValueError, match="128 buckets"):
        features.take(texts, 128)


def test_feature_matrix_take_equals_featurize_many_of_those_texts():
    texts = ["Pumpe leckt", "", "Filter Filter verstopft", "ab", "Pumpe leckt"]
    fm = featurize_many(texts, 32)
    for rows in ([], [1], [4, 0, 0, 2], [3, 1, 2]):
        _same_matrix(fm.take(np.array(rows, dtype=np.int64)),
                     featurize_many([texts[i] for i in rows], 32))


def test_encode_is_mean_of_feature_rows():
    p = init_encoder(dim=4, vocab_buckets=64, seed=1)
    text = "ab cd ab"
    tf = featurize(text, 64)
    expected = np.zeros(4)
    table = dense_table(p)
    for bucket, count in zip(tf.bucket_ids, tf.counts):
        expected += count * table[bucket]
    expected /= tf.total
    np.testing.assert_allclose(encode(p, text), expected, rtol=0, atol=1e-15)


def test_encode_empty_text_is_zero():
    p = init_encoder(dim=4, vocab_buckets=64, seed=1)
    np.testing.assert_array_equal(encode(p, " .,! "), np.zeros(4))


def test_encode_batch_matches_loop():
    """A gemm sums in another order than the per-text encode: rows agree within 1e-12."""
    p = init_encoder(dim=8, vocab_buckets=256, seed=3)
    texts = ["Pumpe leckt", "", "Filter verstopft am Ventil", "Pumpe leckt"]
    batch = encode_batch(p, texts)
    for i, text in enumerate(texts):
        np.testing.assert_allclose(batch[i], encode(p, text), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(batch[1], np.zeros(8))
    assert encode_batch(p, []).shape == (0, 8)


def test_encode_batch_equal_pooling_rows_are_bit_identical_across_blocks():
    """Texts with equal pooling weights share one row, even when the rows span many gemm blocks."""
    rng = np.random.default_rng(11)
    words = [f"w{i}x{j}" for i in range(400) for j in range(3)]
    base = [" ".join(rng.choice(words, size=int(rng.integers(1, 12)))) for _ in range(300)]
    texts = base + [base[0], " ".join(reversed(base[1].split())), f"{base[2]} {base[2]}"]
    p = init_encoder(dim=16, vocab_buckets=1 << 16, seed=2)
    pooling = featurize_many(texts, p.vocab_buckets).pooling()
    assert len(pooling.blocks) > 1
    batch = encode_batch(p, texts)
    for copy, original in ((300, 0), (301, 1), (302, 2)):
        np.testing.assert_array_equal(batch[copy], batch[original])
    for i in range(0, len(texts), 37):
        np.testing.assert_allclose(batch[i], encode(p, texts[i]), rtol=0, atol=1e-12)


def test_init_encoder_distribution_and_determinism():
    p1 = init_encoder(dim=16, vocab_buckets=4096, seed=5)
    p2 = init_encoder(dim=16, vocab_buckets=4096, seed=5)
    np.testing.assert_array_equal(dense_table(p1), dense_table(p2))
    std = dense_table(p1).std()
    assert abs(std - 1 / 4.0) < 0.01  # target sigma = 1/sqrt(16)
    assert abs(dense_table(p1).mean()) < 0.01
    p3 = init_encoder(dim=16, vocab_buckets=4096, seed=6)
    assert not np.array_equal(dense_table(p1), dense_table(p3))


def test_init_encoder_validation():
    with pytest.raises(ValueError):
        init_encoder(dim=1)
    with pytest.raises(ValueError):
        init_encoder(dim=8, vocab_buckets=0)
    for vocab_buckets in (0, encoder.MAX_VOCAB_BUCKETS + 1):
        with pytest.raises(ValueError, match=f"vocab_buckets must be in .*, got {vocab_buckets}"):
            init_encoder(dim=8, vocab_buckets=vocab_buckets)
        with pytest.raises(ValueError, match=f"vocab_buckets must be in .*, got {vocab_buckets}"):
            featurize_many(["pumpe leckt"], vocab_buckets)
    init_encoder(dim=8, vocab_buckets=encoder.MAX_VOCAB_BUCKETS)
    with pytest.raises(ValueError):
        EncoderParams(0, 2, 8, np.array([1, 2]), np.zeros((4, 2)))  # 4 rows for 2 bucket ids


def test_bucket_distribution_uniformity():
    """Chi-squared test of hashed feature ids against the uniform law.

    255 degrees of freedom: mean 255, sd ~ 22.6; anything under 400
    is easily consistent with uniform hashing, while a systematically
    biased hash blows past it.
    """
    buckets = 256
    rng = np.random.default_rng(11)
    letters = "abcdefghijklmnopqrstuvwxyzäöüß"
    counts = np.zeros(buckets)
    n = 25600
    for _ in range(n):
        word = "".join(rng.choice(list(letters), size=rng.integers(3, 10)))
        counts[fnv1a_64(f"<{word}>".encode()) % buckets] += 1
    expected = n / buckets
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 400, f"chi2={chi2:.1f} suggests biased bucket assignment"


def test_save_load_round_trip(tmp_path):
    p = init_encoder(dim=6, vocab_buckets=128, seed=9)
    save_encoder(p, tmp_path / "enc.gemb", tmp_path / "enc.json")
    back = load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")
    assert back.vocab_buckets == 128
    assert back.dim == 6
    # training runs in float64 and .gemb stores float32: one rounding, then a fixed point
    assert dense_table(back).dtype == np.float64
    np.testing.assert_array_equal(dense_table(back), dense_table(p).astype("<f4"))
    save_encoder(back, tmp_path / "again.gemb", tmp_path / "again.json")
    assert (tmp_path / "again.gemb").read_bytes() == (tmp_path / "enc.gemb").read_bytes()
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "enc.json").read_bytes()


@pytest.mark.parametrize("seed", [0, 7])
def test_saved_rows_load_as_the_whole_rounded_table(tmp_path, seed):
    """A table saved as its seed plus its held rows loads as the whole table written to one
    .gemb and read back, value for value, whether it starts fresh or read from disk."""
    rng = np.random.default_rng(seed)
    fresh = init_encoder(dim=8, vocab_buckets=300, seed=seed)
    want = oracle_init_table(seed, 8, 300)
    assert dense_table(fresh).tobytes() == want.tobytes()
    ids = np.sort(rng.choice(300, size=40, replace=False))
    rows = rng.normal(size=(40, 8))
    rows[::5] = dense_table(fresh)[ids[::5]]  # set, but not changed: not held
    trained = fresh.with_rows(ids, rows)
    want[ids] = rows
    assert trained.bucket_ids.tolist() == [b for i, b in enumerate(ids.tolist()) if i % 5]
    assert dense_table(trained).tobytes() == want.tobytes()
    save_encoder(trained, tmp_path / "enc.gemb", tmp_path / "enc.json")
    back = load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")
    whole = oracle_dense_round_trip(want, tmp_path / "whole.gemb")
    assert dense_table(back).tobytes() == whole.tobytes()
    assert (tmp_path / "enc.gemb").stat().st_size == 16 + 4 * 8 * 32  # the 32 held rows only
    # a loaded table trains on from its rounded rows and saves them rounded once
    more = back.with_rows(ids[:3], rows[:3] + 1.0)
    whole[ids[:3]] = rows[:3] + 1.0
    save_encoder(more, tmp_path / "more.gemb", tmp_path / "more.json")
    again = load_encoder(tmp_path / "more.gemb", tmp_path / "more.json")
    assert dense_table(again).tobytes() == oracle_dense_round_trip(
        whole, tmp_path / "whole2.gemb").tobytes()


def test_init_memo_draws_each_table_once(tmp_path, caplog):
    """Each init block is drawn once per seed, whatever table size reads it; the memo holds the
    last seed's blocks only, read-only."""
    p = init_encoder(dim=8, vocab_buckets=256, seed=11)
    with caplog.at_level("DEBUG", logger="plantsearch.encoder"):
        first = p.rows(np.array([3, 1, 3]))  # block 0
        save_encoder(p.with_rows(np.array([5]), np.ones((1, 8))),  # row 5: block 0 again
                     tmp_path / "enc.gemb", tmp_path / "enc.json")
        for _ in range(2):  # loading the same seed again draws the other 15 blocks once
            load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json").rows(np.arange(256))
        init_encoder(dim=8, vocab_buckets=4096, seed=11).rows(np.array([300, 40, 301]))
        init_encoder(dim=8, vocab_buckets=256, seed=12).rows(np.array([0]))
    lines = [r.getMessage() for r in caplog.records]
    draws = [line.split(" in ")[0] for line in lines if "drew" in line]
    assert draws == ["encoder init seed 11: drew 1 blocks", "encoder init seed 11: drew 15 blocks",
                     "encoder init seed 11: drew 1 blocks", "encoder init seed 12: drew 1 blocks"]
    assert "saved encoder " + str(tmp_path / "enc.gemb") + ": 1 of 256 rows held" in lines
    memo = encoder._init_memo  # the last seed's one block, read-only
    assert memo.key == (12, 8) and np.flatnonzero(memo.start >= 0).tolist() == [0]
    assert memo.rows.shape == (16, 8) and not memo.rows.flags.writeable
    first[:] = 0.0  # rows come out as a copy
    np.testing.assert_array_equal(p.rows(np.array([3, 1])), oracle_init_table(11, 8, 256)[[3, 1]])


@pytest.mark.parametrize("seed", range(6))
def test_rows_equal_the_block_oracle_in_any_read_order(seed):
    """Init rows equal the block oracle for any ids, repeated and unsorted, any table size above
    them and any order of reads, also when reads of another seed or dim drop the memo between."""
    rng = np.random.default_rng(seed)
    dim, top = int(rng.integers(2, 9)), int(rng.integers(1, 700))
    want = {key: oracle_init_table(*key, top) for key in ((seed, dim), (seed + 1, dim),
                                                          (seed, dim + 1))}
    for _ in range(12):
        key = list(want)[0] if rng.random() < 0.6 else list(want)[int(rng.integers(1, 3))]
        u = rng.integers(0, top, size=int(rng.integers(0, 60)))
        p = init_encoder(key[1], int(rng.integers(u.max(initial=0) + 1, 2 * top + 2)), key[0])
        got = p.rows(u)
        assert got.shape == (len(u), key[1]) and got.tobytes() == want[key][u].tobytes()
    assert dense_table(init_encoder(dim, top, seed)).tobytes() == want[seed, dim].tobytes()


def test_scattered_rows_allocate_their_blocks_not_the_table():
    """532 scattered rows of a 65,536 x 64 table (the trained-row count at seed 7) allocate
    the 8 KiB blocks they fall in and their own copy, not the 32 MiB table."""
    u = np.random.default_rng(7).choice(1 << 16, size=532, replace=False)
    blocks = len(np.unique(u // 16))
    p = init_encoder(dim=64, vocab_buckets=1 << 16, seed=7)
    tracemalloc.start()
    try:
        got = p.rows(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == oracle_init_table(7, 64, 1 << 16)[u].tobytes()
    assert peak < blocks * 16 * 64 * 8 + (1 << 19) and peak < 5 << 20


def test_held_rows_read_without_an_init_draw(tmp_path):
    ids, rows = np.array([2, 5, 9]), np.arange(24.0).reshape(3, 8)
    trained = init_encoder(dim=8, vocab_buckets=256, seed=11).with_rows(ids, rows)
    save_encoder(trained, tmp_path / "enc.gemb", tmp_path / "enc.json")
    encoder._init_memo = None
    loaded = load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")
    for p in (trained, loaded):
        got = p.rows(np.array([9, 2, 9]))
        assert got.dtype == np.float64 and got.tobytes() == rows[[2, 0, 2]].tobytes()
        got[:] = 0.0  # rows come out as a copy
        assert p.rows(ids).tobytes() == rows.tobytes()
    assert encoder._init_memo is None
    loaded.rows(np.array([2, 3]))  # row 3 is not held: its init row needs its block
    assert np.flatnonzero(encoder._init_memo.start >= 0).tolist() == [0]


def test_encoder_header_pins_mean_pooling(tmp_path):
    p = init_encoder(dim=4, vocab_buckets=16, seed=0)
    save_encoder(p, tmp_path / "enc.gemb", tmp_path / "enc.json")
    header = (tmp_path / "enc.json").read_text(encoding="utf-8")
    assert header == ('{"bucket_ids": [], "dim": 4, "hash_algo": "fnv1a-64", '
                      '"init": "gaussian-block16", "pooling": "mean", "seed": 0, '
                      '"vocab_buckets": 16}\n')
    load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")
    (tmp_path / "enc.json").write_text(header.replace('"mean"', '"max"'), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported pooling 'max'"):
        load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")


def test_load_encoder_rejects_unknown_hash(tmp_path):
    p = init_encoder(dim=4, vocab_buckets=16, seed=0)
    save_encoder(p, tmp_path / "enc.gemb", tmp_path / "enc.json")
    header = (tmp_path / "enc.json").read_text().replace("fnv1a-64", "md5")
    (tmp_path / "enc.json").write_text(header)
    with pytest.raises(ValueError):
        load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")


@pytest.mark.parametrize("init", [None, "gaussian", "gaussian-block32"])
def test_load_encoder_rejects_another_init_scheme(tmp_path, init):
    """A header without the block init scheme, as encoders were written before it, would read
    as another table."""
    p = init_encoder(dim=4, vocab_buckets=16, seed=0)
    save_encoder(p, tmp_path / "enc.gemb", tmp_path / "enc.json")
    header = json.loads((tmp_path / "enc.json").read_text(encoding="utf-8"))
    if init is None:
        del header["init"]
    else:
        header["init"] = init
    (tmp_path / "enc.json").write_text(json.dumps(header), encoding="utf-8")
    with pytest.raises(ValueError, match=f"unsupported init scheme {init!r}"):
        load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")


def test_pooling_weights_mask_equals_unique_form():
    """The presence-mask ``u`` and ``W`` equal the ``np.unique`` form's, byte for byte, on
    compacted matrices with empty, one-bucket and repeated texts."""
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        ids, counts, indptr, totals = [], [], [0], []
        for _ in range(n):
            width = int(rng.choice([0, 1, int(rng.integers(2, 40))]))
            ids.extend(np.sort(rng.choice(2**16, size=width, replace=False)).tolist())
            text_counts = rng.integers(1, 5, size=width).tolist()
            counts.extend(text_counts)
            totals.append(sum(text_counts))
            indptr.append(len(ids))
        fm = encoder.FeatureMatrix(*(np.array(a, dtype=np.int64)
                                     for a in (indptr, ids, counts, totals)))
        compact, _ = fm.compact()
        rows = rng.integers(0, n, size=int(rng.integers(0, 3 * n)))  # repeats allowed
        for m in (fm, compact):
            u, w = m.pooling_weights(rows)
            want_u, want_w = oracle_unique_pooling_weights(m, rows)
            assert u.dtype == want_u.dtype and u.tobytes() == want_u.tobytes(), trial
            assert w.shape == want_w.shape and w.tobytes() == want_w.tobytes(), trial


def test_pooling_weights_of_batches_that_cover_every_bucket_or_miss_some():
    """``compact`` renumbers as ``np.unique`` does, and on compact matrices, batches that hold
    every bucket, every bucket up to their highest but not the last, or leave gaps give the
    ``np.unique`` form's ``u`` and ``W`` byte for byte."""
    rng = np.random.default_rng(9)
    words = ["pumpe", "leckt", "filter", "druck", "ventil", "lager", "motor", "welle"]
    texts = ["", "!!!"] + [" ".join(rng.choice(words, size=int(rng.integers(1, 6))))
                           for _ in range(40)]
    # buckets {0, 1}, {2} and {1, 3} of 4
    small = encoder.FeatureMatrix(*(np.array(a, dtype=np.int64) for a in (
        [0, 2, 3, 5], [0, 1, 2, 1, 3], [1, 2, 1, 1, 1], [3, 1, 2])))
    cases = [(small, np.arange(4), [[0, 1, 2], [2, 1, 0], [0], [1, 0, 0], [0, 1], [2], [1, 2]])]
    for vocab_buckets in (4, 16, 64, 2**16, 2**24):
        fm = featurize_many(texts, vocab_buckets)
        compact, buckets = fm.compact()  # a presence mask renumbers all but the 2**16 ids
        want_buckets, want_ids = np.unique(fm.bucket_ids, return_inverse=True)
        assert buckets.tobytes() == want_buckets.tobytes() and buckets.dtype == np.int64
        assert compact.bucket_ids.tobytes() == want_ids.tobytes()
        assert compact.bucket_ids.dtype == np.int64
        cases.append((compact, buckets, [np.arange(len(texts)), np.array([0, 1])] + [
            rng.integers(0, len(texts), size=int(rng.integers(1, 12))) for _ in range(40)]))
    kinds = Counter()
    for compact, buckets, batches in cases:
        for rows in map(np.array, batches):
            u, w = compact.pooling_weights(rows)
            want_u, want_w = oracle_unique_pooling_weights(compact, rows)
            assert u.dtype == want_u.dtype and u.tobytes() == want_u.tobytes()
            assert w.shape == want_w.shape and w.tobytes() == want_w.tobytes()
            if len(u) == len(buckets):
                kinds["every bucket"] += 1
            elif len(u) and len(u) == u[-1] + 1:
                kinds["every bucket up to the highest"] += 1
            else:
                kinds["gaps"] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 3, kinds
