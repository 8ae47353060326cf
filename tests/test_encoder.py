import json
import tracemalloc
from collections import ChainMap, Counter
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    dense_table,
    feature_row,
    oracle_block_pooling,
    oracle_compact,
    oracle_count_matrix,
    oracle_dense_round_trip,
    oracle_fnv1a_64,
    oracle_init_table,
    oracle_pool,
    oracle_pooling_weights,
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
    """Every take equals ``featurize_many`` of its texts, array for array, with its bucket ids
    and counts in the held types (uint8 ids at 64 buckets, int32 counts), and featurizes in one call
    only the texts no earlier take held."""
    texts = ["Pumpe leckt am Flansch", "", "!!!", "Lömi ÄRGER über Öl", "ab ab cd", "x y"]
    calls = []

    def counted(batch, vocab_buckets):
        calls.append(list(batch))
        return featurize_many(batch, vocab_buckets)

    monkeypatch.setattr(encoder, "featurize_many", counted)
    features = encoder.Featurizer(64)
    for take in (texts[2:4] + texts[2:3], texts[:0], texts[::-1], texts[4:] + ["neu"]):
        got = features.take(take, 64)
        assert got.bucket_ids.dtype == np.uint8 and got.counts.dtype == np.int32
        _same_matrix(replace(got, bucket_ids=got.bucket_ids.astype(np.int64),
                             counts=got.counts.astype(np.int64)), featurize_many(take, 64))
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


def _blocks(fm):
    """How many gemm blocks ``pool`` splits the matrix's texts into: its distinct rows of
    pooling weights, ``_POOL_BLOCK`` // (its distinct buckets) rows per block."""
    rows = len({fm.bucket_ids[lo:hi].tobytes() + (fm.counts[lo:hi] / total).tobytes()
                for lo, hi, total in zip(fm.indptr[:-1], fm.indptr[1:], fm.totals)})
    return -(-rows // (encoder._POOL_BLOCK // len(np.unique(fm.bucket_ids))))


def test_encode_batch_equal_pooling_rows_are_bit_identical_across_blocks():
    """Texts with equal pooling weights share one row, even when the rows span many gemm blocks."""
    rng = np.random.default_rng(11)
    words = [f"w{i}x{j}" for i in range(400) for j in range(3)]
    base = [" ".join(rng.choice(words, size=int(rng.integers(1, 12)))) for _ in range(300)]
    texts = base + [base[0], " ".join(reversed(base[1].split())), f"{base[2]} {base[2]}"]
    p = init_encoder(dim=16, vocab_buckets=1 << 16, seed=2)
    assert _blocks(featurize_many(texts, p.vocab_buckets)) > 1
    batch = encode_batch(p, texts)
    for copy, original in ((300, 0), (301, 1), (302, 2)):
        np.testing.assert_array_equal(batch[copy], batch[original])
    for i in range(0, len(texts), 37):
        np.testing.assert_allclose(batch[i], encode(p, texts[i]), rtol=0, atol=1e-12)


def test_pool_equals_the_former_block_pooling_byte_for_byte():
    """``pool`` over a ``count_matrix`` gives the vectors of the former per-text dict of ids
    and weights pooled block by block (``oracle_block_pooling``), byte for byte: corpora of
    several gemm blocks at 64, 1,024 and 65,536 buckets, with empty texts, texts with no word
    token, proportional counts that share a row, and a count above 255 (a uint16 matrix)."""
    rng = np.random.default_rng(13)
    words = np.array([f"w{i}x{j}" for i in range(400) for j in range(3)])
    sizes = rng.integers(1, 12, size=4200)
    base = [" ".join(w) for w in np.split(rng.choice(words, size=sizes.sum()),
                                          np.cumsum(sizes)[:-1])]
    special = ["", "!!!", "pumpe", "pumpe pumpe", "Pumpe leckt", "LECKT pumpe", "-- ..", "pumpe"]
    for vocab_buckets, n in ((64, 4200), (1 << 10, 600), (1 << 16, 305)):
        p = init_encoder(dim=16, vocab_buckets=vocab_buckets, seed=3)
        trained = np.arange(0, vocab_buckets, 7)[:500]  # trained rows among init rows
        p = p.with_rows(trained, rng.normal(size=(len(trained), 16)))
        for long, dtype in (([], np.uint8), (["motor " * 300], np.uint16)):
            texts = special + base[:n] + long
            fm = featurize_many(texts, vocab_buckets)
            assert _blocks(fm) > 1
            matrix = encoder.count_matrix(fm)
            assert matrix[0].dtype == dtype
            got, want = encoder.pool(p, matrix), oracle_block_pooling(fm, p)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got[:2].any() and not got[6].any()
            assert got[2].tobytes() == got[3].tobytes() == got[7].tobytes()
            assert got[4].tobytes() == got[5].tobytes() and got[2].any()


def test_count_matrix_of_held_types_equals_that_of_featurize_many():
    """A ``Featurizer`` take, in its held id and count types, gives the count matrix, totals
    and int64 buckets of ``featurize_many``, byte for byte. A single text's matrix, which
    skips ``compact``, equals the compacted path (``oracle_count_matrix``) array for array and
    dtype for dtype, from either source: an empty text, a text with no word token, umlaut
    words and a count above 255 (a uint16 row), at 64, 65,536 and 2**24 buckets; ``pool`` of
    it equals ``oracle_pool``."""
    texts = ["Pumpe leckt am Flansch", "", "!!!", "Lömi ÄRGER über Öl", "ab ab cd",
             "motor " * 300]
    for vocab_buckets, id_type in ((64, np.uint8), (1 << 16, np.uint16), (1 << 24, np.uint32)):
        featurizer = encoder.Featurizer(vocab_buckets)
        held = featurizer.take(texts + texts[:2], vocab_buckets)
        assert held.bucket_ids.dtype == id_type and held.counts.dtype == np.int32
        got = encoder.count_matrix(held)
        want = encoder.count_matrix(featurize_many(texts + texts[:2], vocab_buckets))
        assert got[2].dtype == np.int64 and got[0].dtype == np.uint16
        _same_arrays(got, want)
        p = init_encoder(dim=8, vocab_buckets=vocab_buckets, seed=3)
        for text in texts:
            for fm in (featurize_many([text], vocab_buckets),
                       featurizer.take([text], vocab_buckets)):
                one = encoder.count_matrix(fm)
                _same_arrays(one, oracle_count_matrix(fm))
                _same_arrays((encoder.pool(p, one),), (oracle_pool(p, one),))
                assert one[0].dtype == (np.uint16 if text.startswith("motor") else np.uint8)
                assert one[0].shape == (1, len(fm.bucket_ids))


def _same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _id_matrix(rows, dtype):
    """A matrix of the sorted unique id ``rows`` in ``dtype``, each id counted once."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    ids = np.array([b for r in rows for b in r], dtype=dtype)
    return encoder.FeatureMatrix(np.concatenate([[0], np.cumsum(lengths)]), ids,
                                 np.ones(len(ids), dtype=np.int32), lengths)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
def test_compact_equals_the_former_unique_inverse(dtype):
    """``compact`` equals ``np.unique(return_inverse=True)`` (``oracle_compact``), array for
    array and dtype for dtype, on its presence-mask branch (ids dense below their max, every id
    up to the max present included), its sort branch (sparse ids) and empty matrices."""
    rng = np.random.default_rng(5)
    top = min(int(np.iinfo(dtype).max), 1 << 40)
    cases = {"mask": [], "sort": []}
    for span, size in ((24, 12), (top, 5)):
        for _ in range(20):
            rows = [np.unique(rng.integers(0, span, size=int(rng.integers(0, size)))).tolist()
                    for _ in range(int(rng.integers(1, 5)))]
            fm = _id_matrix(rows, dtype)
            ids = fm.bucket_ids
            cases["mask" if ids.size and ids.max() < 4 * ids.size else "sort"].append(fm)
    cases["mask"].append(_id_matrix([[0, 1, 3], [2, 3]], dtype))  # every id up to the max
    cases["sort"] += [_id_matrix([], dtype), _id_matrix([[], []], dtype)]
    assert len(cases["mask"]) >= 10 and len(cases["sort"]) >= 10
    for fm in cases["mask"] + cases["sort"]:
        (got, got_buckets), (want, want_buckets) = fm.compact(), oracle_compact(fm)
        _same_arrays((got.bucket_ids, got_buckets), (want.bucket_ids, want_buckets))
        _same_arrays((got.indptr, got.counts, got.totals), (fm.indptr, fm.counts, fm.totals))


@pytest.mark.parametrize("one_block", [True, False])
def test_pool_equals_the_former_unique_inverse_pool(monkeypatch, one_block):
    """``pool`` equals the former form with a second ``np.unique(return_inverse=True)`` and a
    column gather in every block (``oracle_pool``), byte for byte: proportional rows, empty
    texts, texts with no word token and single texts, in one block that takes every column
    and, with ``_POOL_BLOCK`` made small, in blocks of two rows, each over its own columns."""
    texts = ["", "pumpe", "!!!", "pumpe pumpe", "Pumpe leckt", "LECKT pumpe", "kessel", "",
             "pumpe leckt pumpe leckt", "Lömi ärger über Öl", "kessel druck", "ventil"]
    p = init_encoder(dim=8, vocab_buckets=1 << 16, seed=3)
    p = p.with_rows(np.arange(0, 1 << 16, 5), np.ones(((1 << 16) // 5 + 1, 8)))
    for batch in (texts, texts[:3], [""], [], texts[4:6], texts[4:5], texts[9:10]):
        matrix = encoder.count_matrix(featurize_many(batch, p.vocab_buckets))
        if not one_block:
            monkeypatch.setattr(encoder, "_POOL_BLOCK", 2 * max(1, matrix[0].shape[1]))
        got, want = encoder.pool(p, matrix), oracle_pool(p, matrix)
        _same_arrays((got,), (want,))
    got = encoder.pool(p, encoder.count_matrix(featurize_many(texts, p.vocab_buckets)))
    assert got[1].tobytes() == got[3].tobytes() and got[4].tobytes() == got[5].tobytes()
    assert not got[0].any() and not got[2].any() and got[1].any()


def test_featurize_many_with_a_word_table_equals_featurize_many_without():
    """A call given ``ChainMap({}, table)`` equals a call without it, row for row and dtype for
    dtype, for words in the table and out of it (umlaut words among both, whose 3-grams span
    multi-byte characters), an empty text and a text with no word token; the table is the
    corpus's words and their bucket ids, and reading it leaves it as it was."""
    corpus = ["Pumpe leckt am Flansch", "Lömi läuft über", "kessel DRUCK kessel"]
    queries = ["pumpe läuft", "Zylinder Öldruck", "", "!!! ...", "über Flansch ärger",
               "Pumpe leckt am Flansch", "zylinder"]
    for vocab_buckets in (64, 1 << 16):
        table = {}
        featurize_many(corpus, vocab_buckets, table)
        assert set(table) == {w for text in corpus for w in word_tokens(text)}
        for word, ids in table.items():
            assert ids == [fnv1a_64(f.encode("utf-8")) % vocab_buckets
                           for f in encoder._word_features(word)]
        held = {word: list(ids) for word, ids in table.items()}
        for batch in ([q] for q in queries), [queries]:
            for texts in batch:
                got = featurize_many(texts, vocab_buckets, ChainMap({}, table))
                want = featurize_many(texts, vocab_buckets)
                _same_arrays((got.indptr, got.bucket_ids, got.counts, got.totals),
                             (want.indptr, want.bucket_ids, want.counts, want.totals))
        assert table == held


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


def test_each_encoder_draws_the_init_rows_it_lacks_once(tmp_path, caplog, init_streams):
    """A read draws each block of the init rows its encoder lacks once and keeps those rows,
    so an encoder never draws a row it holds, trained or read before, and reads of another
    seed between do not drop its rows. Two encoders of one seed each draw their own."""
    p = init_encoder(dim=8, vocab_buckets=256, seed=11)
    with caplog.at_level("DEBUG", logger="plantsearch.encoder"):
        first = p.rows(np.array([3, 1, 3]))  # block 0, drawn once for both rows
        init_encoder(dim=8, vocab_buckets=256, seed=12).rows(np.array([0, 40]))
        p.rows(np.array([1, 3, 1]))  # both held
        assert init_streams == {(11, 0): 1, (12, 0): 1, (12, 2): 1}
        p.rows(np.array([5, 3, 255]))  # rows 5 and 255 are new: block 0 again, and block 15
        assert init_streams == {(11, 0): 2, (11, 15): 1, (12, 0): 1, (12, 2): 1}
        save_encoder(p.with_rows(np.array([5]), np.ones((1, 8))),
                     tmp_path / "enc.gemb", tmp_path / "enc.json")
        init_streams.clear()
        for _ in range(2):  # each loaded encoder draws all 16 blocks once, for its 255 init rows
            loaded = load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")
            for _ in range(2):
                loaded.rows(np.arange(256))
        assert init_streams == {(11, b): 2 for b in range(16)}
    lines = [r.getMessage() for r in caplog.records]
    draws = [line.split(" in ")[0] for line in lines if "drew" in line]
    assert draws == ["encoder init seed 11: drew 1 blocks for 2 rows",
                     "encoder init seed 12: drew 2 blocks for 2 rows",
                     "encoder init seed 11: drew 2 blocks for 2 rows",
                     *["encoder init seed 11: drew 16 blocks for 255 rows"] * 2]
    assert "saved encoder " + str(tmp_path / "enc.gemb") + ": 1 of 256 rows held" in lines
    first[:] = 0.0  # rows come out as a copy
    np.testing.assert_array_equal(p.rows(np.array([3, 1])), oracle_init_table(11, 8, 256)[[3, 1]])


@pytest.mark.parametrize("seed", range(6))
def test_rows_equal_the_block_oracle_in_any_read_order(seed):
    """Init rows equal the block oracle for any ids, repeated and unsorted, any table size above
    them and any order of reads, from a new encoder or from one that keeps the rows of its
    earlier reads, with reads of another seed or dim between."""
    rng = np.random.default_rng(seed)
    dim, top = int(rng.integers(2, 9)), int(rng.integers(1, 700))
    want = {key: oracle_init_table(*key, top) for key in ((seed, dim), (seed + 1, dim),
                                                          (seed, dim + 1))}
    tables = {}  # the last encoder of each key
    for _ in range(20):
        key = list(want)[0] if rng.random() < 0.6 else list(want)[int(rng.integers(1, 3))]
        u = rng.integers(0, top, size=int(rng.integers(0, 60)))
        p = tables.get(key)
        if p is None or u.max(initial=0) >= p.vocab_buckets or rng.random() < 0.3:
            p = tables[key] = init_encoder(
                key[1], int(rng.integers(u.max(initial=0) + 1, 2 * top + 2)), key[0])
        got = p.rows(u)
        assert got.shape == (len(u), key[1]) and got.tobytes() == want[key][u].tobytes()
    assert dense_table(init_encoder(dim, top, seed)).tobytes() == want[seed, dim].tobytes()


@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_rows_of_a_trained_table_equal_the_oracle_in_any_read_order(tmp_path, monkeypatch,
                                                                      seed, loaded):
    """Rows of a table that holds trained rows, made by ``with_rows`` or saved and loaded,
    equal the block oracle with the trained rows laid over it (all float32-rounded when
    loaded), for any ids, repeated and unsorted, in any order of reads. A read of rows that
    the table has all read before makes one ``_find``, over the rows it has read."""
    rng = np.random.default_rng(seed)
    dim, top = int(rng.integers(2, 9)), int(rng.integers(20, 700))
    want = oracle_init_table(seed, dim, top)
    ids = np.unique(rng.integers(0, top, size=int(rng.integers(1, top // 2))))
    want[ids] = rng.normal(size=(len(ids), dim))
    p = init_encoder(dim, top, seed).with_rows(ids, want[ids])
    assert p.bucket_ids.tolist() == ids.tolist()
    if loaded:
        save_encoder(p, tmp_path / "enc.gemb", tmp_path / "enc.json")
        p = load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")
        want = want.astype(np.float32).astype(np.float64)
    finds, find = [], encoder._find
    monkeypatch.setattr(encoder, "_find", lambda *args: finds.append(args) or find(*args))
    read, repeats = set(), 0
    for _ in range(30):
        u = rng.integers(0, top, size=int(rng.integers(0, 60)))
        if read and rng.random() < 0.4:  # rows all read before
            u = rng.choice(sorted(read), size=len(u))
        finds.clear()
        got = p.rows(u)
        assert got.shape == (len(u), dim) and got.tobytes() == want[u].tobytes()
        if read.issuperset(u.tolist()):
            assert len(finds) == 1
            repeats += 1
        read.update(u.tolist())
    assert repeats >= 5
    assert dense_table(p).tobytes() == want.tobytes()


def test_scattered_rows_allocate_their_rows_not_their_blocks():
    """532 scattered rows of a 65,536 x 64 table (the trained-row count at seed 7) allocate
    their own rows and copies of them, within 3 MiB, less than the 3.9 MiB of the 496 blocks
    they fall in, and far less than the 32 MiB table."""
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
    assert peak < 3 << 20 < blocks * 16 * 64 * 8


def test_held_rows_read_without_an_init_draw(tmp_path, init_streams):
    ids, rows = np.array([2, 5, 9]), np.arange(24.0).reshape(3, 8)
    trained = init_encoder(dim=8, vocab_buckets=256, seed=11).with_rows(ids, rows)
    save_encoder(trained, tmp_path / "enc.gemb", tmp_path / "enc.json")
    init_streams.clear()  # with_rows read the init rows of ids
    loaded = load_encoder(tmp_path / "enc.gemb", tmp_path / "enc.json")
    for p in (trained, loaded):
        got = p.rows(np.array([9, 2, 9]))
        assert got.dtype == np.float64 and got.tobytes() == rows[[2, 0, 2]].tobytes()
        got[:] = 0.0  # rows come out as a copy
        assert p.rows(ids).tobytes() == rows.tobytes()
    assert not init_streams
    # row 3 is not held: its init row needs block 0, and the held rows 2 and 9 need nothing
    got = loaded.rows(np.array([2, 3, 9]))
    assert init_streams == {(11, 0): 1}
    assert got[[0, 2]].tobytes() == rows[[0, 2]].tobytes()
    assert got[1].tobytes() == oracle_init_table(11, 8, 16)[3].astype("<f4").astype(float).tobytes()


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
    """The presence mask (``encoder._renumbered``) renumbers ids as ``np.unique`` does, and
    ``oracle_pooling_weights``'s ``u`` and ``W`` equal the ``np.unique`` form's, byte for byte,
    on matrices and their compacted forms with empty, one-bucket and repeated texts."""
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
            _same_arrays(encoder._renumbered(m.bucket_ids),
                         np.unique(m.bucket_ids, return_inverse=True))
            u, w = oracle_pooling_weights(m, rows)
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
            u, w = oracle_pooling_weights(compact, rows)
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
