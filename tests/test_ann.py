import numpy as np
import pytest

from conftest import knn_one, make_table
from oracles import oracle_knn, oracle_np_knn
from plantsearch.ann import KNN_BLOCK, build_index, knn_rows


def _random_instance(rng):
    """ids -> vectors with engineered exact ties (duplicates, x2 copies)."""
    n = int(rng.integers(2, 21))
    dim = int(rng.integers(2, 6))
    vectors = {}
    for i in range(n):
        if i >= 2 and rng.random() < 0.25:
            donor = vectors[f"d{int(rng.integers(0, i)):03d}"]
            # doubling keeps the normalized vector bitwise identical
            vec = [2.0 * x for x in donor] if rng.random() < 0.5 else list(donor)
        else:
            vec = rng.normal(size=dim).tolist()
        vectors[f"d{i:03d}"] = vec
    return vectors


def test_knn_matches_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        vectors = _random_instance(rng)
        table = make_table(vectors)
        index = build_index(table, list(vectors))
        query = sorted(vectors)[int(rng.integers(0, len(vectors)))]
        k = int(rng.integers(1, len(vectors)))
        got = [doc for doc, _ in knn_one(index, query, k)]
        want = oracle_knn(vectors, query, k)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_knn_tie_break_ascending_id():
    vectors = {"q": [1.0, 0.0], "b": [2.0, 0.0], "a": [4.0, 0.0], "c": [0.0, 1.0]}
    index = build_index(make_table(vectors), list(vectors))
    ranked = [doc for doc, _ in knn_one(index, "q", 3)]
    assert ranked == ["a", "b", "c"]  # a and b tie at cos=1, id order breaks it


def test_knn_excludes_query():
    vectors = {"q": [1.0, 0.0], "a": [1.0, 0.0]}
    index = build_index(make_table(vectors), list(vectors))
    assert [doc for doc, _ in knn_one(index, "q", 1)] == ["a"]


def test_knn_argument_errors():
    vectors = {"q": [1.0, 0.0], "a": [0.5, 0.0]}
    index = build_index(make_table(vectors), list(vectors))
    with pytest.raises(KeyError):
        knn_one(index, "ghost", 1)
    with pytest.raises(ValueError):
        knn_one(index, "q", 0)
    with pytest.raises(ValueError):
        knn_one(index, "q", 2)  # only one candidate besides the query


def test_build_index_sorted_and_validated():
    vectors = {"b": [1.0, 0.0], "a": [0.0, 1.0]}
    index = build_index(make_table(vectors), ["b", "a", "b"])
    assert index.ids == ["a", "b"]
    with pytest.raises(KeyError):
        build_index(make_table(vectors), ["a", "missing"])
    with pytest.raises(ValueError):
        build_index(make_table(vectors), [])


def test_zero_vector_rows_are_degenerate():
    vectors = {"z": [0.0, 0.0], "a": [1.0, 0.0], "b": [0.5, 0.5]}
    index = build_index(make_table(vectors), list(vectors))
    scores = dict(knn_one(index, "a", 2))
    assert scores["z"] == 0.0  # scores 0 against everything
    ranked = [doc for doc, _ in knn_one(index, "b", 2)]
    assert ranked[-1] == "z"


def test_fingerprint_tracks_content():
    vectors = {"a": [1.0, 0.0], "b": [0.0, 1.0]}
    i1 = build_index(make_table(vectors), list(vectors))
    i2 = build_index(make_table(vectors), list(vectors))
    assert i1.fingerprint() == i2.fingerprint()
    vectors2 = {"a": [1.0, 0.0], "b": [0.1, 1.0]}
    i3 = build_index(make_table(vectors2), list(vectors2))
    assert i1.fingerprint() != i3.fingerprint()
    i4 = build_index(make_table({"a": vectors["a"], "c": vectors["b"]}), ["a", "c"])
    assert i1.fingerprint() != i4.fingerprint()


def test_knn_rows_equals_oracle_for_every_query():
    """Every row of indexes larger than one block, with duplicated rows (exact ties) and
    zero rows, gets the oracle's neighbors; every other index holds a subset of the
    table's ids, ranked among themselves only."""
    rng = np.random.default_rng(31)
    ties = 0
    for trial in range(6):
        dim = int(rng.choice([3, 16, 64]))
        n = int(rng.integers(KNN_BLOCK + 5, 2 * KNN_BLOCK + 40))
        vectors = {}
        for i in range(n):
            roll = rng.random()
            if i >= 2 and roll < 0.25:
                vec = list(vectors[f"d{int(rng.integers(0, i)):03d}"])
            elif roll < 0.3:
                vec = [0.0] * dim
            else:
                vec = rng.normal(size=dim).tolist()
            vectors[f"d{i:03d}"] = vec
        ids = sorted(vectors)
        among = None if trial % 2 == 0 else {i for i in ids if rng.random() < 0.8}
        index = build_index(make_table(vectors), ids if among is None else among)
        k = int(rng.integers(1, len(index) - 1))
        cols, scores = knn_rows(index, k)
        assert cols.shape == scores.shape == (len(index), k)
        for q, row, row_scores in zip(index.ids, cols.tolist(), scores.tolist()):
            got = [index.ids[c] for c in row]
            assert got == oracle_knn(vectors, q, k, among), (trial, q)
            ties += len(set(row_scores)) < len(row_scores)
    assert ties > 50


def test_knn_rows_tie_cut_on_over_full_rows_equals_oracle():
    """Exact copies, spread over the ids, put more rows at the k-th score than the query
    has room for on several queries of one block. Every query gets the oracle's
    neighbors, over every id and over a subset of them."""
    rng = np.random.default_rng(13)
    base = rng.normal(size=(5, 3))
    vectors = {f"d{i:03d}": (base[i % 5] if i < 30 else rng.normal(size=3)).tolist()
               for i in range(45)}
    ids = sorted(vectors)
    for among in (None, {i for j, i in enumerate(ids) if j % 7 != 3}):
        index = build_index(make_table(vectors), ids if among is None else among)
        assert len(index) <= KNN_BLOCK
        for k in (1, 3, 4, 8):
            cols, scores = knn_rows(index, k)
            over_full = 0
            for q, row, row_scores in zip(index.ids, cols.tolist(), scores.tolist()):
                want = oracle_knn(vectors, q, k, among)
                assert [index.ids[c] for c in row] == want, (k, q)
                sims = np.vecdot(index.matrix, index.matrix[index.ids.index(q)])
                sims[index.ids.index(q)] = -np.inf
                over_full += np.count_nonzero(sims >= row_scores[-1]) > k
            assert over_full >= 10, (k, over_full)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_knn_rows_has_the_same_bits_at_every_block_size(monkeypatch, k):
    """Neighbors and cosines do not depend on how many rows a block scores: a
    ``KNN_BLOCK`` of 1, 7 and the row count give the default's bits, on rows with
    exact copies (over-full tie cuts) and zero rows."""
    from plantsearch import ann

    rng = np.random.default_rng(17)
    matrix = rng.normal(size=(150, 8))
    matrix[rng.random(150) < 0.3] = matrix[3]
    matrix[rng.random(150) < 0.2] = matrix[11]
    matrix[rng.random(150) < 0.05] = 0.0
    index = build_index(make_table({f"d{i:03d}": row for i, row in enumerate(matrix)}),
                        [f"d{i:03d}" for i in range(150)])
    want = knn_rows(index, k)
    for block in (1, 7, len(index)):
        monkeypatch.setattr(ann, "KNN_BLOCK", block)
        assert [a.tobytes() for a in knn_rows(index, k)] == [a.tobytes() for a in want], block


def test_knn_rows_validation():
    vectors = {"q": [1.0, 0.0], "a": [0.5, 0.0], "b": [0.0, 1.0]}
    index = build_index(make_table(vectors), list(vectors))
    assert knn_rows(index, 2)[0].tolist() == [[2, 1], [0, 2], [0, 1]]
    with pytest.raises(ValueError):
        knn_rows(index, 3)
    with pytest.raises(ValueError):
        knn_rows(index, 0)
    with pytest.raises(ValueError, match="exceeds 1"):
        knn_rows(build_index(make_table(vectors), ["a", "b"]), 2)


def test_fingerprint_equals_the_per_id_digest():
    """The ids go into the digest in one update; the digest is the one of an update per id
    and per separator, on non-ASCII ids and on an empty index."""
    import hashlib

    from plantsearch.ann import FlatIndex

    def per_id(index):
        h = hashlib.sha256()
        for node_id in index.ids:
            h.update(node_id.encode("utf-8"))
            h.update(b"\0")
        h.update(np.ascontiguousarray(index.matrix, dtype="<f8").tobytes())
        return h.hexdigest()[:16]

    vectors = {"Pumpe é": [1.0, 0.0], "植物:log:1": [0.6, 0.8], "a b": [0.0, -1.0],
               "ünïcode\U0001f33f": [0.3, 0.1]}
    indexes = [build_index(make_table(vectors), list(vectors)),
               FlatIndex([], np.zeros((0, 2)))]
    for index in indexes:
        assert index.fingerprint() == per_id(index)
    assert indexes[1].fingerprint() == hashlib.sha256().hexdigest()[:16]


def test_knn_rows_equal_the_whole_index_oracle_bit_for_bit():
    """Row by row, neighbors and cosines equal ``oracle_np_knn``, which scores each query
    against every indexed row and masks the candidates afterwards: for the whole index,
    and for an index of a subset of its rows against the oracle masked to that subset."""
    from plantsearch.ann import FlatIndex

    rng = np.random.default_rng(41)
    for trial in range(8):
        dim = int(rng.choice([3, 16, 64]))
        n = int(rng.integers(KNN_BLOCK + 5, 2 * KNN_BLOCK + 40))
        matrix = rng.normal(size=(n, dim))
        matrix[rng.random(n) < 0.2] = matrix[0]  # exact ties
        matrix[rng.random(n) < 0.05] = 0.0
        vectors = {f"d{i:03d}": row.tolist() for i, row in enumerate(matrix)}
        index = build_index(make_table(vectors), list(vectors))
        for keep in (np.ones(n, dtype=bool), rng.random(n) < 0.6):
            sub = FlatIndex([i for i, kept in zip(index.ids, keep) if kept], index.matrix[keep])
            k = int(rng.integers(1, 20))
            cols, scores = knn_rows(sub, k)
            for q, got_cols, got_scores in zip(sub.ids, cols, scores):
                want = oracle_np_knn(index, q, k, keep)
                assert [sub.ids[c] for c in got_cols] == [doc for doc, _ in want], trial
                assert got_scores.tobytes() == np.array([s for _, s in want]).tobytes(), trial
