import numpy as np
import pytest

from conftest import knn_one, make_table
from oracles import oracle_knn
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


def test_knn_among_forms_match_oracle_with_ties():
    """Row masks built from a set or from a list with duplicates select the same
    candidates; duplicated vectors tie exactly at any dimension and break by id."""
    rng = np.random.default_rng(77)
    ties = 0
    for trial in range(150):
        dim = int(rng.choice([3, 16, 64]))
        n = int(rng.integers(4, 40))
        vectors = {}
        for i in range(n):
            donor = f"d{int(rng.integers(0, i)):03d}" if i >= 2 and rng.random() < 0.3 else None
            vectors[f"d{i:03d}"] = list(vectors[donor]) if donor else rng.normal(size=dim).tolist()
        index = build_index(make_table(vectors), list(vectors))
        ids = sorted(vectors)
        query = ids[int(rng.integers(0, n))]
        among = {i for i in ids if rng.random() < 0.7} | {query}
        if len(among) < 3:
            continue
        k = int(rng.integers(1, len(among)))
        want = oracle_knn(vectors, query, k, among)
        listed = sorted(among) + sorted(among)[:3]
        for ids_form in (among, listed):
            mask = index.row_mask(ids_form)
            assert [doc for doc, _ in knn_one(index, query, k, among=mask)] == want, trial
        scores = [s for _, s in knn_one(index, query, len(among) - 1, among=mask)]
        ties += len(set(scores)) < len(scores)
    assert ties > 20


def test_knn_row_mask_validation():
    vectors = {"q": [1.0, 0.0], "a": [0.5, 0.0], "b": [0.0, 1.0]}
    index = build_index(make_table(vectors), list(vectors))
    with pytest.raises(KeyError):
        index.row_mask(["a", "ghost"])
    with pytest.raises(KeyError):
        index.row_mask({"a", "ghost"})
    with pytest.raises(ValueError):
        knn_one(index, "q", 1, among=np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        knn_one(index, "q", 1, among=np.ones(3))
    with pytest.raises(ValueError):
        knn_one(index, "q", 1, among={"a", "q"})  # ids, not a row mask
    mask = index.row_mask(["a", "q"])
    assert [doc for doc, _ in knn_one(index, "q", 1, among=mask)] == ["a"]
    assert mask.tolist() == [True, False, True]  # the caller's mask is not modified


def test_knn_tie_break_ascending_id():
    vectors = {"q": [1.0, 0.0], "b": [2.0, 0.0], "a": [4.0, 0.0], "c": [0.0, 1.0]}
    index = build_index(make_table(vectors), list(vectors))
    ranked = [doc for doc, _ in knn_one(index, "q", 3)]
    assert ranked == ["a", "b", "c"]  # a and b tie at cos=1, id order breaks it


def test_knn_excludes_query():
    vectors = {"q": [1.0, 0.0], "a": [1.0, 0.0]}
    index = build_index(make_table(vectors), list(vectors))
    assert [doc for doc, _ in knn_one(index, "q", 1)] == ["a"]


def test_knn_among_subset():
    vectors = {"q": [1.0, 0.0], "a": [1.0, 0.0], "b": [0.9, 0.1], "c": [0.0, 1.0]}
    index = build_index(make_table(vectors), list(vectors))
    got = [doc for doc, _ in knn_one(index, "q", 2, among=index.row_mask({"b", "c", "q"}))]
    assert got == ["b", "c"]


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
    """Every query of indexes larger than one block, with duplicated rows (exact ties),
    zero rows and row masks, gets the oracle's neighbors."""
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
        index = build_index(make_table(vectors), list(vectors))
        ids = sorted(vectors)
        among = None if trial % 2 == 0 else {i for i in ids if rng.random() < 0.8}
        mask = None if among is None else index.row_mask(among)
        queries = ids if among is None else sorted(among)
        k = int(rng.integers(1, len(queries) - 1))
        cols, scores = knn_rows(index, np.array([index.row(q) for q in queries]), k, mask)
        assert cols.shape == scores.shape == (len(queries), k)
        for q, row, row_scores in zip(queries, cols.tolist(), scores.tolist()):
            got = [index.ids[c] for c in row]
            assert got == oracle_knn(vectors, q, k, among), (trial, q)
            ties += len(set(row_scores)) < len(row_scores)
    assert ties > 50


def test_knn_rows_validation():
    vectors = {"q": [1.0, 0.0], "a": [0.5, 0.0], "b": [0.0, 1.0]}
    index = build_index(make_table(vectors), list(vectors))
    rows = np.array([0, 1, 2])
    assert knn_rows(index, rows, 2)[0].tolist() == [[2, 1], [0, 2], [0, 1]]
    with pytest.raises(ValueError):
        knn_rows(index, rows, 3)
    with pytest.raises(ValueError):
        knn_rows(index, rows, 0)
    mask = index.row_mask(["a", "b"])
    with pytest.raises(ValueError, match="exceeds 1"):
        knn_rows(index, rows, 2, among=mask)  # "a" and "b" each have one other candidate
    assert knn_rows(index, np.array([2]), 2, among=mask)[0].tolist() == [[0, 1]]  # q outside
