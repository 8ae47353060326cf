import numpy as np
import pytest

from conftest import knn_one, make_graph, make_table
from oracles import oracle_filtered_random_sample, oracle_sample_triplets
from plantsearch.ann import build_index
from plantsearch.triplets import (
    NegKind,
    SamplingParams,
    Triplet,
    band_sample,
    load_triplets,
    positional_sample,
    sample_triplets,
    save_triplets,
)


def test_band_positions_worked_example():
    neighbors = [f"n{i}" for i in range(1, 13)]  # n1 nearest ... n12
    assert band_sample(neighbors, k=10, c=3) == ["n8", "n9", "n10"]
    assert band_sample(neighbors, k=1, c=1) == ["n1"]
    assert band_sample(neighbors, k=12, c=2) == ["n11", "n12"]
    assert band_sample(neighbors, k=5, c=5) == ["n1", "n2", "n3", "n4", "n5"]


def test_band_sample_validation():
    neighbors = list("abcdef")
    with pytest.raises(ValueError):
        band_sample(neighbors, k=3, c=0)
    with pytest.raises(ValueError):
        band_sample(neighbors, k=3, c=4)
    with pytest.raises(ValueError):
        band_sample(neighbors, k=7, c=1)  # list too short


def test_default_params_bands_disjoint():
    p = SamplingParams()
    p.validate()
    pos = set(range(p.k_pos - p.c_pos + 1, p.k_pos + 1))
    hard = set(range(p.k_hard - p.c_hard + 1, p.k_hard + 1))
    assert pos == {1, 2}
    assert hard == {50}
    assert not pos & hard


def test_params_validation():
    for bad in (
        {"k_pos": 0},
        {"c_pos": 0},
        {"c_pos": 3},  # c > k
        {"c_easy": 0},
        {"min_text_chars": -1},
        {"k_pos": 50},  # collides with the hard band at k_hard=50
        {"k_hard": 2, "c_hard": 1},  # hard band would overlap positives
    ):
        with pytest.raises(ValueError):
            SamplingParams(**bad).validate()
    SamplingParams(k_pos=2, c_pos=2, k_hard=3, c_hard=1).validate()


def _positional_ids(corpus, excluded, c, rng):
    """The positional draw over sorted ``corpus`` as ids, excluding the ids ``excluded``."""
    positions = np.array([i for i, d in enumerate(corpus) if d in excluded], dtype=np.int64)
    return [corpus[i] for i in positional_sample(len(corpus), positions, c, rng).tolist()]


def test_filtered_random_sample_excludes_and_is_uniform():
    rng = np.random.default_rng(0)
    corpus = [f"d{i}" for i in range(10)]
    excluded = {"d0", "d4", "d9"}
    counts = {c: 0 for c in corpus}
    for _ in range(2000):
        picks = _positional_ids(corpus, excluded, 2, rng)
        assert len(picks) == len(set(picks)) == 2
        for pick in picks:
            assert pick not in excluded
            counts[pick] += 1
    drawn = {c for c, n in counts.items() if n > 0}
    assert drawn == set(corpus) - excluded
    values = [counts[c] for c in sorted(drawn)]
    assert max(values) - min(values) < 0.25 * max(values)  # roughly uniform


def test_filtered_random_sample_matches_sorted_set_oracle():
    """The positional draw picks what one rng.choice over the filtered id list picks."""
    rng = np.random.default_rng(12)
    for trial in range(200):
        corpus = sorted({f"d{int(i):03d}" for i in rng.integers(0, 60, size=40)})
        excluded = {c for c in corpus if rng.random() < 0.4}
        c = int(rng.integers(1, len(corpus) - len(excluded) + 1))
        seed = int(rng.integers(0, 2**32))
        want = oracle_filtered_random_sample(corpus, excluded, c, np.random.default_rng(seed))
        got = _positional_ids(corpus, excluded, c, np.random.default_rng(seed))
        assert got == want, trial


def test_filtered_random_sample_exhausted():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="cannot draw"):
        positional_sample(2, np.array([0]), 2, rng)


def _corpus_fixture(n=12, dim=4, seed=0, short_ids=()):
    """Graph + index over n synthetic logs with seeded vectors."""
    rng = np.random.default_rng(seed)
    long_text = "x" * 120
    logs = []
    for i in range(n):
        log_id = f"d{i:02d}"
        text = "y" * 40 if log_id in short_ids else long_text
        logs.append((log_id, text))
    fls = [("f0", "C0", "fl")]
    edges = [(log_id, "f0", "reports_about") for log_id, _ in logs]
    from plantsearch.kg import Relation

    g = make_graph(logs, fls, [(s, d, Relation(r)) for s, d, r in edges])
    vectors = {log_id: rng.normal(size=dim).tolist() for log_id, _ in logs}
    vectors["f0"] = rng.normal(size=dim).tolist()
    table = make_table(vectors)
    index = build_index(table, [log_id for log_id, _ in logs])
    return g, index


def test_sample_triplets_structure():
    g, index = _corpus_fixture(n=12)
    p = SamplingParams(k_pos=2, c_pos=2, k_hard=6, c_hard=2, c_easy=2, min_text_chars=100)
    tset = sample_triplets(index, g, p)
    assert tset.skipped == 0
    assert tset.index_fingerprint == index.fingerprint()
    by_query = {}
    for t in tset.triplets:
        by_query.setdefault(t.query, []).append(t)
    assert sorted(by_query) == sorted(index.ids)
    for query, ts in by_query.items():
        # c_easy easy rows then c_hard hard rows
        assert [t.neg_kind for t in ts] == [NegKind.EASY] * 2 + [NegKind.HARD] * 2
        neighbors = [n for n, _ in knn_one(index, query, p.k_hard)]
        pos_band = set(neighbors[: p.k_pos])
        hard_band = set(neighbors[p.k_hard - p.c_hard : p.k_hard])
        for t in ts:
            assert t.positive in pos_band
            assert len({t.query, t.positive, t.negative}) == 3
            if t.neg_kind is NegKind.HARD:
                assert t.negative in hard_band
            else:
                assert t.negative not in set(neighbors) | {query}
        # positives cycle through the band in emission order
        assert ts[0].positive == neighbors[0]
        assert ts[1].positive == neighbors[1]
        assert ts[2].positive == neighbors[0]
        assert ts[3].positive == neighbors[1]


def test_sample_triplets_skips_short_queries():
    g, index = _corpus_fixture(n=12, short_ids={"d03"})
    p = SamplingParams(k_pos=1, c_pos=1, k_hard=5, c_hard=1, c_easy=1, min_text_chars=100)
    tset = sample_triplets(index, g, p)
    assert tset.skipped == 1
    queries = {t.query for t in tset.triplets}
    assert "d03" not in queries
    # the short doc is ineligible as positive or negative too
    for t in tset.triplets:
        assert "d03" not in (t.positive, t.negative)


def test_sample_triplets_skips_small_corpus():
    g, index = _corpus_fixture(n=6)
    p = SamplingParams(k_pos=1, c_pos=1, k_hard=5, c_hard=1, c_easy=1)
    # eligible-1 = 5 < k_hard + c_easy = 6: every query skipped, no clamping
    tset = sample_triplets(index, g, p)
    assert tset.triplets == []
    assert tset.skipped == 6


def test_sample_triplets_deterministic():
    g, index = _corpus_fixture(n=14)
    p = SamplingParams(k_pos=2, c_pos=2, k_hard=7, c_hard=2, c_easy=3, rng_seed=9)
    a = sample_triplets(index, g, p)
    b = sample_triplets(index, g, p)
    assert a.triplets == b.triplets


def test_sample_triplets_rejects_foreign_index():
    g, index = _corpus_fixture(n=12)
    other_g, _ = _corpus_fixture(n=3)
    p = SamplingParams(k_pos=1, c_pos=1, k_hard=3, c_hard=1)
    with pytest.raises(KeyError):
        sample_triplets(index, other_g, p)


def test_sample_triplets_rejects_non_log_ids():
    g, _ = _corpus_fixture(n=6)
    rng = np.random.default_rng(1)
    vectors = {node_id: rng.normal(size=4).tolist() for node_id in g.nodes}
    index = build_index(make_table(vectors), list(g.nodes))  # includes the FL
    with pytest.raises(ValueError, match="not a text log"):
        sample_triplets(index, g, SamplingParams(k_pos=1, c_pos=1, k_hard=3, c_hard=1))


def test_save_load_round_trip(tmp_path):
    triplets = [
        Triplet("q1", "p1", "n1", NegKind.EASY),
        Triplet("q1", "p1", "n2", NegKind.HARD),
        Triplet("q2", "p2", "n3", NegKind.HARD),
    ]
    save_triplets(triplets, tmp_path / "t.jsonl")
    assert load_triplets(tmp_path / "t.jsonl") == triplets


@pytest.mark.parametrize("seed", [7, 11, 301])
def test_sample_triplets_equals_per_query_oracle_on_a_plant(seed):
    """Block kNN and positional easy draws give the per-query loop's triplets and skip count
    exactly, on a synthetic plant whose short logs take the skip branch."""
    from plantsearch.graph_embed import GETrainConfig, InitMode, init_embeddings
    from plantsearch.synth import PlantConfig, generate_plant

    plant = generate_plant(PlantConfig(plant_id="P", seed=seed, n_fl=12, n_logs=160,
                                       n_queries=4))
    g = plant.graph
    cfg = GETrainConfig(dim=64, init_mode=InitMode.TEXT_VECTORS, rng_seed=seed)
    index = build_index(init_embeddings(g, cfg, plant.text_vectors),
                        [n.id for n in g.text_logs()])
    for params in (SamplingParams(rng_seed=seed),
                   SamplingParams(k_pos=3, c_pos=2, k_hard=20, c_hard=3, c_easy=4,
                                  rng_seed=seed + 1)):
        tset = sample_triplets(index, g, params)
        want, skipped = oracle_sample_triplets(index, g, params)
        assert skipped > 0 and want
        assert tset.skipped == skipped
        assert tset.triplets == want


def test_sample_triplets_equals_oracle_with_ties_and_small_corpus():
    """Duplicated and zero vectors tie exactly; a corpus too small for the bands skips
    every query, as the per-query loop does."""
    from plantsearch.kg import Relation

    rng = np.random.default_rng(5)
    logs = [(f"d{i:03d}", "y" * 40 if rng.random() < 0.2 else "x" * 120) for i in range(90)]
    vectors = {}
    for i, (log_id, _) in enumerate(logs):
        roll = rng.random()
        if i >= 2 and roll < 0.25:
            vectors[log_id] = list(vectors[logs[int(rng.integers(0, i))][0]])
        elif roll < 0.3:
            vectors[log_id] = [0.0] * 8
        else:
            vectors[log_id] = rng.normal(size=8).tolist()
    vectors["f0"] = rng.normal(size=8).tolist()
    g = make_graph(logs, [("f0", "C0", "fl")],
                   [(log_id, "f0", Relation("reports_about")) for log_id, _ in logs])
    index = build_index(make_table(vectors), [log_id for log_id, _ in logs])
    for params in (SamplingParams(k_hard=30, c_hard=2, c_easy=3, rng_seed=1),
                   SamplingParams(k_hard=30, c_hard=2, c_easy=3, rng_seed=2),
                   SamplingParams(k_hard=80, rng_seed=3)):
        tset = sample_triplets(index, g, params)
        want, skipped = oracle_sample_triplets(index, g, params)
        assert (tset.triplets, tset.skipped) == (want, skipped)
    assert tset.triplets == [] and tset.skipped == len(logs)
