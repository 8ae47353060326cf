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


@pytest.mark.parametrize("free", [2, 700, 2**31 + 11, 2**40 + 3])
def test_one_integers_call_draws_the_stream_of_one_single_choice_per_query(free):
    """The c_easy == 1 draw of sample_triplets: one ``rng.integers(0, free, size=n)`` picks
    what ``rng.choice(free, size=1, replace=False)`` picks for each of n queries, and leaves
    the generator where they leave it (an odd n leaves half of a 64-bit output buffered)."""
    per_query, at_once = np.random.default_rng(3), np.random.default_rng(3)
    picks = [per_query.choice(free, size=1, replace=False) for _ in range(301)]
    assert np.concatenate(picks).tolist() == at_once.integers(0, free, size=301).tolist()
    for draw in (lambda rng: rng.integers(0, 700, size=3).tolist(), lambda rng: rng.random()):
        assert draw(per_query) == draw(at_once)


def test_filtered_random_sample_exhausted():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="cannot draw"):
        positional_sample(2, np.array([0]), 2, rng)


def _corpus_fixture(n=12, dim=4, seed=0, short_ids=()):
    """Graph over n synthetic logs and one FL, and a table of seeded vectors for its nodes."""
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
    return g, make_table(vectors)


def test_sample_triplets_structure():
    g, table = _corpus_fixture(n=12)
    index = build_index(table, [n.id for n in g.text_logs()])
    p = SamplingParams(k_pos=2, c_pos=2, k_hard=6, c_hard=2, c_easy=2, min_text_chars=100)
    tset = sample_triplets(table, g, p)
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
    g, table = _corpus_fixture(n=12, short_ids={"d03"})
    p = SamplingParams(k_pos=1, c_pos=1, k_hard=5, c_hard=1, c_easy=1, min_text_chars=100)
    tset = sample_triplets(table, g, p)
    assert tset.skipped == 1
    queries = {t.query for t in tset.triplets}
    assert "d03" not in queries
    # the short doc is ineligible as positive or negative too
    for t in tset.triplets:
        assert "d03" not in (t.positive, t.negative)


def test_sample_triplets_skips_small_corpus():
    g, table = _corpus_fixture(n=6)
    p = SamplingParams(k_pos=1, c_pos=1, k_hard=5, c_hard=1, c_easy=1)
    # eligible-1 = 5 < k_hard + c_easy = 6: every query skipped, no clamping
    tset = sample_triplets(table, g, p)
    assert tset.triplets == []
    assert tset.skipped == 6


def test_sample_triplets_deterministic():
    g, table = _corpus_fixture(n=14)
    p = SamplingParams(k_pos=2, c_pos=2, k_hard=7, c_hard=2, c_easy=3, rng_seed=9)
    a = sample_triplets(table, g, p)
    b = sample_triplets(table, g, p)
    assert a.triplets == b.triplets


def test_sample_triplets_rejects_foreign_index():
    """A table of another graph, which lacks logs of this one, raises KeyError."""
    g, _ = _corpus_fixture(n=12)
    _, other_table = _corpus_fixture(n=3)
    p = SamplingParams(k_pos=1, c_pos=1, k_hard=3, c_hard=1)
    with pytest.raises(KeyError, match="d03"):
        sample_triplets(other_table, g, p)


def test_sample_triplets_indexes_only_the_text_logs():
    """Table rows of nodes that are no text log of the graph, the FL and a foreign id,
    are neither indexed nor sampled, even as copies of a query: the triplets and the
    fingerprint equal those of a table of the logs alone."""
    g, table = _corpus_fixture(n=12)
    logs = {n.id: table.vector(n.id).tolist() for n in g.text_logs()}
    p = SamplingParams(k_pos=1, c_pos=1, k_hard=3, c_hard=1)
    want = sample_triplets(make_table(logs), g, p)
    got = sample_triplets(make_table(logs | {"f0": logs["d04"], "a": logs["d07"]}), g, p)
    assert want.triplets and got == want


def test_save_load_round_trip(tmp_path):
    triplets = [
        Triplet("q1", "p1", "n1", NegKind.EASY),
        Triplet("q1", "p1", "n2", NegKind.HARD),
        Triplet("q2", "p2", "n3", NegKind.HARD),
    ]
    save_triplets(triplets, tmp_path / "t.jsonl")
    assert load_triplets(tmp_path / "t.jsonl") == triplets


def test_save_triplets_writes_sorted_key_json_lines(tmp_path):
    """Each line is ``json.dumps`` of its record with sorted keys, non-ASCII ids as they are
    (as ``storage.write_json_lines`` writes them), and the kind's value."""
    import json

    triplets = [Triplet("log:ä", "log:β", "log:ß", NegKind.EASY),
                Triplet("log:ä", "log:β", "log:日本", NegKind.HARD),
                Triplet("q", "p\u2028\"x\"", "n\\", NegKind.HARD)]
    save_triplets(triplets, tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_bytes().decode("utf-8").split("\n")
    assert lines[-1] == "" and len(lines) == len(triplets) + 1
    for line, t in zip(lines, triplets):
        rec = {"q": t.query, "pos": t.positive, "neg": t.negative, "neg_kind": t.neg_kind.value}
        assert line == json.dumps(rec, sort_keys=True, ensure_ascii=False)
    assert lines[0] == '{"neg": "log:ß", "neg_kind": "easy", "pos": "log:β", "q": "log:ä"}'


@pytest.mark.parametrize("seed, n_fl, n_logs",
                         [(7, 12, 160), (11, 12, 160), (301, 12, 160), (7, 60, 800),
                          (11, 60, 800)],
                         ids=["7", "11", "301", "7-800-logs", "11-800-logs"])
def test_sample_triplets_equals_per_query_oracle_on_a_plant(seed, n_fl, n_logs):
    """Block kNN and positional easy draws give the per-query loop's triplets and skip count
    exactly, on a synthetic plant whose short logs take the skip branch; 800 logs is the
    size of a `graph` workload plant."""
    from plantsearch.graph_embed import GETrainConfig, InitMode, init_embeddings
    from plantsearch.synth import PlantConfig, generate_plant

    plant = generate_plant(PlantConfig(plant_id="P", seed=seed, n_fl=n_fl, n_logs=n_logs,
                                       n_queries=4))
    g = plant.graph
    cfg = GETrainConfig(dim=64, init_mode=InitMode.TEXT_VECTORS, rng_seed=seed)
    emb = init_embeddings(g, cfg, plant.text_vectors)
    for params in (SamplingParams(rng_seed=seed),
                   SamplingParams(k_pos=3, c_pos=2, k_hard=20, c_hard=3, c_easy=4,
                                  rng_seed=seed + 1)):
        tset = sample_triplets(emb, g, params)
        want, skipped = oracle_sample_triplets(emb, g, params)
        assert skipped > 0 and want
        assert tset.skipped == skipped
        assert tset.triplets == want


@pytest.mark.parametrize("seed", [7, 11])
def test_sample_triplets_ignores_short_logs_that_outscore_or_tie_eligible_ones(seed):
    """Each log shorter than ``min_text_chars`` takes a copy of an eligible log's row, which
    scores 1 against that log as a query and ties it as a neighbor, the smaller id first
    about half the time. The triplets and the skip count stay; only the fingerprint
    moves, since it hashes every log's row."""
    from plantsearch.graph_embed import GETrainConfig, InitMode, init_embeddings
    from plantsearch.synth import PlantConfig, generate_plant

    plant = generate_plant(PlantConfig(plant_id="P", seed=seed, n_fl=12, n_logs=160,
                                       n_queries=4))
    g = plant.graph
    emb = init_embeddings(g, GETrainConfig(dim=64, init_mode=InitMode.TEXT_VECTORS,
                                           rng_seed=seed), plant.text_vectors)
    logs = sorted(n.id for n in g.text_logs())
    short = [i for i in logs if len(g.nodes[i].text) < SamplingParams().min_text_chars]
    eligible = [i for i in logs if i not in short]
    rng = np.random.default_rng(seed)
    copied = emb.copy()
    for log_id in short:
        copied.vectors[copied.row(log_id)] = emb.vector(eligible[rng.integers(len(eligible))])
    for params in (SamplingParams(rng_seed=seed),
                   SamplingParams(k_pos=3, c_pos=2, k_hard=20, c_hard=3, c_easy=4,
                                  rng_seed=seed + 1)):
        want, got = sample_triplets(emb, g, params), sample_triplets(copied, g, params)
        assert short and want.triplets
        assert (got.triplets, got.skipped) == (want.triplets, want.skipped)
        assert got.index_fingerprint != want.index_fingerprint


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
    table = make_table(vectors)
    for params in (SamplingParams(k_hard=30, c_hard=2, c_easy=3, rng_seed=1),
                   SamplingParams(k_hard=30, c_hard=2, c_easy=3, rng_seed=2),
                   SamplingParams(k_hard=80, rng_seed=3)):
        tset = sample_triplets(table, g, params)
        want, skipped = oracle_sample_triplets(table, g, params)
        assert (tset.triplets, tset.skipped) == (want, skipped)
    assert tset.triplets == [] and tset.skipped == len(logs)
