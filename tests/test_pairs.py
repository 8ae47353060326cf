import math
import random
from dataclasses import asdict

import pytest

from plantsearch.pairs import (
    CorpusStats,
    EncoderCosineScorer,
    PairLabel,
    PairSource,
    QueryDocPair,
    compose_dataset,
    generate_query,
    load_pairs,
    quality_filter,
    save_pairs,
    triplets_to_pairs,
)
from plantsearch.encoder import encode, init_encoder
from plantsearch.synth import PlantConfig, generate_plant
from plantsearch.triplets import NegKind, Triplet, TripletSet

from oracles import oracle_np_cosine, oracle_score_pairs

CORPUS = [
    "pumpe leckt flansch",          # doc 0
    "pumpe läuft normal",           # doc 1
    "filter verstopft flansch",     # doc 2
    "kessel druck normal",          # doc 3
]


def test_corpus_stats_document_frequencies():
    stats = CorpusStats.from_texts(CORPUS)
    assert stats.n_docs == 4
    assert stats.doc_freq["pumpe"] == 2
    assert stats.doc_freq["flansch"] == 2
    assert stats.doc_freq["leckt"] == 1
    assert "fehlt" not in stats.doc_freq
    # idf = ln((1+N) / (1+df))
    assert stats.idf("leckt") == pytest.approx(math.log(5 / 2), abs=1e-15)
    assert stats.idf("pumpe") == pytest.approx(math.log(5 / 3), abs=1e-15)
    assert stats.idf("fehlt") == pytest.approx(math.log(5 / 1), abs=1e-15)


def test_corpus_stats_repeated_term_counts_once_per_doc():
    stats = CorpusStats.from_texts(["echo echo echo", "echo other"])
    assert stats.doc_freq["echo"] == 2


def test_generate_query_hand_computed():
    """TF-IDF ranking computed by hand for doc 0.

    tf * idf with idf = ln(5 / (1 + df)):
      pumpe   1 * ln(5/3) = 0.5108...
      leckt   1 * ln(5/2) = 0.9162...
      flansch 1 * ln(5/3) = 0.5108...
    leckt wins; pumpe and flansch tie and break by first occurrence.
    """
    stats = CorpusStats.from_texts(CORPUS)
    assert generate_query(CORPUS[0], 1, stats) == "leckt"
    assert generate_query(CORPUS[0], 2, stats) == "leckt pumpe"
    assert generate_query(CORPUS[0], 3, stats) == "leckt pumpe flansch"
    # m beyond the vocabulary just returns every distinct term
    assert generate_query(CORPUS[0], 10, stats) == "leckt pumpe flansch"


def test_generate_query_term_frequency_weighting():
    stats = CorpusStats.from_texts(["a b", "b c", "c d"])
    # "b b d": tf(b)=2 idf(b)=ln(4/3); tf(d)=1 idf(d)=ln(4/2)
    # 2*0.2877 = 0.575 > 0.693*1? no: ln2 = 0.693 > 0.575 -> d first
    assert generate_query("b b d", 2, stats) == "d b"
    # "b b b d": 3*0.2877 = 0.863 > 0.693 -> b first
    assert generate_query("b b b d", 2, stats) == "b d"


def test_generate_query_errors():
    stats = CorpusStats.from_texts(CORPUS)
    with pytest.raises(ValueError):
        generate_query(CORPUS[0], 0, stats)
    with pytest.raises(ValueError, match="no word tokens"):
        generate_query("?!", 2, stats)


def _tset(rows):
    return TripletSet(rows, "fp")


class StubScorer:
    """Deterministic lookup-table scorer keyed on (query doc, doc) texts."""

    def __init__(self, table):
        self.table = table

    def score_pairs(self, pairs):
        return [self.table[pair] for pair in pairs]


def test_quality_filter_thresholds():
    texts = {"q": "Q", "p": "P", "n": "N", "p2": "P2"}
    rows = [
        Triplet("q", "p", "n", NegKind.HARD),    # s_pos 6, margin 4: kept
        Triplet("q", "p2", "n", NegKind.EASY),   # s_pos 4.9 < 5: dropped
        Triplet("q", "p", "p2", NegKind.HARD),   # margin 6-4=2 < 3: dropped
    ]
    scorer = StubScorer({
        ("Q", "P"): 6.0, ("Q", "N"): 2.0, ("Q", "P2"): 4.9,
    })
    # reuse P2's score as a negative score for the margin case
    scorer.table[("Q", "P2")] = 4.9
    out = quality_filter(_tset(rows), texts, scorer, t_pos=5.0, t_margin=3.0)
    assert out.triplets == [rows[0]]
    assert out.index_fingerprint == "fp"
    # boundary cases are inclusive
    scorer2 = StubScorer({("Q", "P"): 5.0, ("Q", "N"): 2.0})
    out2 = quality_filter(_tset([rows[0]]), texts, scorer2, t_pos=5.0, t_margin=3.0)
    assert len(out2.triplets) == 1


def test_quality_filter_missing_text():
    scorer = StubScorer({})
    with pytest.raises(KeyError, match="ghost"):
        quality_filter(_tset([Triplet("ghost", "p", "n", NegKind.EASY)]),
                       {"p": "P", "n": "N"}, scorer, t_pos=5.0, t_margin=3.0)


def test_quality_filter_idempotent_with_encoder_scorer():
    texts = {
        "a": "pumpe leckt flansch dichtung",
        "b": "pumpe undicht flansch",
        "c": "kessel druck hoch",
    }
    rows = [Triplet("a", "b", "c", NegKind.HARD), Triplet("b", "a", "c", NegKind.EASY)]
    scorer = EncoderCosineScorer(init_encoder(dim=16, vocab_buckets=256, seed=0))
    once = quality_filter(_tset(rows), texts, scorer, t_pos=0.5, t_margin=0.1)
    twice = quality_filter(once, texts, scorer, t_pos=0.5, t_margin=0.1)
    assert once.triplets == twice.triplets


def test_encoder_cosine_scorer_range():
    scorer = EncoderCosineScorer(init_encoder(dim=8, vocab_buckets=128, seed=1), scale=10.0)
    same, other, empty = scorer.score_pairs(
        [("pumpe leckt", "pumpe leckt"), ("pumpe", "kessel"), ("", "pumpe")]
    )
    assert same == pytest.approx(10.0, abs=1e-9)  # identical text: cosine 1
    assert -10.0 <= other <= 10.0
    # one batch per call, within 1e-12 of encoding each text on its own
    p = scorer.params
    assert other == pytest.approx(10.0 * oracle_np_cosine(encode(p, "pumpe"), encode(p, "kessel")),
                                  rel=0, abs=1e-12)
    assert empty == 0.0  # zero vector scores 0


def test_encoder_cosine_scorer_matches_the_per_pair_cosine_loop():
    """The row-wise pass equals one ``cosine`` call per pair bit for bit, zero vectors and
    repeated texts included."""
    plant = generate_plant(PlantConfig(plant_id="S", n_fl=6, n_logs=40, n_queries=2, seed=5))
    logs = [n.text for n in plant.graph.text_logs()]
    rng = random.Random(5)
    pairs = [(rng.choice(logs), rng.choice(logs)) for _ in range(300)]
    pairs += [("", logs[0]), (logs[1], ""), ("", ""), (logs[2], logs[2]), ("!!", "pumpe")]
    scorer = EncoderCosineScorer(init_encoder(dim=16, vocab_buckets=4096, seed=2), scale=10.0)
    scores = scorer.score_pairs(pairs)
    assert scores == oracle_score_pairs(scorer, pairs)
    assert all(type(s) is float for s in scores)
    assert scores[-5:-2] == [0.0, 0.0, 0.0]


def test_triplets_to_pairs_structure():
    rows = [
        Triplet("d1", "d2", "d3", NegKind.HARD),
        Triplet("d1", "d2", "d4", NegKind.EASY),
        Triplet("d5", "d1", "d3", NegKind.HARD),
    ]
    queries = {"d1": "query one", "d5": "query five"}
    pairs = triplets_to_pairs(rows, queries)
    assert all(p.source is PairSource.GET for p in pairs)
    got = {(p.query_text, p.doc_id, p.label) for p in pairs}
    want = {
        ("query one", "d1", PairLabel.POSITIVE),
        ("query one", "d2", PairLabel.NEGATIVE),
        ("query one", "d3", PairLabel.NEGATIVE),
        ("query one", "d4", PairLabel.NEGATIVE),
        ("query five", "d5", PairLabel.POSITIVE),
        ("query five", "d1", PairLabel.NEGATIVE),
        ("query five", "d3", PairLabel.NEGATIVE),
    }
    assert got == want
    # sorted by (query doc id, doc id) with no duplicates
    keys = [(p.query_text, p.doc_id) for p in pairs]
    assert len(keys) == len(set(keys))
    d1_docs = [p.doc_id for p in pairs if p.query_text == "query one"]
    assert d1_docs == sorted(d1_docs)


def test_triplets_to_pairs_missing_query():
    rows = [Triplet("d1", "d2", "d3", NegKind.HARD)]
    with pytest.raises(KeyError, match="d1"):
        triplets_to_pairs(rows, {})


def test_triplets_to_pairs_empty():
    assert triplets_to_pairs([], {}) == []


def test_save_load_round_trip(tmp_path):
    rows = [
        QueryDocPair("quer ä", "d1", PairLabel.POSITIVE, PairSource.GET),
        QueryDocPair("quer ä", "d2", PairLabel.NEGATIVE, PairSource.SID),
    ]
    save_pairs(rows, tmp_path / "p.jsonl")
    assert load_pairs(tmp_path / "p.jsonl") == rows


def test_load_pairs_default_source(tmp_path):
    (tmp_path / "p.jsonl").write_text(
        '{"query": "q", "doc_id": "d", "label": 1}\n', encoding="utf-8"
    )
    rows = load_pairs(tmp_path / "p.jsonl", default_source=PairSource.DRMM)
    assert rows[0].source is PairSource.DRMM
    with pytest.raises(ValueError):
        load_pairs(tmp_path / "p.jsonl")  # no source column and no default


def test_compose_dataset_counts_and_overlap():
    get_rows = [
        QueryDocPair("q1", "d1", PairLabel.POSITIVE, PairSource.GET),
        QueryDocPair("q1", "d2", PairLabel.NEGATIVE, PairSource.GET),
    ]
    sid_rows = [
        QueryDocPair("q1", "d1", PairLabel.POSITIVE, PairSource.SID),  # overlaps
        QueryDocPair("q2", "d3", PairLabel.POSITIVE, PairSource.SID),
        QueryDocPair("q2", "d1", PairLabel.NEGATIVE, PairSource.SID),
    ]
    rows, report = compose_dataset([get_rows, sid_rows])
    assert rows == get_rows + sid_rows  # component order preserved
    d = asdict(report)
    assert d["per_source"]["GET"] == {"total": 2, "positives": 1, "negatives": 1}
    assert d["per_source"]["SID"] == {"total": 3, "positives": 2, "negatives": 1}
    assert d["total"] == 5 and d["positives"] == 3 and d["negatives"] == 2
    assert d["overlap"] == 1  # (q1, d1) appears twice
