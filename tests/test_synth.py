import numpy as np
import pytest

from plantsearch.encoder import init_encoder
from plantsearch.ir_eval import Benchmark, evaluate_run
from plantsearch.kg import Relation, build_graph, save_graph
from plantsearch.pairs import PairLabel, PairSource
from plantsearch.synth import (
    DEFAULT_JARGON_PAIRS,
    FILLER_WORDS,
    GeneratedPlant,
    PlantConfig,
    generate_plant,
)


def _cfg(**kw) -> PlantConfig:
    base = dict(plant_id="T", seed=11, n_fl=15, n_logs=80, n_queries=6, sid_pairs=5)
    base.update(kw)
    return PlantConfig(**base)


@pytest.fixture(scope="module")
def plant() -> GeneratedPlant:
    return generate_plant(_cfg())


def test_tree_structure(plant):
    g = plant.graph
    fls = g.functional_locations()
    assert len(fls) == 15
    counts = g.edge_counts()
    # a tree over n_fl nodes has exactly n_fl - 1 PartOf edges
    assert counts[Relation.PART_OF] == 14
    # breadth-first hierarchical codes
    codes = {f.code for f in fls}
    assert "FL 1" in codes and "FL 1-1" in codes and "FL 1-2" in codes


def test_every_log_linked(plant):
    g = plant.graph
    logs = g.text_logs()
    assert len(logs) == 80
    for log in logs:
        assert len(g.reported_fls(log.id)) == 1
        assert plant.primary_fl[log.id] in g.reported_fls(log.id)
    # already satisfies the post-filtering invariant: filtering drops nothing
    built = build_graph(g)
    assert len(built.text_logs()) == len(logs)
    assert built.edge_counts() == g.edge_counts()


def test_related_rate_zero_means_no_related_edges():
    p = generate_plant(_cfg(related_rate=0.0))
    assert p.graph.edge_counts()[Relation.RELATED_TO] == 0


def test_related_edges_run_earlier_to_later(plant):
    related = [e for e in plant.graph.edges if e.rel is Relation.RELATED_TO]
    assert related, "default config should produce follow-up logs"
    for e in related:
        src, dst = plant.graph.nodes[e.src], plant.graph.nodes[e.dst]
        assert src.ts is not None and dst.ts is not None
        assert src.ts < dst.ts
        # follow-ups stay on the same functional location
        assert plant.primary_fl[e.src] == plant.primary_fl[e.dst]


def test_short_log_rate_shifts_length_distribution():
    short = generate_plant(_cfg(short_log_rate=1.0))
    long = generate_plant(_cfg(short_log_rate=0.0))
    mean_len = lambda p: np.mean([len(n.text.split()) for n in p.graph.text_logs()])
    assert mean_len(short) < mean_len(long) - 5


def test_regeneration_is_byte_identical(tmp_path):
    a, b = generate_plant(_cfg()), generate_plant(_cfg())
    for tag, p in (("a", a), ("b", b)):
        save_graph(p.graph, tmp_path / f"{tag}_nodes.jsonl", tmp_path / f"{tag}_edges.jsonl")
    for name in ("nodes.jsonl", "edges.jsonl"):
        assert (tmp_path / f"a_{name}").read_bytes() == (tmp_path / f"b_{name}").read_bytes()
    assert sorted(a.text_vectors) == sorted(b.text_vectors)
    for k in a.text_vectors:
        assert np.array_equal(a.text_vectors[k], b.text_vectors[k])
    assert a.bench.qrels == b.bench.qrels
    assert a.bench.queries == b.bench.queries
    assert a.sid_pairs == b.sid_pairs
    # a different seed must actually change the output
    c = generate_plant(_cfg(seed=12))
    assert c.bench.corpus != a.bench.corpus


def test_queries_use_textbook_forms(plant):
    textbook_forms = {t for _, t in DEFAULT_JARGON_PAIRS}
    jargon_words = {j for j, _ in DEFAULT_JARGON_PAIRS}
    for q in plant.bench.queries:
        terms = q.text.split()
        assert len(terms) == 3
        assert terms[2] in textbook_forms
        assert not jargon_words.intersection(terms)
        # every query has at least one relevant doc in its own corpus
        graded = plant.bench.qrels[q.query_id]
        assert graded and all(d in plant.bench.corpus for d in graded)


def test_qrels_cover_whole_subtree_including_jargon_logs(plant):
    # some graded-relevant logs use the jargon form the query never mentions,
    # which is the retrieval headroom the pipeline is meant to close
    jargon_logs = {l for l, (_, form) in plant.jargon_forms.items() if form == "jargon"}
    assert jargon_logs
    covered = set()
    for graded in plant.bench.qrels.values():
        covered |= set(graded) & jargon_logs
    assert covered


def test_jargon_forms_recorded(plant):
    forms = {form for _, form in plant.jargon_forms.values()}
    assert forms == {"jargon", "textbook"}
    assert set(plant.jargon_forms) <= set(plant.bench.corpus)
    pair_idx = {i for i, _ in plant.jargon_forms.values()}
    assert pair_idx <= set(range(len(DEFAULT_JARGON_PAIRS)))


def test_untrained_retrieval_leaves_headroom(plant):
    """An untrained hashed encoder must not already solve the benchmark."""
    p = init_encoder(dim=64, vocab_buckets=4096, seed=0)
    report = evaluate_run(p, Benchmark([generate_plant(_cfg()).bench]))
    assert 0.0 < report.mean_ndcg10 < 0.9


def test_text_vectors_cover_graph_and_carry_topic_signal(plant):
    assert set(plant.text_vectors) == set(plant.graph.nodes)
    for v in plant.text_vectors.values():
        assert v.shape == (64,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # logs sit nearer their own FL than a far-away one, on average
    fls = [f.id for f in plant.graph.functional_locations()]
    own, other = [], []
    for log_id, fl_id in plant.primary_fl.items():
        lv = plant.text_vectors[log_id]
        own.append(float(lv @ plant.text_vectors[fl_id]))
        alt = fls[hash(log_id) % len(fls)]
        if alt != fl_id:
            other.append(float(lv @ plant.text_vectors[alt]))
    assert np.mean(own) > np.mean(other) + 0.1


def test_sid_pairs_shape(plant):
    positives = [p for p in plant.sid_pairs if p.label is PairLabel.POSITIVE]
    negatives = [p for p in plant.sid_pairs if p.label is PairLabel.NEGATIVE]
    assert len(positives) == 5
    assert all(p.source is PairSource.SID for p in plant.sid_pairs)
    assert all(p.doc_id in plant.bench.corpus for p in plant.sid_pairs)
    # negatives reuse the positive queries, never the positive doc
    pos_docs = {(p.query_text, p.doc_id) for p in positives}
    for n in negatives:
        assert (n.query_text, n.doc_id) not in pos_docs
    assert generate_plant(_cfg(sid_pairs=0)).sid_pairs == []


def test_config_validation():
    with pytest.raises(ValueError, match="more queries"):
        _cfg(n_fl=5, n_queries=5).validate()
    for bad in (
        dict(plant_id=""),
        dict(seed=-1),
        dict(n_fl=1),
        dict(tree_branching=0),
        dict(n_logs=0),
        dict(n_queries=0),
        dict(jargon_pairs=[]),
        dict(abbreviation_rate=1.5),
        dict(related_rate=-0.1),
        dict(short_log_rate=2.0),
        dict(vec_dim=1),
        dict(sid_pairs=-1),
    ):
        with pytest.raises(ValueError):
            _cfg(**bad).validate()


def test_multi_plant_namespaces_and_collisions():
    def bench(*cfgs):
        out = Benchmark([generate_plant(cfg).bench for cfg in cfgs])
        out.validate()
        return out

    plants = bench(_cfg(plant_id="A", training=True), _cfg(plant_id="B", seed=12)).plants
    assert [p.plant_id for p in plants] == ["A", "B"]
    assert not set(plants[0].corpus) & set(plants[1].corpus)
    with pytest.raises(ValueError, match="duplicate plant id"):
        bench(_cfg(plant_id="A"), _cfg(plant_id="A", seed=9))


def test_code_mentions_without_edges_exist(plant):
    """Some log texts cite sibling FL codes that have no backing edge."""
    g = plant.graph
    cited_unlinked = 0
    codes = {f.code: f.id for f in g.functional_locations()}
    for log in g.text_logs():
        linked = set(g.reported_fls(log.id))
        for code, fl_id in codes.items():
            if fl_id not in linked and f" {code} " in f" {log.text} ":
                cited_unlinked += 1
                break
    assert cited_unlinked > 0


@pytest.mark.parametrize("n", range(26))
def test_one_filler_draw_equals_a_draw_per_word(n):
    """Each log draws its filler words in one ``size=n`` call: the values and the generator's
    state after it are those of n scalar calls, so every generated plant stays the same."""
    per_word, at_once = np.random.default_rng(11), np.random.default_rng(11)
    per_word.random(), at_once.random()  # start mid-stream, as a log's draws do
    bound = len(FILLER_WORDS)
    assert [int(per_word.integers(0, bound)) for _ in range(n)] == at_once.integers(
        0, bound, size=n).tolist()
    assert per_word.bit_generator.state == at_once.bit_generator.state
