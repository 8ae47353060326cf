import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import make_graph, make_table, train_one
from oracles import (
    oracle_edge_score,
    oracle_link_prediction,
    oracle_minibatch_train_graph_embeddings,
    oracle_np_cosine,
    oracle_np_link_prediction,
    oracle_train_graph_embeddings,
)
from plantsearch import graph_embed
from plantsearch.graph_embed import (
    GETrainConfig,
    InitMode,
    LPReport,
    eval_link_prediction,
    init_embeddings,
    load_embeddings,
    save_embeddings,
    score_edge,
    split_edges,
    train_plant_embeddings,
)
from plantsearch.kg import RELATION_SIGNATURES, Edge, NodeKind, Relation
from plantsearch.losses import NonFiniteError
from plantsearch.synth import PlantConfig, generate_plant


def _chain_graph(n_logs=6):
    """n logs each reporting about one of two FLs under a common root."""
    logs = [(f"l{i}", f"log text {i}", 100 * i) for i in range(n_logs)]
    fls = [("f0", "C0", "a"), ("f1", "C1", "b"), ("root", "R", "r")]
    edges = [(f"l{i}", f"f{i % 2}", Relation.REPORTS_ABOUT) for i in range(n_logs)]
    edges += [("f0", "root", Relation.PART_OF), ("f1", "root", Relation.PART_OF)]
    edges += [(f"l{i}", f"l{i + 1}", Relation.RELATED_TO) for i in range(n_logs - 1)]
    return make_graph(logs, fls, edges)


def test_config_validation():
    GETrainConfig().validate()
    for bad in (
        {"dim": 1},
        {"epochs": -1},
        {"learning_rate": 0.0},
        {"ranking_margin": 0.0},
        {"negatives_per_edge": 0},
    ):
        with pytest.raises(ValueError):
            GETrainConfig(**bad).validate()


def test_random_init_range_and_determinism():
    g = _chain_graph()
    cfg = GETrainConfig(dim=8, rng_seed=5)
    emb1 = init_embeddings(g, cfg)
    emb2 = init_embeddings(g, cfg)
    np.testing.assert_array_equal(emb1.vectors, emb2.vectors)
    assert emb1.node_ids == sorted(g.nodes)
    bound = 1.0 / 8
    assert np.all(np.abs(emb1.vectors) <= bound)
    assert emb1.vectors.std() > 0
    for rel in Relation:
        assert not emb1.relation_params[rel].any()


def test_text_vector_init_copies_and_validates():
    g = _chain_graph(2)
    cfg = GETrainConfig(dim=3, init_mode=InitMode.TEXT_VECTORS)
    vectors = {node_id: np.arange(3, dtype=float) + i for i, node_id in enumerate(sorted(g.nodes))}
    emb = init_embeddings(g, cfg, vectors)
    for node_id, v in vectors.items():
        np.testing.assert_array_equal(emb.vector(node_id), v)
    with pytest.raises(ValueError):
        init_embeddings(g, cfg)  # vectors required
    with pytest.raises(KeyError):
        init_embeddings(g, cfg, {"l0": np.zeros(3)})
    bad = dict(vectors)
    bad["l0"] = np.zeros(4)
    with pytest.raises(ValueError):
        init_embeddings(g, cfg, bad)


def test_score_edge_matches_oracle():
    rng = np.random.default_rng(8)
    vectors = {f"n{i}": rng.normal(size=4).tolist() for i in range(5)}
    rels = {rel.value: rng.normal(size=4).tolist() for rel in Relation}
    table = make_table(vectors, rels)
    for rel in Relation:
        got = score_edge(table, "n0", rel, "n3")
        want = oracle_edge_score(vectors, rels, "n0", rel.value, "n3")
        assert got == pytest.approx(want, abs=1e-12)


def test_train_improves_true_edge_scores():
    g = _chain_graph(8)
    cfg = GETrainConfig(dim=16, epochs=40, learning_rate=0.05, rng_seed=1)
    emb0 = init_embeddings(g, cfg)
    emb = train_one(g, emb0, cfg)
    # input table untouched
    assert not np.array_equal(emb.vectors, emb0.vectors)
    before = np.mean([score_edge(emb0, e.src, e.rel, e.dst) for e in g.edges])
    after = np.mean([score_edge(emb, e.src, e.rel, e.dst) for e in g.edges])
    assert after > before + 0.1


def test_train_epochs_zero_is_identity():
    g = _chain_graph()
    cfg = GETrainConfig(dim=4, epochs=0)
    emb0 = init_embeddings(g, cfg)
    emb = train_one(g, emb0, cfg)
    assert emb is not emb0
    np.testing.assert_array_equal(emb.vectors, emb0.vectors)


def test_train_single_edge_dominates_corruptions():
    # One true edge, several distractor logs: after training, the true
    # destination outranks every corruption.
    logs = [(f"l{i}", f"text {i}") for i in range(6)]
    fls = [("f0", "C0", "x")]
    g = make_graph(logs, fls, [("l0", "f0", Relation.REPORTS_ABOUT),
                               ("l1", "l2", Relation.RELATED_TO)])
    cfg = GETrainConfig(dim=8, epochs=200, learning_rate=0.1, rng_seed=3)
    emb = train_one(g, init_embeddings(g, cfg), cfg)
    true = score_edge(emb, "l1", Relation.RELATED_TO, "l2")
    for other in ("l0", "l3", "l4", "l5"):
        assert true > score_edge(emb, "l1", Relation.RELATED_TO, other)


def test_train_deterministic():
    g = _chain_graph()
    cfg = GETrainConfig(dim=8, epochs=5, rng_seed=11)
    a = train_one(g, init_embeddings(g, cfg), cfg)
    b = train_one(g, init_embeddings(g, cfg), cfg)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    for rel in Relation:
        np.testing.assert_array_equal(a.relation_params[rel], b.relation_params[rel])


# Batch sizes the training is held to its oracles at: 1 is the per-edge loop.
BATCHES = (1, 3, 64)


def _train_and_oracle(monkeypatch, batch, g, start, cfg):
    """The run at ``graph_embed.BATCH = batch`` and the oracle it must equal bit for bit."""
    monkeypatch.setattr(graph_embed, "BATCH", batch)
    got = train_one(g, start, cfg)
    if batch == 1:
        return got, oracle_train_graph_embeddings(g, start, cfg)
    return got, oracle_minibatch_train_graph_embeddings(g, start, cfg, batch)


def _crossed_graph():
    """Two reports_about and two related_to edges whose only corruptions are rows of
    the others: (l0, f0)'s is f1, the destination of (l1, f1), and (l0, l1)'s is l0,
    its own source. At margin 2.0 every edge is active, so a batch of 3 or more
    holds a relation with several active edges and negatives that repeat its rows."""
    return make_graph([("l0", "text 0"), ("l1", "text 1")],
                      [("f0", "C0", "a"), ("f1", "C1", "b")],
                      [("l0", "f0", Relation.REPORTS_ABOUT), ("l1", "f1", Relation.REPORTS_ABOUT),
                       ("l0", "l1", Relation.RELATED_TO), ("l1", "l0", Relation.RELATED_TO)])


def test_train_bitwise_equals_oracle_driven_run(monkeypatch):
    g = _chain_graph(10)
    ids = sorted(g.nodes)
    rng = np.random.default_rng(8)
    text_vectors = {node_id: rng.normal(size=8) for node_id in ids}
    text_vectors["l3"] = text_vectors["l2"].copy()  # duplicate rows tie exactly
    text_vectors["l5"] = np.zeros(8)  # a zero-norm row
    crossed = _crossed_graph()
    crossed_vectors = {node_id: rng.normal(size=8) for node_id in sorted(crossed.nodes)}
    text_cfg = dict(dim=8, init_mode=InitMode.TEXT_VECTORS)
    cases = [(g, GETrainConfig(dim=8, epochs=6, negatives_per_edge=7, rng_seed=3), text_vectors),
             (g, GETrainConfig(epochs=4, ranking_margin=0.8, rng_seed=4, **text_cfg),
              text_vectors),
             (crossed, GETrainConfig(epochs=3, ranking_margin=2.0, negatives_per_edge=3,
                                     **text_cfg), crossed_vectors)]
    for batch in BATCHES:
        for graph, cfg, vectors in cases:
            start = init_embeddings(graph, cfg, vectors)
            got, want = _train_and_oracle(monkeypatch, batch, graph, start, cfg)
            assert _table_bytes(got) == _table_bytes(want), (batch, cfg)


def _table_bytes(emb):
    return emb.vectors.tobytes(), [emb.relation_params[rel].tobytes() for rel in Relation]


def _scan_graph():
    """Logs on four FLs under a root; l9 reports about every FL, so
    (l9, reports_about) has no allowed corruption and is never drawn for."""
    logs = [(f"l{i}", f"text {i}") for i in range(10)]
    fls = [(f"f{j}", f"C{j}", f"fl {j}") for j in range(4)] + [("root", "R", "r")]
    edges = [(f"l{i}", f"f{i % 4}", Relation.REPORTS_ABOUT) for i in range(9)]
    edges += [("l9", fl, Relation.REPORTS_ABOUT) for fl, _, _ in fls]
    edges += [(f"f{j}", "root", Relation.PART_OF) for j in range(4)]
    edges += [(f"l{i}", f"l{i + 1}", Relation.RELATED_TO) for i in range(9)]
    return make_graph(logs, fls, edges)


def _idle_graph(dim, rng):
    """40 logs near their FL's axis vector: at margin 0.5 only l00, which lies
    between f0 and f1, has an active hinge. Returns the graph and text vectors."""
    axes = np.eye(dim)
    fl_vectors = {"f0": axes[0], "f1": axes[1], "f2": -(axes[0] + axes[1])}
    logs = [(f"l{i:02d}", f"text {i}") for i in range(40)]
    edges = [(log_id, f"f{i % 2}", Relation.REPORTS_ABOUT) for i, (log_id, _) in enumerate(logs)]
    g = make_graph(logs, [(fl, fl.upper(), fl) for fl in fl_vectors], edges)
    text_vectors = dict(fl_vectors)
    for i, (log_id, _) in enumerate(logs):
        text_vectors[log_id] = fl_vectors[f"f{i % 2}"] + 0.05 * rng.normal(size=dim)
    text_vectors["l00"] = axes[0] + axes[1]
    return g, text_vectors


def _active_edges(caplog):
    """Active edges summed over the per-epoch debug lines caplog holds."""
    return sum(int(re.search(r", (\d+) active edges in ", r.getMessage()).group(1))
               for r in caplog.records if r.name == "plantsearch.graph_embed")


@pytest.mark.parametrize("dim", [2, 3, 16, 64])
def test_train_scan_bitwise_equals_per_edge_oracle(dim, caplog, monkeypatch):
    rng = np.random.default_rng(dim)
    g = _scan_graph()
    text_vectors = {node_id: rng.normal(size=dim) for node_id in sorted(g.nodes)}
    text_vectors["l3"] = text_vectors["l2"].copy()  # duplicate rows tie exactly
    text_vectors["f1"] = text_vectors["f0"].copy()
    text_vectors["l5"] = np.zeros(dim)  # zero-norm rows
    text_vectors["f2"] = np.zeros(dim)
    idle, idle_vectors = _idle_graph(dim, rng)
    text_cfg = GETrainConfig(dim=dim, init_mode=InitMode.TEXT_VECTORS)
    random_start = init_embeddings(g, GETrainConfig(dim=dim, rng_seed=dim))
    text_start = init_embeddings(g, text_cfg, text_vectors)
    # (graph, start, margin, edges that draw negatives); the five l9 edges
    # of _scan_graph draw none. A margin of 2.0 makes every edge active.
    cases = [(g, random_start, 0.1, 22), (g, text_start, 0.5, 22), (g, text_start, 2.0, 22),
             (idle, init_embeddings(idle, text_cfg, idle_vectors), 0.5, 40)]
    for batch in BATCHES:
        for k in (1, 10):
            for graph, start, margin, drawable in cases:
                for epochs in (0, 1, 3):
                    cfg = GETrainConfig(dim=dim, epochs=epochs, ranking_margin=margin,
                                        negatives_per_edge=k, rng_seed=7)
                    caplog.clear()
                    with caplog.at_level("DEBUG", logger="plantsearch.graph_embed"):
                        got, want = _train_and_oracle(monkeypatch, batch, graph, start, cfg)
                    assert _table_bytes(got) == _table_bytes(want), (batch, k, margin, epochs)
                    if margin == 2.0:
                        assert _active_edges(caplog) == drawable * epochs
                    elif graph is idle:
                        assert _active_edges(caplog) <= 0.1 * drawable * epochs


def test_train_scan_at_hinge_boundary_equals_oracle(monkeypatch):
    """Margins within a few ulps of s_pos - s_neg, where rounding decides
    the sign of the hinge term: training must step exactly where the loss
    finds a positive term. With s_neg in (-0.5, -0.25) and s_pos in
    (0.5, 1), ``margin - (s_pos - s_neg)`` and ``(margin + s_neg) - s_pos``
    each round differently from the loss's ``(margin - s_pos) + s_neg`` on
    some of these instances."""
    g = make_graph([("l0", "text")], [("f0", "C0", "a"), ("f1", "C1", "b")],
                   [("l0", "f0", Relation.REPORTS_ABOUT)])  # f1 is the only corruption
    for seed in range(16):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=16)
        text_vectors = {"l0": x, "f0": x + 0.5 * rng.normal(size=16),
                        "f1": rng.normal(size=16) - 0.3 * x}
        emb = init_embeddings(g, GETrainConfig(dim=16, init_mode=InitMode.TEXT_VECTORS),
                              text_vectors)
        margins = [oracle_np_cosine(x, text_vectors["f0"])
                   - oracle_np_cosine(x, text_vectors["f1"])]
        for _ in range(4):
            margins = [np.nextafter(margins[0], 0.0)] + margins + [np.nextafter(margins[-1], 2.0)]
        for batch in BATCHES:
            moved = []
            for margin in margins:
                cfg = GETrainConfig(dim=16, epochs=1, ranking_margin=float(margin),
                                    negatives_per_edge=1)
                got, want = _train_and_oracle(monkeypatch, batch, g, emb, cfg)
                assert _table_bytes(got) == _table_bytes(want)
                moved.append(not np.array_equal(got.vectors, emb.vectors))
            assert moved[0] is False and moved[-1] is True  # the sweep straddles the boundary


def _ge_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "plantsearch.graph_embed"]


def test_many_plants_bitwise_equal_each_plant_alone(caplog, monkeypatch):
    """Plants of 27, 21, 40 and 40 edges: their batch counts per epoch differ at BATCH 1
    and 3. _scan_graph has the undrawable (l9, reports_about) group and duplicate and
    zero-norm rows; at margin 0.5 the "calm" plant has no active edge in any epoch."""
    dim = 8
    rng = np.random.default_rng(5)
    scan = _scan_graph()
    scan_vectors = {node_id: rng.normal(size=dim) for node_id in sorted(scan.nodes)}
    scan_vectors["l3"] = scan_vectors["l2"].copy()
    scan_vectors["l5"] = np.zeros(dim)
    scan_vectors["f2"] = np.zeros(dim)
    chain = _chain_graph(10)
    chain_vectors = {node_id: rng.normal(size=dim) for node_id in sorted(chain.nodes)}
    idle, idle_vectors = _idle_graph(dim, rng)
    calm_vectors = {**idle_vectors, "l00": idle_vectors["l02"] + 0.01}
    text_cfg = GETrainConfig(dim=dim, epochs=3, ranking_margin=0.5, negatives_per_edge=4,
                             init_mode=InitMode.TEXT_VECTORS)
    plants = {pid: (graph, init_embeddings(graph, text_cfg, vectors),
                    replace(text_cfg, rng_seed=seed))
              for pid, graph, vectors, seed in (("scan", scan, scan_vectors, 1),
                                                ("chain", chain, chain_vectors, 2),
                                                ("idle", idle, idle_vectors, 3),
                                                ("calm", idle, calm_vectors, 4))}
    for batch in BATCHES:
        monkeypatch.setattr(graph_embed, "BATCH", batch)
        for some in (["scan", "chain"], ["chain", "idle", "calm"], list(plants)):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="plantsearch.graph_embed"):
                together = train_plant_embeddings({pid: plants[pid] for pid in some})
            lines = _ge_lines(caplog)
            assert list(together) == some
            for pid in some:
                caplog.clear()
                with caplog.at_level("DEBUG", logger="plantsearch.graph_embed"):
                    alone = train_plant_embeddings({pid: plants[pid]})[pid]
                assert _table_bytes(together[pid]) == _table_bytes(alone), (batch, pid)
                # The plant's lines are the lines it logs alone.
                mine = [line for line in lines if line.split(" mean loss ")[0].endswith(
                    f" plant {pid}")]
                assert mine == _ge_lines(caplog)
            assert len(lines) == 3 * len(some)
            if "calm" in some:
                assert all(", 0 live pairs, 0 active edges in " in line
                           for line in lines if " plant calm " in line)


def test_many_plants_share_one_config_but_the_seed():
    assert train_plant_embeddings({}) == {}
    g = _chain_graph()
    cfg = GETrainConfig(dim=4)
    emb = init_embeddings(g, cfg)
    with pytest.raises(ValueError, match="share their config"):
        train_plant_embeddings({"a": (g, emb, cfg), "b": (g, emb, GETrainConfig(dim=4, epochs=2))})


def test_train_logs_scan_counts_per_epoch(caplog, monkeypatch):
    g = _scan_graph()
    idle, idle_vectors = _idle_graph(4, np.random.default_rng(0))
    idle_cfg = GETrainConfig(dim=4, epochs=1, ranking_margin=0.5, init_mode=InitMode.TEXT_VECTORS)
    cfg = GETrainConfig(dim=4, epochs=2, ranking_margin=2.0, rng_seed=2)
    # Every one of the 22 drawable edges of _scan_graph is active at margin 2.0; of the
    # 40 idle edges only l00 is, so one batch of five has an active edge and seven none.
    runs = [(64, g, init_embeddings(g, cfg), cfg, "22 active edges in 1 batches (0 with none)"),
            (5, g, init_embeddings(g, cfg), cfg, "22 active edges in 5 batches (0 with none)"),
            (5, idle, init_embeddings(idle, idle_cfg, idle_vectors), idle_cfg,
             "1 active edges in 8 batches (7 with none)")]
    for batch, graph, start, run_cfg, tail in runs:
        monkeypatch.setattr(graph_embed, "BATCH", batch)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="plantsearch.graph_embed"):
            train_one(graph, start, run_cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "plantsearch.graph_embed"]
        assert len(lines) == run_cfg.epochs
        for epoch, line in enumerate(lines):
            assert line.startswith(f"ge epoch {epoch} plant P mean loss ")
            assert line.endswith(f", {tail}"), line


def test_draw_negatives_equals_sequential_choice():
    sizes = [1, 3, 1, 7, 2, 1, 50, 4096]  # allowed rows per group
    # Two kind pools, rows in id order: groups with fewer than 60 allowed rows share the
    # first, of 60 positions, and the last group has the second, of 4,100.
    pool = np.random.default_rng(0).permutation(60 + 4100) * 3
    layout = np.random.default_rng(1)
    bases = [0 if size < 60 else 60 for size in sizes]
    widths = [60 if size < 60 else 4100 for size in sizes]
    taken = [layout.choice(w, w - size, replace=False) for w, size in zip(widths, sizes)]
    owner = np.repeat(np.arange(len(sizes)), [t.size for t in taken])
    listed = layout.permutation(owner.size)  # the neighbour positions in any order
    c = graph_embed._Corruptions.build(pool, bases, widths, owner[listed],
                                       np.concatenate(taken)[listed])
    allowed = [pool[base + np.setdiff1d(np.arange(w), t)]
               for base, w, t in zip(bases, widths, taken)]
    assert [a.size for a in allowed] == sizes and c.free.tolist() == sizes
    for seed in range(20):
        case = np.random.default_rng(100 + seed)
        for n in (0, 1, 37):
            groups = case.integers(0, len(sizes), size=n)
            for k in (1, 10):
                one, seq = np.random.default_rng(seed), np.random.default_rng(seed)
                got = graph_embed._draw_negatives(one, c, groups, k)
                want = [seq.choice(allowed[j], size=k, replace=True) for j in groups]
                assert got.shape == (n, k)
                assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(n, k))
                assert one.bit_generator.state == seq.bit_generator.state


def test_train_requires_coverage_and_edges():
    g = _chain_graph()
    cfg = GETrainConfig(dim=4)
    small = make_graph([("only", "text")], [], [])
    emb = init_embeddings(small, cfg)
    with pytest.raises(ValueError, match="plant 'P': embedding table does not cover"):
        train_one(g, emb, cfg)
    with pytest.raises(ValueError, match="plant 'P': graph has no edges"):
        train_one(small, emb, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the overflow provoked here
def test_train_raises_on_non_finite_edge_scores():
    """At learning rate 1e300 a 20-log plant's first epoch leaves rows near 1e299: finite,
    but their norms overflow, so the next epoch scores NaN. Training stops there, naming the
    epoch and the plant, rather than reading the NaN hinge terms as inactive."""
    plant = generate_plant(PlantConfig(plant_id="M", seed=3, n_fl=6, n_logs=20, n_queries=2))
    g = plant.graph
    cfg = GETrainConfig(dim=64, learning_rate=1e300, init_mode=InitMode.TEXT_VECTORS)
    with pytest.raises(NonFiniteError, match="^plant 'M': non-finite edge scores in epoch 1$"):
        train_one(g, init_embeddings(g, cfg, plant.text_vectors), cfg, pid="M")


def test_split_edges_sizes():
    g = _chain_graph(6)  # 6 + 2 + 5 = 13 edges
    n = len(g.edges)
    train, test = split_edges(g, 0.5, seed=0)
    assert len(test) == int(np.floor(0.5 * n + 0.5))
    assert len(train) + len(test) == n
    assert set(train) | set(test) == set(g.edges)
    assert not set(train) & set(test)
    # deterministic
    train2, test2 = split_edges(g, 0.5, seed=0)
    assert train == train2 and test == test2
    train3, test3 = split_edges(g, 0.5, seed=1)
    assert test != test3  # a different seed shuffles differently


def test_split_edges_extremes():
    g = _chain_graph(6)
    n = len(g.edges)
    train, test = split_edges(g, 0.01, seed=0)
    assert len(test) == int(np.floor(0.01 * n + 0.5))
    with pytest.raises(ValueError):
        split_edges(g, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_edges(g, 1.0, seed=0)


def _random_lp_instance(rng):
    n_logs = int(rng.integers(2, 12))
    n_fls = int(rng.integers(1, 9))
    dim = int(rng.integers(2, 5))
    vectors = {}
    kinds = {}
    for i in range(n_logs):
        node_id = f"l{i:02d}"
        vectors[node_id] = rng.normal(size=dim).tolist()
        kinds[node_id] = "text_log"
    for i in range(n_fls):
        node_id = f"f{i:02d}"
        vectors[node_id] = rng.normal(size=dim).tolist()
        kinds[node_id] = "functional_location"
    # engineered score ties: make one FL a doubled copy of another
    if n_fls >= 2 and rng.random() < 0.5:
        vectors["f01"] = [2.0 * x for x in vectors["f00"]]
    rels = {rel.value: rng.normal(size=dim).tolist() for rel in Relation}
    edges = []
    log_ids = [f"l{i:02d}" for i in range(n_logs)]
    fl_ids = [f"f{i:02d}" for i in range(n_fls)]
    for _ in range(int(rng.integers(1, 6))):
        src = log_ids[int(rng.integers(0, n_logs))]
        dst = fl_ids[int(rng.integers(0, n_fls))]
        edges.append((src, dst, Relation.REPORTS_ABOUT))
    if n_logs >= 2:
        a, b = rng.choice(n_logs, size=2, replace=False)
        edges.append((log_ids[a], log_ids[b], Relation.RELATED_TO))
    return vectors, kinds, rels, list(dict.fromkeys(edges))


def test_eval_link_prediction_matches_oracle():
    rng = np.random.default_rng(404)
    kind_map = {"text_log": NodeKind.TEXT_LOG, "functional_location": NodeKind.FUNCTIONAL_LOCATION}
    dst_kind = {
        Relation.REPORTS_ABOUT.value: "functional_location",
        Relation.RELATED_TO.value: "text_log",
        Relation.PART_OF.value: "functional_location",
    }
    for trial in range(100):
        vectors, kinds, rels, edges = _random_lp_instance(rng)
        table = make_table(vectors, rels)
        report = eval_link_prediction(
            table,
            [Edge(s, d, r) for s, d, r in edges],
            list(vectors),
            {node_id: kind_map[k] for node_id, k in kinds.items()},
        )
        want = oracle_link_prediction(
            vectors, rels,
            [(s, d, r.value) for s, d, r in edges],
            list(vectors), kinds, dst_kind,
        )
        for key in ("mrr", "hits_at_1", "hits_at_10", "auc"):
            assert getattr(report, key) == pytest.approx(want[key], abs=1e-12), (trial, key)
        assert report.n_edges == len(edges)


def test_eval_link_prediction_bitwise_equals_cosine_loop():
    rng = np.random.default_rng(405)
    kind_map = {"text_log": NodeKind.TEXT_LOG, "functional_location": NodeKind.FUNCTIONAL_LOCATION}
    dst_kind = {rel: RELATION_SIGNATURES[rel][1] for rel in Relation}
    tied = 0
    for trial in range(150):
        vectors, kinds, rels, edges = _random_lp_instance(rng)
        # exact duplicates of the true destinations and a zero-norm node
        for _, dst, _ in edges[:2]:
            vectors[f"{dst}-twin"] = list(vectors[dst])
            kinds[f"{dst}-twin"] = kinds[dst]
        vectors["l00"] = [0.0] * len(vectors["l00"])
        table = make_table(vectors, rels)
        node_kinds = {node_id: kind_map[k] for node_id, k in kinds.items()}
        test_edges = [Edge(s, d, r) for s, d, r in edges]
        pool = list(vectors)[: len(vectors) - int(rng.integers(0, 3))]
        report = eval_link_prediction(table, test_edges, pool, node_kinds)
        want = oracle_np_link_prediction(table, test_edges, pool, node_kinds, dst_kind)
        assert asdict(report) == dict(want, n_edges=len(test_edges)), trial
        tied += any(
            f"{e.dst}-twin" in pool and score_edge(table, e.src, e.rel, e.dst) == score_edge(
                table, e.src, e.rel, f"{e.dst}-twin") for e in test_edges)
    assert tied > 50


def test_eval_lp_hand_case_auc():
    # true score 0.9 against corruption scores 0.5 and 0.95: one below,
    # no ties -> AUC 0.5, rank 2.
    vectors = {
        "q": [1.0, 0.0],
        "t": [0.9, np.sqrt(1 - 0.81)],
        "c1": [0.5, np.sqrt(0.75)],
        "c2": [0.95, np.sqrt(1 - 0.9025)],
    }
    kinds = {k: NodeKind.TEXT_LOG for k in vectors}
    table = make_table(vectors)
    report = eval_link_prediction(
        table, [Edge("q", "t", Relation.RELATED_TO)], ["t", "c1", "c2"], kinds
    )
    assert report.auc == pytest.approx(0.5, abs=1e-12)
    assert report.mrr == pytest.approx(0.5, abs=1e-12)  # rank 2


def test_eval_lp_pessimistic_ties():
    # "twin" is a doubled copy of the true dst, so their scores tie and
    # the corruption ranks ahead; "q" itself is also a type-valid
    # corruption and scores cos(q, q) = 1. Rank = 1 + 2, AUC = 0.5/2.
    vectors = {"q": [1.0, 0.0], "t": [0.5, 0.5], "twin": [1.0, 1.0]}
    kinds = {k: NodeKind.TEXT_LOG for k in vectors}
    table = make_table(vectors)
    report = eval_link_prediction(
        table, [Edge("q", "t", Relation.RELATED_TO)], list(vectors), kinds
    )
    assert report.mrr == pytest.approx(1 / 3, abs=1e-12)
    assert report.hits_at_1 == 0.0
    assert report.auc == pytest.approx(0.25, abs=1e-12)
    # with the tie excluded from the pool, only "q" outranks the truth
    report2 = eval_link_prediction(
        table, [Edge("q", "t", Relation.RELATED_TO)], ["q", "t"], kinds
    )
    assert report2.mrr == pytest.approx(0.5, abs=1e-12)
    assert report2.auc == 0.0


def test_eval_lp_vacuous_pool():
    vectors = {"q": [1.0, 0.0], "f": [0.0, 1.0]}
    kinds = {"q": NodeKind.TEXT_LOG, "f": NodeKind.FUNCTIONAL_LOCATION}
    table = make_table(vectors)
    report = eval_link_prediction(
        table, [Edge("q", "f", Relation.REPORTS_ABOUT)], list(vectors), kinds
    )
    assert report.mrr == 1.0 and report.auc == 1.0 and report.hits_at_1 == 1.0


def test_eval_lp_errors():
    vectors = {"q": [1.0, 0.0], "t": [0.0, 1.0]}
    kinds = {"q": NodeKind.TEXT_LOG, "t": NodeKind.TEXT_LOG}
    table = make_table(vectors)
    edge = Edge("q", "t", Relation.RELATED_TO)
    with pytest.raises(ValueError, match="no test edges"):
        eval_link_prediction(table, [], list(vectors), kinds)
    with pytest.raises(ValueError, match="empty candidate pool"):
        eval_link_prediction(table, [edge], [], kinds)
    with pytest.raises(KeyError):
        eval_link_prediction(table, [edge], ["q", "t", "ghost"], kinds)
    with pytest.raises(ValueError, match="also in training"):
        eval_link_prediction(table, [edge], list(vectors), kinds, train_edges=[edge])


def test_lp_report_scaled():
    report = LPReport(mrr=0.25, hits_at_1=0.1, hits_at_10=0.75, auc=0.9, n_edges=4)
    assert report.scaled() == {"mrr": 25.0, "hits_at_1": 10.0, "hits_at_10": 75.0, "auc": 90.0}
    assert asdict(report)["n_edges"] == 4


def test_save_load_round_trip(tmp_path):
    g = _chain_graph(3)
    cfg = GETrainConfig(dim=4, epochs=2, rng_seed=2)
    emb = train_one(g, init_embeddings(g, cfg), cfg)
    stem = tmp_path / "P.1"  # a plant id with a dot: every file keeps the whole stem
    save_embeddings(emb, stem)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["P.1.gemb", "P.1.ids", "P.1.rels.json"]
    back = load_embeddings(stem)
    assert back.node_ids == emb.node_ids
    np.testing.assert_array_equal(
        back.vectors, emb.vectors.astype(np.float32).astype(np.float64)
    )
    for rel in Relation:
        np.testing.assert_allclose(back.relation_params[rel], emb.relation_params[rel])
