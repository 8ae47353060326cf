"""Release acceptance gate: one test per shipping criterion.

Each test prints a single ``[criterion] PASS — detail (elapsed)`` line;
run ``pytest tests/test_acceptance.py -s`` to see the scoreboard. Every
check also enforces its own wall-clock budget, so a build that only
passes by grinding fails loudly.

The exactness checks (hand values, worked example, oracle equivalence,
gradients) admit no tolerance games: values are compared at 1e-12 or
exactly, and gradients against central finite differences. The
directional checks run the real training stack over five fixed seeds
and compare medians: text-derived vectors should beat random
initialization for link prediction, heuristic edge enrichment should
not hurt it, graph-context training pairs should lift retrieval
quality on the multi-plant benchmark, similarity pre-training before
the bi-encoder stage should not lose to skipping it, and that same
pre-training should pull paired jargon/textbook contexts closer
together. Finally the packaged pipeline must be bit-for-bit
reproducible from a fixed config and seed.
"""

import json
import logging
import math
import statistics
import time

import numpy as np
import pytest

from conftest import knn_one, make_table, train_one
from oracles import (
    finite_diff_check,
    oracle_ap,
    oracle_knn,
    oracle_link_prediction,
    oracle_ndcg,
    oracle_rr,
)
from test_losses import TRIPLET_FIXTURES, one_edge, one_triplet

from plantsearch import cli
from plantsearch.ann import build_index
from plantsearch.encoder import encode, init_encoder
from plantsearch.graph_embed import (
    GETrainConfig,
    InitMode,
    eval_link_prediction,
    init_embeddings,
    split_edges,
)
from plantsearch.ir_eval import ap_at_k, ndcg_at_k, rr_at_k
from plantsearch.kg import (
    Edge,
    KnowledgeGraph,
    NodeKind,
    Relation,
    predict_links,
)
from plantsearch.losses import mnr_loss_grad
from plantsearch.pairs import EncoderCosineScorer, quality_filter
from plantsearch.storage import derive_seed
from plantsearch.synth import PlantConfig, generate_plant
from plantsearch.train import DocSimConfig, train_docsim
from plantsearch.triplets import SamplingParams, band_sample, sample_triplets

SEEDS = [101, 202, 303, 404, 505]


@pytest.fixture(scope="module", autouse=True)
def _quiet_logs():
    """Keep stage progress logs out of the scoreboard output."""
    logging.disable(logging.INFO)
    yield
    logging.disable(logging.NOTSET)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"[{label}] {detail}"


# --------------------------------------------------------------------------
# exactness criteria
# --------------------------------------------------------------------------


def test_triplet_loss_hand_values():
    t0 = time.monotonic()
    assert len(TRIPLET_FIXTURES) >= 10
    worst = 0.0
    for dq, dp, dn, margin, expected in TRIPLET_FIXTURES:
        got = one_triplet(
            np.array(dq, float), np.array(dp, float), np.array(dn, float), margin
        )[0]
        worst = max(worst, abs(got - expected))
    # the fixture list must cover the two boundary behaviours: equal
    # distances (loss collapses to exactly the margin) and a hinge
    # argument landing exactly on zero
    assert any(
        math.dist(q, p) == math.dist(q, n) and exp == m
        for q, p, n, m, exp in TRIPLET_FIXTURES
    )
    assert any(
        math.dist(q, p) - math.dist(q, n) + m == 0.0
        for q, p, n, m, _ in TRIPLET_FIXTURES
    )
    elapsed = time.monotonic() - t0
    _verdict(
        "triplet-loss hand values",
        worst <= 1e-12 and elapsed < 1.0,
        f"{len(TRIPLET_FIXTURES)} fixtures, max abs error {worst:.1e}, {elapsed:.2f}s (budget 1s)",
    )


def test_band_sampling():
    t0 = time.monotonic()
    # worked example: with a 3-wide band ending at rank 10, exactly the
    # 8th, 9th and 10th nearest neighbours are drawn
    neighbors = [f"n{i}" for i in range(1, 13)]
    example_ok = band_sample(neighbors, k=10, c=3) == ["n8", "n9", "n10"]

    # with default parameters the positive and hard-negative bands must
    # never share a member, whatever the corpus looks like
    p = SamplingParams()
    p.validate()
    rng = np.random.default_rng(2468)
    overlaps = 0
    for _ in range(1000):
        n = int(rng.integers(p.k_hard + 2, p.k_hard + 12))
        ids = [f"d{i:03d}" for i in range(n)]
        vectors = {d: rng.normal(size=8).tolist() for d in ids}
        index = build_index(make_table(vectors), ids)
        query = ids[int(rng.integers(0, n))]
        ranked = [d for d, _ in knn_one(index, query, p.k_hard)]
        pos = set(band_sample(ranked, p.k_pos, p.c_pos))
        hard = set(band_sample(ranked, p.k_hard, p.c_hard))
        overlaps += bool(pos & hard)
    elapsed = time.monotonic() - t0
    _verdict(
        "band sampling",
        example_ok and overlaps == 0 and elapsed < 10.0,
        f"worked example ok, {overlaps} band overlaps in 1000 corpora, {elapsed:.1f}s (budget 10s)",
    )


def test_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    kind_map = {
        "text_log": NodeKind.TEXT_LOG,
        "functional_location": NodeKind.FUNCTIONAL_LOCATION,
    }
    dst_kind = {
        Relation.REPORTS_ABOUT.value: "functional_location",
        Relation.RELATED_TO.value: "text_log",
        Relation.PART_OF.value: "functional_location",
    }
    exact = {"ap": 0, "rr": 0, "ndcg": 0, "knn": 0, "lp": 0}
    trials = 100
    for _ in range(trials):
        # ranking metrics on a random graded ranking
        n = int(rng.integers(1, 21))
        docs = [f"d{i:02d}" for i in range(n)]
        ranking = list(rng.permutation(docs))
        grades = {
            d: int(g) for d, g in zip(docs, rng.integers(0, 4, size=n)) if g > 0
        }
        if not grades:
            grades = {docs[0]: 1}
        relevant = set(grades)
        k = int(rng.integers(1, n + 1))
        exact["ap"] += ap_at_k(ranking, relevant, k) == oracle_ap(ranking, relevant, k)
        exact["rr"] += rr_at_k(ranking, relevant, k) == oracle_rr(ranking, relevant, k)
        exact["ndcg"] += ndcg_at_k(ranking, grades, k) == oracle_ndcg(
            ranking, grades, k
        )

        # nearest neighbours and link prediction on a random embedded corpus
        nv = int(rng.integers(2, 21))
        ids = [f"v{i:02d}" for i in range(nv)]
        vectors = {d: rng.normal(size=3).tolist() for d in ids}
        index = build_index(make_table(vectors), ids)
        query = ids[int(rng.integers(0, nv))]
        kk = int(rng.integers(1, nv))
        exact["knn"] += [d for d, _ in knn_one(index, query, kk)] == oracle_knn(
            vectors, query, kk
        )

        kinds = {
            i: ("text_log" if j % 2 else "functional_location")
            for j, i in enumerate(ids)
        }
        rels = {r.value: rng.normal(size=3).tolist() for r in Relation}
        table = make_table(vectors, rels)
        logs = [i for i in ids if kinds[i] == "text_log"]
        fls = [i for i in ids if kinds[i] == "functional_location"]
        edges = []
        for _ in range(int(rng.integers(1, 5))):
            edges.append(
                (
                    logs[int(rng.integers(0, len(logs)))],
                    fls[int(rng.integers(0, len(fls)))],
                    Relation.REPORTS_ABOUT,
                )
            )
        if len(logs) >= 2:
            a, b = rng.choice(len(logs), size=2, replace=False)
            edges.append((logs[a], logs[b], Relation.RELATED_TO))
        edges = list(dict.fromkeys(edges))
        report = eval_link_prediction(
            table,
            [Edge(s, d, r) for s, d, r in edges],
            ids,
            {i: kind_map[k2] for i, k2 in kinds.items()},
        )
        want = oracle_link_prediction(
            vectors, rels, [(s, d, r.value) for s, d, r in edges], ids, kinds, dst_kind
        )
        exact["lp"] += all(
            getattr(report, key) == want[key]
            for key in ("mrr", "hits_at_1", "hits_at_10", "auc")
        )
    elapsed = time.monotonic() - t0
    all_exact = all(v == trials for v in exact.values())
    _verdict(
        "oracle equivalence",
        all_exact and elapsed < 30.0,
        f"exact matches per function: {exact} of {trials}, {elapsed:.1f}s (budget 30s)",
    )


def test_gradient_checks():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = {"triplet": 0.0, "mnr": 0.0, "edge-ranking": 0.0}
    probes = {}

    # triplet: dim 40 packs 120 coordinates; skip draws near the hinge kink
    checked = 0
    while checked < 3:
        dq, dp, dn = rng.normal(size=(3, 40))
        margin = float(rng.uniform(0.5, 2.0))
        gap = np.linalg.norm(dq - dp) - np.linalg.norm(dq - dn) + margin
        if abs(gap) < 1e-2:
            continue
        packed = np.concatenate([dq, dp, dn])

        def f_triplet(x, margin=margin):
            q, p, n = x[:40], x[40:80], x[80:]
            loss, gq, gp, gn = one_triplet(q, p, n, margin)
            return loss, np.concatenate([gq, gp, gn])

        worst["triplet"] = max(
            worst["triplet"],
            finite_diff_check(
                f_triplet, packed, probe_count=packed.size, eps=1e-5, seed=checked
            ),
        )
        probes["triplet"] = 3 * packed.size
        checked += 1

    # the in-batch softmax loss is smooth everywhere: 5 queries + 7 docs
    # in dim 10 pack 120 coordinates
    for trial in range(3):
        q = rng.normal(size=(5, 10))
        d = rng.normal(size=(7, 10))
        packed = np.concatenate([q.ravel(), d.ravel()])

        def f_mnr(x):
            qq = x[:50].reshape(5, 10)
            dd = x[50:].reshape(7, 10)
            loss, gq, gd = mnr_loss_grad(qq, dd, 10.0)
            return loss, np.concatenate([gq.ravel(), gd.ravel()])

        worst["mnr"] = max(
            worst["mnr"],
            finite_diff_check(
                f_mnr, packed, probe_count=packed.size, eps=1e-5, seed=trial
            ),
        )
        probes["mnr"] = 3 * packed.size

    # edge ranking: cosine scores live in [-1, 1], so margin 5 keeps every
    # hinge strictly active and the loss smooth; dim 10 with 9 negatives
    # packs 120 coordinates
    for trial in range(3):
        src, rel, dst = rng.normal(size=(3, 10))
        negs = rng.normal(size=(9, 10))
        packed = np.concatenate([src, rel, dst, negs.ravel()])

        def f_edge(x):
            s, r, d = x[:10], x[10:20], x[20:30]
            ng = x[30:].reshape(9, 10)
            loss, ga, gd, gn = one_edge(s, r, d, ng, 5.0)
            return loss, np.concatenate([ga, ga, gd, gn.ravel()])

        worst["edge-ranking"] = max(
            worst["edge-ranking"],
            finite_diff_check(
                f_edge, packed, probe_count=packed.size, eps=1e-5, seed=trial
            ),
        )
        probes["edge-ranking"] = 3 * packed.size

    elapsed = time.monotonic() - t0
    assert all(n >= 100 for n in probes.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _verdict(
        "gradient checks",
        max(worst.values()) < 1e-4 and elapsed < 30.0,
        f"max relative error {detail} over ≥360 probed coordinates each, "
        f"{elapsed:.1f}s (budget 30s)",
    )


# --------------------------------------------------------------------------
# directional criteria: link prediction on the default synthetic plant
# --------------------------------------------------------------------------


def _lp_mrr(nodes, train_edges, test_edges, cfg, text_vectors):
    g_train = KnowledgeGraph.from_parts(nodes, train_edges)
    emb = init_embeddings(g_train, cfg, text_vectors)
    trained = train_one(g_train, emb, cfg)
    kinds = {n.id: n.kind for n in nodes}
    report = eval_link_prediction(
        trained, test_edges, [n.id for n in nodes], kinds, train_edges=train_edges
    )
    return report.mrr


@pytest.fixture(scope="module")
def lp_arms():
    """Per-seed link-prediction MRR for three arms sharing one edge split.

    ``rand``: random init on the held-in edges (baseline for both
    comparisons); ``text``: identical training from text-derived
    vectors; ``enr``: random init again, but trained on the held-in
    edges plus heuristically predicted ones (held-out edges excluded).
    """
    t0 = time.monotonic()
    arms = {"rand": [], "text": [], "enr": []}
    for seed in SEEDS:
        plant = generate_plant(PlantConfig(plant_id="P", seed=seed))
        nodes = list(plant.graph.nodes.values())
        train_edges, test_edges = split_edges(
            plant.graph, 0.1, derive_seed(seed, "split")
        )

        def cfg(mode):
            return GETrainConfig(
                dim=64,
                epochs=30,
                learning_rate=0.1,
                ranking_margin=0.1,
                negatives_per_edge=10,
                init_mode=mode,
                rng_seed=derive_seed(seed, "ge"),
            )

        arms["rand"].append(
            _lp_mrr(nodes, train_edges, test_edges, cfg(InitMode.RANDOM), None)
        )
        arms["text"].append(
            _lp_mrr(
                nodes,
                train_edges,
                test_edges,
                cfg(InitMode.TEXT_VECTORS),
                plant.text_vectors,
            )
        )
        enriched = predict_links(KnowledgeGraph.from_parts(nodes, train_edges))
        held_out = set(test_edges)
        train_enriched = [e for e in enriched.edges if e not in held_out]
        arms["enr"].append(
            _lp_mrr(nodes, train_enriched, test_edges, cfg(InitMode.RANDOM), None)
        )
    return arms, time.monotonic() - t0


def test_text_vector_initialization(lp_arms):
    arms, elapsed = lp_arms
    med_text = statistics.median(arms["text"])
    med_rand = statistics.median(arms["rand"])
    _verdict(
        "text-vector initialization",
        med_text > med_rand and elapsed < 300.0,
        f"median MRR {med_text:.3f} (text init) vs {med_rand:.3f} (random init) "
        f"over {len(SEEDS)} seeds, {elapsed:.0f}s (budget 300s)",
    )


def test_link_enrichment(lp_arms):
    arms, elapsed = lp_arms
    med_enr = statistics.median(arms["enr"])
    med_rand = statistics.median(arms["rand"])
    _verdict(
        "link enrichment",
        med_enr >= med_rand and elapsed < 300.0,
        f"median MRR {med_enr:.3f} (enriched edges) vs {med_rand:.3f} (split edges "
        f"only) over {len(SEEDS)} seeds, {elapsed:.0f}s (budget 300s)",
    )


# --------------------------------------------------------------------------
# directional criteria: retrieval ablations on the multi-plant benchmark
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_scores(tmp_path_factory):
    """Mean nDCG@10 per ablation per seed on a seven-plant benchmark."""
    t0 = time.monotonic()
    root = tmp_path_factory.mktemp("bench")
    scores: dict[str, list[float]] = {}
    for seed in SEEDS:
        cfg = cli.RunConfig(
            {
                "seed": seed,
                "plants": [
                    {
                        "plant_id": pid,
                        "n_fl": 18,
                        "n_logs": 160,
                        "n_queries": 6,
                        "training": pid in ("A", "C", "D", "G"),
                    }
                    for pid in "ABCDEFG"
                ],
            }
        )
        out = root / f"seed{seed}"
        cli.stage_pipeline(cfg, out)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for row in report["rows"]:
            name = row["ablation"]["name"]
            scores.setdefault(name, []).append(row["metrics"]["mean_ndcg10"])
    return scores, time.monotonic() - t0


def test_graph_context_ablation(benchmark_scores):
    scores, elapsed = benchmark_scores
    with_get, without = scores["sid+get"], scores["sid"]
    wins = sum(g > s for g, s in zip(with_get, without))
    med_with = statistics.median(with_get)
    med_without = statistics.median(without)
    _verdict(
        "graph-context ablation",
        wins >= 3 and med_with > med_without and elapsed < 900.0,
        f"graph-sourced pairs win {wins}/{len(SEEDS)} seeds, median nDCG@10 "
        f"{100 * med_with:.2f} vs {100 * med_without:.2f}, {elapsed:.0f}s (budget 900s)",
    )


def test_two_stage_fine_tuning(benchmark_scores):
    scores, elapsed = benchmark_scores
    med_two_stage = statistics.median(scores["docsim+sid+get"])
    med_plain = statistics.median(scores["sid+get"])
    _verdict(
        "two-stage fine-tuning",
        med_two_stage >= med_plain and elapsed < 1200.0,
        f"median nDCG@10 {100 * med_two_stage:.2f} (similarity pre-training first) vs "
        f"{100 * med_plain:.2f} (bi-encoder only), {elapsed:.0f}s (budget 1200s)",
    )


# --------------------------------------------------------------------------
# directional criterion: jargon bridging
# --------------------------------------------------------------------------


def _paired_context_cosine(params, plant) -> float:
    """Mean cosine between jargon-form and textbook-form context centroids."""
    groups: dict[tuple[int, str], list[str]] = {}
    for log_id, (idx, form) in plant.jargon_forms.items():
        groups.setdefault((idx, form), []).append(plant.bench.corpus[log_id])
    cosines = []
    for idx in sorted({i for i, _ in groups}):
        jargon = groups.get((idx, "jargon"))
        textbook = groups.get((idx, "textbook"))
        if not jargon or not textbook:
            continue
        ca = np.mean([encode(params, t) for t in jargon], axis=0)
        cb = np.mean([encode(params, t) for t in textbook], axis=0)
        cosines.append(float(ca @ cb / (np.linalg.norm(ca) * np.linalg.norm(cb))))
    return float(np.mean(cosines))


def test_jargon_bridging():
    t0 = time.monotonic()
    deltas = []
    for seed in SEEDS:
        plant = generate_plant(
            PlantConfig(plant_id="P", seed=seed, n_fl=20, n_logs=230, n_queries=8)
        )
        g = plant.graph
        gcfg = GETrainConfig(
            dim=64,
            epochs=30,
            learning_rate=0.1,
            ranking_margin=0.1,
            negatives_per_edge=10,
            init_mode=InitMode.TEXT_VECTORS,
            rng_seed=derive_seed(seed, "ge"),
        )
        trained = train_one(g, init_embeddings(g, gcfg, plant.text_vectors), gcfg)
        index = build_index(trained, [n.id for n in g.text_logs()])
        params = SamplingParams(
            k_pos=2,
            c_pos=2,
            k_hard=50,
            c_hard=1,
            c_easy=1,
            min_text_chars=100,
            rng_seed=derive_seed(seed, "triplets"),
        )
        sampled = sample_triplets(index, g, params)
        texts = {n.id: n.text for n in g.text_logs()}
        scorer = EncoderCosineScorer(
            init_encoder(64, 65536, derive_seed(seed, "scorer")), 10.0
        )
        filtered = quality_filter(sampled, texts, scorer, t_pos=1.0, t_margin=0.2)
        fresh = init_encoder(64, 65536, derive_seed(seed, "enc"))
        dcfg = DocSimConfig(
            margin=1.0,
            epochs=15,
            learning_rate=0.5,
            batch_size=16,
            rng_seed=derive_seed(seed, "docsim"),
        )
        result = train_docsim(fresh, filtered.triplets, texts, dcfg)
        before = _paired_context_cosine(fresh, plant)
        after = _paired_context_cosine(result.params, plant)
        deltas.append(after - before)
    elapsed = time.monotonic() - t0
    med = statistics.median(deltas)
    _verdict(
        "jargon bridging",
        med > 0 and elapsed < 300.0,
        f"median cosine gain {med:+.4f} between paired jargon/textbook contexts "
        f"over {len(SEEDS)} seeds, {elapsed:.0f}s (budget 300s)",
    )


# --------------------------------------------------------------------------
# determinism criterion
# --------------------------------------------------------------------------


def test_pipeline_determinism(tmp_path):
    t0 = time.monotonic()
    config = {
        "seed": 7,
        "plants": [
            {"plant_id": "D1", "n_fl": 10, "n_logs": 60, "n_queries": 4, "training": True},
            {"plant_id": "D2", "n_fl": 10, "n_logs": 60, "n_queries": 4},
        ],
        "graph_embed": {"dim": 16, "epochs": 4, "negatives_per_edge": 4,
                        "lp_test_fraction": 0.05},
        "sampling": {"k_hard": 10, "min_text_chars": 40},
        "docsim": {"epochs": 1, "batch_size": 8},
        "biencoder": {"epochs": 1, "batch_size": 16, "warmup_steps": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    manifests = sorted(p.name for p in outs[0].glob("manifest-*.json"))
    assert manifests and manifests == sorted(p.name for p in outs[1].glob("manifest-*.json"))
    compared = manifests + ["report.json"]
    differing = [
        name
        for name in compared
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    elapsed = time.monotonic() - t0
    _verdict(
        "pipeline determinism",
        not differing and elapsed < 1200.0,
        f"{len(compared)} files byte-identical across two runs"
        + (f", differing: {differing}" if differing else "")
        + f", {elapsed:.0f}s (budget 1200s)",
    )
