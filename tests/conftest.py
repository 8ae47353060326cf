import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
import pytest

from plantsearch import ir_eval
from plantsearch.ann import knn_rows
from plantsearch.graph_embed import EmbeddingTable, train_plant_embeddings
from plantsearch.kg import Edge, KnowledgeGraph, Node, NodeKind, Relation


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with no corpus memoized, so what it featurizes does not depend on the
    tests run before it."""
    ir_eval._corpus_pooling.cache_clear()


@pytest.fixture
def init_streams(monkeypatch):
    """How many times each ``[seed, block]`` init stream is built during the test."""
    built = Counter()
    default_rng = np.random.default_rng

    def counted(seed=None):
        if isinstance(seed, list):
            built[tuple(seed)] += 1
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return built


def make_graph(logs, fls, edges):
    """Build a validated graph from terse tuples.

    logs: (id, text) or (id, text, ts); fls: (id, code, text);
    edges: (src, dst, Relation).
    """
    nodes = []
    for entry in logs:
        log_id, text, *rest = entry
        ts = rest[0] if rest else None
        nodes.append(Node(log_id, NodeKind.TEXT_LOG, text, ts=ts))
    for fl_id, code, text in fls:
        nodes.append(Node(fl_id, NodeKind.FUNCTIONAL_LOCATION, text, code=code))
    return KnowledgeGraph.from_parts(nodes, [Edge(s, d, r) for s, d, r in edges])


def assert_checked(g, require_linked_logs=False):
    """``g`` passes every check of ``from_parts`` and equals the graph that ``from_parts``
    builds from g's parts: the same nodes and edges in the same order, and the same
    out-neighbors."""
    checked = KnowledgeGraph.from_parts(g.nodes.values(), g.edges, require_linked_logs)
    assert list(checked.nodes.items()) == list(g.nodes.items())
    assert checked.edges == g.edges
    for node_id in g.nodes:
        for rel in Relation:
            assert checked.out_neighbors(node_id, rel) == g.out_neighbors(node_id, rel)


@pytest.fixture
def small_graph():
    return make_graph(
        logs=[
            ("log1", "Pumpe P-101 leckt am Flansch", 1000),
            ("log2", "Nachkontrolle Pumpe, Dichtung getauscht", 90000),
            ("log3", "Filter F-7 verstopft", 5000),
        ],
        fls=[
            ("fl1", "P-101", "Kreiselpumpe Halle 2"),
            ("fl2", "F-7", "Vorfilter"),
            ("fl-root", "ANLAGE-1", "Gesamtanlage"),
        ],
        edges=[
            ("log1", "fl1", Relation.REPORTS_ABOUT),
            ("log2", "fl1", Relation.REPORTS_ABOUT),
            ("log3", "fl2", Relation.REPORTS_ABOUT),
            ("log1", "log2", Relation.RELATED_TO),
            ("fl1", "fl-root", Relation.PART_OF),
            ("fl2", "fl-root", Relation.PART_OF),
        ],
    )


def make_table(vectors: dict[str, list[float]], rel_params=None) -> EmbeddingTable:
    ids = sorted(vectors)
    matrix = np.array([vectors[i] for i in ids], dtype=np.float64)
    dim = matrix.shape[1]
    rels = {
        rel: np.asarray(rel_params[rel.value], dtype=np.float64)
        if rel_params and rel.value in rel_params
        else np.zeros(dim)
        for rel in Relation
    }
    return EmbeddingTable(ids, matrix, rels)


def knn_one(index, query_id, k):
    """One indexed query's ``knn_rows`` neighbors as (id, cosine) pairs; KeyError for an id
    the index lacks."""
    row = {node_id: r for r, node_id in enumerate(index.ids)}[query_id]
    cols, scores = knn_rows(index, k)
    return [(index.ids[c], s) for c, s in zip(cols[row].tolist(), scores[row].tolist())]


def train_one(g, emb, cfg, pid="P"):
    """One plant's table, trained alone by ``train_plant_embeddings``."""
    return train_plant_embeddings({pid: (g, emb, cfg)})[pid]
