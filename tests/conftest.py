import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
import pytest

from plantsearch import encoder, ir_eval
from plantsearch.graph_embed import EmbeddingTable
from plantsearch.kg import Edge, KnowledgeGraph, Node, NodeKind, Relation


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with no init blocks and no corpus memoized, so what it draws and
    featurizes does not depend on the tests run before it."""
    encoder._init_memo = None
    ir_eval._corpus_memo = None


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
