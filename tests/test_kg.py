import json

import pytest

from conftest import assert_checked, make_graph
from plantsearch.kg import (
    Edge,
    GraphInvariantError,
    KnowledgeGraph,
    Node,
    NodeKind,
    Relation,
    build_graph,
    expand_context,
    load_graph,
    predict_links,
    save_graph,
)
from plantsearch.storage import CorruptFileError
from plantsearch.synth import PlantConfig, generate_plant


def test_small_graph_accessors(small_graph):
    g = small_graph
    assert len(g.text_logs()) == 3
    assert len(g.functional_locations()) == 3
    assert g.reported_fls("log1") == ("fl1",)
    assert g.out_neighbors("log1", Relation.RELATED_TO) == ("log2",)
    assert "fl-root" in g.out_neighbors("fl1", Relation.PART_OF)
    assert "fl1" not in g.out_neighbors("fl-root", Relation.PART_OF)
    assert g.edge_counts()[Relation.REPORTS_ABOUT] == 3


def test_relation_kind_mismatch():
    with pytest.raises(GraphInvariantError, match="relation/kind mismatch"):
        make_graph(
            logs=[("l1", "text"), ("l2", "text")],
            fls=[],
            edges=[("l1", "l2", Relation.REPORTS_ABOUT)],
        )
    with pytest.raises(GraphInvariantError, match="relation/kind mismatch"):
        make_graph(
            logs=[("l1", "text")],
            fls=[("f1", "C1", "desc")],
            edges=[("f1", "l1", Relation.PART_OF)],
        )


def test_dangling_edge_endpoint():
    with pytest.raises(GraphInvariantError, match="dangling edge endpoint"):
        make_graph(
            logs=[("l1", "text")],
            fls=[],
            edges=[("l1", "ghost", Relation.REPORTS_ABOUT)],
        )


def test_self_loop_rejected():
    with pytest.raises(GraphInvariantError, match="self-loop"):
        make_graph(
            logs=[("l1", "text")],
            fls=[],
            edges=[("l1", "l1", Relation.RELATED_TO)],
        )


def test_part_of_cycle_rejected():
    with pytest.raises(GraphInvariantError, match="PartOf cycle"):
        make_graph(
            logs=[],
            fls=[("f1", "A", "a"), ("f2", "B", "b"), ("f3", "C", "c")],
            edges=[
                ("f1", "f2", Relation.PART_OF),
                ("f2", "f3", Relation.PART_OF),
                ("f3", "f1", Relation.PART_OF),
            ],
        )


def test_duplicate_node_and_empty_fields():
    with pytest.raises(GraphInvariantError, match="duplicate node id"):
        KnowledgeGraph.from_parts(
            [Node("x", NodeKind.TEXT_LOG, "a"), Node("x", NodeKind.TEXT_LOG, "b")], []
        )
    with pytest.raises(GraphInvariantError, match="has no code"):
        Node("f", NodeKind.FUNCTIONAL_LOCATION, "desc").validate()
    with pytest.raises(GraphInvariantError, match="empty text"):
        Node("l", NodeKind.TEXT_LOG, "").validate()


def test_duplicate_edges_dropped_with_warning(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="plantsearch.kg"):
        g = make_graph(
            logs=[("l1", "text")],
            fls=[("f1", "C1", "desc")],
            edges=[("l1", "f1", Relation.REPORTS_ABOUT)] * 3,
        )
    assert len(g.edges) == 1
    assert any("duplicate edge" in r.message for r in caplog.records)


def test_save_load_round_trip(tmp_path, small_graph):
    nodes_path, edges_path = tmp_path / "n.jsonl", tmp_path / "e.jsonl"
    save_graph(small_graph, nodes_path, edges_path)
    back = load_graph(nodes_path, edges_path)
    assert set(back.nodes) == set(small_graph.nodes)
    assert set(back.edges) == set(small_graph.edges)
    for node_id, n in small_graph.nodes.items():
        m = back.nodes[node_id]
        assert (m.kind, m.text, m.code, m.ts) == (n.kind, n.text, n.code, n.ts)


def test_load_reports_file_and_line(tmp_path):
    nodes_path, edges_path = tmp_path / "n.jsonl", tmp_path / "e.jsonl"
    nodes_path.write_text(
        '{"id": "l1", "kind": "text_log", "text": "ok"}\nnot json\n', encoding="utf-8"
    )
    edges_path.write_text("", encoding="utf-8")
    with pytest.raises(CorruptFileError) as exc_info:
        load_graph(nodes_path, edges_path)
    assert str(exc_info.value).startswith(f"{nodes_path}:2: ")


def test_load_bad_records(tmp_path):
    nodes_path, edges_path = tmp_path / "n.jsonl", tmp_path / "e.jsonl"
    edges_path.write_text("", encoding="utf-8")

    def rejects(path):
        with pytest.raises(CorruptFileError) as exc_info:
            load_graph(nodes_path, edges_path)
        assert str(exc_info.value).startswith(f"{path}:1: ")

    nodes_path.write_text('{"id": "l1", "text": "x"}\n', encoding="utf-8")  # no kind
    rejects(nodes_path)

    nodes_path.write_text('{"id": "l1", "kind": "widget"}\n', encoding="utf-8")
    rejects(nodes_path)

    nodes_path.write_text(
        '{"id": "l1", "kind": "text_log", "text": "x", "ts": "noon"}\n', encoding="utf-8"
    )
    rejects(nodes_path)

    nodes_path.write_text('{"id": "l1", "kind": "text_log", "text": "x"}\n', encoding="utf-8")
    edges_path.write_text('{"src": "l1", "dst": "l1"}\n', encoding="utf-8")  # no rel
    rejects(edges_path)

    edges_path.write_text('{"src": "l1", "dst": "l1", "rel": "likes"}\n', encoding="utf-8")
    rejects(edges_path)


def test_load_names_both_files_on_invariant_error(tmp_path):
    nodes_path, edges_path = tmp_path / "n.jsonl", tmp_path / "e.jsonl"
    nodes_path.write_text('{"id": "l1", "kind": "text_log", "text": "x"}\n', encoding="utf-8")
    edges_path.write_text('{"src": "l1", "dst": "ghost", "rel": "related_to"}\n',
                          encoding="utf-8")
    with pytest.raises(CorruptFileError) as exc_info:
        load_graph(nodes_path, edges_path)
    assert str(exc_info.value).startswith(f"{nodes_path}, {edges_path}: dangling edge endpoint")


def test_load_ignores_unknown_fields(tmp_path):
    nodes_path, edges_path = tmp_path / "n.jsonl", tmp_path / "e.jsonl"
    nodes_path.write_text(
        '{"id": "l1", "kind": "text_log", "text": "x", "color": "red"}\n', encoding="utf-8"
    )
    edges_path.write_text("", encoding="utf-8")
    g = load_graph(nodes_path, edges_path)
    assert "l1" in g


def test_build_graph_drops_unlinked_logs():
    raw = make_graph(
        logs=[("l1", "linked"), ("l2", "orphan"), ("l3", "follows l2")],
        fls=[("f1", "C1", "desc")],
        edges=[
            ("l1", "f1", Relation.REPORTS_ABOUT),
            ("l2", "l3", Relation.RELATED_TO),  # both unlinked, edge goes too
        ],
    )
    g = build_graph(raw)
    assert set(g.nodes) == {"l1", "f1"}
    assert len(g.edges) == 1
    # idempotent on an already-clean graph
    again = build_graph(g)
    assert set(again.nodes) == set(g.nodes)


def test_build_graph_keeps_all_fls():
    raw = make_graph(
        logs=[],
        fls=[("f1", "C1", "a"), ("f2", "C2", "b")],
        edges=[("f1", "f2", Relation.PART_OF)],
    )
    g = build_graph(raw)
    assert set(g.nodes) == {"f1", "f2"}


def _case_graph():
    """Two FL codes that differ only in case, and a log that cites one twice in both cases."""
    return make_graph(
        logs=[("l1", "P-101 leckt, p-101 erneut geprüft", 100), ("l2", "F-7 getauscht", 200)],
        fls=[("fa", "P-101", "Kreiselpumpe"), ("fb", "p-101", "Hilfspumpe"),
             ("fc", "F-7", "Vorfilter")],
        edges=[("l1", "fc", Relation.REPORTS_ABOUT), ("l2", "fc", Relation.REPORTS_ABOUT)],
    )


GRAPH_SOURCES = {
    "small": None,  # the small_graph fixture
    "synth": lambda: generate_plant(
        PlantConfig(plant_id="S", seed=5, n_fl=10, n_logs=60, n_queries=2)).graph,
    # every log may cite a sibling FL's code that no edge backs
    "abbreviated": lambda: generate_plant(PlantConfig(
        plant_id="S", seed=5, n_fl=10, n_logs=60, n_queries=2, abbreviation_rate=1.0)).graph,
    "code-case": _case_graph,
}


@pytest.mark.parametrize("source", sorted(GRAPH_SOURCES))
def test_graphs_built_without_checks_equal_checked_graphs(small_graph, source):
    base = small_graph if source == "small" else GRAPH_SOURCES[source]()
    fl_id, other_id = sorted(n.id for n in base.functional_locations())[:2]
    log_id = base.text_logs()[0].id
    # a log that build_graph drops with its edge, and one whose mention of fl_id's code
    # (fl_id comes first of the FLs that may share it) predict_links links
    extra = [Node("orphan", NodeKind.TEXT_LOG, "kein Bezug"),
             Node("mention", NodeKind.TEXT_LOG, f"{base.nodes[fl_id].code} undicht", ts=0)]
    raw = KnowledgeGraph.from_parts(
        [*base.nodes.values(), *extra],
        [*base.edges, Edge("orphan", log_id, Relation.RELATED_TO),
         Edge("mention", other_id, Relation.REPORTS_ABOUT)])
    built = build_graph(raw)
    assert "orphan" not in built and "mention" in built
    assert_checked(built, require_linked_logs=True)
    enriched = predict_links(built)
    assert fl_id in enriched.out_neighbors("mention", Relation.REPORTS_ABOUT)
    assert fl_id not in built.out_neighbors("mention", Relation.REPORTS_ABOUT)
    assert_checked(enriched, require_linked_logs=True)
    assert predict_links(enriched).edges == enriched.edges


# ---------------------------------------------------------------------------
# Lexical matching


def _matcher_graph():
    return make_graph(
        logs=[
            ("logA", "Leck an P-101 behoben", 1000),
            ("logB", "P-101 erneut geprüft", 2000),
            ("logC", "Später Befund P-101, Woche danach", 1000 + 259200 + 1),
            ("logD", "Filter F-7 getauscht, siehe FL 1-1-2", 1500),
            ("logE", "kein Bezug", 9_999_999),
        ],
        fls=[
            ("flP", "P-101", "Kreiselpumpe"),
            ("flF", "F-7", "Vorfilter"),
            ("flSub", "FL 1-1", "Teilanlage"),
            ("flSubSub", "FL 1-1-2", "Dosierstation"),
        ],
        edges=[
            ("logE", "flF", Relation.REPORTS_ABOUT),
        ],
    )


def test_code_mentions_become_reports_about():
    g = predict_links(_matcher_graph())
    assert "flP" in g.out_neighbors("logA", Relation.REPORTS_ABOUT)
    assert "flP" in g.out_neighbors("logB", Relation.REPORTS_ABOUT)
    assert "flF" in g.out_neighbors("logD", Relation.REPORTS_ABOUT)


def test_longest_code_wins_on_overlap():
    g = predict_links(_matcher_graph())
    # "FL 1-1-2" must bind to the longer code, not to its prefix "FL 1-1"
    assert "flSubSub" in g.out_neighbors("logD", Relation.REPORTS_ABOUT)
    assert "flSub" not in g.out_neighbors("logD", Relation.REPORTS_ABOUT)


def test_code_match_is_case_insensitive_and_bounded():
    g = make_graph(
        logs=[
            ("l1", "p-101 leckt"),  # lowercase mention
            ("l2", "XP-101 ist etwas anderes"),  # embedded: no match
            ("l3", "P-1012 auch nicht"),  # longer token: no match
        ],
        fls=[("flP", "P-101", "Kreiselpumpe")],
        edges=[],
    )
    out = predict_links(g)
    assert "flP" in out.out_neighbors("l1", Relation.REPORTS_ABOUT)
    assert "flP" not in out.out_neighbors("l2", Relation.REPORTS_ABOUT)
    assert "flP" not in out.out_neighbors("l3", Relation.REPORTS_ABOUT)


def test_time_window_related_to():
    g = predict_links(_matcher_graph())
    # logA (t=1000) and logB (t=2000) share flP and are 1000 s apart
    assert "logB" in g.out_neighbors("logA", Relation.RELATED_TO)
    assert "logA" not in g.out_neighbors("logB", Relation.RELATED_TO)  # earlier -> later only
    # logC is exactly window+1 after logA: outside
    assert "logC" not in g.out_neighbors("logA", Relation.RELATED_TO)
    # but within the window of logB (2000 -> 260201 is inside 259200? no: 258201 <= 259200)
    assert "logC" in g.out_neighbors("logB", Relation.RELATED_TO)


def test_time_window_boundary_inclusive():
    g = make_graph(
        logs=[("a", "x", 0), ("b", "y", 259200)],
        fls=[("f", "C", "d")],
        edges=[("a", "f", Relation.REPORTS_ABOUT), ("b", "f", Relation.REPORTS_ABOUT)],
    )
    out = predict_links(g)
    assert "b" in out.out_neighbors("a", Relation.RELATED_TO)


def test_logs_without_timestamp_skip_time_heuristic():
    g = make_graph(
        logs=[("a", "x"), ("b", "y", 100)],
        fls=[("f", "C", "d")],
        edges=[("a", "f", Relation.REPORTS_ABOUT), ("b", "f", Relation.REPORTS_ABOUT)],
    )
    out = predict_links(g)
    assert out.edge_counts()[Relation.RELATED_TO] == 0


def test_predict_links_never_removes_edges():
    g = _matcher_graph()
    before = g.edge_counts()
    out = predict_links(g)
    after = out.edge_counts()
    for rel in Relation:
        assert after[rel] >= before[rel]
    assert set(g.edges) <= set(out.edges)


def test_predict_links_deterministic():
    a = predict_links(_matcher_graph())
    b = predict_links(_matcher_graph())
    assert a.edges == b.edges


# ---------------------------------------------------------------------------
# Context expansion


def _expansion_graph(text: str):
    return make_graph(
        logs=[("l1", text)],
        fls=[("flP", "P-101", "Kreiselpumpe Halle 2"), ("flF", "F-7", "Vorfilter")],
        edges=[
            ("l1", "flP", Relation.REPORTS_ABOUT),
            ("l1", "flF", Relation.REPORTS_ABOUT),
        ],
    )


def test_expand_context_inserts_description():
    g = _expansion_graph("Leck an P-101, F-7 geprüft")
    assert expand_context(g, "l1") == (
        "Leck an P-101 Kreiselpumpe Halle 2, F-7 Vorfilter geprüft"
    )


def test_expand_context_idempotent():
    g = _expansion_graph("Leck an P-101, F-7 geprüft")
    once = expand_context(g, "l1")
    g2 = make_graph(
        logs=[("l1", once)],
        fls=[("flP", "P-101", "Kreiselpumpe Halle 2"), ("flF", "F-7", "Vorfilter")],
        edges=[
            ("l1", "flP", Relation.REPORTS_ABOUT),
            ("l1", "flF", Relation.REPORTS_ABOUT),
        ],
    )
    assert expand_context(g2, "l1") == once


def test_expand_context_every_occurrence():
    g = _expansion_graph("P-101 und nochmal P-101")
    assert expand_context(g, "l1") == (
        "P-101 Kreiselpumpe Halle 2 und nochmal P-101 Kreiselpumpe Halle 2"
    )


def test_expand_context_only_linked_fls():
    # flF is not linked to this log, so F-7 mentions stay untouched
    g = make_graph(
        logs=[("l1", "P-101 neben F-7")],
        fls=[("flP", "P-101", "Kreiselpumpe"), ("flF", "F-7", "Vorfilter")],
        edges=[("l1", "flP", Relation.REPORTS_ABOUT)],
    )
    assert expand_context(g, "l1") == "P-101 Kreiselpumpe neben F-7"


def test_expand_context_no_mentions_unchanged():
    g = _expansion_graph("alles ruhig heute")
    assert expand_context(g, "l1") == "alles ruhig heute"


def test_expand_context_errors():
    g = _expansion_graph("x")
    with pytest.raises(KeyError):
        expand_context(g, "nope")
    with pytest.raises(ValueError):
        expand_context(g, "flP")


def test_saved_graph_is_deterministic(tmp_path, small_graph):
    for name in ("one", "two"):
        save_graph(small_graph, tmp_path / f"{name}.n", tmp_path / f"{name}.e")
    assert (tmp_path / "one.n").read_bytes() == (tmp_path / "two.n").read_bytes()
    assert (tmp_path / "one.e").read_bytes() == (tmp_path / "two.e").read_bytes()
    # and node lines parse as documented json
    first = json.loads((tmp_path / "one.n").read_text().splitlines()[0])
    assert first["kind"] in ("text_log", "functional_location")
