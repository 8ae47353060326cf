import json

import pytest

from conftest import assert_checked, make_graph
from oracles import oracle_expand_context
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
        KnowledgeGraph.from_parts([Node("f", NodeKind.FUNCTIONAL_LOCATION, "desc")], [])
    with pytest.raises(GraphInvariantError, match="empty text"):
        KnowledgeGraph.from_parts([Node("l", NodeKind.TEXT_LOG, "")], [])


def test_duplicate_edges_dropped_with_warning(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="plantsearch.kg"):
        g = make_graph(
            logs=[("l1", "text")],
            fls=[("f1", "C1", "desc")],
            edges=[("l1", "f1", Relation.REPORTS_ABOUT)] * 3,
        )
    assert g.edges == (Edge("l1", "f1", Relation.REPORTS_ABOUT),)
    assert any("duplicate edge" in r.message for r in caplog.records)


LOG, FL = NodeKind.TEXT_LOG, NodeKind.FUNCTIONAL_LOCATION
RA, RT, PO = Relation.REPORTS_ABOUT, Relation.RELATED_TO, Relation.PART_OF
VALID_NODES = [Node("l1", LOG, "one"), Node("l2", LOG, "two"),
               Node("f1", FL, "pump", code="P1"), Node("f2", FL, "hall", code="H")]
VALID_EDGES = [Edge("l1", "f1", RA), Edge("l2", "f1", RA), Edge("l1", "l2", RT),
               Edge("f1", "f2", PO)]
# Each fault: the nodes and edges it appends to the valid graph, whether it needs
# require_linked_logs, and what the error names.
FAULTS = {
    "empty-id": ([Node("", LOG, "x")], [], False, "node with empty id"),
    "fl-without-code": ([Node("f-nocode", FL, "valve")], [], False, "has no code"),
    "log-without-text": ([Node("l-notext", LOG, "")], [], False, "has empty text"),
    "duplicate-node-id": ([Node("l1", LOG, "again")], [], False, "duplicate node id"),
    "dangling-endpoint": ([], [Edge("l1", "ghost", RA)], False, "dangling edge endpoint"),
    "self-loop": ([], [Edge("l2", "l2", RT)], False, "self-loop"),
    "relation-kind-mismatch": ([], [Edge("f1", "l1", PO)], False, "relation/kind mismatch"),
    "part-of-cycle": ([], [Edge("f2", "f1", PO)], False, "PartOf cycle"),
    "unlinked-log": ([Node("l-alone", LOG, "alone")], [], True, "has no ReportsAbout edge"),
}
# Parts with no invariant fault: valid graphs, and a node whose kind is the plain string
# of a member, which the former loop accepts alone and fails on, with an AttributeError,
# as an edge's end.
FAULTLESS = {
    "valid": ([], [], False),
    "duplicate-edges": ([], [Edge("l1", "f1", RA), Edge("l1", "l2", RT)] * 2, True),
    "kind-given-as-its-value": ([Node("l3", "text_log", "three")], [], False),
    "kind-given-as-its-value-on-an-edge": ([Node("l3", "text_log", "three")],
                                           [Edge("l1", "l3", RT)], False),
}
# Two faults in one record, which only the order of the checks inside that record decides
# between, and what the error names.
ONE_RECORD_FAULTS = {
    "duplicate-id-with-empty-text": ([Node("l1", LOG, "")], [], False, "has empty text"),
    "duplicate-fl-id-without-code": ([Node("f1", FL, "pump")], [], False, "has no code"),
    "dangling-self-loop": ([], [Edge("ghost", "ghost", RT)], False, "dangling edge endpoint"),
    "self-loop-with-kind-mismatch": ([], [Edge("f1", "f1", RT)], False, "self-loop"),
    "dangling-source-on-part-of": ([], [Edge("ghost", "f1", PO)], False,
                                   "dangling edge endpoint"),
}
PRECEDENCE_CASES = {
    **{name: [fault[:3]] for name, fault in {**FAULTS, **ONE_RECORD_FAULTS}.items()},
    **{name: [case] for name, case in FAULTLESS.items()},
    **{f"{a}+{b}": [FAULTS[a][:3], FAULTS[b][:3]]
       for a in FAULTS for b in FAULTS if a != b},
    **{f"duplicate-edges+{a}": [FAULTLESS["duplicate-edges"], FAULTS[a][:3]] for a in FAULTS},
}


def _outcome(build, nodes, edges, require_linked_logs, caplog):
    """What ``build`` makes of the parts: the graph's nodes and edges or the exception's
    class and message, and the plantsearch.kg log lines."""
    caplog.clear()
    try:
        g = build(nodes, edges, require_linked_logs)
        made = (list(g.nodes.items()), g.edges)
    except Exception as exc:  # every exception must match the former loop's
        made = (type(exc), str(exc))
    return made, [(r.levelname, r.getMessage()) for r in caplog.records
                  if r.name == "plantsearch.kg"]


@pytest.mark.parametrize("case", sorted(PRECEDENCE_CASES))
def test_bulk_checks_name_the_fault_the_former_loop_names(case, caplog):
    """``from_parts`` builds the former record-by-record loop's graph, logs its duplicate-edge
    warning, and raises its exception for the first fault, alone, with another fault
    before or after it, or with another fault in the same record."""
    from oracles import oracle_from_parts

    nodes, edges, linked = list(VALID_NODES), list(VALID_EDGES), False
    for more_nodes, more_edges, needs_linked in PRECEDENCE_CASES[case]:
        nodes += more_nodes
        edges += more_edges
        linked |= needs_linked
    with caplog.at_level("WARNING", logger="plantsearch.kg"):
        want = _outcome(oracle_from_parts, nodes, edges, linked, caplog)
        got = _outcome(KnowledgeGraph.from_parts, nodes, edges, linked, caplog)
    assert got == want
    named = {**FAULTS, **ONE_RECORD_FAULTS}
    if case in named:
        assert want[0][0] is GraphInvariantError and named[case][3] in want[0][1]
    if case == "duplicate-edges":
        assert want[1] == [("WARNING", "dropped 4 duplicate edge record(s)")]


def test_records_are_immutable_and_compare_by_their_fields():
    """Graph, triplet, pair and query records: a field cannot be set, equal fields make
    equal records with equal hashes (the hash of the tuple of their fields), one differing
    field makes them unequal, and a record equals the plain tuple of its fields."""
    from plantsearch.ir_eval import Query
    from plantsearch.pairs import PairLabel, PairSource, QueryDocPair
    from plantsearch.triplets import NegKind, Triplet

    cases = [
        (Node, ("fl1", NodeKind.FUNCTIONAL_LOCATION, "Pump", "P1", None), "text", "Valve"),
        (Node, ("l1", NodeKind.TEXT_LOG, "Leak at P1", None, 7), "ts", 8),
        (Edge, ("l1", "fl1", Relation.REPORTS_ABOUT), "rel", Relation.RELATED_TO),
        (Triplet, ("q", "p", "n", NegKind.HARD), "neg_kind", NegKind.EASY),
        (QueryDocPair, ("pump leak", "l1", PairLabel.POSITIVE, PairSource.SID), "label",
         PairLabel.NEGATIVE),
        (Query, ("q1", "pump leak"), "text", "valve"),
    ]
    for cls, values, name, other in cases:
        record, twin = cls(*values), cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        assert record == twin and hash(record) == hash(twin) == hash(values)
        assert record == values and tuple(record) == values
        assert record != cls(*(other if f == name else v for f, v in zip(cls._fields, values)))
    assert Node("l1", NodeKind.TEXT_LOG) == ("l1", NodeKind.TEXT_LOG, "", None, None)
    assert Node._fields == ("id", "kind", "text", "code", "ts")
    assert Edge._fields == ("src", "dst", "rel")


def test_save_load_round_trip(tmp_path, small_graph):
    nodes_path, edges_path = tmp_path / "n.jsonl", tmp_path / "e.jsonl"
    saved = save_graph(small_graph, nodes_path, edges_path)
    back = load_graph(nodes_path, edges_path)
    assert back.nodes == saved.nodes and list(back.nodes) == list(saved.nodes)
    assert back.edges == saved.edges
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
    assert "l1" in g.nodes


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
    assert "orphan" not in built.nodes and "mention" in built.nodes
    assert_checked(built, require_linked_logs=True)
    enriched = predict_links(built)
    assert fl_id in enriched.out_neighbors("mention", Relation.REPORTS_ABOUT)
    assert fl_id not in built.out_neighbors("mention", Relation.REPORTS_ABOUT)
    assert_checked(enriched, require_linked_logs=True)
    assert predict_links(enriched).edges == enriched.edges
    assert_checked(expand_context(enriched), require_linked_logs=True)


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
    assert expand_context(g).nodes["l1"].text == (
        "Leck an P-101 Kreiselpumpe Halle 2, F-7 Vorfilter geprüft"
    )


def test_expand_context_idempotent():
    g = _expansion_graph("Leck an P-101, F-7 geprüft")
    once = expand_context(g).nodes["l1"].text
    g2 = make_graph(
        logs=[("l1", once)],
        fls=[("flP", "P-101", "Kreiselpumpe Halle 2"), ("flF", "F-7", "Vorfilter")],
        edges=[
            ("l1", "flP", Relation.REPORTS_ABOUT),
            ("l1", "flF", Relation.REPORTS_ABOUT),
        ],
    )
    assert expand_context(g2).nodes["l1"].text == once


def test_expand_context_every_occurrence():
    g = _expansion_graph("P-101 und nochmal P-101")
    assert expand_context(g).nodes["l1"].text == (
        "P-101 Kreiselpumpe Halle 2 und nochmal P-101 Kreiselpumpe Halle 2"
    )


def test_expand_context_only_linked_fls():
    # flF is not linked to this log, so F-7 mentions stay untouched
    g = make_graph(
        logs=[("l1", "P-101 neben F-7")],
        fls=[("flP", "P-101", "Kreiselpumpe"), ("flF", "F-7", "Vorfilter")],
        edges=[("l1", "flP", Relation.REPORTS_ABOUT)],
    )
    assert expand_context(g).nodes["l1"].text == "P-101 Kreiselpumpe neben F-7"


def test_expand_context_no_mentions_unchanged():
    g = _expansion_graph("alles ruhig heute")
    assert expand_context(g).nodes["l1"].text == "alles ruhig heute"


def _with_texts(g, texts):
    return KnowledgeGraph({i: Node(i, n.kind, texts.get(i, n.text), n.code, n.ts)
                           for i, n in g.nodes.items()}, g.edges)


def test_expand_context_equals_the_former_per_mention_match():
    """On every log of an enriched synth plant, and on logs whose FL descriptions hold regex
    metacharacters, are empty or hold their own code, or whose mentions end the text, each
    expanded once and then again, ``expand_context`` equals the former per-log form that copies
    the rest of the text and escapes the description at each mention, and keeps every other
    node and every edge."""
    synth_graph = predict_links(build_graph(generate_plant(PlantConfig(
        plant_id="S", seed=7, n_logs=300)).graph))
    desc = "Ventil (V3) [alt]+ 50%?*"
    meta = make_graph(
        logs=[("l1", "Prüfung an V-3"), ("l2", f"V-3 {desc} ok"), ("l3", "v-3 und V-3."),
              ("l4", f"X-9 steht, V-3 {desc}-b"), ("l5", f"V-3 {desc.lower()} und X-9"),
              ("l6", "P-1"), ("l7", "P-1 a.b|c\\d$ und P-1 a.b|c\\d$"), ("l8", "S-1 leer"),
              ("l9", f"V-3 oder V-3 {desc}")],
        fls=[("flV", "V-3", desc), ("flX", "X-9", ""), ("flP", "P-1", "a.b|c\\d$"),
             ("flS", "S-1", "Sieb S-1")],
        edges=[(log, fl, Relation.REPORTS_ABOUT)
               for log in ("l1", "l2", "l3", "l4", "l5", "l9") for fl in ("flV", "flX")]
        + [(log, "flP", Relation.REPORTS_ABOUT) for log in ("l6", "l7")]
        + [("l8", "flS", Relation.REPORTS_ABOUT)])
    changed = 0
    for g in (synth_graph, meta):
        logs = [n.id for n in g.text_logs()]
        once = {i: oracle_expand_context(g, i) for i in logs}
        expanded = expand_context(g)
        assert expanded.nodes == _with_texts(g, once).nodes and expanded.edges == g.edges
        assert list(expanded.nodes) == list(g.nodes)
        twice = _with_texts(g, once)
        assert expand_context(twice).nodes == _with_texts(
            g, {i: oracle_expand_context(twice, i) for i in logs}).nodes
        changed += sum(once[i] != g.nodes[i].text for i in logs)
    texts = {i: n.text for i, n in expand_context(meta).nodes.items()}
    assert texts["l1"] == f"Prüfung an V-3 {desc}"
    assert texts["l6"] == "P-1 a.b|c\\d$"
    assert texts["l9"] == f"V-3 {desc} oder V-3 {desc}"
    assert [texts[i] == meta.nodes[i].text for i in ("l2", "l7")] == [True, True]
    assert changed > 50, changed


def test_saved_graph_is_deterministic(tmp_path, small_graph):
    for name in ("one", "two"):
        save_graph(small_graph, tmp_path / f"{name}.n", tmp_path / f"{name}.e")
    assert (tmp_path / "one.n").read_bytes() == (tmp_path / "two.n").read_bytes()
    assert (tmp_path / "one.e").read_bytes() == (tmp_path / "two.e").read_bytes()
    # and node lines parse as documented json
    first = json.loads((tmp_path / "one.n").read_text().splitlines()[0])
    assert first["kind"] in ("text_log", "functional_location")
