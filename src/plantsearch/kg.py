"""Heterogeneous plant knowledge graph.

Two node kinds (shift-book text logs and functional locations), three
directed relations, plus the construction steps that turn raw exports
into a training-ready graph: validation, filtering of unlinked logs,
heuristic link prediction, and abbreviation context expansion.
"""

from __future__ import annotations

import graphlib
import json
import logging
import re
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .storage import CorruptFileError, field, read_json_lines

logger = logging.getLogger(__name__)


class NodeKind(str, Enum):
    TEXT_LOG = "text_log"
    FUNCTIONAL_LOCATION = "functional_location"


class Relation(str, Enum):
    RELATED_TO = "related_to"
    REPORTS_ABOUT = "reports_about"
    PART_OF = "part_of"


# Allowed (src kind, dst kind) per relation.
RELATION_SIGNATURES: dict[Relation, tuple[NodeKind, NodeKind]] = {
    Relation.RELATED_TO: (NodeKind.TEXT_LOG, NodeKind.TEXT_LOG),
    Relation.REPORTS_ABOUT: (NodeKind.TEXT_LOG, NodeKind.FUNCTIONAL_LOCATION),
    Relation.PART_OF: (NodeKind.FUNCTIONAL_LOCATION, NodeKind.FUNCTIONAL_LOCATION),
}


class GraphInvariantError(ValueError):
    """A structural graph invariant does not hold."""


@dataclass(frozen=True)
class Node:
    """One graph node: a text log or a functional location.

    FL nodes must carry a short code (the abbreviation that appears in
    log texts, e.g. "A11" or "FL 1-1"); text holds the log body for
    logs and the description for FLs. ``ts`` is an optional epoch
    timestamp (logs only, used by link-prediction heuristics).
    """

    id: str
    kind: NodeKind
    text: str = ""
    code: str | None = None
    ts: int | None = None

    def validate(self) -> None:
        if not self.id:
            raise GraphInvariantError("node with empty id")
        if self.kind is NodeKind.FUNCTIONAL_LOCATION and not self.code:
            raise GraphInvariantError(f"functional location {self.id!r} has no code")
        if self.kind is NodeKind.TEXT_LOG and not self.text:
            raise GraphInvariantError(f"text log {self.id!r} has empty text")


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    rel: Relation


class KnowledgeGraph:
    """Validated, effectively immutable node/edge container.

    Construct via :meth:`from_parts` or :func:`load_graph`; both enforce
    the structural invariants (valid endpoints, relation/kind signatures,
    no self-loops, no duplicate edges, acyclic PartOf hierarchy).
    """

    def __init__(self, nodes: Mapping[str, Node], edges: Sequence[Edge]):
        self._nodes = dict(nodes)
        self._edges = tuple(edges)
        out: dict[Relation, dict[str, list[str]]] = {rel: defaultdict(list) for rel in Relation}
        for e in self._edges:
            out[e.rel][e.src].append(e.dst)
        self._out = {rel: {src: tuple(dsts) for src, dsts in by_src.items()}
                     for rel, by_src in out.items()}

    @property
    def nodes(self) -> Mapping[str, Node]:
        return self._nodes

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def has_edge(self, src: str, dst: str, rel: Relation) -> bool:
        return dst in self.out_neighbors(src, rel)

    def out_neighbors(self, src: str, rel: Relation) -> tuple[str, ...]:
        return self._out[rel].get(src, ())

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self._nodes.values() if n.kind is kind]

    def text_logs(self) -> list[Node]:
        return self.nodes_of_kind(NodeKind.TEXT_LOG)

    def functional_locations(self) -> list[Node]:
        return self.nodes_of_kind(NodeKind.FUNCTIONAL_LOCATION)

    def edge_counts(self) -> dict[Relation, int]:
        counts = {rel: 0 for rel in Relation}
        for e in self._edges:
            counts[e.rel] += 1
        return counts

    def reported_fls(self, log_id: str) -> tuple[str, ...]:
        return self.out_neighbors(log_id, Relation.REPORTS_ABOUT)

    @classmethod
    def from_parts(
        cls,
        nodes: Iterable[Node],
        edges: Iterable[Edge],
        require_linked_logs: bool = False,
    ) -> "KnowledgeGraph":
        """Build a graph, validating every structural invariant.

        Duplicate (src, dst, rel) records are dropped with a warning.
        ``require_linked_logs`` additionally asserts that every text log
        has at least one outgoing ReportsAbout edge (the post-filtering
        invariant).
        """
        node_map: dict[str, Node] = {}
        for n in nodes:
            n.validate()
            if n.id in node_map:
                raise GraphInvariantError(f"duplicate node id {n.id!r}")
            node_map[n.id] = n

        kept: list[Edge] = []
        seen: set[Edge] = set()
        duplicates = 0
        for e in edges:
            _validate_edge(e, node_map)
            if e in seen:
                duplicates += 1
                continue
            seen.add(e)
            kept.append(e)
        if duplicates:
            logger.warning("dropped %d duplicate edge record(s)", duplicates)

        _check_part_of_acyclic(kept)

        if require_linked_logs:
            linked = {e.src for e in kept if e.rel is Relation.REPORTS_ABOUT}
            for n in node_map.values():
                if n.kind is NodeKind.TEXT_LOG and n.id not in linked:
                    raise GraphInvariantError(
                        f"text log {n.id!r} has no ReportsAbout edge"
                    )

        return cls(node_map, kept)


def _validate_edge(e: Edge, nodes: Mapping[str, Node]) -> None:
    if e.src not in nodes or e.dst not in nodes:
        raise GraphInvariantError(
            f"dangling edge endpoint: ({e.src!r}, {e.dst!r}, {e.rel.value})"
        )
    if e.src == e.dst:
        raise GraphInvariantError(f"self-loop on {e.src!r} ({e.rel.value})")
    want_src, want_dst = RELATION_SIGNATURES[e.rel]
    if nodes[e.src].kind is not want_src or nodes[e.dst].kind is not want_dst:
        raise GraphInvariantError(
            f"relation/kind mismatch: {e.rel.value} requires "
            f"{want_src.value} -> {want_dst.value}, got "
            f"{nodes[e.src].kind.value} -> {nodes[e.dst].kind.value} "
            f"({e.src!r} -> {e.dst!r})"
        )


def _check_part_of_acyclic(edges: Sequence[Edge]) -> None:
    sorter = graphlib.TopologicalSorter()  # each FL after the FLs it is part of
    for e in edges:
        if e.rel is Relation.PART_OF:
            sorter.add(e.src, e.dst)
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:  # args[1] lists the cycle's nodes
        raise GraphInvariantError(f"PartOf cycle through {exc.args[1][0]!r}") from None


# ---------------------------------------------------------------------------
# File loading


# Record values to members by dict: an enum call such as Relation(value) takes about 25
# times as long as the lookup, and more than the rest of a record's checks together.
_KINDS = {kind.value: kind for kind in NodeKind}
_RELATIONS = {rel.value: rel for rel in Relation}


def _node(rec: dict) -> Node:
    return Node(id=field(rec, "id", str), kind=_KINDS[rec["kind"]],
                text=field(rec, "text", str, ""),
                code=None if rec.get("code") is None else field(rec, "code", str),
                ts=None if rec.get("ts") is None else field(rec, "ts", int))


def _edge(rec: dict) -> Edge:
    return Edge(src=field(rec, "src", str), dst=field(rec, "dst", str), rel=_RELATIONS[rec["rel"]])


def load_graph(nodes_path: str | Path, edges_path: str | Path) -> KnowledgeGraph:
    """Load and validate a graph from line-delimited JSON node/edge files.

    Unknown record fields are ignored. A malformed line raises
    CorruptFileError ``"<path>:<line>: ..."``; a graph that breaks a
    structural invariant raises CorruptFileError naming both files.
    """
    nodes = read_json_lines(nodes_path, _node,
                            "node line is not a record with a string id, a known kind, a "
                            "string text, a string code and an integer ts if any")
    edges = read_json_lines(edges_path, _edge,
                            "edge line is not a record with string src and dst and a known rel")
    try:
        return KnowledgeGraph.from_parts(nodes, edges)
    except GraphInvariantError as exc:
        raise CorruptFileError(f"{nodes_path}, {edges_path}: {exc}") from None


def save_graph(g: KnowledgeGraph, nodes_path: str | Path, edges_path: str | Path) -> None:
    """Write a graph back out in the line-delimited JSON interchange format."""
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node_id in sorted(g.nodes):
            n = g.nodes[node_id]
            rec: dict = {"id": n.id, "kind": n.kind.value, "text": n.text}
            if n.code is not None:
                rec["code"] = n.code
            if n.ts is not None:
                rec["ts"] = n.ts
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for e in sorted(g.edges, key=lambda e: (e.rel.value, e.src, e.dst)):
            fh.write(
                json.dumps({"src": e.src, "dst": e.dst, "rel": e.rel.value}, sort_keys=True)
                + "\n"
            )


# ---------------------------------------------------------------------------
# Construction steps


def build_graph(raw: KnowledgeGraph) -> KnowledgeGraph:
    """Drop text logs without any outgoing ReportsAbout edge.

    Functional locations are always kept. Edges incident to a dropped
    log (in either direction) are removed with it.
    """
    linked = {e.src for e in raw.edges if e.rel is Relation.REPORTS_ABOUT}
    keep_nodes = [
        n
        for n in raw.nodes.values()
        if n.kind is NodeKind.FUNCTIONAL_LOCATION or n.id in linked
    ]
    keep_ids = {n.id for n in keep_nodes}
    keep_edges = [e for e in raw.edges if e.src in keep_ids and e.dst in keep_ids]
    dropped = len(raw.nodes) - len(keep_nodes)
    if dropped:
        logger.info("build_graph: dropped %d unlinked text log(s)", dropped)
    return KnowledgeGraph.from_parts(keep_nodes, keep_edges, require_linked_logs=True)


def _code_pattern(codes: Sequence[str]) -> re.Pattern | None:
    """Case-insensitive whole-phrase pattern over FL codes, longest first.

    Longest-first alternation makes an ambiguous mention resolve to the
    longest matching code. Word characters and dashes are excluded at
    both boundaries so "FL 1-1" does not match inside "FL 1-1-2".
    """
    codes = sorted({c for c in codes if c}, key=lambda c: (-len(c), c))
    if not codes:
        return None
    alt = "|".join(re.escape(c) for c in codes)
    return re.compile(r"(?<![\w-])(?:" + alt + r")(?![\w-])", re.IGNORECASE)


RELATED_WINDOW_S = 259200  # 3 days


class LexicalMatcher:
    """Default matcher: FL code mentions and a shared-FL time window.

    ReportsAbout: a log mentions an FL's code (case-insensitive whole
    phrase, longest code wins on overlap). RelatedTo: two logs report
    about a common FL and their timestamps lie within
    ``RELATED_WINDOW_S`` seconds; the edge runs earlier -> later
    (lexicographic id order on equal timestamps). Logs without a
    timestamp never enter the time-window heuristic.
    """

    def propose_reports_about(self, g: KnowledgeGraph) -> list[Edge]:
        fls = g.functional_locations()
        pattern = _code_pattern([fl.code or "" for fl in fls])
        if pattern is None:
            return []
        by_code = {}
        for fl in sorted(fls, key=lambda n: n.id):
            by_code.setdefault((fl.code or "").lower(), fl.id)
        proposals = []
        for log in sorted(g.text_logs(), key=lambda n: n.id):
            mentioned = {m.group(0).lower() for m in pattern.finditer(log.text)}
            for code in sorted(mentioned):
                proposals.append(Edge(log.id, by_code[code], Relation.REPORTS_ABOUT))
        return proposals

    def propose_related_to(self, g: KnowledgeGraph) -> list[Edge]:
        by_fl: dict[str, list[Node]] = defaultdict(list)
        for log in g.text_logs():
            if log.ts is None:
                continue
            for fl in g.reported_fls(log.id):
                by_fl[fl].append(log)
        proposals = []
        seen: set[tuple[str, str]] = set()
        for fl in sorted(by_fl):
            logs = sorted(by_fl[fl], key=lambda n: (n.ts, n.id))
            for i, a in enumerate(logs):
                for b in logs[i + 1 :]:
                    assert a.ts is not None and b.ts is not None
                    if b.ts - a.ts > RELATED_WINDOW_S:
                        break
                    key = (a.id, b.id)
                    if a.id != b.id and key not in seen:
                        seen.add(key)
                        proposals.append(Edge(a.id, b.id, Relation.RELATED_TO))
        return proposals


def predict_links(g: KnowledgeGraph, matcher: LexicalMatcher) -> KnowledgeGraph:
    """Enrich a graph with matcher-proposed edges: ``matcher.propose_reports_about(g)``,
    then ``matcher.propose_related_to`` on the graph those enriched.

    Type-invalid, dangling, self-loop or duplicate proposals are
    rejected with a warning instead of inserted; per-relation edge
    counts therefore never decrease.
    """

    def _accept(graph: KnowledgeGraph, proposals: Iterable[Edge]) -> KnowledgeGraph:
        fresh: list[Edge] = []
        present = set(graph.edges)
        rejected = 0
        for e in proposals:
            try:
                _validate_edge(e, graph.nodes)
            except GraphInvariantError as exc:
                rejected += 1
                logger.warning("predict_links: rejected proposal: %s", exc)
                continue
            if e in present:
                continue
            present.add(e)
            fresh.append(e)
        if rejected:
            logger.warning("predict_links: %d proposal(s) rejected", rejected)
        if not fresh:
            return graph
        return KnowledgeGraph.from_parts(graph.nodes.values(), [*graph.edges, *fresh])

    enriched = _accept(g, matcher.propose_reports_about(g))
    enriched = _accept(enriched, matcher.propose_related_to(enriched))
    before, after = g.edge_counts(), enriched.edge_counts()
    logger.info(
        "predict_links: %s",
        ", ".join(f"{rel.value} {before[rel]}->{after[rel]}" for rel in Relation),
    )
    return enriched


def expand_context(g: KnowledgeGraph, log_id: str) -> str:
    """Inline FL descriptions after code mentions in one log's text.

    Every occurrence of a linked FL's code becomes "<code> <description>".
    Applying the expansion twice changes nothing: a code already followed
    by its description is left alone.
    """
    if log_id not in g.nodes:
        raise KeyError(log_id)
    log = g.nodes[log_id]
    if log.kind is not NodeKind.TEXT_LOG:
        raise ValueError(f"{log_id!r} is not a text log")

    linked = [g.nodes[fl_id] for fl_id in g.reported_fls(log_id)]
    by_code: dict[str, Node] = {}
    for fl in sorted(linked, key=lambda n: n.id):
        if fl.code:
            by_code.setdefault(fl.code.lower(), fl)
    pattern = _code_pattern(list(by_code))
    if pattern is None:
        return log.text

    def _expand(m: re.Match) -> str:
        mention = m.group(0)
        desc = by_code[mention.lower()].text
        if not desc:
            return mention
        tail = m.string[m.end() :]
        if re.match(r"\s+" + re.escape(desc) + r"(?![\w-])", tail):
            return mention  # already expanded
        return f"{mention} {desc}"

    return pattern.sub(_expand, log.text)
