"""Deterministic synthetic plant-data generator.

Stands in for the proprietary shift-book corpus: a PartOf tree of
functional locations, text logs wired to them, German-flavored log
texts with plant jargon, retrieval queries with graded relevance over
FL subtrees, and topic-signal text vectors for embedding
initialization.

The retrievability gap of the real data is reproduced structurally:
each top-level subtree owns a jargon/textbook synonym pair
("Lömi"/"Lösungsmittel" style), some of its logs use one form and some
the other, while queries always use the textbook form. Bag-of-words
retrieval therefore cannot reach the jargon-form logs, which is
exactly the headroom graph-based training is supposed to claim.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ir_eval import BenchmarkPlant, Query
from .kg import Edge, KnowledgeGraph, Node, NodeKind, Relation
from .pairs import CorpusStats, PairLabel, PairSource, QueryDocPair, generate_query

logger = logging.getLogger(__name__)

FILLER_WORDS = [
    "anlage", "betrieb", "schicht", "wartung", "meldung", "kontrolle",
    "austausch", "reinigung", "freigabe", "protokoll", "befund", "turnus",
    "inspektion", "monteur", "ersatzteil", "dichtung", "flansch", "leitung",
    "messung", "anzeige", "wert", "erhöht", "auffällig", "erneut", "behoben",
    "offen", "geplant", "durchgeführt", "gemeldet", "geprüft", "getauscht",
    "entlüftet", "nachgezogen", "beobachtet", "dokumentiert", "veranlasst",
]

EQUIPMENT_TERMS = [
    "pumpe", "ventil", "reaktor", "kessel", "motor", "filter", "verdichter",
    "rührwerk", "wärmetauscher", "kolonne", "dosierer", "zentrifuge",
    "abscheider", "brenner", "gebläse", "mischer", "trockner", "separator",
    "verdampfer", "kondensator", "turbine", "presse", "mühle", "sieb",
    "tank", "silo", "ofen", "waage", "schleuse", "förderband",
]

ISSUE_TERMS = [
    "leckage", "vibration", "geräusch", "überdruck", "unterdruck",
    "verschleiß", "riss", "verstopfung", "korrosion", "ausfall", "drift",
    "übertemperatur", "schwingung", "blockade", "abrieb", "undichtigkeit",
    "fehlalarm", "kurzschluss", "verschmutzung", "alterung",
]

DEFAULT_JARGON_PAIRS = [
    ("lömi", "lösungsmittel"),
    ("kompi", "verdichterstation"),
    ("drucki", "druckaufnehmer"),
    ("tempfühler", "temperaturfühler"),
]

_JARGON_MENTION_RATE = 0.7
# Logs usually cite their own equipment's code; cross-references to other
# locations are much rarer (see abbreviation_rate).
_OWN_CODE_RATE = 0.7
_BASE_TS = 1_700_000_000  # fixed epoch origin so outputs stay reproducible


@dataclass
class PlantConfig:
    plant_id: str = "A"
    seed: int = 0
    n_fl: int = 40
    tree_branching: int = 3
    n_logs: int = 500
    n_queries: int = 20
    jargon_pairs: list[tuple[str, str]] = field(
        default_factory=lambda: [tuple(p) for p in DEFAULT_JARGON_PAIRS]
    )
    abbreviation_rate: float = 0.1
    related_rate: float = 0.15
    short_log_rate: float = 0.35
    vec_dim: int = 64
    training: bool = False
    sid_pairs: int = 12

    def validate(self) -> None:
        if not self.plant_id:
            raise ValueError("plant_id must be non-empty")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_fl < 2:
            raise ValueError(f"n_fl must be >= 2, got {self.n_fl}")
        if self.tree_branching < 1:
            raise ValueError(f"tree_branching must be >= 1, got {self.tree_branching}")
        if self.n_logs < 1:
            raise ValueError(f"n_logs must be >= 1, got {self.n_logs}")
        if self.n_queries < 1:
            raise ValueError(f"n_queries must be >= 1, got {self.n_queries}")
        if not self.jargon_pairs:
            raise ValueError("need at least one jargon pair")
        for rate_name in ("abbreviation_rate", "related_rate", "short_log_rate"):
            rate = getattr(self, rate_name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if self.vec_dim < 2:
            raise ValueError(f"vec_dim must be >= 2, got {self.vec_dim}")
        if self.sid_pairs < 0:
            raise ValueError(f"sid_pairs must be >= 0, got {self.sid_pairs}")
        if self.n_queries > self.n_fl - 1:
            raise ValueError(
                f"more queries ({self.n_queries}) than non-root subtrees ({self.n_fl - 1})"
            )


@dataclass
class _FlInfo:
    node_id: str
    code: str
    parent: str | None
    depth: int
    top: int  # index of the child-of-root subtree this FL belongs to; -1 for root
    term_a: str
    term_b: str


@dataclass
class GeneratedPlant:
    """One plant's graph, benchmark slice, and generation metadata."""

    config: PlantConfig
    graph: KnowledgeGraph
    bench: BenchmarkPlant
    text_vectors: dict[str, np.ndarray]
    primary_fl: dict[str, str]  # log id -> the FL its ReportsAbout edge targets
    jargon_forms: dict[str, tuple[int, str]]  # log id -> (pair index, "jargon"|"textbook")
    sid_pairs: list[QueryDocPair]


def _unique_terms(pool: Sequence[str], count: int) -> list[str]:
    """First `count` terms, pool words numbered once the pool is exhausted."""
    out = []
    for i in range(count):
        base = pool[i % len(pool)]
        k = i // len(pool)
        out.append(base if k == 0 else f"{base}{k + 1}")
    return out


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def generate_plant(cfg: PlantConfig) -> GeneratedPlant:
    """Build one plant deterministically from its seed.

    Every log gets exactly one ReportsAbout edge to its primary FL;
    `related_rate` of the logs are follow-ups of an earlier log on the
    same FL, linked by RelatedTo (earlier -> later). Log texts mix the
    FL's characteristic terms, ancestor terms, fillers, the subtree's
    jargon-pair word in one of its two forms, and occasional FL code
    mentions that are not backed by an edge (those are what link
    prediction is supposed to recover). Queries target FL subtrees and
    grade every subtree log relevant, jargon-form logs included.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    pid = cfg.plant_id

    # Functional-location tree, breadth-first codes: FL 1, FL 1-1, FL 1-1-2, ...
    term_as = _unique_terms(EQUIPMENT_TERMS, cfg.n_fl)
    term_bs = _unique_terms(ISSUE_TERMS, cfg.n_fl)
    fls: list[_FlInfo] = []
    root = _FlInfo(f"{pid}:fl:1", "FL 1", None, 0, -1, term_as[0], term_bs[0])
    fls.append(root)
    queue = [root]
    child_count: dict[str, int] = {root.node_id: 0}
    while len(fls) < cfg.n_fl:
        parent = queue.pop(0)
        for _ in range(cfg.tree_branching):
            if len(fls) >= cfg.n_fl:
                break
            child_count[parent.node_id] += 1
            code = f"{parent.code}-{child_count[parent.node_id]}"
            i = len(fls)
            top = i - 1 if parent.depth == 0 else parent.top
            info = _FlInfo(
                f"{pid}:fl:{code[3:].replace(' ', '')}",
                code,
                parent.node_id,
                parent.depth + 1,
                top,
                term_as[i],
                term_bs[i],
            )
            fls.append(info)
            child_count[info.node_id] = 0
            queue.append(info)

    by_id = {f.node_id: f for f in fls}
    n_top = sum(1 for f in fls if f.depth == 1)
    pair_of_top = {
        t: cfg.jargon_pairs[t % len(cfg.jargon_pairs)] for t in range(max(n_top, 1))
    }

    def ancestors(f: _FlInfo) -> list[_FlInfo]:
        out = []
        cur = f
        while cur.parent is not None:
            cur = by_id[cur.parent]
            out.append(cur)
        return out

    nodes: list[Node] = []
    edges: list[Edge] = []
    for f in fls:
        nodes.append(
            Node(f.node_id, NodeKind.FUNCTIONAL_LOCATION, text=f.term_a.capitalize(), code=f.code)
        )
        if f.parent is not None:
            edges.append(Edge(f.node_id, f.parent, Relation.PART_OF))

    # Text logs.
    primary_fl: dict[str, str] = {}
    jargon_forms: dict[str, tuple[int, str]] = {}
    mentioned_fls: dict[str, list[str]] = {}  # log id -> FLs cited by code in the text
    log_meta: list[tuple[str, _FlInfo, int]] = []  # (id, fl, ts)
    non_root = [f for f in fls if f.depth > 0] or fls
    for i in range(cfg.n_logs):
        log_id = f"{pid}:log:{i:05d}"
        follow_up = None
        if log_meta and rng.random() < cfg.related_rate:
            follow_up = log_meta[int(rng.integers(0, len(log_meta)))]
        if follow_up is not None:
            fl = follow_up[1]
            ts = follow_up[2] + int(rng.integers(600, 86400))
            edges.append(Edge(follow_up[0], log_id, Relation.RELATED_TO))
        else:
            fl = non_root[int(rng.integers(0, len(non_root)))]
            ts = _BASE_TS + int(rng.integers(0, 365 * 86400))

        words = [fl.term_a]
        if rng.random() < 0.75:
            words.append(fl.term_b)
        for anc in ancestors(fl)[:2]:
            if anc.depth > 0 and rng.random() < 0.4:
                words.append(anc.term_a)
        if fl.top >= 0 and rng.random() < _JARGON_MENTION_RATE:
            pair_idx = fl.top % len(cfg.jargon_pairs)
            jargon, textbook = pair_of_top[fl.top]
            if rng.random() < 0.5:
                words.append(jargon)
                jargon_forms[log_id] = (pair_idx, "jargon")
            else:
                words.append(textbook)
                jargon_forms[log_id] = (pair_idx, "textbook")
        if follow_up is not None:
            words.append("nachkontrolle")
        target = int(rng.integers(5, 9)) if rng.random() < cfg.short_log_rate else int(
            rng.integers(14, 25)
        )
        while len(words) < target:
            words.append(FILLER_WORDS[int(rng.integers(0, len(FILLER_WORDS)))])
        words = [words[j] for j in rng.permutation(len(words))]
        if rng.random() < _OWN_CODE_RATE:
            words.insert(int(rng.integers(0, len(words) + 1)), fl.code)
        if rng.random() < cfg.abbreviation_rate:
            # Mention of a same-subtree FL with no backing edge.
            siblings = [
                f for f in fls if f.top == fl.top and f.node_id != fl.node_id and f.depth > 0
            ]
            if siblings:
                other = siblings[int(rng.integers(0, len(siblings)))]
                words.insert(int(rng.integers(0, len(words) + 1)), other.code)
                mentioned_fls.setdefault(log_id, []).append(other.node_id)
        text = " ".join(words)
        text = text[0].upper() + text[1:] + "."

        nodes.append(Node(log_id, NodeKind.TEXT_LOG, text=text, ts=ts))
        edges.append(Edge(log_id, fl.node_id, Relation.REPORTS_ABOUT))
        primary_fl[log_id] = fl.node_id
        log_meta.append((log_id, fl, ts))

    graph = KnowledgeGraph.from_parts(nodes, edges, require_linked_logs=True)

    # Queries over FL subtrees; relevance covers the whole subtree.
    subtree_logs: dict[str, list[str]] = {f.node_id: [] for f in fls}
    for log_id, fl_id in primary_fl.items():
        cur: _FlInfo | None = by_id[fl_id]
        while cur is not None:
            subtree_logs[cur.node_id].append(log_id)
            cur = by_id[cur.parent] if cur.parent is not None else None
    candidates = [f for f in fls if f.depth > 0 and subtree_logs[f.node_id]]
    if len(candidates) < cfg.n_queries:
        raise ValueError(
            f"only {len(candidates)} populated subtrees for {cfg.n_queries} queries"
        )
    picked = sorted(
        rng.choice(len(candidates), size=cfg.n_queries, replace=False).tolist()
    )
    queries: list[Query] = []
    qrels: dict[str, dict[str, int]] = {}
    for j, ci in enumerate(picked):
        f = candidates[ci]
        _, textbook = pair_of_top[f.top]
        query_id = f"{pid}:q:{j:03d}"
        queries.append(Query(query_id, f"{f.term_a} {f.term_b} {textbook}"))
        qrels[query_id] = {log_id: 1 for log_id in sorted(subtree_logs[f.node_id])}

    corpus = {
        n.id: n.text for n in nodes if n.kind is NodeKind.TEXT_LOG
    }
    bench = BenchmarkPlant(pid, corpus, queries, qrels)

    # Topic-signal vectors: a shared subtree component plus noise.
    text_vectors: dict[str, np.ndarray] = {}
    text_vectors[root.node_id] = _unit(rng.normal(size=cfg.vec_dim))
    for f in fls[1:]:
        parent_vec = text_vectors[f.parent]  # BFS order: parent exists
        noise = _unit(rng.normal(size=cfg.vec_dim))
        text_vectors[f.node_id] = _unit(parent_vec + 0.7 * noise)
    for log_id, fl_id in primary_fl.items():
        noise = _unit(rng.normal(size=cfg.vec_dim))
        vec = text_vectors[fl_id] + 0.7 * noise
        # A sentence embedding of the raw text reflects cited FL codes
        # verbatim, so mentions contribute to the simulated vector too.
        for cited in mentioned_fls.get(log_id, ()):
            vec = vec + 0.5 * text_vectors[cited]
        text_vectors[log_id] = _unit(vec)

    sid = _sid_pairs(cfg, corpus, rng)
    return GeneratedPlant(cfg, graph, bench, text_vectors, primary_fl, jargon_forms, sid)


def _sid_pairs(
    cfg: PlantConfig, corpus: dict[str, str], rng: np.random.Generator
) -> list[QueryDocPair]:
    """Small extractive in-domain pair set (the SID stand-in)."""
    if cfg.sid_pairs == 0:
        return []
    stats = CorpusStats.from_texts(corpus.values())
    doc_ids = sorted(corpus)
    n_pos = min(cfg.sid_pairs, len(doc_ids))
    picked = rng.choice(len(doc_ids), size=n_pos, replace=False)
    out: list[QueryDocPair] = []
    for i in sorted(picked.tolist()):
        doc_id = doc_ids[i]
        query = generate_query(corpus[doc_id], 3, stats)
        out.append(QueryDocPair(query, doc_id, PairLabel.POSITIVE, PairSource.SID))
        for _ in range(3):
            neg = doc_ids[int(rng.integers(0, len(doc_ids)))]
            if neg != doc_id:
                out.append(QueryDocPair(query, neg, PairLabel.NEGATIVE, PairSource.SID))
    return out

