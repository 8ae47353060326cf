"""Command-line pipeline runner.

One JSON run config drives every stage; each stage writes its artifacts
plus a manifest recording the seed, the stage config, and content
hashes of inputs and outputs. Reruns with the same config and seed
produce byte-identical artifacts and manifests (wall-clock timings go
to a separate timings.json, which is the one non-deterministic file).

Exit codes: 0 success, 2 config or input validation error, 3 missing
stage dependency or provenance mismatch, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import ann, graph_embed, ir_eval, kg, pairs as pairs_mod, synth, train, triplets as triplets_mod
from .encoder import EncoderParams, init_encoder, load_encoder, save_encoder
from .losses import NonFiniteError
from .storage import (
    EmbeddingFileError, derive_seed, sha256_file, write_ids, write_json_lines, write_matrix,
)

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad run config or invalid input data."""


class MissingArtifactError(RuntimeError):
    """A stage dependency has not been produced yet."""


DEFAULT_PLANT_IDS = ["A", "B", "C", "D", "E", "F", "G"]
DEFAULT_TRAINING_PLANTS = ["A", "C", "D", "G"]

DEFAULT_RUN_CONFIG: dict[str, Any] = {
    "seed": 7,
    "plants": [
        {
            "plant_id": pid,
            "n_fl": 20,
            "n_logs": 230,
            "n_queries": 8,
            "training": pid in DEFAULT_TRAINING_PLANTS,
        }
        for pid in DEFAULT_PLANT_IDS
    ],
    "enrich": True,
    "expand_context": True,
    "graph_embed": {
        "dim": 64,
        "epochs": 30,
        "learning_rate": 0.1,
        "ranking_margin": 0.1,
        "negatives_per_edge": 10,
        "init_mode": "text_vectors",
        "lp_test_fraction": 0.01,
    },
    "sampling": {
        "k_pos": 2,
        "c_pos": 2,
        "k_hard": 50,
        "c_hard": 1,
        "c_easy": 1,
        "min_text_chars": 100,
    },
    "quality": {"t_pos": 1.0, "t_margin": 0.2, "scorer_scale": 10.0, "query_terms": 3},
    "encoder": {"dim": 64, "vocab_buckets": 65536},
    "docsim": {"margin": 1.0, "epochs": 3, "learning_rate": 0.1, "batch_size": 16},
    "biencoder": {
        "epochs": 5,
        "batch_size": 64,
        "warmup_steps": 20,
        "similarity_scale": 20.0,
        "learning_rate": 0.1,
    },
    "composition": {"use_get": True, "use_sid": True, "use_drmm": False,
                    "drmm_pairs": None, "drmm_corpus": None},
    "ablations": [
        {"name": "sid", "use_get": False, "use_sid": True, "docsim": False},
        {"name": "sid+get", "use_get": True, "use_sid": True, "docsim": False},
        {"name": "docsim+sid+get", "use_get": True, "use_sid": True, "docsim": True},
    ],
}

def _merged(defaults: Mapping[str, Any], override: Mapping[str, Any], where: str) -> dict:
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if isinstance(defaults[key], Mapping) and isinstance(value, Mapping):
            out[key] = _merged(defaults[key], value, f"{where}.{key}")
        else:
            out[key] = value
    return out


class RunConfig:
    """Validated run config; stage configs come out as typed dataclasses."""

    def __init__(self, raw: Mapping[str, Any]):
        for key in raw:
            if key not in DEFAULT_RUN_CONFIG:
                raise ConfigError(f"unknown config key {key!r}")
        base = {k: v for k, v in DEFAULT_RUN_CONFIG.items() if k not in ("plants", "ablations")}
        merged = _merged(
            base,
            {k: v for k, v in raw.items() if k not in ("plants", "ablations")},
            "config",
        )
        self.seed = int(merged["seed"])
        self.enrich = bool(merged["enrich"])
        self.expand = bool(merged["expand_context"])
        self.raw = dict(merged)
        self.raw["plants"] = raw.get("plants", DEFAULT_RUN_CONFIG["plants"])
        self.raw["ablations"] = raw.get("ablations", DEFAULT_RUN_CONFIG["ablations"])
        try:
            self.plant_configs = [self._plant_config(p) for p in self.raw["plants"]]
        except TypeError as exc:
            raise ConfigError(f"bad plants entry: {exc}") from None
        if len({p.plant_id for p in self.plant_configs}) != len(self.plant_configs):
            raise ConfigError("duplicate plant ids in config")
        for p in self.plant_configs:
            p.validate()
        self.ablations = [self._ablation(a) for a in self.raw["ablations"]]

    def with_seed(self, seed: int) -> "RunConfig":
        raw = dict(self.raw)
        raw["seed"] = seed
        return RunConfig(raw)

    def _plant_config(self, entry: Mapping[str, Any]) -> synth.PlantConfig:
        allowed = {
            "plant_id", "seed", "n_fl", "tree_branching", "n_logs", "n_queries",
            "jargon_pairs", "abbreviation_rate", "related_rate", "short_log_rate",
            "vec_dim", "training", "sid_pairs",
        }
        unknown = set(entry) - allowed
        if unknown:
            raise ConfigError(f"unknown plant config key(s): {sorted(unknown)}")
        entry = dict(entry)
        if "plant_id" not in entry:
            raise ConfigError("plant config without plant_id")
        entry.setdefault("seed", derive_seed(self.seed, f"synth:{entry['plant_id']}"))
        if "jargon_pairs" in entry:
            entry["jargon_pairs"] = [tuple(p) for p in entry["jargon_pairs"]]
        entry.setdefault("vec_dim", int(self.raw["graph_embed"]["dim"]))
        return synth.PlantConfig(**entry)

    def _ablation(self, entry: Mapping[str, Any]) -> dict:
        allowed = {"name", "use_get", "use_sid", "use_drmm", "docsim"}
        unknown = set(entry) - allowed
        if unknown:
            raise ConfigError(f"unknown ablation key(s): {sorted(unknown)}")
        if "name" not in entry:
            raise ConfigError("ablation without name")
        comp = self.raw["composition"]
        return {
            "name": str(entry["name"]),
            "use_get": bool(entry.get("use_get", comp["use_get"])),
            "use_sid": bool(entry.get("use_sid", comp["use_sid"])),
            "use_drmm": bool(entry.get("use_drmm", comp["use_drmm"])),
            "docsim": bool(entry.get("docsim", True)),
        }

    def ge_config(self) -> tuple[graph_embed.GETrainConfig, float]:
        section = self.raw["graph_embed"]
        try:
            mode = graph_embed.InitMode(section["init_mode"])
        except ValueError:
            raise ConfigError(f"unknown init_mode {section['init_mode']!r}") from None
        cfg = graph_embed.GETrainConfig(
            dim=int(section["dim"]),
            epochs=int(section["epochs"]),
            learning_rate=float(section["learning_rate"]),
            ranking_margin=float(section["ranking_margin"]),
            negatives_per_edge=int(section["negatives_per_edge"]),
            init_mode=mode,
        )
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        fraction = float(section["lp_test_fraction"])
        if not (0.0 < fraction < 1.0):
            raise ConfigError(f"lp_test_fraction must be in (0, 1), got {fraction}")
        return cfg, fraction

    def sampling_params(self) -> triplets_mod.SamplingParams:
        p = triplets_mod.SamplingParams(**{k: int(v) for k, v in self.raw["sampling"].items()})
        try:
            p.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return p

    def docsim_config(self) -> train.DocSimConfig:
        cfg = train.DocSimConfig(**self.raw["docsim"])
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cfg

    def biencoder_config(self) -> train.BiEncoderConfig:
        cfg = train.BiEncoderConfig(**self.raw["biencoder"])
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cfg


def load_run_config(path: str | None, seed_override: int | None) -> RunConfig:
    if path is None:
        raw: Mapping[str, Any] = {}
    else:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise MissingArtifactError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    try:
        cfg = RunConfig(raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    if seed_override is not None:
        cfg = cfg.with_seed(seed_override)
    return cfg


# ---------------------------------------------------------------------------
# Manifests and provenance


def _hash_paths(root: Path, paths: Sequence[Path]) -> dict[str, str]:
    out = {}
    for p in sorted(paths):
        out[str(p.relative_to(root))] = sha256_file(p)
    return out


def _write_manifest(out_dir: Path, stage: str, seed: int, config: Any,
                    inputs: dict[str, str], outputs: dict[str, str]) -> Path:
    manifest = {"stage": stage, "seed": seed, "config": config,
                "inputs": inputs, "outputs": outputs}
    path = out_dir / f"manifest-{stage}.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def _record_timing(out_dir: Path, stage: str, seconds: float) -> None:
    path = out_dir / "timings.json"
    data = {}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data[stage] = round(seconds, 3)
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _check_strict(out_dir: Path, inputs: dict[str, str]) -> None:
    """Verify input hashes against the producing stages' manifests."""
    recorded: dict[str, str] = {}
    for manifest_path in sorted(out_dir.glob("manifest-*.json")):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        recorded.update(manifest.get("outputs", {}))
    for rel, digest in inputs.items():
        if rel in recorded and recorded[rel] != digest:
            raise MissingArtifactError(
                f"provenance hash mismatch for {rel}: artifact changed since it was produced"
            )


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{path} not found: run {producer} first")
    return path


# ---------------------------------------------------------------------------
# Stages


def stage_synth(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    t0 = time.perf_counter()
    if not cfg.plant_configs:
        raise ConfigError("no plant configs")
    plants = [synth.generate_plant(pcfg) for pcfg in cfg.plant_configs]
    bench = ir_eval.Benchmark([gp.bench for gp in plants])
    bench.validate()  # id collisions fail here, before any file is written
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    sid_rows: list[pairs_mod.QueryDocPair] = []
    plant_meta = []
    for pcfg, gp in zip(cfg.plant_configs, plants):
        pdir = out_dir / "plants" / pcfg.plant_id
        pdir.mkdir(parents=True, exist_ok=True)
        kg.save_graph(gp.graph, pdir / "nodes.jsonl", pdir / "edges.jsonl")
        node_ids = sorted(gp.text_vectors)
        write_matrix(pdir / "vectors.gemb", np.stack([gp.text_vectors[i] for i in node_ids]))
        write_ids(pdir / "vectors.ids", node_ids)
        ir_eval.save_queries({pcfg.plant_id: gp.bench.queries}, pdir / "queries.jsonl")
        ir_eval.save_qrels(gp.bench.qrels, pdir / "qrels.txt")
        sid_rows.extend(gp.sid_pairs)
        plant_meta.append({"plant_id": pcfg.plant_id, "training": pcfg.training})
        outputs.extend(pdir.iterdir())
    pairs_mod.save_pairs(sid_rows, out_dir / "sid.jsonl")
    (out_dir / "benchmark.json").write_text(
        json.dumps({"plants": plant_meta}, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    outputs += [out_dir / "sid.jsonl", out_dir / "benchmark.json"]
    logger.info("synth: %d plants, %d queries total",
                len(bench.plants), sum(len(p.queries) for p in bench.plants))
    _write_manifest(out_dir, "synth", cfg.seed,
                    {"plants": [asdict(p) for p in cfg.plant_configs]},
                    {}, _hash_paths(out_dir, outputs))
    _record_timing(out_dir, "synth", time.perf_counter() - t0)


def _plant_list(out_dir: Path) -> list[dict]:
    meta_path = _require(out_dir / "benchmark.json", "synth")
    return json.loads(meta_path.read_text(encoding="utf-8"))["plants"]


def _training_plants(out_dir: Path) -> list[str]:
    return [p["plant_id"] for p in _plant_list(out_dir) if p["training"]]


def stage_build_graph(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    t0 = time.perf_counter()
    plant_metas = _plant_list(out_dir)
    inputs: list[Path] = []
    for meta in plant_metas:
        pdir = out_dir / "plants" / meta["plant_id"]
        inputs += [_require(pdir / "nodes.jsonl", "synth"),
                   _require(pdir / "edges.jsonl", "synth")]
    in_hashes = _hash_paths(out_dir, inputs)
    if strict:
        _check_strict(out_dir, in_hashes)
    outputs: list[Path] = []
    matcher = kg.LexicalMatcher()
    for meta in plant_metas:
        pid = meta["plant_id"]
        pdir = out_dir / "plants" / pid
        g = kg.build_graph(kg.load_graph(pdir / "nodes.jsonl", pdir / "edges.jsonl"))
        if cfg.enrich:
            g = kg.predict_links(g, matcher)
        if cfg.expand:
            expanded = [
                kg.Node(n.id, n.kind, kg.expand_context(g, n.id), n.code, n.ts)
                if n.kind is kg.NodeKind.TEXT_LOG
                else n
                for n in g.nodes.values()
            ]
            g = kg.KnowledgeGraph.from_parts(expanded, g.edges)
        gdir = out_dir / "graphs" / pid
        gdir.mkdir(parents=True, exist_ok=True)
        kg.save_graph(g, gdir / "nodes.jsonl", gdir / "edges.jsonl")
        outputs += [gdir / "nodes.jsonl", gdir / "edges.jsonl"]
    _write_manifest(out_dir, "build-graph", cfg.seed,
                    {"enrich": cfg.enrich, "expand_context": cfg.expand},
                    in_hashes, _hash_paths(out_dir, outputs))
    _record_timing(out_dir, "build-graph", time.perf_counter() - t0)


def _load_built_graph(out_dir: Path, pid: str) -> kg.KnowledgeGraph:
    gdir = out_dir / "graphs" / pid
    return kg.load_graph(
        _require(gdir / "nodes.jsonl", "build-graph"),
        _require(gdir / "edges.jsonl", "build-graph"),
    )


def _load_text_vectors(out_dir: Path, pid: str) -> dict[str, np.ndarray]:
    from .storage import read_ids, read_matrix

    pdir = out_dir / "plants" / pid
    matrix = read_matrix(_require(pdir / "vectors.gemb", "synth"))
    ids = read_ids(_require(pdir / "vectors.ids", "synth"))
    return {node_id: matrix[i] for i, node_id in enumerate(ids)}


def stage_train_ge(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    t0 = time.perf_counter()
    ge_cfg, lp_fraction = cfg.ge_config()
    pids = _training_plants(out_dir)
    inputs: list[Path] = []
    for pid in pids:
        gdir = out_dir / "graphs" / pid
        inputs += [_require(gdir / "nodes.jsonl", "build-graph"),
                   _require(gdir / "edges.jsonl", "build-graph")]
        if ge_cfg.init_mode is graph_embed.InitMode.TEXT_VECTORS:
            pdir = out_dir / "plants" / pid
            inputs += [_require(pdir / "vectors.gemb", "synth"),
                       _require(pdir / "vectors.ids", "synth")]
    in_hashes = _hash_paths(out_dir, inputs)
    if strict:
        _check_strict(out_dir, in_hashes)
    outputs: list[Path] = []
    gedir = out_dir / "ge"
    gedir.mkdir(parents=True, exist_ok=True)
    lp_summary = {}
    for pid in pids:
        g = _load_built_graph(out_dir, pid)
        plant_cfg = graph_embed.GETrainConfig(**{**asdict(ge_cfg), "init_mode": ge_cfg.init_mode,
                                                 "rng_seed": derive_seed(cfg.seed, f"ge:{pid}")})
        text_vectors = None
        if plant_cfg.init_mode is graph_embed.InitMode.TEXT_VECTORS:
            text_vectors = _load_text_vectors(out_dir, pid)
        emb = graph_embed.init_embeddings(g, plant_cfg, text_vectors)
        train_edges, test_edges = graph_embed.split_edges(
            g, lp_fraction, derive_seed(cfg.seed, f"ge-split:{pid}")
        )
        g_train = kg.KnowledgeGraph.from_parts(g.nodes.values(), train_edges)
        trained = graph_embed.train_graph_embeddings(g_train, emb, plant_cfg)
        report = graph_embed.eval_link_prediction(
            trained, test_edges, list(g.nodes), {i: n.kind for i, n in g.nodes.items()},
            train_edges=train_edges,
        )
        lp_summary[pid] = report.scaled()
        graph_embed.save_embeddings(trained, gedir / pid)
        (gedir / f"{pid}.lp.json").write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        outputs += [gedir / f"{pid}.gemb", gedir / f"{pid}.ids",
                    gedir / f"{pid}.rels.json", gedir / f"{pid}.lp.json"]
        logger.info("train-ge %s: MRR %.2f, AUC %.2f", pid, report.scaled()["mrr"],
                    report.scaled()["auc"])
    _write_manifest(out_dir, "train-ge", cfg.seed,
                    {**cfg.raw["graph_embed"], "lp": lp_summary},
                    in_hashes, _hash_paths(out_dir, outputs))
    _record_timing(out_dir, "train-ge", time.perf_counter() - t0)


def stage_sample_triplets(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    t0 = time.perf_counter()
    params = cfg.sampling_params()
    pids = _training_plants(out_dir)
    inputs: list[Path] = []
    for pid in pids:
        stem = out_dir / "ge" / pid
        inputs += [_require(stem.with_suffix(".gemb"), "train-ge"),
                   _require(stem.with_suffix(".ids"), "train-ge"),
                   _require(stem.with_suffix(".rels.json"), "train-ge")]
    in_hashes = _hash_paths(out_dir, inputs)
    if strict:
        _check_strict(out_dir, in_hashes)
    all_triplets: list[triplets_mod.Triplet] = []
    meta = {}
    tdir = out_dir / "triplets"
    tdir.mkdir(parents=True, exist_ok=True)
    for pid in pids:
        emb = graph_embed.load_embeddings(out_dir / "ge" / pid)
        g = _load_built_graph(out_dir, pid)
        log_ids = [n.id for n in g.text_logs()]
        try:
            index = ann.build_index(emb, log_ids)
        except KeyError as exc:  # the saved table does not cover the graph's logs
            raise EmbeddingFileError(f"{out_dir / 'ge' / pid}: {exc.args[0]}") from None
        plant_params = triplets_mod.SamplingParams(
            **{**asdict(params), "rng_seed": derive_seed(cfg.seed, f"triplets:{pid}")}
        )
        tset = triplets_mod.sample_triplets(index, g, plant_params)
        all_triplets.extend(tset.triplets)
        meta[pid] = {
            "triplets": len(tset.triplets),
            "skipped": tset.skipped,
            "index_fingerprint": tset.index_fingerprint,
        }
        logger.info("sample-triplets %s: %d triplets, %d skipped",
                    pid, len(tset.triplets), tset.skipped)
    merged = triplets_mod.TripletSet(all_triplets, params, "", 0)
    triplets_mod.save_triplets(merged, tdir / "triplets.jsonl")
    (tdir / "meta.json").write_text(
        json.dumps({"params": asdict(params), "plants": meta}, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    _write_manifest(out_dir, "sample-triplets", cfg.seed, asdict(params),
                    in_hashes, _hash_paths(out_dir, [tdir / "triplets.jsonl", tdir / "meta.json"]))
    _record_timing(out_dir, "sample-triplets", time.perf_counter() - t0)


def _all_log_texts(cfg: RunConfig, out_dir: Path) -> dict[str, str]:
    texts: dict[str, str] = {}
    for meta in _plant_list(out_dir):
        g = _load_built_graph(out_dir, meta["plant_id"])
        for n in g.text_logs():
            texts[n.id] = n.text
    return texts


def _scorer(cfg: RunConfig) -> pairs_mod.EncoderCosineScorer:
    enc = cfg.raw["encoder"]
    frozen = init_encoder(int(enc["dim"]), int(enc["vocab_buckets"]),
                          derive_seed(cfg.seed, "scorer"))
    return pairs_mod.EncoderCosineScorer(frozen, float(cfg.raw["quality"]["scorer_scale"]))


def _filtered_triplets(cfg: RunConfig, out_dir: Path,
                       texts: Mapping[str, str]) -> triplets_mod.TripletSet:
    tpath = _require(out_dir / "triplets" / "triplets.jsonl", "sample-triplets")
    tset = triplets_mod.load_triplets(tpath, cfg.sampling_params())
    quality = cfg.raw["quality"]
    try:
        return pairs_mod.quality_filter(
            tset, texts, _scorer(cfg),
            t_pos=float(quality["t_pos"]), t_margin=float(quality["t_margin"]),
        )
    except KeyError as exc:  # a triplet names a document no built graph has
        raise MissingArtifactError(f"{tpath}: {exc.args[0]}") from None


def _fresh_encoder(cfg: RunConfig) -> EncoderParams:
    enc = cfg.raw["encoder"]
    return init_encoder(int(enc["dim"]), int(enc["vocab_buckets"]),
                        derive_seed(cfg.seed, "encoder-init"))


def stage_train_docsim(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    t0 = time.perf_counter()
    inputs = _hash_paths(
        out_dir, [_require(out_dir / "triplets" / "triplets.jsonl", "sample-triplets")]
    )
    if strict:
        _check_strict(out_dir, inputs)
    texts = _all_log_texts(cfg, out_dir)
    filtered = _filtered_triplets(cfg, out_dir, texts)
    dcfg = cfg.docsim_config()
    dcfg.rng_seed = derive_seed(cfg.seed, "docsim")
    result = train.train_docsim(_fresh_encoder(cfg), filtered, texts, dcfg)
    edir = out_dir / "encoders"
    edir.mkdir(parents=True, exist_ok=True)
    save_encoder(result.params, edir / "docsim.gemb", edir / "docsim.json")
    _write_manifest(
        out_dir, "train-docsim", cfg.seed,
        {**cfg.raw["docsim"], "kept_triplets": len(filtered.triplets),
         "epoch_losses": result.epoch_losses},
        inputs, _hash_paths(out_dir, [edir / "docsim.gemb", edir / "docsim.json"]),
    )
    _record_timing(out_dir, "train-docsim", time.perf_counter() - t0)
    logger.info("train-docsim: %d triplets kept, losses %s",
                len(filtered.triplets), [round(x, 4) for x in result.epoch_losses])


def stage_gen_pairs(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    t0 = time.perf_counter()
    inputs = _hash_paths(
        out_dir, [_require(out_dir / "triplets" / "triplets.jsonl", "sample-triplets")]
    )
    if strict:
        _check_strict(out_dir, inputs)
    texts = _all_log_texts(cfg, out_dir)
    filtered = _filtered_triplets(cfg, out_dir, texts)
    m = int(cfg.raw["quality"]["query_terms"])
    pdir = out_dir / "pairs"
    pdir.mkdir(parents=True, exist_ok=True)
    get_rows: list[pairs_mod.QueryDocPair] = []
    for pid in _training_plants(out_dir):
        g = _load_built_graph(out_dir, pid)
        corpus = {n.id: n.text for n in g.text_logs()}
        plant_triplets = [t for t in filtered.triplets if t.query in corpus]
        if not plant_triplets:
            continue
        stats = pairs_mod.CorpusStats.from_texts(corpus.values())
        subset = triplets_mod.TripletSet(plant_triplets, filtered.params,
                                         filtered.index_fingerprint)
        queries = {
            q: pairs_mod.generate_query(corpus[q], m, stats)
            for q in sorted({t.query for t in plant_triplets})
        }
        get_rows.extend(pairs_mod.triplets_to_pairs(subset, queries))
    pairs_mod.save_pairs(get_rows, pdir / "get.jsonl")
    outputs = [pdir / "get.jsonl"]
    sid_src = out_dir / "sid.jsonl"
    if sid_src.exists():
        shutil.copyfile(sid_src, pdir / "sid.jsonl")
        outputs.append(pdir / "sid.jsonl")
    comp = cfg.raw["composition"]
    if comp["use_drmm"] and comp["drmm_pairs"]:
        shutil.copyfile(comp["drmm_pairs"], pdir / "drmm.jsonl")
        outputs.append(pdir / "drmm.jsonl")
    _write_manifest(out_dir, "gen-pairs", cfg.seed,
                    {"query_terms": m, "quality": cfg.raw["quality"],
                     "kept_triplets": len(filtered.triplets)},
                    inputs, _hash_paths(out_dir, outputs))
    _record_timing(out_dir, "gen-pairs", time.perf_counter() - t0)
    logger.info("gen-pairs: %d GET rows from %d triplets", len(get_rows),
                len(filtered.triplets))


def _compose(cfg: RunConfig, out_dir: Path, use_get: bool, use_sid: bool,
             use_drmm: bool) -> tuple[list[pairs_mod.QueryDocPair], pairs_mod.CompositionReport]:
    pdir = out_dir / "pairs"
    components: list[tuple[pairs_mod.PairSource, Path]] = []
    if use_get:
        components.append((pairs_mod.PairSource.GET, _require(pdir / "get.jsonl", "gen-pairs")))
    if use_sid:
        components.append((pairs_mod.PairSource.SID, _require(pdir / "sid.jsonl", "gen-pairs")))
    if use_drmm:
        components.append((pairs_mod.PairSource.DRMM, _require(pdir / "drmm.jsonl", "gen-pairs")))
    if not components:
        raise ConfigError("composition selects no pair sources")
    return pairs_mod.compose_dataset(components)


def _biencoder_texts(cfg: RunConfig, out_dir: Path) -> dict[str, str]:
    texts = _all_log_texts(cfg, out_dir)
    corpus_path = cfg.raw["composition"]["drmm_corpus"]
    if corpus_path:
        from .storage import read_json_lines

        for rec in read_json_lines(corpus_path):
            texts[str(rec["id"])] = str(rec["text"])
    return texts


def _train_biencoder_variant(cfg: RunConfig, out_dir: Path, name: str, use_get: bool,
                             use_sid: bool, use_drmm: bool, docsim: bool,
                             target_dir: Path) -> dict:
    pair_rows, report = _compose(cfg, out_dir, use_get, use_sid, use_drmm)
    texts = _biencoder_texts(cfg, out_dir)
    if docsim:
        edir = out_dir / "encoders"
        _require(edir / "docsim.gemb", "train-docsim")
        start = load_encoder(edir / "docsim.gemb", edir / "docsim.json")
    else:
        start = _fresh_encoder(cfg)
    bcfg = cfg.biencoder_config()
    bcfg.rng_seed = derive_seed(cfg.seed, f"biencoder:{name}")
    result = train.train_biencoder(start, pair_rows, texts, bcfg)
    target_dir.mkdir(parents=True, exist_ok=True)
    save_encoder(result.params, target_dir / "biencoder.gemb", target_dir / "biencoder.json")
    return {
        "name": name,
        "composition": report.to_dict(),
        "docsim": docsim,
        "epoch_losses": result.epoch_losses,
        "steps": result.steps,
    }


def stage_train_biencoder(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    t0 = time.perf_counter()
    comp = cfg.raw["composition"]
    edir = out_dir / "encoders"
    docsim_wanted = (edir / "docsim.gemb").exists()
    read = [p for p in [out_dir / "pairs" / "get.jsonl", out_dir / "pairs" / "sid.jsonl"]
            if p.exists()]
    if docsim_wanted:
        read += [edir / "docsim.gemb", _require(edir / "docsim.json", "train-docsim")]
    inputs = _hash_paths(out_dir, read)
    if strict:
        _check_strict(out_dir, inputs)
    info = _train_biencoder_variant(
        cfg, out_dir, "default", comp["use_get"], comp["use_sid"], comp["use_drmm"],
        docsim_wanted, edir,
    )
    _write_manifest(out_dir, "train-biencoder", cfg.seed,
                    {**cfg.raw["biencoder"], **info},
                    inputs,
                    _hash_paths(out_dir, [edir / "biencoder.gemb", edir / "biencoder.json"]))
    _record_timing(out_dir, "train-biencoder", time.perf_counter() - t0)
    logger.info("train-biencoder: %d steps, losses %s", info["steps"],
                [round(x, 4) for x in info["epoch_losses"]])


def _benchmark_files(out_dir: Path, pid: str) -> list[Path]:
    """A plant's nodes, edges, queries and qrels files, as _load_benchmark reads them."""
    pdir = out_dir / "plants" / pid
    return [_require(pdir / name, "synth")
            for name in ("nodes.jsonl", "edges.jsonl", "queries.jsonl", "qrels.txt")]


def _load_benchmark(out_dir: Path) -> ir_eval.Benchmark:
    plants = []
    for meta in _plant_list(out_dir):
        pid = meta["plant_id"]
        nodes_path, edges_path, queries_path, qrels_path = _benchmark_files(out_dir, pid)
        g = kg.load_graph(nodes_path, edges_path)
        corpus = {n.id: n.text for n in g.text_logs()}
        queries = ir_eval.load_queries(queries_path).get(pid, [])
        qrels = ir_eval.load_qrels(qrels_path)
        plants.append(ir_eval.BenchmarkPlant(pid, corpus, queries, qrels,
                                             training=meta["training"]))
    bench = ir_eval.Benchmark(plants)
    bench.validate()
    return bench


def stage_evaluate(cfg: RunConfig, out_dir: Path, strict: bool = False,
                   encoder_dir: Path | None = None, report_stem: str = "report") -> dict:
    t0 = time.perf_counter()
    edir = encoder_dir or (out_dir / "encoders")
    matrix_path = edir / "biencoder.gemb"
    if not matrix_path.exists():
        raise MissingArtifactError(f"{matrix_path} not found: run train-biencoder first")
    inputs = _hash_paths(out_dir, [matrix_path])
    if strict:
        # Every file this stage reads, the plant list before the plants it names.
        _check_strict(out_dir, _hash_paths(out_dir, [
            matrix_path, _require(edir / "biencoder.json", "train-biencoder"),
            _require(out_dir / "benchmark.json", "synth")]))
        _check_strict(out_dir, _hash_paths(out_dir, [
            path for meta in _plant_list(out_dir)
            for path in _benchmark_files(out_dir, meta["plant_id"])]))
    params = load_encoder(matrix_path, edir / "biencoder.json")
    bench = _load_benchmark(out_dir)
    report = ir_eval.evaluate_run(params, bench)
    (out_dir / f"{report_stem}.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    (out_dir / f"{report_stem}.txt").write_text(report.format_table() + "\n", encoding="utf-8")
    _write_manifest(out_dir, f"evaluate-{report_stem}" if report_stem != "report" else "evaluate",
                    cfg.seed, {"k": 10}, inputs,
                    _hash_paths(out_dir, [out_dir / f"{report_stem}.json",
                                          out_dir / f"{report_stem}.txt"]))
    _record_timing(out_dir, f"evaluate:{report_stem}", time.perf_counter() - t0)
    logger.info("evaluate %s:\n%s", report_stem, report.format_table())
    return report.to_dict()


def stage_pipeline(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    stage_synth(cfg, out_dir, strict)
    stage_build_graph(cfg, out_dir, strict)
    stage_train_ge(cfg, out_dir, strict)
    stage_sample_triplets(cfg, out_dir, strict)
    if any(a["docsim"] for a in cfg.ablations):
        stage_train_docsim(cfg, out_dir, strict)
    stage_gen_pairs(cfg, out_dir, strict)
    rows = []
    for ablation in cfg.ablations:
        name = ablation["name"]
        adir = out_dir / "ablations" / name
        info = _train_biencoder_variant(
            cfg, out_dir, name, ablation["use_get"], ablation["use_sid"],
            ablation["use_drmm"], ablation["docsim"], adir,
        )
        metrics = stage_evaluate(cfg, out_dir, strict, encoder_dir=adir,
                                 report_stem=f"report-{name}")
        rows.append({"ablation": info, "metrics": metrics})
    final = {"seed": cfg.seed, "rows": rows}
    (out_dir / "report.json").write_text(
        json.dumps(final, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    table = []
    for row in rows:
        m = row["metrics"]
        table.append(
            f"{row['ablation']['name']:<18}"
            f"{100 * m['mean_map10']:>10.2f}{100 * m['mean_mrr10']:>10.2f}"
            f"{100 * m['mean_ndcg10']:>10.2f}{100 * m['mean']:>10.2f}"
        )
    header = f"{'ablation':<18}{'MAP@10':>10}{'MRR@10':>10}{'nDCG@10':>10}{'Mean':>10}"
    (out_dir / "report.txt").write_text(
        "\n".join([header, "-" * len(header)] + table) + "\n", encoding="utf-8"
    )
    logger.info("pipeline report:\n%s", "\n".join([header] + table))


STAGES = {
    "synth": stage_synth,
    "build-graph": stage_build_graph,
    "train-ge": stage_train_ge,
    "sample-triplets": stage_sample_triplets,
    "train-docsim": stage_train_docsim,
    "gen-pairs": stage_gen_pairs,
    "train-biencoder": stage_train_biencoder,
    "evaluate": stage_evaluate,
    "pipeline": stage_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantsearch",
        description="Graph-aware contrastive retrieval pipeline for plant logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", help="run config JSON (defaults are built in)")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", default="runs/out", help="output directory")
        p.add_argument("--strict", action="store_true",
                       help="verify recorded input hashes before reading artifacts")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.seed)
        STAGES[args.command](cfg, Path(args.out), args.strict)
    except EmbeddingFileError as exc:  # a ValueError, but a corrupt artifact
        logger.error("%s", exc)
        return 3
    except (ConfigError, ValueError) as exc:
        logger.error("%s", exc)
        return 2
    except (MissingArtifactError, FileNotFoundError) as exc:
        logger.error("%s", exc)
        return 3
    except (NonFiniteError, ArithmeticError) as exc:
        logger.error("numerical failure: %s", exc)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
