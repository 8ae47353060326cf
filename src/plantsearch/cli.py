"""Command-line pipeline runner.

One JSON run config drives every stage; each stage writes its artifacts
plus a manifest recording the seed, the stage config, and content
hashes of inputs and outputs. Reruns with the same config and seed
produce byte-identical artifacts and manifests (wall-clock timings go
to a separate timings.json, which is the one non-deterministic file).

The config is checked whole at load: each value against its default's JSON
kind, and each stage config built and validated once in ``RunConfig``, so a
bad value exits 2 before any stage runs. Stages set only their ``rng_seed``.

Each stage is one row of ``TABLE``: a load function, which reads and
parses what one run needs, each file tied to the stage that produces it
(or to the config that names it); and a run function, which computes and
writes, each file through ``Run.write``, which records it. ``train-biencoder``
and ``evaluate`` run once per ablation of the config, every other stage
once. One runner loads every run (each read hashed, checked under --strict
against its producer's manifest, and parsed) before any run writes, then
runs each and writes its manifest and timing. A manifest's inputs are the
files its run's load read, and its outputs the files its run wrote. A run
that writes what a later stage reads also hands the parsed value to
``Run.keep``, so a ``pipeline`` parses none of the files it wrote itself.

Exit codes: 0 success, 2 config or input validation error, 3 missing
or unparseable artifact or provenance mismatch, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import ann, graph_embed, ir_eval, kg, pairs as pairs_mod, storage, synth, train
from . import triplets as triplets_mod
from .encoder import DEFAULT_DIM, DEFAULT_VOCAB_BUCKETS, EncoderParams, Featurizer, init_encoder
from .encoder import has_word_token, load_encoder, save_encoder
from .losses import NonFiniteError
from .storage import (
    CorruptFileError, EmbeddingFileError, derive_seed, read_json, read_json_lines, read_table,
    sha256_file, write_table,
)

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad run config or invalid input data."""


class MissingArtifactError(RuntimeError):
    """A stage dependency has not been produced yet."""


DEFAULT_PLANT_IDS = ["A", "B", "C", "D", "E", "F", "G"]
DEFAULT_TRAINING_PLANTS = ["A", "C", "D", "G"]


def _defaults(stage_config: type) -> dict[str, Any]:
    """A stage config's field defaults by name, less ``rng_seed``, which each stage derives
    from the run seed."""
    return {f.name: f.default_factory() if f.default is MISSING else f.default
            for f in fields(stage_config) if f.name != "rng_seed"}


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
    "graph_embed": {**_defaults(graph_embed.GETrainConfig), "init_mode": "text_vectors",
                    "lp_test_fraction": 0.01},
    "sampling": _defaults(triplets_mod.SamplingParams),
    "quality": {"t_pos": 1.0, "t_margin": 0.2, "query_terms": 3},
    "encoder": {"dim": DEFAULT_DIM, "vocab_buckets": DEFAULT_VOCAB_BUCKETS},
    "docsim": _defaults(train.DocSimConfig),
    "biencoder": _defaults(train.BiEncoderConfig),
    "composition": {"drmm_pairs": None, "drmm_corpus": None},
    "ablations": [
        {"name": "sid", "use_get": False, "use_sid": True, "docsim": False},
        {"name": "sid+get", "use_get": True, "use_sid": True, "docsim": False},
        {"name": "docsim+sid+get", "use_get": True, "use_sid": True, "docsim": True},
    ],
}

PLANT_DEFAULTS = {k: v for k, v in _defaults(synth.PlantConfig).items() if k != "vec_dim"}


def _merged(defaults: Mapping[str, Any], override: Mapping[str, Any], where: str) -> dict:
    """``defaults`` with ``override``'s values, each of its default's JSON kind (``_checked``)."""
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {where}")
        out[key] = _checked(defaults[key], value, f"{where}.{key}")
    return out


def _checked(default: Any, value: Any, where: str) -> Any:
    """``value`` if it has the JSON kind of ``default``, else a ConfigError naming ``where``.

    An int passes where the default is a float, a float must be finite, a null default takes
    a string or null, and a bool is never a number. An object merges into its default; a
    list's items each match the default's first item, and a tuple default fixes the length
    and each item's kind.
    """
    if isinstance(default, Mapping):
        kind, ok = "an object", isinstance(value, Mapping)
    elif isinstance(default, bool):
        kind, ok = "a boolean", isinstance(value, bool)
    elif isinstance(default, int):
        kind, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(default, float):  # NaN and Infinity, which json reads, are no JSON numbers
        kind = "a finite number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and math.isfinite(value)
    elif isinstance(default, str):
        kind, ok = "a string", isinstance(value, str)
    elif default is None:
        kind, ok = "a string or null", value is None or isinstance(value, str)
    elif isinstance(default, tuple):
        kind = f"a list of {len(default)}"
        ok = isinstance(value, list) and len(value) == len(default)
    else:
        kind, ok = "a list", isinstance(value, list)
    if not ok:
        raise ConfigError(f"{where} must be {kind}, got {json.dumps(value, default=repr)}")
    if isinstance(default, Mapping):
        return _merged(default, value, where)
    if isinstance(default, (list, tuple)):
        return type(default)(_checked(default[i if isinstance(default, tuple) else 0], v,
                                      f"{where}[{i}]") for i, v in enumerate(value))
    return value


class RunConfig:
    """The run config, checked whole and with every stage config built once; ``raw`` holds
    every merged section, and ``plants`` and ``ablations`` as given. Each value has one source:
    a plant's ``vec_dim`` is ``graph_embed.dim``, and an ablation's flags are its entry's. Each
    ablation must use some pair source, DRMM pairs only when ``composition.drmm_pairs`` is set."""

    def __init__(self, raw: Mapping[str, Any]):
        lists = {key: raw.get(key, DEFAULT_RUN_CONFIG[key]) for key in ("plants", "ablations")}
        self.raw = _merged({k: v for k, v in DEFAULT_RUN_CONFIG.items() if k not in lists},
                           {k: v for k, v in raw.items() if k not in lists}, "config")
        self.seed = self.raw["seed"]
        dim = self.raw["graph_embed"]["dim"]  # each plant's vec_dim: text vectors init the GE
        entries = _merged({  # each entry over its defaults; a missing id or name exits 2 as empty
            "plants": [{**PLANT_DEFAULTS, "plant_id": ""}],
            "ablations": [{"name": "", "use_get": True, "use_sid": True, "use_drmm": False,
                           "docsim": True}],
        }, lists, "config")
        self.raw.update(lists)
        for key, given in lists.items():
            if not given:
                raise ConfigError(f"config.{key} is empty")
        self.plant_configs = []
        for i, (plant, entry) in enumerate(zip(entries["plants"], lists["plants"])):
            if "seed" not in entry:
                plant["seed"] = derive_seed(self.seed, f"synth:{plant['plant_id']}")
            self.plant_configs.append(_valid(f"plants[{i}]",
                                             synth.PlantConfig(**plant, vec_dim=dim)))
        _check_names([p.plant_id for p in self.plant_configs], "plant id")
        self.ablations = entries["ablations"]
        _check_names([a["name"] for a in self.ablations], "ablation name")
        for job in self.ablations:
            if job["use_drmm"] and not self.raw["composition"]["drmm_pairs"]:
                raise ConfigError(f"ablation {job['name']!r} uses DRMM pairs, but "
                                  "composition.drmm_pairs is not set")
            if not (job["use_get"] or job["use_sid"] or job["use_drmm"]):
                raise ConfigError(f"ablation {job['name']!r} selects no pair sources")
        ge = dict(self.raw["graph_embed"])
        self.lp_fraction, mode = ge.pop("lp_test_fraction"), ge.pop("init_mode")
        modes = [m.value for m in graph_embed.InitMode]
        if mode not in modes:
            raise ConfigError(f"config.graph_embed.init_mode must be one of {modes}, got {mode!r}")
        self.ge = _valid("graph_embed", graph_embed.GETrainConfig(
            **ge, init_mode=graph_embed.InitMode(mode)))
        if not (0.0 < self.lp_fraction < 1.0):
            raise ConfigError(f"config.graph_embed.lp_test_fraction must be in (0, 1), "
                              f"got {self.lp_fraction}")
        self.sampling = _valid("sampling", triplets_mod.SamplingParams(**self.raw["sampling"]))
        self.docsim = _valid("docsim", train.DocSimConfig(**self.raw["docsim"]))
        self.biencoder = _valid("biencoder", train.BiEncoderConfig(**self.raw["biencoder"]))
        quality = self.raw["quality"]
        if quality["query_terms"] < 1:
            raise ConfigError(f"config.quality.query_terms must be >= 1, "
                              f"got {quality['query_terms']}")
        try:  # the encoder size checks
            init_encoder(self.raw["encoder"]["dim"], self.raw["encoder"]["vocab_buckets"])
        except ValueError as exc:
            raise ConfigError(f"config.encoder: {exc}") from None

    def with_seed(self, seed: int) -> "RunConfig":
        return RunConfig({**self.raw, "seed": seed})


def _check_names(names: Sequence[str], what: str) -> None:
    """Each name becomes one path part under --out: not empty, . or .., no separator, unique,
    also once ``:`` is written as ``-``, as manifest file names write it."""
    for i, name in enumerate(names):
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigError(f"{what} {name!r} is not a file name")
        twin = next((other for other in names[:i]
                     if other.replace(":", "-") == name.replace(":", "-")), None)
        if twin == name:
            raise ConfigError(f"duplicate {what} {name!r} in config")
        if twin is not None:
            raise ConfigError(f"{what}s {twin!r} and {name!r} would share manifest files, "
                              "whose names write ':' as '-'")


def _valid(where: str, stage_config: Any) -> Any:
    """A stage config that passed its ``validate()``, whose ValueError exits 2 naming
    ``config.<where>``."""
    try:
        stage_config.validate()
    except ValueError as exc:
        raise ConfigError(f"config.{where}: {exc}") from None
    return stage_config


def load_run_config(path: str | None, seed_override: int | None) -> RunConfig:
    if path is None:
        raw: Any = {}
    else:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:  # missing, a directory, unreadable
            raise MissingArtifactError(f"{path}: cannot read config: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    cfg = RunConfig(raw)
    if seed_override is not None:
        cfg = cfg.with_seed(seed_override)
    return cfg


# ---------------------------------------------------------------------------
# The stage runner


Read = tuple[str, str | None]  # a name under --out and its producer, or a config path and None
PLANT_LIST: Read = ("benchmark.json", "synth")
TRIPLETS: Read = ("triplets/triplets.jsonl", "sample-triplets")
SID_PAIRS: Read = ("sid.jsonl", "synth")
GET_PAIRS: Read = ("pairs/get.jsonl", "gen-pairs")
PLANT_FILES = ("nodes.jsonl", "edges.jsonl", "queries.jsonl", "qrels.txt")
GRAPH_ROOTS = {"plants": "synth", "graphs": "build-graph"}  # each graph directory's producer


def _missing(path: Path, producer: str | None) -> MissingArtifactError:
    """A read that is absent or no regular file, which its producer (or the config) must make."""
    found = "is not a file" if path.exists() else "not found"
    return MissingArtifactError(f"{path} {found}: " + (
        f"run {producer.split(':')[0]} first" if producer else "check the run config"))


def _manifest_path(out_dir: Path, run_id: str) -> Path:
    return out_dir / f"manifest-{run_id.replace(':', '-')}.json"


@dataclass
class Run:
    """One run of one stage: its settings, hashed reads, recorded writes and the artifact store.

    The store maps an artifact kind plus the names and sha256 digests of the files it is
    parsed from to the parsed artifact, so the stages of one ``pipeline`` parse each file
    once. A run that writes such files seeds it through ``keep`` with the value their parse
    would give, equal to it in order and float32 rounding, so a later stage of the same
    ``pipeline`` parses none of them: synth its plant list, graphs, text-vector tables, SID
    pairs and benchmark; build-graph its graphs; train-ge its tables; sample-triplets its
    triplets; gen-pairs its GET pairs. Every read is still required, hashed and checked under
    --strict, so a file changed since it was written misses the store and is parsed. A stage
    run alone starts from an empty store and parses each of its reads once.
    It serves one config, and nothing may mutate what it holds. It also holds the two
    untrained encoders, the quality filter's ``scorer`` and the ``encoder-init`` that every
    encoder trains from, so that each keeps the init rows it reads for every later run.
    Saved encoders stay out of it: each stage reads a different one, and each is only an init
    seed plus its trained rows, read again in milliseconds. Featurized texts stay out of it
    too: every run of a stage shares one ``features``, which the stage drops when it ends.
    """

    stage: str
    cfg: RunConfig
    out: Path
    strict: bool
    store: dict[tuple, Any]
    ablation: Mapping[str, Any] | None = None  # set for each run of a per-ablation stage
    inputs: dict[str, str] = field(default_factory=dict)  # read name -> sha256
    claims: dict[str, dict] = field(default_factory=dict)  # producer -> its manifest's outputs
    outputs: list[str] = field(default_factory=list)  # names under --out, as the run wrote them
    sealed: bool = False  # set once the stage has loaded every run
    features: Featurizer = field(default_factory=Featurizer)  # shared by the stage's runs
    kept: list[tuple[str, list[str], Any]] = field(default_factory=list)  # (kind, names, value)

    @property
    def id(self) -> str:
        """The stage name, or ``<stage>:<ablation>`` for a per-ablation stage."""
        return self.stage if self.ablation is None else f"{self.stage}:{self.ablation['name']}"

    def read(self, name: str, producer: str | None) -> Path:
        """Require and hash one read; under --strict its producer's manifest must claim it."""
        path = self.out / name if producer else Path(name)
        if name in self.inputs:
            return path
        if self.sealed:
            raise RuntimeError(f"{self.id} reads {name} after its stage's load")
        if not path.is_file():
            raise _missing(path, producer)
        digest = sha256_file(path)
        if self.strict and producer:
            claimed = self._claims(producer).get(name)
            if claimed != digest:
                raise MissingArtifactError(
                    f"provenance hash mismatch for {name}: artifact changed since it was produced"
                    if claimed else
                    f"{name} is not among the outputs of {_manifest_path(self.out, producer)}")
        self.inputs[name] = digest
        return path

    def write(self, stem: str, suffixes: Sequence[str] = ("",)) -> Path:
        """``stem`` under --out, its directory made, once ``stem`` plus each suffix is recorded
        as an output. Only a run writes, never a load."""
        if not self.sealed:
            raise RuntimeError(f"{self.id} writes {stem} in its stage's load")
        self.outputs += [stem + suffix for suffix in suffixes]
        (self.out / stem).parent.mkdir(parents=True, exist_ok=True)
        return self.out / stem

    def _claims(self, producer: str) -> dict[str, str]:
        if producer not in self.claims:
            path = _manifest_path(self.out, producer)
            if not path.is_file():
                raise _missing(path, producer)
            self.claims[producer] = read_json(path, lambda manifest: dict(manifest["outputs"]),
                                              "not a manifest with outputs")
        return self.claims[producer]

    def load(self, kind: str, reads: Sequence[Read], parse: Callable[[], Any]) -> Any:
        """The artifact that ``parse`` makes of ``reads``, once each is read; parsed once per
        store."""
        for read in reads:
            self.read(*read)
        key = _key(kind, [name for name, _ in reads], self.inputs)
        if key not in self.store:
            self.store[key] = parse()
        return self.store[key]

    def keep(self, kind: str, reads: Sequence[Read], value: Any) -> None:
        """File ``value``, which must equal what ``load`` parses of ``reads``, files this run
        wrote, in the store under the key ``load`` builds, once the runner has hashed them."""
        self.kept.append((kind, [name for name, _ in reads], value))

    def plants(self) -> list[dict]:
        """Each plant of ``benchmark.json`` as its ``plant_id`` and ``training`` flag."""
        path = self.out / PLANT_LIST[0]
        return self.load("plants", [PLANT_LIST], lambda: read_json(path, lambda bench: [
            {"plant_id": storage.field(p, "plant_id", str),
             "training": storage.field(p, "training", bool)}
            for p in bench["plants"]],
            "not a record of plants, each with a string plant_id and a boolean training"))

    def plant_ids(self, training: bool = False) -> list[str]:
        return [p["plant_id"] for p in self.plants() if p["training"] or not training]

    def graph(self, root: str, pid: str) -> kg.KnowledgeGraph:
        """A plant's graph as synth (``plants``) or build-graph (``graphs``) wrote it."""
        reads = _graph_reads(root, pid)
        return self.load("graph", reads, lambda: kg.load_graph(*(self.out / n for n, _ in reads)))

    def log_texts(self) -> dict[str, str]:
        """The text of every log in the built graphs, by id."""
        return self.load("texts", _graphs(self, "graphs"), lambda: {
            n.id: n.text for pid in self.plant_ids() for n in self.graph("graphs", pid).text_logs()
        })

    def triplets(self) -> list[triplets_mod.Triplet]:
        """The sampled triplets, as sample-triplets wrote them."""
        return self.load("triplets", [TRIPLETS],
                         lambda: triplets_mod.load_triplets(self.out / TRIPLETS[0]))

    def text_vectors(self, pid: str) -> dict[str, np.ndarray]:
        """A training plant's text vectors by node id, as synth wrote them."""
        stem = f"plants/{pid}/vectors"
        return self.load("vectors", _files(stem, TABLE_FILES, "synth"),
                         lambda: dict(zip(*read_table(self.out / stem))))

    def ge_table(self, pid: str) -> graph_embed.EmbeddingTable:
        """A training plant's graph embeddings, as train-ge wrote them."""
        stem = f"ge/{pid}"
        return self.load("ge", _files(stem, GE_FILES, "train-ge"),
                         lambda: graph_embed.load_embeddings(self.out / stem))

    def filtered_triplets(self) -> list[triplets_mod.Triplet]:
        """The sampled triplets that pass the quality filter."""
        return self.load("filtered", [TRIPLETS, *_graphs(self, "graphs")], self._filter)

    def _filter(self) -> list[triplets_mod.Triplet]:
        tpath = self.out / TRIPLETS[0]
        tset = triplets_mod.TripletSet(self.triplets())
        quality = self.cfg.raw["quality"]
        try:
            return pairs_mod.quality_filter(
                tset, self.log_texts(), pairs_mod.EncoderCosineScorer(
                    _fresh_encoder(self, "scorer"), features=self.features),
                t_pos=quality["t_pos"], t_margin=quality["t_margin"],
            ).triplets
        except KeyError as exc:  # a triplet names a document no built graph has
            raise MissingArtifactError(f"{tpath}: {exc.args[0]}") from None

    def benchmark(self) -> ir_eval.Benchmark:
        """Each plant's corpus, queries and qrels, as synth wrote them."""
        return self.load("benchmark", _benchmark_reads(self.plant_ids()), self._benchmark)

    def _benchmark(self) -> ir_eval.Benchmark:
        """The benchmark, checked as each plant joins, so an inconsistency names the files of
        the first plant that brings it: both plants' nodes files for a doc id that two plants
        hold, and the plant's queries and qrels files for anything else."""
        bench = ir_eval.Benchmark([])
        holder: dict[str, str] = {}  # doc id -> the first plant that holds it
        for meta in self.plants():
            pid = meta["plant_id"]
            pdir = self.out / "plants" / pid
            corpus = {n.id: n.text for n in self.graph("plants", pid).text_logs()}
            for doc_id in corpus:
                first = holder.setdefault(doc_id, pid)
                if first != pid:  # a repeated plant id is Benchmark.validate's to report
                    raise CorruptFileError(
                        f"{self.out / 'plants' / first / 'nodes.jsonl'}, {pdir / 'nodes.jsonl'}: "
                        f"doc id {doc_id!r} appears in two plants")
            queries = ir_eval.load_queries(pdir / "queries.jsonl").get(pid, [])
            qrels = ir_eval.load_qrels(pdir / "qrels.txt")
            bench.plants.append(ir_eval.BenchmarkPlant(pid, corpus, queries, qrels))
            try:
                bench.validate()
            except ValueError as exc:
                raise CorruptFileError(
                    f"{pdir / 'queries.jsonl'}, {pdir / 'qrels.txt'}: {exc}") from None
        return bench


def _key(kind: str, names: Sequence[str], digests: Mapping[str, str]) -> tuple:
    """The store key of the ``kind`` parsed from the files ``names``, by their digests."""
    return (kind, *((name, digests[name]) for name in names))


def _graph_reads(root: str, pid: str) -> list[Read]:
    return _from(GRAPH_ROOTS[root], [f"{root}/{pid}/nodes.jsonl", f"{root}/{pid}/edges.jsonl"])


def _benchmark_reads(pids: Sequence[str]) -> list[Read]:
    return [PLANT_LIST, *_from("synth", [f"plants/{pid}/{name}" for pid in pids
                                         for name in PLANT_FILES])]


def _graphs(r: Run, root: str) -> list[Read]:
    return [read for pid in r.plant_ids() for read in _graph_reads(root, pid)]


def _from(producer: str | None, names: Sequence[str]) -> list[Read]:
    return [(name, producer) for name in names]


def _files(stem: str, suffixes: Sequence[str], producer: str) -> list[Read]:
    return _from(producer, [stem + suffix for suffix in suffixes])


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: how a stage loads and runs; each run records its writes."""

    name: str
    load: Callable[[Run], Any]  # what one run needs, read through Run.read and Run.load
    run: Callable[[Run, Any], tuple[Any, Any]]  # -> (manifest config, value for the caller)
    per_ablation: bool = False  # one run per entry of the config's ablations


def _runs(stage: Stage, cfg: RunConfig, out: Path, strict: bool, store: dict) -> list[Run]:
    """One run per ablation (or one run), all sharing the producers' manifest claims and one
    featurizer."""
    claims: dict[str, dict] = {}
    features = Featurizer(cfg.raw["encoder"]["vocab_buckets"])
    return [Run(stage.name, cfg, out, strict, store, ablation, claims=claims, features=features)
            for ablation in (cfg.ablations if stage.per_ablation else [None])]


def _run(stage: Stage, runs: Sequence[Run]) -> list[Any]:
    """Parse timings.json and load every run, each read required, hashed, checked under
    --strict and parsed; then run each, write its manifest, with the outputs it recorded, and
    its timing, and file what it kept in the store under those outputs' digests. A corrupt
    timings.json or a failed load stops the stage before it writes; a read after the load, or
    a write in it, raises. The first run's time includes the loading of every run. A stage
    that featurizes logs how many distinct texts its runs' featurizer held for how many
    taken."""
    t0 = time.perf_counter()
    timings = runs[0].out / "timings.json"
    data = read_json(timings) if timings.exists() else {}
    loaded = [stage.load(r) for r in runs]
    for r in runs:
        r.sealed = True
    results = []
    for i, r in enumerate(runs):
        value, loaded[i] = loaded[i], None  # a run's inputs go once it has run
        config, result = stage.run(r, value)
        outputs = {n: sha256_file(r.out / n) for n in r.outputs}
        _dump(_manifest_path(r.out, r.id), {
            "stage": r.id.replace(":", "-"), "seed": r.cfg.seed, "config": config,
            "inputs": r.inputs, "outputs": outputs})
        for kind, names, kept in r.kept:
            r.store[_key(kind, names, outputs)] = kept
        t1 = time.perf_counter()
        data[r.id], t0 = round(t1 - t0, 3), t1
        _dump(timings, data)
        results.append(result)
    features = runs[0].features
    if features.requested:
        logger.debug("%s: featurized %d distinct texts for %d requested", stage.name,
                     features.distinct, features.requested)
    return results


def _dump(path: Path, obj: Any) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Stages


TABLE_FILES = (".gemb", ".ids")  # a table pair, as storage.write_table writes it
GE_FILES = (*TABLE_FILES, ".rels.json")
ENCODER_FILES = (".gemb", ".json")  # as encoder.save_encoder writes them


def _save_graph(r: Run, root: str, pid: str, g: kg.KnowledgeGraph) -> kg.KnowledgeGraph:
    """Write ``g`` as the ``root`` graph of plant ``pid``; keep and return it as read back."""
    reads = _graph_reads(root, pid)
    g = kg.save_graph(g, *(r.write(name) for name, _ in reads))
    r.keep("graph", reads, g)
    return g


def _synth(r: Run, _: None) -> tuple[dict, None]:
    plants = [synth.generate_plant(pcfg) for pcfg in r.cfg.plant_configs]
    bench = ir_eval.Benchmark([gp.bench for gp in plants])
    bench.validate()  # id collisions fail here, before any file is written
    sid_rows: list[pairs_mod.QueryDocPair] = []
    plant_meta = []
    read_bench = ir_eval.Benchmark([])  # the benchmark as Run.benchmark parses it
    for pcfg, gp in zip(r.cfg.plant_configs, plants):
        pid = pcfg.plant_id
        g = _save_graph(r, "plants", pid, gp.graph)
        if pcfg.training:
            ids, stem = sorted(gp.text_vectors), f"plants/{pid}/vectors"
            matrix = write_table(r.write(stem, TABLE_FILES), ids,
                                 np.stack([gp.text_vectors[i] for i in ids]))
            r.keep("vectors", _files(stem, TABLE_FILES, "synth"), dict(zip(ids, matrix)))
        ir_eval.save_queries({pid: gp.bench.queries}, r.write(f"plants/{pid}/queries.jsonl"))
        qrels = ir_eval.save_qrels(gp.bench.qrels, r.write(f"plants/{pid}/qrels.txt"))
        read_bench.plants.append(ir_eval.BenchmarkPlant(
            pid, {n.id: n.text for n in g.text_logs()}, list(gp.bench.queries), qrels))
        sid_rows.extend(gp.sid_pairs)
        plant_meta.append({"plant_id": pid, "training": pcfg.training})
    pairs_mod.save_pairs(sid_rows, r.write(SID_PAIRS[0]))
    _dump(r.write(PLANT_LIST[0]), {"plants": plant_meta})
    r.keep("pairs:SID", [SID_PAIRS], sid_rows)
    r.keep("plants", [PLANT_LIST], plant_meta)
    r.keep("benchmark", _benchmark_reads([p.plant_id for p in r.cfg.plant_configs]), read_bench)
    logger.info("synth: %d plants, %d queries total",
                len(bench.plants), sum(len(p.queries) for p in bench.plants))
    return {"plants": [asdict(p) for p in r.cfg.plant_configs]}, None


def _build_graph(r: Run, graphs: dict[str, kg.KnowledgeGraph]) -> tuple[dict, None]:
    for pid, g in graphs.items():
        g = kg.build_graph(g)
        if r.cfg.raw["enrich"]:
            g = kg.predict_links(g)
        if r.cfg.raw["expand_context"]:  # a longer text keeps the checked graph valid
            g = kg.KnowledgeGraph({
                node_id: kg.Node(node_id, n.kind, kg.expand_context(g, node_id), n.code, n.ts)
                if n.kind is kg.NodeKind.TEXT_LOG else n
                for node_id, n in g.nodes.items()
            }, g.edges)
        _save_graph(r, "graphs", pid, g)
    return {key: r.cfg.raw[key] for key in ("enrich", "expand_context")}, None


def _train_ge_load(r: Run) -> dict[str, tuple[kg.KnowledgeGraph, dict | None]]:
    """Each training plant's built graph, and its text vectors by node id when they
    initialise the embeddings."""
    text_init = r.cfg.ge.init_mode is graph_embed.InitMode.TEXT_VECTORS
    return {pid: (r.graph("graphs", pid), r.text_vectors(pid) if text_init else None)
            for pid in r.plant_ids(training=True)}


def _train_ge(r: Run, loaded: dict[str, tuple[kg.KnowledgeGraph, dict | None]]
              ) -> tuple[dict, None]:
    splits = {}  # every plant's LP split is checked before the first plant trains
    for pid, (g, _) in loaded.items():
        train_edges, test_edges = graph_embed.split_edges(
            g, r.cfg.lp_fraction, derive_seed(r.cfg.seed, f"ge-split:{pid}")
        ) if g.edges else ([], [])
        if not train_edges or not test_edges:
            raise ConfigError(
                f"plant {pid!r} has {len(g.edges)} edges, and graph_embed.lp_test_fraction "
                f"{r.cfg.lp_fraction} leaves {len(test_edges)} test and {len(train_edges)} "
                "training edges; each needs at least one")
        splits[pid] = g, train_edges, test_edges
    plants = {}  # every plant is initialised and trained before the first file is written
    for pid, (g, train_edges, _) in splits.items():
        plant_cfg = replace(r.cfg.ge, rng_seed=derive_seed(r.cfg.seed, f"ge:{pid}"))
        try:
            emb = graph_embed.init_embeddings(g, plant_cfg, loaded[pid][1])
        except KeyError as exc:  # the text vectors do not cover the graph's nodes
            raise EmbeddingFileError(
                f"{r.out / 'plants' / pid / 'vectors'}.ids: {exc.args[0]}") from None
        plants[pid] = kg.KnowledgeGraph(g.nodes, train_edges), emb, plant_cfg  # an edge subset
    trained = graph_embed.train_plant_embeddings(plants)
    for pid, emb in trained.items():
        _check_float32(emb.vectors, f"plant {pid!r}: trained node vectors")
    reports = {pid: graph_embed.eval_link_prediction(
        trained[pid], test_edges, list(g.nodes), {i: n.kind for i, n in g.nodes.items()},
        train_edges=train_edges,
    ) for pid, (g, train_edges, test_edges) in splits.items()}
    lp_summary = {}
    for pid, report in reports.items():
        lp_summary[pid] = report.scaled()
        stem = f"ge/{pid}"
        r.keep("ge", _files(stem, GE_FILES, "train-ge"),
               graph_embed.save_embeddings(trained[pid], r.write(stem, GE_FILES)))
        _dump(r.write(f"ge/{pid}.lp.json"), asdict(report))
        logger.info("train-ge %s: MRR %.2f, AUC %.2f", pid, report.scaled()["mrr"],
                    report.scaled()["auc"])
    return {**r.cfg.raw["graph_embed"], "lp": lp_summary}, None


def _check_float32(rows: np.ndarray, what: str) -> None:
    """Raise NonFiniteError unless the trained ``rows`` stay finite as the float32 that their
    file stores, so that a run that overflows it fails before it writes."""
    with np.errstate(over="ignore"):
        if not np.isfinite(rows.astype(np.float32)).all():
            raise NonFiniteError(f"{what} overflow float32")


def _sample_triplets(r: Run, loaded: dict[str, tuple[graph_embed.EmbeddingTable,
                                                     kg.KnowledgeGraph]]) -> tuple[dict, None]:
    params = r.cfg.sampling
    all_triplets: list[triplets_mod.Triplet] = []
    meta = {}
    for pid, (emb, g) in loaded.items():
        log_ids = [n.id for n in g.text_logs()]
        try:
            index = ann.build_index(emb, log_ids)
        except KeyError as exc:  # the saved table does not cover the graph's logs
            raise EmbeddingFileError(f"{r.out / 'ge' / pid}: {exc.args[0]}") from None
        plant_params = replace(params, rng_seed=derive_seed(r.cfg.seed, f"triplets:{pid}"))
        tset = triplets_mod.sample_triplets(index, g, plant_params)
        all_triplets.extend(tset.triplets)
        meta[pid] = {
            "triplets": len(tset.triplets),
            "skipped": tset.skipped,
            "index_fingerprint": tset.index_fingerprint,
        }
        logger.info("sample-triplets %s: %d triplets, %d skipped",
                    pid, len(tset.triplets), tset.skipped)
    triplets_mod.save_triplets(all_triplets, r.write(TRIPLETS[0]))
    r.keep("triplets", [TRIPLETS], all_triplets)
    _dump(r.write("triplets/meta.json"), {"params": asdict(params), "plants": meta})
    return asdict(params), None


def _fresh_encoder(r: Run, label: str = "encoder-init") -> EncoderParams:
    """The untrained encoder of seed label ``label``, one per store, so that every run that
    reads it shares the init rows it has read."""
    enc, seed = r.cfg.raw["encoder"], derive_seed(r.cfg.seed, label)
    return r.load(f"encoder:{label}", [],
                  lambda: init_encoder(enc["dim"], enc["vocab_buckets"], seed))


def _saved_encoder(r: Run, stem: str, producer: str) -> EncoderParams:
    """The encoder ``producer`` saved at ``stem``, whose dim and bucket count must be the
    config's: the dim sets every init row's draw and the bucket count sets where each feature
    hashes, so a table of another size reads as another encoder."""
    for read in _files(stem, ENCODER_FILES, producer):
        r.read(*read)
    path = r.out / stem
    p = load_encoder(f"{path}.gemb", f"{path}.json")
    enc = r.cfg.raw["encoder"]
    if (p.dim, p.vocab_buckets) != (enc["dim"], enc["vocab_buckets"]):
        raise CorruptFileError(f"{path}.json: dim {p.dim} and vocab_buckets "
                               f"{p.vocab_buckets} differ from the config's encoder section")
    return p


def _train_docsim(r: Run, loaded: tuple[dict[str, str], list[triplets_mod.Triplet],
                                         EncoderParams]) -> tuple[dict, None]:
    texts, filtered, start = loaded
    dcfg = replace(r.cfg.docsim, rng_seed=derive_seed(r.cfg.seed, "docsim"))
    result = train.train_docsim(start, filtered, texts, dcfg, r.features)
    _check_float32(result.params.trained, f"{r.id}: trained encoder rows")
    path = r.write("encoders/docsim", ENCODER_FILES)
    save_encoder(result.params, f"{path}.gemb", f"{path}.json")
    logger.info("train-docsim: %d triplets kept, losses %s",
                len(filtered), [round(x, 4) for x in result.epoch_losses])
    return {**r.cfg.raw["docsim"], "kept_triplets": len(filtered),
            "epoch_losses": result.epoch_losses}, None


def _gen_pairs(r: Run, loaded: tuple[list[triplets_mod.Triplet], dict[str, kg.KnowledgeGraph]]
               ) -> tuple[dict, None]:
    filtered, graphs = loaded
    m = r.cfg.raw["quality"]["query_terms"]
    get_rows: list[pairs_mod.QueryDocPair] = []
    for g in graphs.values():
        corpus = {n.id: n.text for n in g.text_logs()}
        plant_triplets = [t for t in filtered if t.query in corpus]
        if not plant_triplets:
            continue
        stats = pairs_mod.CorpusStats.from_texts(corpus.values())
        queries = {
            q: pairs_mod.generate_query(corpus[q], m, stats)
            for q in sorted({t.query for t in plant_triplets})
        }
        get_rows.extend(pairs_mod.triplets_to_pairs(plant_triplets, queries))
    pairs_mod.save_pairs(get_rows, r.write(GET_PAIRS[0]))
    r.keep("pairs:GET", [GET_PAIRS], get_rows)
    logger.info("gen-pairs: %d GET rows from %d triplets", len(get_rows), len(filtered))
    return {"query_terms": m, "quality": r.cfg.raw["quality"],
            "kept_triplets": len(filtered)}, None


def _encoder_dir(r: Run) -> str:
    return f"ablations/{r.ablation['name']}"


def _pair_reads(r: Run) -> list[tuple[pairs_mod.PairSource, Read]]:
    """Each pair source an ablation uses, read from the stage or config file that makes it."""
    made_by = {pairs_mod.PairSource.GET: GET_PAIRS, pairs_mod.PairSource.SID: SID_PAIRS,
               pairs_mod.PairSource.DRMM: (r.cfg.raw["composition"]["drmm_pairs"], None)}
    return [(source, read) for source, read in made_by.items()
            if r.ablation[f"use_{source.value.lower()}"]]


def _drmm_texts(path: Path) -> dict[str, str]:
    """Doc id -> text of the DRMM corpus file; a line that is no record with both exits 3."""
    return dict(read_json_lines(
        path, lambda rec: (storage.field(rec, "id", str), storage.field(rec, "text", str)),
        "DRMM corpus line is not a record with id and text"))


BiEncoderJob = tuple[list[pairs_mod.QueryDocPair], pairs_mod.CompositionReport, dict[str, str],
                     EncoderParams]


def _train_biencoder_load(r: Run) -> BiEncoderJob:
    """An ablation's pair rows and their composition, checked to hold a positive, to name only
    documents with a text and to have a word token in each query and document text (a text
    without one pools to the zero vector, which MNR cannot rank); those texts, and the
    encoder it starts from."""
    job = r.ablation
    components = []  # each pair file and its rows, parsed once per store
    for source, read in _pair_reads(r):
        path = r.read(*read)
        components.append((path, r.load(f"pairs:{source.value}", [read],
                                        lambda: pairs_mod.load_pairs(path, source))))
    pair_rows, report = pairs_mod.compose_dataset([rows for _, rows in components])
    if not report.positives:
        raise ConfigError(f"ablation {job['name']!r} has no positive pairs to train on in "
                          + ", ".join(str(path) for path, _ in components))
    texts = r.log_texts()
    corpus = r.cfg.raw["composition"]["drmm_corpus"]
    if corpus:
        texts = {**texts, **_drmm_texts(r.read(corpus, None))}
    unknown = next((pr.doc_id for pr in pair_rows if pr.doc_id not in texts), None)
    if unknown is not None:  # name the first pair file that holds it
        path = next(path for path, rows in components
                    if any(pr.doc_id == unknown for pr in rows))
        raise CorruptFileError(f"{path}: no text for document {unknown!r}")
    wordless = {text for text in {pr.query_text for pr in pair_rows}
                | {texts[pr.doc_id] for pr in pair_rows} if not has_word_token(text)}
    if wordless:  # name the first pair that has one, and its pair file
        path, pr = next((path, pr) for path, rows in components for pr in rows
                        if pr.query_text in wordless or texts[pr.doc_id] in wordless)
        what = (f"query {pr.query_text!r}" if pr.query_text in wordless
                else f"document {pr.doc_id!r}")
        raise ConfigError(f"{path}: {what} has no word token to train on")
    start = (_saved_encoder(r, "encoders/docsim", "train-docsim") if job["docsim"]
             else _fresh_encoder(r))
    return pair_rows, report, texts, start


def _train_biencoder(r: Run, loaded: BiEncoderJob) -> tuple[dict, dict]:
    pair_rows, report, texts, start = loaded
    job = r.ablation
    bcfg = replace(r.cfg.biencoder, rng_seed=derive_seed(r.cfg.seed, f"biencoder:{job['name']}"))
    result = train.train_biencoder(start, pair_rows, texts, bcfg, r.features)
    _check_float32(result.params.trained, f"{r.id}: trained encoder rows")
    path = r.write(f"{_encoder_dir(r)}/biencoder", ENCODER_FILES)
    save_encoder(result.params, f"{path}.gemb", f"{path}.json")
    info = {"name": job["name"], "composition": asdict(report), "docsim": job["docsim"],
            "epoch_losses": result.epoch_losses, "steps": result.steps}
    logger.info("%s: %d steps, losses %s", r.id, result.steps,
                [round(x, 4) for x in result.epoch_losses])
    return {**r.cfg.raw["biencoder"], **info}, info


def _evaluate(r: Run, loaded: tuple[EncoderParams, ir_eval.Benchmark]) -> tuple[dict, dict]:
    report = ir_eval.evaluate_run(*loaded)
    stem, metrics = f"report-{r.ablation['name']}", asdict(report)
    _dump(r.write(f"{stem}.json"), metrics)
    r.write(f"{stem}.txt").write_text(report.format_table() + "\n", encoding="utf-8")
    logger.info("evaluate %s:\n%s", stem, report.format_table())
    return {"k": ir_eval.K}, metrics


TABLE = [
    Stage("synth", lambda r: None, _synth),
    Stage("build-graph", lambda r: {pid: r.graph("plants", pid) for pid in r.plant_ids()},
          _build_graph),
    Stage("train-ge", _train_ge_load, _train_ge),
    Stage("sample-triplets", lambda r: {pid: (r.ge_table(pid), r.graph("graphs", pid))
                                        for pid in r.plant_ids(training=True)},
          _sample_triplets),
    Stage("train-docsim", lambda r: (r.log_texts(), r.filtered_triplets(), _fresh_encoder(r)),
          _train_docsim),
    Stage("gen-pairs", lambda r: (r.filtered_triplets(), {
              pid: r.graph("graphs", pid) for pid in r.plant_ids(training=True)}),
          _gen_pairs),
    Stage("train-biencoder", _train_biencoder_load, _train_biencoder, per_ablation=True),
    Stage("evaluate", lambda r: (_saved_encoder(r, f"{_encoder_dir(r)}/biencoder",
                                                f"train-biencoder:{r.ablation['name']}"),
                                 r.benchmark()),
          _evaluate, per_ablation=True),
]


def _command(stage: Stage) -> Callable[..., list]:
    def command(cfg: RunConfig, out_dir: Path, strict: bool = False,
                store: dict[tuple, Any] | None = None) -> list:
        """The value of each run of the stage, in the config's ablation order."""
        return _run(stage, _runs(stage, cfg, Path(out_dir), strict, {} if store is None else store))

    return command


STAGES: dict[str, Callable[..., Any]] = {stage.name: _command(stage) for stage in TABLE}
stage_synth = STAGES["synth"]
stage_build_graph = STAGES["build-graph"]
stage_train_ge = STAGES["train-ge"]
stage_sample_triplets = STAGES["sample-triplets"]
stage_train_docsim = STAGES["train-docsim"]
stage_gen_pairs = STAGES["gen-pairs"]
stage_train_biencoder = _train_biencoder_variant = STAGES["train-biencoder"]
stage_evaluate = STAGES["evaluate"]


def stage_pipeline(cfg: RunConfig, out_dir: Path, strict: bool = False) -> None:
    """Every stage of ``TABLE`` through ``STAGES`` with one shared store, skipping
    ``train-docsim`` when no ablation starts from it, then the ablations' combined report."""
    out_dir = Path(out_dir)
    store: dict[tuple, Any] = {}
    results = {stage.name: STAGES[stage.name](cfg, out_dir, strict, store) for stage in TABLE
               if stage.name != "train-docsim" or any(a["docsim"] for a in cfg.ablations)}
    rows = [{"ablation": info, "metrics": metrics}
            for info, metrics in zip(results["train-biencoder"], results["evaluate"])]
    _dump(out_dir / "report.json", {"seed": cfg.seed, "rows": rows})
    table = [f"{row['ablation']['name']:<18}" + "".join(
        f"{100 * row['metrics'][key]:>10.2f}"
        for key in ("mean_map10", "mean_mrr10", "mean_ndcg10", "mean")) for row in rows]
    header = f"{'ablation':<18}{'MAP@10':>10}{'MRR@10':>10}{'nDCG@10':>10}{'Mean':>10}"
    (out_dir / "report.txt").write_text("\n".join([header, "-" * len(header)] + table) + "\n",
                                        encoding="utf-8")
    logger.info("pipeline report:\n%s", "\n".join([header] + table))


STAGES["pipeline"] = stage_pipeline


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one: a parse
    keeps nothing in the parser."""
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
                       help="check every read against its producer's manifest before running")
    return parser


def _out_dir(out: str) -> Path:
    """``--out``, which must be a directory or not exist yet below one."""
    path = Path(out)
    blocker = next((p for p in (path, *path.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ConfigError(f"--out {path}: {blocker} is not a directory")
    return path


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.seed)
        STAGES[args.command](cfg, _out_dir(args.out), args.strict)
    except (MissingArtifactError, CorruptFileError) as exc:
        logger.error("%s", exc)  # CorruptFileError is a ValueError, so it is caught first
        return 3
    except (FileNotFoundError, IsADirectoryError) as exc:  # a path the runner opens
        logger.error("%s: %s", exc.filename, exc.strerror)
        return 3
    except ValueError as exc:  # ConfigError among them
        logger.error("%s", exc)
        return 2
    except ArithmeticError as exc:  # NonFiniteError among them
        logger.error("numerical failure: %s", exc)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
