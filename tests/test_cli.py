import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_checked
from plantsearch import cli, encoder, graph_embed, ir_eval, kg, pairs, triplets
from plantsearch.losses import NonFiniteError
from plantsearch.storage import derive_seed, read_matrix, write_matrix

TINY_CONFIG = {
    "seed": 3,
    "plants": [
        {"plant_id": "X", "n_fl": 8, "n_logs": 50, "n_queries": 3, "training": True},
        {"plant_id": "Y", "n_fl": 8, "n_logs": 50, "n_queries": 3},
    ],
    "graph_embed": {"dim": 16, "epochs": 4, "negatives_per_edge": 4, "lp_test_fraction": 0.05},
    "sampling": {"k_hard": 10, "min_text_chars": 40},
    "docsim": {"epochs": 1, "batch_size": 8},
    "biencoder": {"epochs": 1, "batch_size": 16, "warmup_steps": 2},
    "ablations": [
        {"name": "sid", "use_get": False, "use_sid": True, "docsim": False},
        {"name": "docsim+sid+get", "use_get": True, "use_sid": True, "docsim": True},
    ],
}

MICRO_CONFIG = {
    "seed": 3,
    "plants": [{"plant_id": "M", "n_fl": 6, "n_logs": 20, "n_queries": 2, "training": True}],
}


def fails(caplog, args, code=3):
    """The one ERROR line of ``cli.main(args)``, which must exit ``code`` without a traceback."""
    caplog.clear()
    with caplog.at_level("ERROR", logger="plantsearch.cli"):
        assert cli.main(args) == code
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    message = errors[0].getMessage()
    assert "\n" not in message
    return message


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """The tiny pipeline run twice into separate directories, the second time with --strict."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out1, out2 = root / "run1", root / "run2"
    assert cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
    strict_rc = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out2), "--strict"])
    return cfg_path, out1, out2, strict_rc


def test_pipeline_strict_exits_0(pipeline_run):
    assert pipeline_run[3] == 0


def test_pipeline_report_structure(pipeline_run):
    _, out1, *_ = pipeline_run
    report = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    assert report["seed"] == 3
    names = [row["ablation"]["name"] for row in report["rows"]]
    assert names == ["sid", "docsim+sid+get"]
    sid, full = report["rows"]
    assert set(sid["ablation"]["composition"]["per_source"]) == {"SID"}
    assert sid["ablation"]["docsim"] is False
    assert set(full["ablation"]["composition"]["per_source"]) == {"GET", "SID"}
    assert full["ablation"]["docsim"] is True
    for row in report["rows"]:
        m = row["metrics"]
        assert set(m) >= {"mean", "mean_map10", "mean_mrr10", "mean_ndcg10", "per_plant"}
        assert 0.0 <= m["mean"] <= 1.0
        assert set(m["per_plant"]) == {"X", "Y"}
    text = (out1 / "report.txt").read_text(encoding="utf-8")
    assert "ablation" in text and "nDCG@10" in text and "sid" in text


def test_pipeline_writes_stage_manifests(pipeline_run):
    _, out1, *_ = pipeline_run
    for stage in ("synth", "build-graph", "train-ge", "sample-triplets",
                  "train-docsim", "gen-pairs"):
        manifest = json.loads(
            (out1 / f"manifest-{stage}.json").read_text(encoding="utf-8")
        )
        assert manifest["stage"] == stage
        assert manifest["seed"] == 3
        assert all(len(h) == 64 for h in manifest["outputs"].values())


def test_pipeline_reruns_byte_identical(pipeline_run):
    _, out1, out2, _ = pipeline_run
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    differing = [
        str(rel)
        for rel in files1
        if (out1 / rel).read_bytes() != (out2 / rel).read_bytes()
    ]
    # wall-clock timings are quarantined in timings.json; nothing else may differ (two fast
    # runs may round their stage times to the same milliseconds)
    assert set(differing) <= {"timings.json"}
    keys1, keys2 = (json.loads((out / "timings.json").read_text(encoding="utf-8")).keys()
                    for out in (out1, out2))
    assert keys1 == keys2


def _pipeline_files(cfg: dict, out: Path, **env: str) -> dict[str, bytes]:
    """Every file but timings.json that ``pipeline`` writes for ``cfg`` in a new process whose
    environment adds ``env``, by its path under ``out``."""
    cfg_path = out.with_suffix(".json")
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "plantsearch.cli", "pipeline", "--config",
                    str(cfg_path), "--out", str(out)], env=env, check=True, capture_output=True)
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and p.name != "timings.json"}


def _assert_same_files(trees: list[dict[str, bytes]]) -> None:
    assert sorted(trees[0]) == sorted(trees[1]) and "report.json" in trees[0]
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


def test_pipeline_is_byte_identical_across_processes(tmp_path):
    """Two processes with other string hash seeds write the same files, byte for byte, but for
    timings.json."""
    _assert_same_files([_pipeline_files(TINY_CONFIG, tmp_path / f"run{hash_seed}",
                                        PYTHONHASHSEED=hash_seed)
                        for hash_seed in ("1", "12345")])


# Three default plants, two of them training, and one ablation: a bi-encoder run whose float64
# epoch losses differ in their last bits at one and two BLAS threads (TINY_CONFIG's do not).
BLAS_CONFIG = {
    "plants": [{"plant_id": pid, "n_fl": 20, "n_logs": 230, "n_queries": 8, "training": training}
               for pid, training in (("A", True), ("B", False), ("C", True))],
    "ablations": [{"name": "sid+get", "use_get": True, "use_sid": True, "docsim": False}],
}


def test_pipeline_is_byte_identical_at_one_and_two_blas_threads(tmp_path):
    """The files but timings.json are the same at OPENBLAS_NUM_THREADS 1 and 2: the manifests
    and report store each epoch loss rounded to float32. On a host with one CPU the two runs
    are equal whatever they store, as OpenBLAS then runs one thread."""
    _assert_same_files([_pipeline_files(BLAS_CONFIG, tmp_path / f"threads{threads}",
                                        OPENBLAS_NUM_THREADS=threads)
                        for threads in ("1", "2")])


def test_strict_mode_catches_tampered_artifacts(pipeline_run, tmp_path):
    cfg_path, out1, *_ = pipeline_run
    out3 = tmp_path / "tampered"
    shutil.copytree(out1, out3)
    nodes = out3 / "plants" / "X" / "nodes.jsonl"
    nodes.write_bytes(nodes.read_bytes() + b" ")
    rc = cli.main(["build-graph", "--config", str(cfg_path), "--out", str(out3), "--strict"])
    assert rc == 3
    # without --strict the stage just rebuilds from the changed input
    rc = cli.main(["build-graph", "--config", str(cfg_path), "--out", str(out3)])
    assert rc == 0


def test_strict_mode_verifies_before_reading(pipeline_run, tmp_path):
    """A tamper that breaks parsing still surfaces as a provenance failure,
    and the stage must not overwrite its outputs before detecting it."""
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "corrupted"
    shutil.copytree(out1, out)
    rebuilt = out / "graphs" / "X" / "nodes.jsonl"
    before = rebuilt.read_bytes()
    (out / "plants" / "X" / "nodes.jsonl").write_bytes(b"not json\n")
    rc = cli.main(["build-graph", "--config", str(cfg_path), "--out", str(out), "--strict"])
    assert rc == 3
    assert rebuilt.read_bytes() == before


@pytest.mark.parametrize("stage", ["train-docsim", "gen-pairs"])
def test_exit_3_on_triplet_naming_unknown_doc(pipeline_run, tmp_path, caplog, stage):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "ghost"
    shutil.copytree(out1, out)
    tpath = out / "triplets" / "triplets.jsonl"
    row = {"q": "ghost-doc", "pos": "ghost-doc", "neg": "ghost-doc", "neg_kind": "easy"}
    tpath.write_text(tpath.read_text(encoding="utf-8") + json.dumps(row) + "\n",
                     encoding="utf-8")
    message = fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)])
    assert "no text for document 'ghost-doc'" in message


def _nan_payload(blob):
    """A .gemb file whose first payload value (after the 16-byte header) is a float32 NaN."""
    return blob[:16] + struct.pack("<f", float("nan")) + blob[20:]


GE_DAMAGE = {
    "truncate": lambda blob: blob[: len(blob) // 2],
    "append": lambda blob: blob + b"\xffjunk\n",
    "nan": _nan_payload,
}


@pytest.mark.parametrize("suffix, damage", [(suffix, damage)
                                            for suffix in (".gemb", ".ids", ".rels.json")
                                            for damage in ("truncate", "append")]
                         + [(".gemb", "nan")])
def test_exit_3_on_corrupt_ge_artifact(pipeline_run, tmp_path, caplog, suffix, damage):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "corrupt"
    shutil.copytree(out1, out)
    path = (out / "ge" / "X").with_suffix(suffix)
    path.write_bytes(GE_DAMAGE[damage](path.read_bytes()))
    message = fails(caplog, ["sample-triplets", "--config", str(cfg_path), "--out", str(out)])
    assert "X" in message
    if damage == "nan":  # the message names the file that holds the bad value
        assert message.startswith(f"{path}: ")


def test_exit_3_on_ge_table_missing_a_log(pipeline_run, tmp_path, caplog):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "renamed"
    shutil.copytree(out1, out)
    ids = out / "ge" / "X.ids"
    lines = ids.read_text(encoding="utf-8").splitlines(keepends=True)
    log_row = next(i for i, line in enumerate(lines) if ":log:" in line)
    lines[log_row] = json.dumps({"id": "X:log:renamed", "row": log_row}) + "\n"
    ids.write_text("".join(lines), encoding="utf-8")
    message = fails(caplog, ["sample-triplets", "--config", str(cfg_path), "--out", str(out)])
    assert "ids not in embedding table" in message


# The encoder that evaluate reads first. Its cases keep the ids "encoders/biencoder.json",
# the one encoder a train-biencoder command once wrote, so that the suite's names stay stable.
FIRST_ENCODER = "ablations/sid/biencoder"


@pytest.mark.parametrize("name", ["plants/X/qrels.txt", "plants/X/queries.jsonl",
                                  "plants/Y/nodes.jsonl", "plants/Y/edges.jsonl",
                                  pytest.param(f"{FIRST_ENCODER}.json",
                                               id="encoders/biencoder.json"),
                                  "benchmark.json"])
def test_evaluate_strict_hashes_every_file_it_reads(pipeline_run, tmp_path, caplog, name):
    cfg_path, trained, *_ = pipeline_run
    out = tmp_path / "tampered"
    shutil.copytree(trained, out)
    args = ["evaluate", "--config", str(cfg_path), "--out", str(out), "--strict"]
    assert cli.main(args) == 0
    path = out / name
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines) + lines[-1])  # append a copy of the last line
    message = fails(caplog, args)
    assert f"provenance hash mismatch for {name}" in message


HEADER_DAMAGE = {
    "truncated": lambda blob: blob[:10],
    "not-utf8": lambda blob: b"\xff" + blob,
    "not-an-object": lambda blob: b"[1]\n",
    "no-vocab-buckets": lambda blob: _edit_header(blob, vocab_buckets=None),
    "float-dim": lambda blob: _edit_header(blob, dim=16.0),
    "string-dim": lambda blob: _edit_header(blob, dim="16"),
    "unknown-hash": lambda blob: _edit_header(blob, hash_algo="md5"),
    "no-init-scheme": lambda blob: _edit_header(blob, init=None),  # written before block init
    "whole-table-init": lambda blob: _edit_header(blob, init="gaussian"),
    "max-pooling": lambda blob: _edit_header(blob, pooling="max"),
    "no-seed": lambda blob: _edit_header(blob, seed=None),
    "float-seed": lambda blob: _edit_header(blob, seed=3.0),
    "negative-seed": lambda blob: _edit_header(blob, seed=-1),
    "no-bucket-ids": lambda blob: _edit_header(blob, bucket_ids=None),
    "bucket-ids-not-a-list": lambda blob: _edit_header(blob, bucket_ids="0 1 2"),
    "float-bucket-id": lambda blob: _edit_ids(blob, lambda ids: [float(ids[0])] + ids[1:]),
    "negative-bucket-id": lambda blob: _edit_ids(blob, lambda ids: [-1] + ids[1:]),
    "bucket-id-past-the-table": lambda blob: _edit_ids(blob, lambda ids: ids[:-1] + [1 << 16]),
    "bucket-ids-unsorted": lambda blob: _edit_ids(blob, lambda ids: [ids[1], ids[0]] + ids[2:]),
    "bucket-id-repeated": lambda blob: _edit_ids(blob, lambda ids: [ids[0]] + ids[:-1]),
    "one-bucket-id-fewer": lambda blob: _edit_ids(blob, lambda ids: ids[:-1]),
    "one-bucket-id-more": lambda blob: _edit_ids(blob, lambda ids: ids + [ids[-1] + 1]),
    "vocab-buckets-not-the-configs": lambda blob: _edit_header(blob, vocab_buckets=(1 << 16) + 1),
    "vocab-buckets-past-the-bound": lambda blob: _edit_header(blob, vocab_buckets=(1 << 24) + 1),
}


def _edit_header(blob, **changes):
    header = json.loads(blob)
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    return json.dumps(header).encode()


def _edit_ids(blob, edit):
    """A header whose held rows' bucket ids are ``edit`` of its own."""
    return _edit_header(blob, bucket_ids=edit(json.loads(blob)["bucket_ids"]))


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
@pytest.mark.parametrize("stage, header", [
    pytest.param("evaluate", f"{FIRST_ENCODER}.json", id="evaluate-encoders/biencoder.json"),
    ("train-biencoder", "encoders/docsim.json")])
def test_exit_3_on_corrupt_encoder_header(pipeline_run, tmp_path, caplog, stage, header, damage):
    cfg_path, trained, *_ = pipeline_run
    out = tmp_path / "corrupt"
    shutil.copytree(trained, out)
    path = out / header
    path.write_bytes(HEADER_DAMAGE[damage](path.read_bytes()))
    message = fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)])
    assert message.startswith(f"{path}: ")


def test_exit_3_on_nan_encoder_payload(pipeline_run, tmp_path, caplog):
    cfg_path, trained, *_ = pipeline_run
    out = tmp_path / "nan"
    shutil.copytree(trained, out)
    path = out / f"{FIRST_ENCODER}.gemb"
    path.write_bytes(_nan_payload(path.read_bytes()))
    message = fails(caplog, ["evaluate", "--config", str(cfg_path), "--out", str(out)])
    assert message.startswith(f"{path}: ") and "non-finite" in message


@pytest.mark.parametrize("stage", ["sample-triplets", "train-docsim", "gen-pairs",
                                   "train-biencoder"])
def test_strict_checks_built_graphs(pipeline_run, tmp_path, caplog, stage):
    """Every stage that reads a built graph hashes it and checks it against build-graph."""
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "edited"
    shutil.copytree(out1, out)
    nodes = out / "graphs" / "X" / "nodes.jsonl"
    lines = nodes.read_text(encoding="utf-8").splitlines(keepends=True)
    word = json.loads(lines[0])["text"].split()[0]
    edited = lines[0].replace(f'"text": "{word}', '"text": "edited', 1)
    assert edited != lines[0]
    nodes.write_text("".join([edited] + lines[1:]), encoding="utf-8")
    message = fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out), "--strict"])
    assert "provenance hash mismatch for graphs/X/nodes.jsonl" in message


def test_strict_needs_the_producer_manifest(pipeline_run, tmp_path, caplog):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "unvouched"
    shutil.copytree(out1, out)
    (out / "manifest-synth.json").unlink()
    message = fails(caplog, ["build-graph", "--config", str(cfg_path), "--out", str(out),
                             "--strict"])
    assert "manifest-synth.json not found" in message


def _training_needs(out):
    """The texts that ``train-docsim`` and ``train-biencoder`` featurize, read from a run."""
    from plantsearch.triplets import load_triplets

    texts = {n.id: n.text for pid in ("X", "Y")
             for n in kg.load_graph(*(out / "graphs" / pid / f"{name}.jsonl"
                                      for name in ("nodes", "edges"))).text_logs()}
    rows = pairs.load_pairs(out / "sid.jsonl") + pairs.load_pairs(out / "pairs" / "get.jsonl")
    return {
        "train-docsim": {texts[d] for t in load_triplets(out / "triplets" / "triplets.jsonl")
                         for d in (t.query, t.positive, t.negative)},
        "train-biencoder": {texts[pr.doc_id] for pr in rows} | {pr.query_text for pr in rows},
    }


def _featurized(monkeypatch):
    """Every text passed to ``encoder.featurize_many``, through any plantsearch name."""
    featurize_many, passed = encoder.featurize_many, []
    for module in list(sys.modules.values()):  # every plantsearch name bound to it
        if module and module.__name__.startswith("plantsearch") and getattr(
                module, "featurize_many", None) is featurize_many:
            monkeypatch.setattr(module, "featurize_many", lambda batch, vocab_buckets: (
                passed.extend(batch), featurize_many(batch, vocab_buckets))[1])
    return passed


def _featurized_lines(caplog):
    return [m for m in caplog.messages if "featurized" in m]


def test_training_stages_featurize_each_text_once(pipeline_run, tmp_path, monkeypatch, caplog):
    """``train-docsim`` (its quality filter's scorer and ``train_docsim``) and
    ``train-biencoder`` (every ablation) each pass every text they need to ``featurize_many``
    once, and log how many distinct texts that was for how many their runs took."""
    cfg_path, out1, _, _ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    passed = _featurized(monkeypatch)
    for stage, need in _training_needs(out).items():
        passed.clear()
        caplog.clear()
        with caplog.at_level("DEBUG", logger="plantsearch.cli"):
            assert cli.main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(passed) == len(set(passed)) and set(passed) == need, stage
        logged = _featurized_lines(caplog)
        assert len(logged) == 1, logged
        m = re.fullmatch(rf"{stage}: featurized {len(need)} distinct texts for (\d+) requested",
                         logged[0])
        assert m and int(m[1]) > len(need), logged


def test_a_pipeline_featurizes_each_training_text_once(tmp_path, monkeypatch, caplog):
    """With one store from synth to ``train-biencoder``, no text reaches ``featurize_many``
    twice: ``train-biencoder`` takes the texts ``train-docsim`` featurized from the store's
    featurizer, and each stage logs only the texts it added."""
    cfg, out, store = cli.RunConfig(TINY_CONFIG), tmp_path / "run", {}
    passed = _featurized(monkeypatch)
    with caplog.at_level("DEBUG", logger="plantsearch.cli"):
        for row in cli.TABLE[:-1]:  # synth through train-biencoder
            cli.STAGES[row.name](cfg, out, False, store)
    needs = _training_needs(out)
    assert len(passed) == len(set(passed))
    assert set(passed) == needs["train-docsim"] | needs["train-biencoder"]
    added = len(needs["train-biencoder"] - needs["train-docsim"])
    assert added < len(needs["train-biencoder"])
    assert [re.fullmatch(r"(\S+): featurized (\d+) distinct texts for \d+ requested", m).groups()
            for m in _featurized_lines(caplog)] == [
        ("train-docsim", str(len(needs["train-docsim"]))), ("train-biencoder", str(added))]


# Every parser of a file that a stage reads, and the files each call parses.
PARSERS = {
    (kg, "load_graph"): lambda nodes, edges: [nodes, edges],
    (pairs, "load_pairs"): lambda path, source=None: [path],
    (triplets, "load_triplets"): lambda path: [path],
    (graph_embed, "load_embeddings"): lambda stem: [f"{stem}{s}" for s in cli.GE_FILES],
    (cli, "read_table"): lambda stem: [f"{stem}{s}" for s in cli.TABLE_FILES],
    (ir_eval, "load_queries"): lambda path: [path],
    (ir_eval, "load_qrels"): lambda path: [path],
    (cli, "load_encoder"): lambda gemb, header: [gemb, header],
    (cli, "read_json"): lambda path, *args: [path],
}


@pytest.fixture
def parsed(monkeypatch):
    """How many times each file is parsed, by its path, but for timings.json."""
    counts = Counter()

    def counted(real, files):
        def parse(*args):
            counts.update(str(f) for f in files(*args) if Path(f).name != "timings.json")
            return real(*args)
        return parse

    for (module, name), files in PARSERS.items():
        monkeypatch.setattr(module, name, counted(getattr(module, name), files))
    return counts


def test_pipeline_parses_none_of_the_files_it_wrote(tmp_path, monkeypatch, parsed,
                                                    init_streams):
    """Each stage that writes what a later stage reads keeps its parsed value in the store, so
    a ``pipeline`` parses only the saved encoders, each once. Each init block of each encoder
    seed (the scorer's, and the one every encoder starts from) is drawn once: the store holds
    one encoder of each, and the saved encoders hold every row they read."""
    filtered = []
    quality_filter = pairs.quality_filter
    monkeypatch.setattr(pairs, "quality_filter", lambda *args, **kwargs: (
        filtered.append(1), quality_filter(*args, **kwargs))[1])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    encoders = ["encoders/docsim"] + [f"ablations/{a['name']}/biencoder"
                                      for a in TINY_CONFIG["ablations"]]
    assert parsed == {str(out / f"{stem}{suffix}"): 1
                      for stem in encoders for suffix in cli.ENCODER_FILES}
    assert filtered == [1]
    assert {seed for seed, _ in init_streams} == {derive_seed(3, label)
                                                  for label in ("scorer", "encoder-init")}
    assert len(init_streams) == 724 and set(init_streams.values()) == {1}
    timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    for ablation in TINY_CONFIG["ablations"]:
        assert f"train-biencoder:{ablation['name']}" in timings


def test_a_stage_run_alone_parses_each_read_once(tmp_path, parsed):
    """A stage run on its own starts from an empty store: it parses each file its manifests
    list as inputs once, and no other."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    cfg, out = cli.load_run_config(str(cfg_path), None), tmp_path / "run"
    for row in cli.TABLE:
        parsed.clear()
        assert cli.main([row.name, "--config", str(cfg_path), "--out", str(out)]) == 0
        inputs = {str(out / name) for run in cli._runs(row, cfg, out, False, {})
                  for name in _manifest(out, run)["inputs"]}
        assert parsed == {name: 1 for name in inputs}, row.name


def _exact(value):
    """``value`` as nested tuples, equal only for values of equal types, order and bytes."""
    if isinstance(value, kg.KnowledgeGraph):
        return "graph", _exact(dict(value.nodes)), _exact(value.edges)
    if isinstance(value, graph_embed.EmbeddingTable):
        return "table", _exact(value.node_ids), _exact(value.vectors), _exact(
            value.relation_params)
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, *(_exact(getattr(value, f.name))
                                       for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return "dict", *((_exact(k), _exact(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value).__name__, *map(_exact, value)
    return type(value).__name__, value


def test_exact_tells_records_apart_by_type_name():
    edge = kg.Edge("l1", "f1", kg.Relation.REPORTS_ABOUT)
    assert _exact(edge) == _exact(kg.Edge(*edge))
    assert _exact(edge) != _exact(tuple(edge))
    assert _exact(edge)[0] == "Edge" and _exact(kg.Node("l1", kg.NodeKind.TEXT_LOG))[0] == "Node"
    query = ir_eval.Query("q1", "text")
    assert _exact(query) != _exact(("q1", "text")) and _exact(query)[0] == "Query"


def test_each_kept_value_equals_a_fresh_parse(tmp_path, monkeypatch):
    """Every value a writer keeps in a ``pipeline`` store equals, in types, order and float32
    rounding, what a store of its own parses from the files the writer wrote."""
    kept = []
    keep = cli.Run.keep
    monkeypatch.setattr(cli.Run, "keep", lambda r, kind, reads, value: (
        kept.append((kind, [name for name, _ in reads])), keep(r, kind, reads, value))[1])
    cfg, out, store = cli.RunConfig(TINY_CONFIG), tmp_path / "run", {}
    for row in cli.TABLE:
        cli.STAGES[row.name](cfg, out, False, store)
    fresh = cli.Run("check", cfg, out, False, {})
    for pid in fresh.plant_ids():
        fresh.graph("plants", pid), fresh.graph("graphs", pid)
    for pid in fresh.plant_ids(training=True):
        fresh.text_vectors(pid), fresh.ge_table(pid)
    fresh.benchmark(), fresh.triplets()
    for source, (name, producer) in [(pairs.PairSource.SID, cli.SID_PAIRS),
                                     (pairs.PairSource.GET, cli.GET_PAIRS)]:
        fresh.load(f"pairs:{source.value}", [(name, producer)],
                   lambda: pairs.load_pairs(out / name, source))
    keys = [cli._key(kind, names, fresh.inputs) for kind, names in kept]
    assert sorted({key[0] for key in keys}) == ["benchmark", "ge", "graph", "pairs:GET",
                                                "pairs:SID", "plants", "triplets", "vectors"]
    assert len(set(keys)) == len(keys) == 11  # 4 graphs, 1 of each other kind
    for key in keys:
        assert _exact(store[key]) == _exact(fresh.store[key]), key[0]


def test_a_file_changed_since_it_was_written_is_parsed(tmp_path, parsed):
    """A kept graph is filed under its files' digests, so a file that changes after its
    writer ran misses the store, and the reader parses what the file now holds."""
    cfg, out, store = cli.RunConfig(TINY_CONFIG), tmp_path / "run", {}
    cli.STAGES["synth"](cfg, out, False, store)
    nodes = out / "plants" / "Y" / "nodes.jsonl"
    lines = nodes.read_text(encoding="utf-8").splitlines(keepends=True)
    log = next(i for i, line in enumerate(lines) if '"text_log"' in line)
    lines[log] = lines[log].replace('"text": "', '"text": "Edited ', 1)
    nodes.write_text("".join(lines), encoding="utf-8")
    parsed.clear()
    cli.STAGES["build-graph"](cfg, out, False, store)
    assert parsed == {str(nodes): 1, str(nodes.with_name("edges.jsonl")): 1}
    edited = json.loads(lines[log])
    built = cli.Run("check", cfg, out, False, store).graph("graphs", "Y")
    assert built.nodes[edited["id"]].text.startswith("Edited ")


DRMM_PAIRS = [
    {"query": "leckage am flansch", "doc_id": "drmm:1", "label": 1},
    {"query": "leckage am flansch", "doc_id": "drmm:2", "label": 0},
    {"query": "motor ueberhitzt", "doc_id": "drmm:2", "label": 1},
    {"query": "filter verstopft", "doc_id": "drmm:3", "label": 1},
]
DRMM_CORPUS = [
    {"id": "drmm:1", "text": "Flansch an Pumpe undicht, Leckage festgestellt"},
    {"id": "drmm:2", "text": "Motor laeuft heiss, Temperaturalarm ausgeloest"},
    {"id": "drmm:3", "text": "Vorfilter verstopft, Differenzdruck zu hoch"},
]


def _drmm_pairs(tmp_path):
    pairs_path = tmp_path / "drmm-pairs.jsonl"
    pairs_path.write_text("".join(json.dumps(r) + "\n" for r in DRMM_PAIRS), encoding="utf-8")
    return pairs_path


def _drmm_config(tmp_path, pairs_path, corpus=True):
    """A config whose one ablation, ``drmm``, uses DRMM pairs; ``corpus`` is whether it names
    the DRMM corpus."""
    corpus_path = tmp_path / "drmm-corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in DRMM_CORPUS), encoding="utf-8")
    config = dict(TINY_CONFIG,
                  composition={"drmm_pairs": str(pairs_path),
                               "drmm_corpus": str(corpus_path) if corpus else None},
                  ablations=[{"name": "drmm", "use_get": False, "use_sid": True,
                              "use_drmm": True, "docsim": False}])
    cfg_path = tmp_path / "drmm.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    return cfg_path, corpus_path


@pytest.fixture(scope="module")
def drmm_run(tmp_path_factory):
    """The tiny pipeline with DRMM pairs from files the config names, and one ablation that
    uses them; returns the run directory, the two files and the config."""
    root = tmp_path_factory.mktemp("drmm")
    pairs_path = _drmm_pairs(root)
    cfg_path, corpus_path = _drmm_config(root, pairs_path)
    out = root / "run"
    assert cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out, pairs_path, corpus_path, cfg_path


def test_drmm_pairs_reach_the_ablation(drmm_run):
    out, *_ = drmm_run
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    (row,) = report["rows"]
    assert row["ablation"]["name"] == "drmm"
    assert row["ablation"]["composition"]["per_source"]["DRMM"]["positives"] == 3


def test_drmm_files_are_manifest_inputs(drmm_run):
    out, pairs_path, corpus_path, _ = drmm_run

    def inputs(stage):
        return json.loads((out / f"manifest-{stage}.json").read_text(encoding="utf-8"))["inputs"]

    assert str(pairs_path) in inputs("train-biencoder-drmm")
    assert str(corpus_path) in inputs("train-biencoder-drmm")
    assert not (out / "pairs" / "drmm.jsonl").exists()  # read where it is, not copied


def test_exit_3_on_missing_drmm_pairs(pipeline_run, tmp_path, caplog):
    _, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    absent = tmp_path / "absent.jsonl"
    cfg_path, _ = _drmm_config(tmp_path, absent)
    message = fails(caplog, ["train-biencoder", "--config", str(cfg_path), "--out", str(out)])
    assert message == f"{absent} not found: check the run config"
    # it stops before it writes
    assert not (out / "ablations" / "drmm").exists()
    assert not (out / "manifest-train-biencoder-drmm.json").exists()


def test_exit_3_on_drmm_pairs_directory(pipeline_run, tmp_path, caplog):
    _, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    folder = tmp_path / "pairs"
    folder.mkdir()
    cfg_path, _ = _drmm_config(tmp_path, folder)
    message = fails(caplog, ["train-biencoder", "--config", str(cfg_path), "--out", str(out)])
    assert message == f"{folder} is not a file: check the run config"
    assert not (out / "ablations" / "drmm").exists()
    assert not (out / "manifest-train-biencoder-drmm.json").exists()


@pytest.mark.parametrize("bad_line", [json.dumps({"id": "drmm:2"}).encode(),
                                      b'{"id": "drmm:2", "text": "\xff"}',
                                      json.dumps({"id": 5, "text": "Motor heiss"}).encode(),
                                      json.dumps({"id": "drmm:2", "text": ["x"]}).encode()],
                         ids=["no-text", "not-utf8", "id-a-number", "text-a-list"])
@pytest.mark.parametrize("command", ["train-biencoder", "pipeline"])
def test_exit_3_on_drmm_corpus_record_without_text(pipeline_run, tmp_path, caplog, command,
                                                   bad_line):
    _, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    cfg_path, corpus_path = _drmm_config(tmp_path, _drmm_pairs(tmp_path))
    corpus_path.write_bytes(json.dumps(DRMM_CORPUS[0]).encode() + b"\n" + bad_line + b"\n")
    message = fails(caplog, [command, "--config", str(cfg_path), "--out", str(out)])
    assert message == f"{corpus_path}:2: DRMM corpus line is not a record with id and text"


@pytest.mark.parametrize("command", ["train-biencoder", "pipeline"])
def test_exit_3_on_drmm_pairs_without_corpus(pipeline_run, tmp_path, caplog, command):
    _, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    pairs_path = _drmm_pairs(tmp_path)
    cfg_path, _ = _drmm_config(tmp_path, pairs_path, corpus=False)
    message = fails(caplog, [command, "--config", str(cfg_path), "--out", str(out)])
    assert message == f"{pairs_path}: no text for document 'drmm:1'"


@pytest.mark.parametrize("text", ["document", "query"])
@pytest.mark.parametrize("command", ["train-biencoder", "pipeline"])
def test_exit_2_on_drmm_text_without_word_token(pipeline_run, tmp_path, caplog, command, text):
    """A pair text without a word token pools to the zero vector, which MNR cannot rank: the
    load of the ``drmm`` run, after ``sid``'s, names it and its pair file before any run
    writes."""
    _, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    shutil.rmtree(out / "ablations")
    for path in out.glob("manifest-train-biencoder-*"):
        path.unlink()
    pairs_path = tmp_path / "drmm-pairs.jsonl"
    rows = [dict(row, query="??") if row["query"] == "motor ueberhitzt" and text == "query"
            else row for row in DRMM_PAIRS]
    pairs_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    cfg_path, corpus_path = _drmm_config(tmp_path, pairs_path)
    if text == "document":
        corpus_path.write_text("".join(json.dumps(dict(r, text="!!!") if r["id"] == "drmm:2"
                                                  else r) + "\n" for r in DRMM_CORPUS),
                               encoding="utf-8")
    config = json.loads(cfg_path.read_text(encoding="utf-8"))
    config["ablations"] = [TINY_CONFIG["ablations"][0], *config["ablations"]]
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    message = fails(caplog, [command, "--config", str(cfg_path), "--out", str(out)], code=2)
    what = "document 'drmm:2'" if text == "document" else "query '??'"
    assert message == f"{pairs_path}: {what} has no word token to train on"
    assert not list(out.glob("manifest-train-biencoder*")) and not (out / "ablations").exists()


@pytest.mark.parametrize("command, ablations", [
    ("train-biencoder", [{"name": "default", "use_drmm": True}]),  # every other flag built in
    ("pipeline", [dict(a, use_drmm=True) for a in TINY_CONFIG["ablations"]])],
    ids=["train-biencoder-default", "pipeline-sid"])
def test_exit_2_on_drmm_job_without_pairs(pipeline_run, tmp_path, caplog, command, ablations):
    """An ablation that uses DRMM pairs while ``composition.drmm_pairs`` is unset."""
    _, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    shutil.rmtree(out / "ablations")
    for path in out.glob("manifest-train-biencoder-*"):
        path.unlink()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, ablations=ablations)), encoding="utf-8")
    message = fails(caplog, [command, "--config", str(cfg_path), "--out", str(out)], code=2)
    assert f"ablation {ablations[0]['name']!r}" in message
    assert "composition.drmm_pairs" in message
    # the first bi-encoder run stops before it writes
    assert not list(out.glob("manifest-train-biencoder*")) and not (out / "ablations").exists()


@pytest.mark.parametrize("ablations, message", [
    ([{"name": "d", "use_drmm": True}],
     "ablation 'd' uses DRMM pairs, but composition.drmm_pairs is not set"),
    ([{"name": "none", "use_get": False, "use_sid": False}],
     "ablation 'none' selects no pair sources"),
], ids=["drmm-without-pairs", "no-pair-source"])
def test_exit_2_on_ablation_rule_before_any_write(tmp_path, caplog, ablations, message):
    """The ablation rules are checked with the config at load, so a pipeline that breaks one
    exits 2 before synth writes anything under --out."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MICRO_CONFIG, ablations=ablations)), encoding="utf-8")
    out = tmp_path / "o"
    assert fails(caplog, ["pipeline", "--config", str(cfg_path), "--out", str(out)],
                 code=2) == message
    assert not out.exists()


@pytest.mark.parametrize("fraction", [0.01, 0.98], ids=["no-test", "no-train"])
def test_exit_2_on_lp_split_without_edges(tmp_path, caplog, fraction):
    """X (74 edges) splits at both fractions. S, a 12-log, 4-FL plant with 16 edges, keeps
    no test edge at 0.01 and no training edge at 0.98. Every plant's split is checked
    before X trains."""
    small = {"plant_id": "S", "n_fl": 4, "n_logs": 12, "n_queries": 2, "training": True}
    cfg = dict(TINY_CONFIG, plants=[TINY_CONFIG["plants"][0], small],
               graph_embed=dict(TINY_CONFIG["graph_embed"], lp_test_fraction=fraction))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for stage in ("synth", "build-graph"):
        assert cli.main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    message = fails(caplog, ["train-ge", "--config", str(cfg_path), "--out", str(out)], code=2)
    assert "plant 'S' has 16 edges" in message and "graph_embed.lp_test_fraction" in message
    assert not list(out.glob("ge/**/*")) and not list(out.glob("manifest-train-ge*"))


def _without(key):
    return lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != key}).encode()


def _with(key, value):
    return lambda line: json.dumps({**json.loads(line), key: value}).encode()


# case -> (stage, file, edit of the file's first line)
MALFORMED_RECORDS = {
    "triplet-without-pos": ("train-docsim", "triplets/triplets.jsonl", _without("pos")),
    "unknown-neg-kind": ("train-docsim", "triplets/triplets.jsonl", _with("neg_kind", "medium")),
    "pair-without-doc-id": ("train-biencoder", "sid.jsonl", _without("doc_id")),
    "pair-label-7": ("train-biencoder", "sid.jsonl", _with("label", 7)),
    "query-without-plant": ("evaluate", "plants/X/queries.jsonl", _without("plant")),
    "qrels-grade-high": ("evaluate", "plants/X/qrels.txt",
                         lambda line: line.rsplit(b" ", 1)[0] + b" high"),
    "junk-ids-line": ("train-ge", "plants/X/vectors.ids", lambda line: b"junk"),
    "fl-code-not-a-string": ("build-graph", "plants/X/nodes.jsonl", _with("code", 5)),
    "triplet-query-not-a-string": ("train-docsim", "triplets/triplets.jsonl", _with("q", ["x"])),
    "node-text-a-list": ("build-graph", "plants/X/nodes.jsonl", _with("text", ["x"])),
    "node-id-a-number": ("build-graph", "plants/X/nodes.jsonl", _with("id", 5)),
    "edge-src-a-number": ("build-graph", "plants/X/edges.jsonl", _with("src", 5)),
    "ids-row-a-float": ("train-ge", "plants/X/vectors.ids", _with("row", 0.9)),
    "ids-row-a-bool": ("train-ge", "plants/X/vectors.ids", _with("row", True)),
    "node-ts-a-bool": ("build-graph", "plants/X/nodes.jsonl", _with("ts", True)),
    "pair-query-a-number": ("train-biencoder", "sid.jsonl", _with("query", 5)),
    "pair-doc-id-a-number": ("train-biencoder", "sid.jsonl", _with("doc_id", 5)),
    "pair-label-a-float": ("train-biencoder", "sid.jsonl", _with("label", 1.7)),
    "pair-label-a-bool": ("train-biencoder", "sid.jsonl", _with("label", True)),
    "query-plant-a-number": ("evaluate", "plants/X/queries.jsonl", _with("plant", 5)),
    "query-id-a-list": ("evaluate", "plants/X/queries.jsonl", _with("query_id", ["x"])),
    "query-text-a-number": ("evaluate", "plants/X/queries.jsonl", _with("text", 5)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_exit_3_on_malformed_record(pipeline_run, tmp_path, caplog, case):
    stage, name, edit = MALFORMED_RECORDS[case]
    cfg_path, trained, *_ = pipeline_run
    out = tmp_path / "malformed"
    shutil.copytree(trained, out)
    path = out / name
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(edit(first) + b"\n" + rest)
    message = fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)])
    assert message.startswith(f"{path}:1: ")


def _one_more_id(blob):
    """A vectors.ids with one contiguous row more than its matrix has."""
    return blob + json.dumps({"id": "X:extra", "row": blob.count(b"\n")}).encode() + b"\n"


def _repeated_id(blob):
    """A vectors.ids whose second row repeats the first row's id, so a node has no vector."""
    first, second, rest = blob.split(b"\n", 2)
    second = json.dumps({**json.loads(second), "id": json.loads(first)["id"]}).encode()
    return b"\n".join([first, second, rest])


def _unknown_doc(blob):
    """A pair file whose first row names a document that no built graph has."""
    first, rest = blob.split(b"\n", 1)
    return _with("doc_id", "nope")(first) + b"\n" + rest


def _qrels_unknown_doc(blob):
    """A qrels file whose first line grades a document that the plant's corpus lacks."""
    first, rest = blob.split(b"\n", 1)
    query_id, iteration, _, grade = first.split()
    return b" ".join([query_id, iteration, b"X:log:nope", grade]) + b"\n" + rest


def _qrels_without_first_query(blob):
    """A qrels file with every line of its first query removed."""
    lines = blob.splitlines(keepends=True)
    first = lines[0].split()[0]
    return b"".join(line for line in lines if line.split()[0] != first)


def _doc_of_plant_x(blob):
    """A nodes file with one more text log, whose id is the first log of plant X."""
    node = {"id": "X:log:00000", "kind": "text_log", "text": "Pumpe undicht"}
    return blob + json.dumps(node).encode() + b"\n"


def _dangling_edge(blob):
    edge = {"src": "X:log:ghost", "dst": "X:log:zz", "rel": "related_to"}
    return blob + json.dumps(edge).encode() + b"\n"


# case -> (stage, file or files, damage, the file the error line starts with, if not the
# (last) damaged one)
INCONSISTENT_ARTIFACTS = {
    "ids-one-row-more": ("train-ge", "plants/X/vectors.ids", _one_more_id, None),
    "ids-repeated-id": ("train-ge", "plants/X/vectors.ids", _repeated_id, None),
    "benchmark-without-plants": ("build-graph", "benchmark.json",
                                 lambda blob: b'{"plant_ids": ["X", "Y"]}\n', None),
    "plant-without-training": ("build-graph", "benchmark.json",
                               lambda blob: b'{"plants": [{"plant_id": "X"}]}\n', None),
    "plant-id-a-number": ("build-graph", "benchmark.json",
                          lambda blob: b'{"plants": [{"plant_id": 5, "training": true}]}\n', None),
    "plant-training-a-string": ("build-graph", "benchmark.json", lambda blob: (
        b'{"plants": [{"plant_id": "X", "training": "no"}, '
        b'{"plant_id": "Y", "training": false}]}\n'), None),
    "dangling-edge": ("train-ge", "graphs/X/edges.jsonl", _dangling_edge, "graphs/X/nodes.jsonl"),
    "pair-unknown-doc": ("train-biencoder", "sid.jsonl", _unknown_doc, None),
    "qrels-unknown-doc": ("evaluate", "plants/X/qrels.txt", _qrels_unknown_doc,
                          "plants/X/queries.jsonl"),
    "query-without-qrels": ("evaluate", "plants/X/qrels.txt", _qrels_without_first_query,
                            "plants/X/queries.jsonl"),
    "doc-in-two-plants": ("evaluate", "plants/Y/nodes.jsonl", _doc_of_plant_x,
                          "plants/X/nodes.jsonl"),
    "plant-without-queries": ("evaluate", ("plants/Y/queries.jsonl", "plants/Y/qrels.txt"),
                              lambda blob: b"", "plants/Y/queries.jsonl"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT_ARTIFACTS))
def test_exit_3_on_inconsistent_artifact(pipeline_run, tmp_path, caplog, case):
    stage, names, damage, named_first = INCONSISTENT_ARTIFACTS[case]
    cfg_path, trained, *_ = pipeline_run
    out = tmp_path / "inconsistent"
    shutil.copytree(trained, out)
    for name in [names] if isinstance(names, str) else names:
        path = out / name
        path.write_bytes(damage(path.read_bytes()))
    message = fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)])
    assert message.startswith(f"{out / named_first}, {path}: " if named_first else f"{path}: ")


@pytest.fixture(scope="module")
def damage_run(pipeline_run, tmp_path_factory):
    """A copy of the tiny pipeline run that the fault matrix damages and repairs in place."""
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path_factory.mktemp("damage") / "run"
    shutil.copytree(out1, out)
    return cfg_path, out


def _flip_middle_bit(blob):
    if not blob:
        return blob
    middle = len(blob) // 2
    return blob[:middle] + bytes([blob[middle] ^ 1]) + blob[middle + 1:]


# Each corruption of a read's bytes; None deletes the read.
CORRUPTIONS = {
    "drop-last-2-bytes": lambda blob: blob[:-2],
    "append-junk": lambda blob: blob + b"\xffjunk\n",
    "flip-middle-bit": _flip_middle_bit,
    "half": lambda blob: blob[: len(blob) // 2],
    "empty": lambda blob: b"",
    "delete": None,
}
# Without --strict these leave a file that no reader accepts. The others can leave one that
# parses (a flipped float in a .gemb, a cut on a line boundary, an empty list of lines).
UNPARSEABLE = ("drop-last-2-bytes", "append-junk")


def _manifest(out, run):
    return json.loads(cli._manifest_path(out, run.id).read_text(encoding="utf-8"))


def _reads(out, cfg, row):
    """Each read that a run of ``row`` made (every ablation's, for a per-ablation stage), as
    its manifest's inputs list it, with the run whose manifest's outputs list it, or None for
    a file the config names outside --out. A stage that the pipeline skipped has no manifest."""
    producer = {name: run.id for other in cli.TABLE for run in cli._runs(other, cfg, out, False, {})
                if cli._manifest_path(out, run.id).is_file()
                for name in _manifest(out, run)["outputs"]}
    inputs = [name for run in cli._runs(row, cfg, out, False, {})
              for name in _manifest(out, run)["inputs"]]
    return list(dict.fromkeys((name, producer.get(name)) for name in inputs))


def test_manifests_list_every_read_under_out(damage_run):
    """The reads the fault matrix damages: each stage's files under --out, from its manifests."""
    cfg_path, out = damage_run
    cfg = cli.load_run_config(str(cfg_path), None)
    assert {row.name: len(_reads(out, cfg, row)) for row in cli.TABLE} == {
        "synth": 0, "build-graph": 5, "train-ge": 5, "sample-triplets": 6, "train-docsim": 6,
        "gen-pairs": 6, "train-biencoder": 9, "evaluate": 13}
    assert all(producer for row in cli.TABLE for _, producer in _reads(out, cfg, row))


def _damage_each_read(damage_run, caplog, stage, damage, strict, config_named=False):
    """Run ``stage`` once for each of its reads (``_reads``) under --out, or, with
    ``config_named``, outside it, with that file damaged in place, skipping a damage that
    leaves the bytes as they were. The read and every file the stage writes are restored after
    each run. Return each read whose run broke the contract, with what it did.

    Every run that fails logs one error line and no traceback, and leaves the files the stage
    writes as they were. A deleted read exits 3 with ``<path> not found: run <producer>
    first``, or ``check the run config`` for a config-named one. Under --strict any other
    damage to a read under --out exits 3 with a provenance error. Otherwise an UNPARSEABLE
    damage exits 3 with a line that starts with the file's path, and any other damage exits
    0, 2 or 3.
    """
    cfg_path, out = damage_run
    row = next(row for row in cli.TABLE if row.name == stage)
    cfg = cli.load_run_config(str(cfg_path), None)
    runs = cli._runs(row, cfg, out, False, {})
    reads = [(name, producer) for name, producer in _reads(out, cfg, row)
             if (producer is None) == config_named]
    manifests = [cli._manifest_path(out, run.id) for run in runs]
    written = [out / "timings.json", *manifests,
               *(out / name for run in runs for name in _manifest(out, run)["outputs"])]
    args = [stage, "--config", str(cfg_path), "--out", str(out)] + ["--strict"] * strict
    corrupt = CORRUPTIONS[damage]
    failed = []
    for name, producer in reads:
        path = out / name
        blob = path.read_bytes()
        if corrupt is not None and corrupt(blob) == blob:
            continue
        kept = {p: p.read_bytes() for p in written if p.exists()}
        for p in manifests * strict:
            p.write_bytes(b"stale")  # a run would overwrite it, though with the same bytes
        before = {p: p.read_bytes() for p in written if p.exists()}
        if corrupt is None:
            path.unlink()
        else:
            path.write_bytes(corrupt(blob))
        caplog.clear()
        try:
            with caplog.at_level("ERROR", logger="plantsearch.cli"):
                rc = cli.main(args)
            errors = [r for r in caplog.records if r.levelname == "ERROR"]
            line = errors[0].getMessage() if errors else ""
            if corrupt is None:
                ok = rc == 3 and line == f"{path} not found: " + (
                    f"run {producer.split(':')[0]} first" if producer else "check the run config")
            elif strict and producer:
                ok = rc == 3 and line.startswith(f"provenance hash mismatch for {name}: ")
            elif damage in UNPARSEABLE:
                ok = rc == 3 and line.startswith(f"{path}:")
            else:
                ok = rc in (0, 2, 3)
            ok = ok and len(errors) == (rc != 0) and not any(r.exc_info for r in errors)
            ok = ok and (rc == 0 or {p: p.read_bytes() for p in written if p.exists()} == before)
            if not ok:
                failed.append((name, rc, line))
        finally:
            path.write_bytes(blob)
            for p, data in kept.items():
                p.write_bytes(data)
    return failed


@pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
@pytest.mark.parametrize("stage", [row.name for row in cli.TABLE])
def test_fault_matrix(damage_run, caplog, stage, damage):
    """Each read under --out that a stage's manifests list, damaged, exits 0 or a documented
    code without --strict, with one error line and no traceback; an unparseable or deleted
    read exits 3 with a line that starts with the file's path."""
    assert _damage_each_read(damage_run, caplog, stage, damage, strict=False) == []


@pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
@pytest.mark.parametrize("stage", [row.name for row in cli.TABLE])
def test_strict_fault_matrix(damage_run, caplog, stage, damage):
    """Each read under --out that a stage's manifests list, damaged, exits 3 under --strict with
    one provenance or not-found error line, before the stage touches its manifests."""
    assert _damage_each_read(damage_run, caplog, stage, damage, strict=True) == []


@pytest.fixture(scope="module")
def drmm_damage_run(drmm_run, tmp_path_factory):
    """A copy of the DRMM pipeline run, whose config-named files the fault matrix damages and
    repairs in place."""
    out1, _, _, cfg_path = drmm_run
    out = tmp_path_factory.mktemp("drmm-damage") / "run"
    shutil.copytree(out1, out)
    return cfg_path, out


@pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
@pytest.mark.parametrize("strict", [False, True])
def test_fault_matrix_over_config_named_reads(drmm_damage_run, caplog, strict, damage):
    """The DRMM pairs and corpus files, damaged, exit as a damaged read under --out does
    without --strict, in both modes: --strict checks no provenance for a file the config
    names."""
    cfg_path, out = drmm_damage_run
    cfg = cli.load_run_config(str(cfg_path), None)
    row = next(row for row in cli.TABLE if row.name == "train-biencoder")
    assert sorted(name for name, producer in _reads(out, cfg, row) if producer is None) == sorted(
        cfg.raw["composition"][key] for key in ("drmm_pairs", "drmm_corpus"))
    assert _damage_each_read(drmm_damage_run, caplog, "train-biencoder", damage, strict,
                             config_named=True) == []


def test_corrupt_timings_stops_the_stage_before_it_writes(pipeline_run, tmp_path, caplog):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    timings = out / "timings.json"
    timings.write_bytes(timings.read_bytes()[:-2])
    encoders = [out / "encoders" / "docsim.gemb", out / "encoders" / "docsim.json"]
    for path in encoders:
        path.write_bytes(b"stale")  # train-docsim overwrites both once it runs
    message = fails(caplog, ["train-docsim", "--config", str(cfg_path), "--out", str(out)])
    assert message.startswith(f"{timings}: ")
    assert [path.read_bytes() for path in encoders] == [b"stale", b"stale"]


@pytest.mark.parametrize("stage, name", [("build-graph", "plants/Y/nodes.jsonl"),
                                         ("evaluate", "ablations/docsim+sid+get/biencoder.json")])
def test_failed_load_of_the_last_run_writes_nothing(pipeline_run, tmp_path, caplog, stage, name):
    """Every plant, or every ablation, is loaded before the first file is written: a corrupt
    read of the last one leaves every file as it was, in bytes and mtime."""
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    path = out / name
    path.write_bytes(path.read_bytes() + b"junk\n")
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}
    assert fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)]).startswith(
        f"{path}:")
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("stage, producers", [
    ("train-biencoder", {"synth", "build-graph", "gen-pairs", "train-docsim"}),
    ("evaluate", {"synth", "train-biencoder-sid", "train-biencoder-docsim+sid+get"})])
def test_strict_parses_each_producer_manifest_once(pipeline_run, tmp_path, monkeypatch, stage,
                                                   producers):
    """The runs of one stage share their producers' claims."""
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    parsed = Counter()
    read_json = cli.read_json

    def counted(path, *args):
        parsed[path.name] += 1
        return read_json(path, *args)

    monkeypatch.setattr(cli, "read_json", counted)
    assert cli.main([stage, "--config", str(cfg_path), "--out", str(out), "--strict"]) == 0
    assert {name: n for name, n in parsed.items() if name.startswith("manifest-")} == {
        f"manifest-{producer}.json": 1 for producer in producers}


@pytest.mark.parametrize("load, run, message", [
    (lambda r: None, lambda r, _: (r.read(*cli.PLANT_LIST), None),
     "late reads benchmark.json after its stage's load"),
    (lambda r: r.write("benchmark.json"), lambda r, _: ({}, None),
     "late writes benchmark.json in its stage's load"),
], ids=["read-in-the-run", "write-in-the-load"])
def test_a_read_after_the_load_raises(tmp_path, load, run, message):
    """Whatever a run reads, its stage's load reads first, and only a run writes."""
    stage = cli.Stage("late", load, run)
    with pytest.raises(RuntimeError, match=message):
        cli._run(stage, cli._runs(stage, cli.RunConfig({}), tmp_path, False, {}))
    assert list(tmp_path.iterdir()) == []


def test_evaluate_lets_each_encoder_go_once_it_has_run(pipeline_run, tmp_path, monkeypatch):
    """A stage drops each run's loaded value once the run has run, so while evaluate scores
    an ablation's encoder, every encoder it scored before, and the corpus vectors held for
    it, has been collected."""
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    scored, alive = [], []

    def evaluate_run(p, bench):
        alive.append([ref() is not None for ref in scored])
        scored.append(weakref.ref(p))
        return real(p, bench)

    real = ir_eval.evaluate_run
    monkeypatch.setattr(ir_eval, "evaluate_run", evaluate_run)
    assert cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert alive == [[False] * i for i in range(len(TINY_CONFIG["ablations"]))]


@pytest.mark.parametrize("name", ["encoders/docsim.gemb", "encoders/docsim.json"])
def test_train_biencoder_strict_hashes_docsim_encoder(pipeline_run, tmp_path, caplog, name):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "tampered"
    shutil.copytree(out1, out)
    args = ["train-biencoder", "--config", str(cfg_path), "--out", str(out), "--strict"]
    assert cli.main(args) == 0
    path = out / name
    path.write_bytes(path.read_bytes() + b" ")  # still valid JSON for docsim.json
    message = fails(caplog, args)
    assert f"provenance hash mismatch for {name}" in message


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
def test_train_biencoder_exits_3_on_missing_docsim_encoder(pipeline_run, tmp_path, caplog,
                                                            strict):
    """An ablation with ``"docsim": true`` declares the docsim encoder as a read, so a deleted
    one exits 3, and every ablation's reads are checked before the first writes."""
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    path = out / "encoders" / "docsim.gemb"
    path.unlink()
    written = [*out.glob("ablations/**/*.*"), *out.glob("manifest-train-biencoder-*")]
    for p in written:
        p.write_bytes(b"stale")  # a run of any ablation would overwrite it
    args = ["train-biencoder", "--config", str(cfg_path), "--out", str(out)] + ["--strict"] * strict
    assert fails(caplog, args) == f"{path} not found: run train-docsim first"
    assert len(written) == 6 and all(p.read_bytes() == b"stale" for p in written)


def test_exit_2_on_ablation_without_positive_pairs(pipeline_run, tmp_path, caplog):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    (out / "sid.jsonl").write_bytes(b"")
    message = fails(caplog, ["train-biencoder", "--config", str(cfg_path), "--out", str(out)],
                    code=2)
    assert message == f"ablation 'sid' has no positive pairs to train on in {out / 'sid.jsonl'}"


def test_exit_2_on_training_plant_without_edges(pipeline_run, tmp_path, caplog):
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    (out / "graphs" / "X" / "edges.jsonl").write_bytes(b"")
    message = fails(caplog, ["train-ge", "--config", str(cfg_path), "--out", str(out)], code=2)
    assert message == ("plant 'X' has 0 edges, and graph_embed.lp_test_fraction 0.05 leaves 0 "
                       "test and 0 training edges; each needs at least one")


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """TINY_CONFIG through one ``cli.main`` call per stage; returns the run directory and, per
    stage, the files it created or rewrote (every file's mtime is zeroed before each stage)
    and the outputs its manifests list, both without manifests and timings.json."""
    root = tmp_path_factory.mktemp("staged")
    cfg_path, out = root / "cfg.json", root / "run"
    cfg_path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    cfg = cli.load_run_config(str(cfg_path), None)
    wrote, listed = {}, {}
    for row in cli.TABLE:
        for path in out.rglob("*"):
            os.utime(path, ns=(0, 0))
        assert cli.main([row.name, "--config", str(cfg_path), "--out", str(out)]) == 0
        manifests = [cli._manifest_path(out, run.id) for run in cli._runs(row, cfg, out, False, {})]
        wrote[row.name] = {str(p.relative_to(out)) for p in out.rglob("*")
                           if p.is_file() and p.stat().st_mtime_ns
                           and p not in manifests and p.name != "timings.json"}
        listed[row.name] = {name for m in manifests
                            for name in json.loads(m.read_text(encoding="utf-8"))["outputs"]}
    return out, wrote, listed


def test_manifests_list_exactly_what_each_stage_wrote(staged_run):
    _, wrote, listed = staged_run
    assert all(wrote.values())
    assert wrote == listed


def test_stages_one_by_one_write_what_pipeline_writes(staged_run, pipeline_run):
    """The stage commands and ``pipeline`` share one kind of job per stage, so they write the
    same files with the same bytes; only ``pipeline`` combines the ablations' reports."""
    out, *_ = staged_run
    _, out1, *_ = pipeline_run
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    files1 = {str(p.relative_to(out1)) for p in out1.rglob("*") if p.is_file()}
    assert files == files1 - {"report.json", "report.txt"}
    assert [name for name in sorted(files) if name != "timings.json"
            and (out / name).read_bytes() != (out1 / name).read_bytes()] == []


def test_synth_failure_writes_nothing(tmp_path):
    """Every plant is generated and checked before the first file is written."""
    cfg_path = tmp_path / "cfg.json"
    plant = MICRO_CONFIG["plants"][0]
    starved = {"plant_id": "N", "n_fl": 4, "n_logs": 1, "n_queries": 2}  # too few logs
    cfg_path.write_text(json.dumps({"plants": [plant, starved]}), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


TWO_PLANTS = {"seed": 3, "plants": [MICRO_CONFIG["plants"][0],
                                    {**MICRO_CONFIG["plants"][0], "plant_id": "N"}],
              "graph_embed": {"epochs": 2, "lp_test_fraction": 0.1}}


@pytest.fixture(scope="module")
def two_plant_graphs(tmp_path_factory):
    """TWO_PLANTS, two training plants, through build-graph."""
    root = tmp_path_factory.mktemp("two")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TWO_PLANTS), encoding="utf-8")
    for stage in ("synth", "build-graph"):
        assert cli.main([stage, "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return root / "run"


@pytest.fixture(scope="module")
def hooked_graph_chain(tmp_path_factory):
    """TWO_PLANTS from synth through sample-triplets, one ``cli.main`` call per stage, with the
    kg functions that the benchmark's tracer wraps by name replaced by counting wrappers, and
    every KnowledgeGraph recorded with its stage as it is built; returns the run directory,
    the calls per stage and function, and the graphs."""
    root = tmp_path_factory.mktemp("hooked")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TWO_PLANTS), encoding="utf-8")
    args = ["--config", str(cfg_path), "--out", str(root / "run")]
    assert cli.main(["synth", *args]) == 0
    calls, graphs = Counter(), []
    init = kg.KnowledgeGraph.__init__

    def recording_init(self, nodes, edges):
        init(self, nodes, edges)
        graphs.append((stage, self))

    def counting(name, fn):
        def wrapper(*a, **kw):
            calls[stage, name] += 1
            return fn(*a, **kw)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kg.KnowledgeGraph, "__init__", recording_init)
        for name in ("load_graph", "predict_links", "expand_context"):
            mp.setattr(kg, name, counting(name, getattr(kg, name)))
        for stage in ("build-graph", "train-ge", "sample-triplets"):
            assert cli.main([stage, *args]) == 0
    return root / "run", calls, graphs


def test_graph_stages_call_the_traced_kg_functions(hooked_graph_chain):
    _, calls, _ = hooked_graph_chain
    assert calls == {("build-graph", "load_graph"): 2, ("build-graph", "predict_links"): 2,
                     ("build-graph", "expand_context"): 2,
                     ("train-ge", "load_graph"): 2, ("sample-triplets", "load_graph"): 2}


def test_graph_stages_build_only_graphs_that_pass_the_checks(hooked_graph_chain):
    _, _, graphs = hooked_graph_chain
    # per plant, besides the graph it loads, build-graph builds the filtered, the enriched
    # (one of the two link-prediction steps adds edges on these plants) and the expanded
    # graph, and the copy in file order that it writes and keeps, and train-ge builds the
    # training subgraph
    assert Counter(stage for stage, _ in graphs) == {
        "build-graph": 2 * 5, "train-ge": 2 * 2, "sample-triplets": 2}
    for _, g in graphs:
        assert_checked(g)


def _scaled(path, factor):
    write_matrix(path, read_matrix(path) * factor)


# case -> (damage to the last plant's text vectors, graph_embed settings, exit code, error
# line start)
GE_FAILURES = {
    # a node without a text vector
    "text-vector-gap": (lambda p: p.with_suffix(".ids").write_bytes(
        _repeated_id(p.with_suffix(".ids").read_bytes())), {}, 3,
        "{out}/plants/N/vectors.ids: "),
    # vectors near 1e-30 take steps near 1e330 = inf, in the one epoch's last step
    "non-finite": (lambda p: _scaled(p, 1e-30), {"learning_rate": 1e300, "epochs": 1}, 4,
                   "numerical failure: plant 'N': non-finite node vectors after training"),
    # steps near 1e300 leave finite rows whose norms overflow, so the next epoch scores NaN
    "non-finite-scores": (lambda p: None, {"learning_rate": 1e300}, 4,
                          "numerical failure: plant 'M': non-finite edge scores in epoch 1"),
    # steps near 1e50 overflow the float32 that tables are stored in
    "float32-overflow": (lambda p: None, {"learning_rate": 1e50}, 4,
                         "numerical failure: plant 'M': trained node vectors overflow float32"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the overflow provoked here
@pytest.mark.parametrize("case", sorted(GE_FAILURES))
def test_train_ge_failure_writes_nothing(two_plant_graphs, tmp_path, caplog, case):
    """Every plant is trained and checked before the first ge/ file is written."""
    damage, settings, code, start = GE_FAILURES[case]
    out = tmp_path / "run"
    shutil.copytree(two_plant_graphs, out)
    damage(out / "plants" / "N" / "vectors.gemb")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TWO_PLANTS, "graph_embed": {
        **TWO_PLANTS["graph_embed"], **settings}}), encoding="utf-8")
    message = fails(caplog, ["train-ge", "--config", str(cfg_path), "--out", str(out)], code)
    assert message.startswith(start.format(out=out)), message
    assert not (out / "ge").exists()


# case -> (config section, setting, value, the run that overflows, the directory it writes)
ENCODER_OVERFLOWS = {
    "docsim-learning-rate": ("docsim", "learning_rate", 1e41, "train-docsim", "encoders"),
    "biencoder-learning-rate": ("biencoder", "learning_rate", 1e40, "train-biencoder:sid",
                                "ablations/sid"),
    "biencoder-similarity-scale": ("biencoder", "similarity_scale", 1e308,
                                   "train-biencoder:sid", "ablations/sid"),
}


@pytest.mark.parametrize("case", sorted(ENCODER_OVERFLOWS))
def test_encoder_overflow_writes_nothing(pipeline_run, tmp_path, caplog, case):
    """Trained encoder rows that are finite but overflow the float32 they are stored in exit 4
    with a line naming the run, before the run writes."""
    section, key, value, run_id, written = ENCODER_OVERFLOWS[case]
    cfg_path, out1, *_ = pipeline_run
    out = tmp_path / "run"
    shutil.copytree(out1, out)
    shutil.rmtree(out / written)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    config = json.loads(cfg_path.read_text(encoding="utf-8"))
    config[section] = {**config[section], key: value}
    overflow_cfg = tmp_path / "cfg.json"
    overflow_cfg.write_text(json.dumps(config), encoding="utf-8")
    message = fails(caplog, [run_id.split(":")[0], "--config", str(overflow_cfg),
                             "--out", str(out)], 4)
    assert message == f"numerical failure: {run_id}: trained encoder rows overflow float32"
    assert not (out / written).exists()
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_train_ge_without_a_training_plant(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plants": [{**MICRO_CONFIG["plants"][0], "training": False}]}),
                        encoding="utf-8")
    for stage in ("synth", "build-graph", "train-ge"):
        assert cli.main([stage, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert not (tmp_path / "o" / "ge").exists()


def test_seed_override_changes_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MICRO_CONFIG), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out_b), "--seed", "5"]) == 0
    a = (out_a / "plants" / "M" / "nodes.jsonl").read_bytes()
    b = (out_b / "plants" / "M" / "nodes.jsonl").read_bytes()
    assert a != b


def test_main_calls_parse_independently(tmp_path, monkeypatch):
    """``main`` builds its parser once, and a flag or stage of one call leaks into no later
    call."""
    calls = []
    for stage in ("synth", "build-graph"):
        monkeypatch.setitem(cli.STAGES, stage, lambda cfg, out, strict, stage=stage:
                            calls.append((stage, cfg.seed, out, strict)))
    assert cli.main(["synth", "--seed", "5", "--out", str(tmp_path / "a"), "--strict"]) == 0
    assert cli.main(["build-graph"]) == 0
    assert cli.main(["synth", "--out", str(tmp_path / "b")]) == 0
    seed = cli.DEFAULT_RUN_CONFIG["seed"]
    assert calls == [("synth", 5, tmp_path / "a", True),
                     ("build-graph", seed, Path("runs/out"), False),
                     ("synth", seed, tmp_path / "b", False)]
    assert cli.build_parser() is cli.build_parser()


UNSAFE_NAMES = {"empty": "", "dot": ".", "dotdot": "..", "slash": "X/1", "backslash": "X\\1",
                "escape": "../../esc"}


@pytest.mark.parametrize("config", [
    *(dict(MICRO_CONFIG, plants=[dict(MICRO_CONFIG["plants"][0], plant_id=name)])
      for name in UNSAFE_NAMES.values()),
    dict(MICRO_CONFIG, plants=MICRO_CONFIG["plants"] * 2),
    *(dict(MICRO_CONFIG, ablations=[{"name": name}]) for name in UNSAFE_NAMES.values()),
    dict(MICRO_CONFIG, ablations=[{"name": "s"}, {"name": "s", "docsim": False}]),
    dict(MICRO_CONFIG, ablations=[{"name": "a:b"}, {"name": "a-b", "docsim": False}]),
], ids=[*(f"plant-{case}" for case in UNSAFE_NAMES), "plant-repeated",
        *(f"ablation-{case}" for case in UNSAFE_NAMES), "ablation-repeated",
        "ablation-same-manifest"])
def test_exit_2_on_unsafe_or_repeated_name(tmp_path, caplog, config):
    """Plant ids and ablation names become path parts under --out, so each must be one, and
    ``a:b`` and ``a-b`` would write the same manifest files."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o"
    fails(caplog, ["synth", "--config", str(cfg_path), "--out", str(out)], code=2)
    assert list(tmp_path.iterdir()) == [cfg_path]  # --out, or a path beside it, never made


@pytest.mark.parametrize("config, key, where", [
    ({"nope": 1}, "nope", "config"),
    # each of these restated another setting, which is now its one source
    ({"plants": [dict(MICRO_CONFIG["plants"][0], vec_dim=64)]}, "vec_dim", "config.plants[0]"),
    *(({"composition": {key: True}}, key, "config.composition")
      for key in ("use_get", "use_sid", "use_drmm")),
    ({"quality": {"scorer_scale": 10.0}}, "scorer_scale", "config.quality"),
], ids=["nope", "plant-vec-dim", "composition-use-get", "composition-use-sid",
        "composition-use-drmm", "quality-scorer-scale"])
def test_exit_2_on_unknown_config_key(tmp_path, caplog, config, key, where):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MICRO_CONFIG, **config}), encoding="utf-8")
    out = tmp_path / "o"
    assert fails(caplog, ["pipeline", "--config", str(cfg_path), "--out", str(out)],
                 code=2) == f"unknown key {key!r} in {where}"
    assert not out.exists()


def test_exit_2_on_invalid_json(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{", encoding="utf-8")
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_exit_2_on_bad_stage_config(tmp_path, caplog):
    """The whole config is checked at load, so a bad sampling section stops synth too."""
    cfg_path = tmp_path / "cfg.json"
    bad = dict(MICRO_CONFIG, sampling={"k_pos": 10, "k_hard": 10})
    cfg_path.write_text(json.dumps(bad), encoding="utf-8")
    out = tmp_path / "o"
    for stage in ("synth", "sample-triplets"):
        message = fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)], code=2)
        assert message == "config.sampling: positive band overlaps hard-negative band"
    assert not out.exists()


# case -> (the config over MICRO_CONFIG, the key path its error line names)
MISTYPED = {
    "docsim-epochs-float": ({"docsim": {"epochs": 3.0}}, "config.docsim.epochs"),
    "docsim-batch-size-string": ({"docsim": {"batch_size": "16"}}, "config.docsim.batch_size"),
    "biencoder-epochs-float": ({"biencoder": {"epochs": 5.0}}, "config.biencoder.epochs"),
    "biencoder-epochs-bool": ({"biencoder": {"epochs": True}}, "config.biencoder.epochs"),
    "encoder-dim-null": ({"encoder": {"dim": None}}, "config.encoder.dim"),
    "quality-t-pos-null": ({"quality": {"t_pos": None}}, "config.quality.t_pos"),
    "graph-embed-epochs-null": ({"graph_embed": {"epochs": None}}, "config.graph_embed.epochs"),
    "graph-embed-not-an-object": ({"graph_embed": 5}, "config.graph_embed"),
    "sampling-k-pos-null": ({"sampling": {"k_pos": None}}, "config.sampling.k_pos"),
    "plant-n-fl-float": ({"plants": [dict(MICRO_CONFIG["plants"][0], n_fl=20.5)]},
                         "config.plants[0].n_fl"),
    "plant-jargon-pair-of-one": ({"plants": [dict(MICRO_CONFIG["plants"][0],
                                                  jargon_pairs=[["lömi"]])]},
                                 "config.plants[0].jargon_pairs[0]"),
    "enrich-string": ({"enrich": "no"}, "config.enrich"),
    "composition-drmm-corpus-number": ({"composition": {"drmm_corpus": 5}},
                                       "config.composition.drmm_corpus"),
    "ablation-docsim-string": ({"ablations": [{"name": "a", "docsim": "no"}]},
                               "config.ablations[0].docsim"),
    "ablation-use-get-string": ({"ablations": [{"name": "a", "use_get": "no"}]},
                                "config.ablations[0].use_get"),
    "seed-float": ({"seed": 7.9}, "config.seed"),
    "quality-t-margin-nan": ({"quality": {"t_margin": float("nan")}},
                             "config.quality.t_margin"),
    "graph-embed-learning-rate-infinity": ({"graph_embed": {"learning_rate": float("inf")}},
                                           "config.graph_embed.learning_rate"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_exit_2_on_mistyped_config_value(tmp_path, caplog, case):
    """Every value must have the JSON kind of its default, checked before any stage runs."""
    override, key_path = MISTYPED[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MICRO_CONFIG, **override}), encoding="utf-8")
    out = tmp_path / "o"
    message = fails(caplog, ["pipeline", "--config", str(cfg_path), "--out", str(out)], code=2)
    assert message.startswith(f"{key_path} must be ")
    assert not out.exists()


@pytest.mark.parametrize("quality, message", [
    ({"query_terms": 0}, "config.quality.query_terms must be >= 1, got 0"),
    ({"query_terms": -2}, "config.quality.query_terms must be >= 1, got -2"),
])
def test_exit_2_on_quality_out_of_range(tmp_path, caplog, quality, message):
    """A query needs a term, which is checked at load."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MICRO_CONFIG, "quality": quality}), encoding="utf-8")
    out = tmp_path / "o"
    assert fails(caplog, ["pipeline", "--config", str(cfg_path), "--out", str(out)],
                 code=2) == message
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ({"plants": []}, "config.plants is empty"),
    ({"ablations": []}, "config.ablations is empty"),
    ({"encoder": {"vocab_buckets": 0}},
     "config.encoder: vocab_buckets must be in [1, 16777216], got 0"),
    ({"encoder": {"vocab_buckets": (1 << 24) + 1}},
     "config.encoder: vocab_buckets must be in [1, 16777216], got 16777217"),
    ({"plants": [dict(MICRO_CONFIG["plants"][0], seed=-3)]},
     "config.plants[0]: seed must be >= 0, got -3"),
], ids=["plants-empty", "ablations-empty", "vocab-buckets-0", "vocab-buckets-past-the-bound",
        "plant-seed-negative"])
def test_exit_2_on_empty_list_or_table_size_out_of_range(tmp_path, caplog, override, message):
    """Checked at load, so ``pipeline`` and the per-ablation stages stop before they write."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MICRO_CONFIG, **override}), encoding="utf-8")
    out = tmp_path / "o"
    for stage in ("pipeline", "train-biencoder", "evaluate"):
        assert fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)],
                     code=2) == message
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("stage", ["synth", "pipeline"])
def test_exit_2_on_out_not_a_directory(tmp_path, caplog, stage, below):
    """An --out that is, or lies under, an existing file stops before any stage runs."""
    cfg_path, blocker = tmp_path / "cfg.json", tmp_path / "file"
    cfg_path.write_text(json.dumps(MICRO_CONFIG), encoding="utf-8")
    blocker.write_bytes(b"kept\n")
    out = blocker / "sub" if below else blocker
    assert fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)],
                 code=2) == f"--out {out}: {blocker} is not a directory"
    assert sorted(tmp_path.iterdir()) == [cfg_path, blocker]
    assert blocker.read_bytes() == b"kept\n"


def test_integer_runs_where_the_default_is_a_float(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    docsim = dict(TINY_CONFIG["docsim"], learning_rate=1)
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, docsim=docsim)), encoding="utf-8")
    out = tmp_path / "o"
    for stage in ("synth", "build-graph", "train-ge", "sample-triplets", "train-docsim"):
        assert cli.main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest-train-docsim.json").read_text(encoding="utf-8"))
    assert manifest["config"]["learning_rate"] == 1


def test_exit_3_on_missing_config_file(tmp_path):
    assert cli.main(["synth", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 3


def test_exit_3_on_config_directory(tmp_path, caplog):
    config = tmp_path / "cfg"
    config.mkdir()
    out = tmp_path / "o"
    message = fails(caplog, ["synth", "--config", str(config), "--out", str(out)])
    assert message.startswith(f"{config}: ")
    assert not out.exists()


@pytest.mark.parametrize("stage, name", [("synth", "timings.json"),
                                         ("synth", "manifest-synth.json"),
                                         ("build-graph", "graphs/M/nodes.jsonl")])
def test_exit_3_on_a_directory_the_runner_opens(tmp_path, caplog, stage, name):
    """A directory where a stage reads timings.json or writes a file exits 3 with one line
    that starts with its path."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg_path.write_text(json.dumps(MICRO_CONFIG), encoding="utf-8")
    if stage != "synth":
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    (out / name).mkdir(parents=True)
    assert fails(caplog, [stage, "--config", str(cfg_path), "--out", str(out)]).startswith(
        f"{out / name}: ")


def test_exit_3_on_a_file_where_a_directory_goes(tmp_path, caplog):
    """A file where build-graph makes its graphs directory exits 3 with one line that starts
    with the path it could not make under that file."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg_path.write_text(json.dumps(MICRO_CONFIG), encoding="utf-8")
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    (out / "graphs").write_text("not a directory\n", encoding="utf-8")
    assert fails(caplog, ["build-graph", "--config", str(cfg_path), "--out", str(out)]).startswith(
        f"{out / 'graphs' / 'M'}: ")


def test_exit_2_on_config_not_utf8(tmp_path, caplog):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"seed": "\xff"}')
    message = fails(caplog, ["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                    code=2)
    assert message.startswith(f"{cfg_path}: ")


def test_exit_3_on_missing_dependency(tmp_path, caplog):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MICRO_CONFIG), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    with caplog.at_level("ERROR", logger="plantsearch.cli"):
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 3
    assert "run train-biencoder first" in caplog.text


def test_exit_4_on_numerical_failure(tmp_path, monkeypatch):
    def blow_up(cfg, out_dir, strict=False):
        raise NonFiniteError("loss became non-finite")

    monkeypatch.setitem(cli.STAGES, "synth", blow_up)
    assert cli.main(["synth", "--out", str(tmp_path / "o")]) == 4
