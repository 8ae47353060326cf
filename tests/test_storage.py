import struct

import numpy as np
import pytest

from oracles import oracle_read_json_lines
from plantsearch.kg import Edge, KnowledgeGraph, Node, NodeKind, Relation, save_graph
from plantsearch.storage import (
    CorruptFileError,
    EmbeddingFileError,
    derive_seed,
    field,
    read_ids,
    read_json,
    read_json_lines,
    read_matrix,
    read_table,
    sha256_file,
    write_ids,
    write_json_lines,
    write_matrix,
    write_table,
)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(7, 5))
    path = tmp_path / "m.gemb"
    write_matrix(path, matrix)
    back = read_matrix(path)
    assert back.shape == (7, 5)
    # float32 storage: round trip through the narrower dtype, not exact
    np.testing.assert_array_equal(back, matrix.astype(np.float32).astype(np.float64))


def test_matrix_header_layout(tmp_path):
    path = tmp_path / "m.gemb"
    write_matrix(path, np.zeros((3, 2)))
    blob = path.read_bytes()
    magic, version, rows, dim = struct.unpack("<4sIII", blob[:16])
    assert magic == b"GEMB"
    assert version == 1
    assert (rows, dim) == (3, 2)
    assert len(blob) == 16 + 3 * 2 * 4


def test_matrix_write_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_matrix(tmp_path / "m.gemb", np.array([[np.nan, 0.0]]))


def test_matrix_read_errors(tmp_path):
    path = tmp_path / "m.gemb"
    write_matrix(path, np.ones((2, 2)))
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.gemb"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(EmbeddingFileError):
        read_matrix(bad_magic)

    bad_version = tmp_path / "bad_version.gemb"
    bad_version.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
    with pytest.raises(EmbeddingFileError):
        read_matrix(bad_version)

    truncated = tmp_path / "trunc.gemb"
    truncated.write_bytes(blob[:-3])
    with pytest.raises(EmbeddingFileError):
        read_matrix(truncated)

    stub = tmp_path / "stub.gemb"
    stub.write_bytes(blob[:10])
    with pytest.raises(EmbeddingFileError):
        read_matrix(stub)


def test_ids_round_trip_unicode(tmp_path):
    ids = ["A:log:0001", "plant/β", "Lömi"]
    path = tmp_path / "x.ids"
    write_ids(path, ids)
    assert read_ids(path) == ids


def test_ids_reject_repeated_row(tmp_path):
    path = tmp_path / "x.ids"
    write_ids(path, ["a", "b", "c"])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"id": "z", "row": 1}\n')  # would silently relabel row 1
    with pytest.raises(EmbeddingFileError, match="row 1 appears twice"):
        read_ids(path)


def test_json_lines_round_trip(tmp_path):
    records = [{"b": 2, "a": "ä"}, {"a": None, "b": [1, 2]}]
    path = tmp_path / "x.jsonl"
    write_json_lines(path, records)
    assert read_json_lines(path) == records
    # keys are sorted and unicode unescaped on disk
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == '{"a": "ä", "b": 2}'


def test_writers_golden_bytes(tmp_path):
    g = KnowledgeGraph.from_parts(
        [Node("log:ä", NodeKind.TEXT_LOG, "Lager β läuft heiß", ts=7),
         Node("fl:β", NodeKind.FUNCTIONAL_LOCATION, "Kühlerstraße", code="KÄ-1")],
        [Edge("log:ä", "fl:β", Relation.REPORTS_ABOUT)])
    save_graph(g, tmp_path / "nodes.jsonl", tmp_path / "edges.jsonl")
    write_ids(tmp_path / "t.ids", ["log:ä", "fl:β"])
    write_json_lines(tmp_path / "x.jsonl", [{"q": "ä", "pos": "β"}, {"q": "β"}])
    write_json_lines(tmp_path / "empty.jsonl", [])
    # nodes and plain records keep their text as UTF-8; edges and ids escape it
    assert (tmp_path / "nodes.jsonl").read_bytes() == (
        '{"code": "KÄ-1", "id": "fl:β", "kind": "functional_location", "text": "Kühlerstraße"}\n'
        '{"id": "log:ä", "kind": "text_log", "text": "Lager β läuft heiß", "ts": 7}\n'
    ).encode("utf-8")
    assert (tmp_path / "edges.jsonl").read_bytes() == (
        b'{"dst": "fl:\\u03b2", "rel": "reports_about", "src": "log:\\u00e4"}\n')
    assert (tmp_path / "t.ids").read_bytes() == (
        b'{"id": "log:\\u00e4", "row": 0}\n{"id": "fl:\\u03b2", "row": 1}\n')
    assert (tmp_path / "x.jsonl").read_bytes() == '{"pos": "β", "q": "ä"}\n{"q": "β"}\n'.encode()
    assert (tmp_path / "empty.jsonl").read_bytes() == b""


WRITER_RECORDS = [
    {"text": "Lager β läuft heiß   \"zitiert\"\n\ttab", "id": "log:ä", "ts": 7},
    {"score": 0.1, "big": 1e300, "small": -2.5e-308, "neg": -0.0, "nan": float("nan"),
     "inf": float("inf"), "ninf": float("-inf"), "none": None, "flag": True},
    {"nested": [[1, 2.5, None], [], {"b": "ü", "a": [False, "x"]}], "empty": {}},
    {},
]


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("ensure_ascii", [False, True])
def test_json_lines_writer_equals_json_dumps(tmp_path, monkeypatch, ensure_ascii, accelerated):
    """Each line is ``json.dumps(rec, sort_keys=True, ensure_ascii=...)``, through the one C
    encoder built per file or, without the C accelerator, through ``JSONEncoder.encode``."""
    import json

    if not accelerated:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    path = tmp_path / "x.jsonl"
    write_json_lines(path, WRITER_RECORDS, ensure_ascii=ensure_ascii)
    assert path.read_text(encoding="utf-8").split("\n") == [
        json.dumps(rec, sort_keys=True, ensure_ascii=ensure_ascii) for rec in WRITER_RECORDS
    ] + [""]


# name -> file bytes that the reader and its per-line oracle must treat alike
READER_INPUTS = {
    "crlf": b'{"a": 1}\r\n{"a": 2}\r\n',
    "blank-and-whitespace-lines": b'\n{"a": 1}\n\n  \t\r\n\x0b\n\x0c\n \x0b\x0c \n{"a": 2}\n',
    "json-whitespace-around": b' \t{"a": 1}\t \r\n\r{"a": 2} \n',
    "vt-before-object": b'{"a": 1}\n\x0b{"a": 2}\n',
    "ff-after-object": b'{"a": 1}\x0c\n',
    "nbsp-after-object": '{"a": 1}\u00a0\n'.encode(),
    "utf8-bom": b'\xef\xbb\xbf{"a": 1}\n',
    "bom-after-space": b' \xef\xbb\xbf{"a": 1}\n',
    "two-objects-on-one-line": b'{"a": 1}\n{"a": 2}{"a": 3}\n',
    "two-objects-spaced": b'{"a": 1} {"a": 2}\n',
    "array": b'{"a": 1}\n[{"a": 2}]\n',
    "string": b'"a"\n',
    "number": b'{"a": 1}\n7\n',
    "bad-utf8-after-bad-json": b'{"a": 1}\n{"a": \n\xff{"a": 2}\n',
    "bad-utf8-inside-string": b'{"a": 1, "t": "\xc3"}\n',
    "no-final-newline": b'{"a": 1}\n{"a": 2}',
    "only-newlines": b"\n\n",
    "empty-file": b"",
    "non-ascii": '{"a": 1, "t": "ä β"}\n{"t": "\\u00e4", "a": 2}\n'.encode(),
    "parse-rejects-third-line": b'{"a": 1}\n{"a": 2}\n{"a": "3"}\n{"b": 4}\n',
    # The one-decode read's separator choice and its count and alternation checks: the
    # lines of most of these, joined around a separator, still decode as one array.
    "object-split-over-two-lines": b'{"a": 1}\n{"a": [1\n2]}\n',
    "split-object-balanced-by-two-on-a-line": b'{"a": [1\n2]}\n{"p": 1}, {"q": 2}\n',
    "separator-value-in-a-string": b'{"a": 1, "t": "null"}\n{"a": 2, "t": "true"}\n',
    "every-separator-value-in-strings": b'{"a": 1, "t": "null true false"}\n{"a": 2}\n',
    "separator-text-between-two-objects": b'{"a": 1}\nnull\n{"a": 2}\n',
    "separator-text-balances-a-split-object": b'{"a": [1\n2]}, null, {"a": 2}\n',
    "one-equal-to-the-true-separator": b'{"t": "null", "a": [1\n2]}, 1, {"a": 2}\n',
    "string-open-at-a-line-end": b'{"a": 1, "t": "x\ny"}\n{"a": 2}\n',
}


@pytest.mark.parametrize("name", sorted(READER_INPUTS))
@pytest.mark.parametrize("parse", [dict, lambda rec: field(rec, "a", int)], ids=["dict", "int-a"])
def test_read_json_lines_matches_the_per_line_oracle(tmp_path, name, parse):
    path = tmp_path / "x.jsonl"
    path.write_bytes(READER_INPUTS[name])

    def outcome(read):
        try:
            return read(path, parse, "bad line")
        except CorruptFileError as exc:
            return str(exc)

    assert outcome(read_json_lines) == outcome(oracle_read_json_lines)


def test_read_json_lines_reports_the_first_bad_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(READER_INPUTS["bad-utf8-after-bad-json"])
    with pytest.raises(CorruptFileError) as exc_info:
        read_json_lines(path, what="bad line")
    assert str(exc_info.value) == f"{path}:2: bad line"


def test_table_round_trip_and_row_count(tmp_path):
    stem = tmp_path / "t"
    write_table(stem, ["a", "b"], np.eye(2))
    ids, matrix = read_table(stem)
    assert ids == ["a", "b"]
    np.testing.assert_array_equal(matrix, np.eye(2))
    with open(f"{stem}.ids", "a", encoding="utf-8") as fh:
        fh.write('{"id": "c", "row": 2}\n')  # one contiguous row more than the matrix has
    with pytest.raises(EmbeddingFileError) as exc_info:
        read_table(stem)
    assert str(exc_info.value) == f"{stem}.ids: 3 ids for 2 matrix rows"


@pytest.mark.parametrize("blob", [b'{"a": 1', b"\xff{}", b"[1]", b'{"b": 1}', b'{"a": "x"}'],
                         ids=["truncated", "not-utf8", "not-an-object", "no-a", "a-not-int"])
def test_json_names_the_file(tmp_path, blob):
    path = tmp_path / "x.json"
    path.write_bytes(b'{"a": 1}\n')
    assert read_json(path, lambda obj: int(obj["a"])) == 1
    path.write_bytes(blob)
    with pytest.raises(CorruptFileError) as exc_info:
        read_json(path, lambda obj: int(obj["a"]), "not a record with an integer a")
    assert str(exc_info.value) == f"{path}: not a record with an integer a"


def test_sha256_file_known_value(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(7, "synth:A") == derive_seed(7, "synth:A")
    assert derive_seed(7, "synth:A") != derive_seed(7, "synth:B")
    assert derive_seed(7, "synth:A") != derive_seed(8, "synth:A")
    for label in ("a", "b", "c"):
        assert 0 <= derive_seed(123, label) < 2**64
