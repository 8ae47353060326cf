import struct

import numpy as np
import pytest

from plantsearch.storage import (
    CorruptFileError,
    EmbeddingFileError,
    derive_seed,
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
