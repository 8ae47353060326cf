import struct

import numpy as np
import pytest

from plantsearch.storage import (
    EmbeddingFileError,
    derive_seed,
    read_ids,
    read_json_lines,
    read_matrix,
    sha256_file,
    write_ids,
    write_json_lines,
    write_matrix,
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
