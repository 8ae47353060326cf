"""On-disk formats shared across the pipeline.

Embedding matrices use a small binary container: a 16-byte header
(magic ``GEMB``, u32 version, u32 rows, u32 dim, little-endian)
followed by rows x dim float32 values. A table is the pair
``<stem>.gemb`` + ``<stem>.ids``, the second a line-JSON sidecar mapping
row -> id. Tables live in float64 while they train and are rounded to
float32 once when written: ``read_matrix`` returns those float32 values
as float64, so a docsim encoder starts the bi-encoder stage rounded, and
a table read back writes the same bytes again.

Every reader here reports a file it cannot parse as a CorruptFileError
whose message starts with the file's path (and ``:<line>`` for line
formats).
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

MAGIC = b"GEMB"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


class CorruptFileError(ValueError):
    """A corrupt artifact; the message names the file."""


class EmbeddingFileError(CorruptFileError):
    """Corrupt or truncated embedding file."""


def write_matrix(path: str | Path, matrix: np.ndarray) -> np.ndarray:
    """Write ``matrix`` rounded to float32; returns it as ``read_matrix`` reads it back."""
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, m.shape[0], m.shape[1]))
        fh.write(memoryview(m))  # the array's own bytes, no second copy
    return m.astype(np.float64)


def read_matrix(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise EmbeddingFileError(f"{path}: truncated header")
        magic, version, rows, dim = _HEADER.unpack(header)
        if magic != MAGIC:
            raise EmbeddingFileError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise EmbeddingFileError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = rows * dim * 4
    if len(payload) != expected:
        raise EmbeddingFileError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    matrix = np.frombuffer(payload, dtype="<f4").reshape(rows, dim).astype(np.float64)
    if not np.isfinite(matrix).all():
        raise EmbeddingFileError(f"{path}: payload holds non-finite values")
    return matrix


def field(rec: dict, key: str, kind: type) -> Any:
    """``rec[key]``, which must be exactly a ``kind``: a string field a ``str``, an
    integer field an ``int`` that is not a ``bool``. Record parsers check their fields
    with it instead of casting, so a wrong type raises TypeError (a missing key
    KeyError), which ``read_json_lines`` reports as ``<path>:<line>: ...``."""
    value = rec[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return value


def write_ids(path: str | Path, ids: Sequence[str]) -> None:
    write_json_lines(path, ({"row": row, "id": node_id} for row, node_id in enumerate(ids)),
                     ensure_ascii=True)


def read_ids(path: str | Path) -> list[str]:
    ids: dict[int, str] = {}
    rows = read_json_lines(path, lambda rec: (field(rec, "row", int), field(rec, "id", str)),
                           "ids line is not a record with an integer row and a string id")
    for row, node_id in rows:
        if row in ids:
            raise EmbeddingFileError(f"{path}: row {row} appears twice")
        ids[row] = node_id
    if sorted(ids) != list(range(len(ids))):
        raise EmbeddingFileError(f"{path}: non-contiguous row numbering")
    return [ids[i] for i in range(len(ids))]


def write_table(stem: str | Path, ids: Sequence[str], matrix: np.ndarray) -> np.ndarray:
    """Write the table pair: the matrix to ``<stem>.gemb``, its row ids to ``<stem>.ids``.
    Returns the matrix as ``read_table`` reads it back."""
    read_back = write_matrix(f"{stem}.gemb", matrix)
    write_ids(f"{stem}.ids", ids)
    return read_back


def read_table(stem: str | Path) -> tuple[list[str], np.ndarray]:
    """The row ids and the matrix of the table pair at ``stem``, which must agree in length."""
    matrix = read_matrix(f"{stem}.gemb")
    ids = read_ids(f"{stem}.ids")
    if len(ids) != matrix.shape[0]:
        raise EmbeddingFileError(f"{stem}.ids: {len(ids)} ids for {matrix.shape[0]} matrix rows")
    return ids, matrix


# One encoder per escaping rule: json.dumps(rec, sort_keys=True) builds a new encoder per call.
_ENCODERS = {ensure_ascii: json.JSONEncoder(ensure_ascii=ensure_ascii, sort_keys=True)
             for ensure_ascii in (False, True)}
_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads skips around a document


def _record_encoder(ensure_ascii: bool) -> Callable[[dict], str]:
    """``json.dumps(rec, sort_keys=True, ensure_ascii=ensure_ascii)`` as one function.

    ``JSONEncoder.encode`` builds a C encoder on every call; this builds one, with the
    arguments ``JSONEncoder.iterencode`` passes, and falls back to ``encode`` when the C
    accelerator is absent. Its circular-reference markers are emptied by every encode that
    succeeds, so one encoder serves a whole file.
    """
    enc = _ENCODERS[ensure_ascii]
    if json.encoder.c_make_encoder is None:
        return enc.encode
    make = json.encoder.c_make_encoder(
        {}, enc.default,
        json.encoder.encode_basestring_ascii if ensure_ascii else json.encoder.encode_basestring,
        enc.indent, enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys,
        enc.allow_nan)
    return lambda rec: "".join(make(rec, 0))


def write_json_lines(path: str | Path, records: Iterable[dict], ensure_ascii: bool = False) -> None:
    """One line of sorted-key JSON per record, written at once. Non-ASCII characters are
    written as they are, or as ``\\uXXXX`` escapes under ``ensure_ascii``."""
    encode = _record_encoder(ensure_ascii)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([f"{encode(rec)}\n" for rec in records]))


def read_json_lines(
    path: str | Path,
    parse: Callable[[dict], Any] = dict,
    what: str = "line is not a JSON object",
) -> list:
    """``parse`` of each non-blank line's JSON object, in file order.

    Lines end at ``\\n``; a line of ASCII whitespace only is blank. A line
    that is not UTF-8, not a JSON object, or that ``parse`` rejects with a
    KeyError, TypeError or ValueError raises CorruptFileError
    ``"<path>:<line>: <what>"`` for the first such line.

    A file is first decoded once and read in one JSON decode
    (:func:`_objects_at_once`). Any file that read rejects, or whose records
    ``parse`` rejects, is read again line by line, the only path that names a line.
    """
    try:
        return [parse(obj) for obj in _objects_at_once(path)]
    except (KeyError, TypeError, ValueError):
        pass
    with open(path, "rb") as fh:
        data = fh.read()
    out = []
    for line_no, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            out.append(_parse_object(line, parse))
        except (KeyError, TypeError, ValueError):
            raise CorruptFileError(f"{path}:{line_no}: {what}") from None
    return out


# Separator values for _objects_at_once: each has exactly one JSON spelling.
_SEPARATORS = {"null": None, "true": True, "false": False}


def _objects_at_once(path: str | Path) -> list[dict]:
    """The JSON object of each line of the file, parsed in one decode, or ValueError
    where the per-line reading might differ.

    The lines, joined by a separator value whose JSON text the file does not contain,
    are decoded as one array. The file is taken only if that array alternates object,
    separator, object, ... with one object per line. Then every inserted separator is
    a top-level element, so each line holds exactly one object between JSON
    whitespace, as the per-line reading requires. A blank line other than the final
    newline, a split or doubled object, or a string left open at a line's end breaks
    the alternation or the count. The file's bytes, its text, its lines and the
    joined text are dropped as soon as the next one is made.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    sep = next((s for s in _SEPARATORS if s not in text), None)
    if sep is None:
        raise ValueError("the file holds every separator's JSON text")
    lines = text.split("\n")
    del text
    if not lines[-1]:
        lines.pop()  # the file's final newline
    if not lines:
        return []
    lines[0] = "[" + lines[0]
    lines[-1] += "]"
    n, text = len(lines), f",{sep},".join(lines)
    del lines
    values = _DECODER.decode(text)
    del text
    objects, value = values[::2], _SEPARATORS[sep]
    if not (len(values) == 2 * n - 1
            and all(type(obj) is dict for obj in objects)
            and all(s is value for s in values[1::2])):
        raise ValueError("not one JSON object per line")
    return objects


def read_json(
    path: str | Path,
    parse: Callable[[dict], Any] = dict,
    what: str = "file is not a JSON object",
) -> Any:
    """``parse`` of the file's JSON object.

    A file that is not UTF-8, not a JSON object, or that ``parse`` rejects
    with a KeyError, TypeError or ValueError raises CorruptFileError
    ``"<path>: <what>"``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_object(data, parse)
    except (KeyError, TypeError, ValueError):
        raise CorruptFileError(f"{path}: {what}") from None


def _parse_object(data: bytes, parse: Callable[[dict], Any]) -> Any:
    """``parse`` of the one JSON object in ``data``: what ``json.loads`` accepts, decoded in
    one ``raw_decode`` call."""
    text = data.decode("utf-8").strip(_JSON_SPACE)  # UnicodeDecodeError is a ValueError
    obj, end = _DECODER.raw_decode(text)
    if end != len(text):
        raise ValueError("extra data after the JSON value")
    if not isinstance(obj, dict):
        raise TypeError("not a JSON object")
    return parse(obj)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def derive_seed(seed: int, label: str) -> int:
    """Stable per-stage seed derived from a run seed and a stage label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
