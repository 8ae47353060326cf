"""Golden digests: the sha256 of every file but ``timings.json`` that two pipeline runs write.

``golden_digests.json`` holds the digests of the ``pipeline_run`` tree (TINY_CONFIG) and of a
BLAS_CONFIG tree (both in ``test_cli.py``), and a stamp of the Python, numpy and OpenBLAS they
were written under. OpenBLAS picks its kernels by CPU, so the digests hold only under their
stamp. ``test_cli.py::test_outputs_match_the_golden_digests`` checks both trees against them.

A change that moves an output on purpose writes the file again, from the repository root::

    PYTHONPATH=src python tests/golden_digests.py

and names each moved file, and why it moved, in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_digests.json")


def openblas() -> dict:
    """The library file and config (version and core) of the OpenBLAS that numpy loaded, read
    as ``perfbench/run.py`` reads them for its environment stamp; empty when there is none."""
    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted((site / "numpy.libs").glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(dll, f"{prefix}get_config{suffix}", None)
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    return {"library": lib.name, "config": get_config().decode()}
    return {}


def stamp() -> dict:
    """What the digests hold for: the Python and numpy versions and the OpenBLAS runtime."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas()}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    """The sha256 of each file, by its path under the run's output directory."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


def moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Every file whose digest differs, or that only one side has."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def main() -> None:
    from test_cli import BLAS_CONFIG, TINY_CONFIG, _pipeline_files

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: digests(_pipeline_files(cfg, Path(tmp) / name))
                for name, cfg in (("tiny", TINY_CONFIG), ("blas", BLAS_CONFIG))}
    GOLDEN.write_text(json.dumps({"stamp": stamp(), "runs": runs}, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {sum(map(len, runs.values()))} files under {stamp()}")


if __name__ == "__main__":
    main()
