import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Mapping

import plantsearch
from plantsearch import cli

ROOT = Path(__file__).resolve().parent.parent


def test_python_dash_m_runs_the_cli():
    """``python -m plantsearch`` is the ``plantsearch`` command: its ``--help`` exits 0 and
    lists the stages."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "plantsearch", "--help"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: plantsearch ")
    assert all(name in done.stdout for name in cli.STAGES)


def test_all_names_the_package_surface():
    names = plantsearch.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(plantsearch, n)] == []
    namespace = {}
    exec("from plantsearch import *", namespace)  # a star-import is module-level only
    assert set(names) <= set(namespace)


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    """Each ``__all__`` name is used as code (a name or an attribute, not an import or a
    definition) by a package module or by the benchmark's workloads: a public form that
    neither reaches is one form too many."""
    sources = [p for p in sorted((ROOT / "src" / "plantsearch").glob("*.py"))
               if p.name != "__init__.py"] + [ROOT / "perfbench" / "workloads.py"]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(plantsearch.__all__) - used - {"__version__"}) == []


def test_readme_names_only_config_keys_that_exist():
    """The README's "Top-level sections:" sentence lists the run config's sections, in order,
    and each backticked ``<section>.<key>`` whose section is a config section names one of its
    keys, or an attribute of the ``plantsearch.<section>`` module (such as
    ``graph_embed.train_plant_embeddings``)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Top-level sections: (.*?)\.\s", readme, re.S)[1]
    assert re.findall(r"`(\w+)`", sentence) == list(cli.DEFAULT_RUN_CONFIG)
    stale = []
    for section, key in re.findall(r"`(\w+)\.(\w+)`", readme):
        if section not in cli.DEFAULT_RUN_CONFIG:
            continue
        default = cli.DEFAULT_RUN_CONFIG[section]
        try:
            module = importlib.import_module(f"plantsearch.{section}")
        except ModuleNotFoundError:
            module = None
        if not (isinstance(default, Mapping) and key in default or hasattr(module, key)):
            stale.append(f"{section}.{key}")
    assert stale == []


def test_readme_names_only_attributes_that_exist():
    """Each backticked ``<module>.<name>`` in the README whose module is ``plantsearch`` or
    one of its modules names an attribute of it, and each backticked ``<Class>.<name>``
    whose class a package module holds names an attribute or a dataclass field of the
    class; config sections are checked by the test above, and file names such as
    ``cli.py`` are no attributes."""
    package = ROOT / "src" / "plantsearch"
    modules = {path.stem: importlib.import_module(f"plantsearch.{path.stem}")
               for path in sorted(package.glob("*.py"))
               if path.stem not in ("__init__", "__main__")}
    modules["plantsearch"] = plantsearch
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__.startswith("plantsearch.")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stale = []
    for owner, name in re.findall(r"`(\w+)\.(\w+)`", readme):
        if owner in cli.DEFAULT_RUN_CONFIG or (package / f"{owner}.{name}").is_file():
            continue
        if owner in modules:
            found = hasattr(modules[owner], name)
        elif owner in classes:
            cls = classes[owner]
            found = hasattr(cls, name) or (dataclasses.is_dataclass(cls) and name in
                                           {f.name for f in dataclasses.fields(cls)})
        else:
            continue
        if not found:
            stale.append(f"{owner}.{name}")
    assert stale == []


def test_readme_lists_every_process_level_cache():
    """The README's "process-level caches that remain" sentence names, as backticked
    ``<module>.<name>`` items, exactly the ``functools.cache`` and ``functools.lru_cache``
    functions of the package."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"process-level caches that remain are (.*?)\.\s", readme, re.S)[1]
    cached = set()
    for path in sorted((ROOT / "src" / "plantsearch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                fn = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in ("cache", "lru_cache"):
                    cached.add(f"{path.stem}.{node.name}")
    assert set(map(".".join, re.findall(r"`(\w+)\.(\w+)`", sentence))) == cached
