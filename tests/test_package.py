import ast
from pathlib import Path

import plantsearch

ROOT = Path(__file__).resolve().parent.parent


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
