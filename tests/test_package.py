import plantsearch


def test_all_names_the_package_surface():
    names = plantsearch.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(plantsearch, n)] == []
    namespace = {}
    exec("from plantsearch import *", namespace)  # a star-import is module-level only
    assert set(names) <= set(namespace)
