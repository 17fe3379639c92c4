"""The package's export list names what it exports: a stale or repeated
entry in ``motifclust.__all__`` fails here, not in a user's import."""

import motifclust


def test_every_exported_name_exists():
    missing = [name for name in motifclust.__all__ if not hasattr(motifclust, name)]
    assert not missing, f"names in __all__ that the package lacks: {missing}"


def test_export_list_has_no_duplicates():
    assert len(set(motifclust.__all__)) == len(motifclust.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from motifclust import *", namespace)
    assert set(motifclust.__all__) <= namespace.keys()
