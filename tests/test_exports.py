"""The public names of the package and of ``cmcrank.nn`` all resolve, so a
deletion cannot leave a stale export behind."""
import cmcrank
import cmcrank.nn


def assert_exports_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_exported_name_resolves():
    assert_exports_resolve(cmcrank)


def test_every_nn_exported_name_resolves():
    assert_exports_resolve(cmcrank.nn)
