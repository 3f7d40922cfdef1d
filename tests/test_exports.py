"""The package's public names all resolve, so a deletion cannot leave a
stale export behind."""
import cmcrank


def test_every_exported_name_resolves():
    missing = [name for name in cmcrank.__all__ if not hasattr(cmcrank, name)]
    assert not missing, f"cmcrank.__all__ names undefined attributes: {missing}"
    assert len(set(cmcrank.__all__)) == len(cmcrank.__all__)
