"""The package's public names: `chshlab.__all__`."""

import inspect

import chshlab


def test_all_resolves_and_is_public():
    assert len(set(chshlab.__all__)) == len(chshlab.__all__)
    for name in chshlab.__all__:
        assert hasattr(chshlab, name), name
        assert name == "__version__" or not name.startswith("_"), name


def test_all_lists_every_public_attribute():
    # submodules (chsh, linalg, ...) are reached as attributes, not exported
    public = {name for name, obj in vars(chshlab).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(chshlab.__all__) - {"__version__"}

