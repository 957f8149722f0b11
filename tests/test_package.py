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



# every plain function of __all__, by its parameters' names and kinds; a
# change here changes the public surface.  Classes and enums are left out:
# their constructor signatures differ across Python versions
_SIGNATURES = {
    "born_table": "(ma0, ma1, mb0, mb1, rho)",
    "check_state": "(rho)",
    "chsh_from_table": "(table)",
    "chsh_operator": "(setting)",
    "chsh_value": "(setting, rho)",
    "correlators_from_table": "(table)",
    "landau_bound": "(setting)",
    "max_over_states": "(setting)",
    "sample_estimate": "(povms, rho, shots_per_pair, seed)",
    "state_from_vector": "(v)",
    "busch_criterion": "(p, q)",
    "coexistence_criterion": "(p, q)",
    "parent_povm_search": "(p, q)",
    "sharpness_threshold": "(n1, n2)",
    "canonical_axes": "(angles)",
    "canonical_setting": "(angles)",
    "entanglement_threshold": "()",
    "incompatibility_monotonicity": "(e)",
    "local_unitary": "(params)",
    "max_chsh_closed_form": "(e, delta)",
    "max_chsh_over_unitaries": "(e, angles, *, seed)",
    "nonlocality_region": "(e, delta)",
    "rotated_chsh": "(e, angles, p1, p2)",
    "schmidt_state": "(e)",
    "stationarity_ratios": "(angles)",
    "stationary_angles": "(angles)",
    "stationary_unitary_params": "(angles)",
    "eig_hermitian": "(m, *, vectors)",
    "kron": "(a, b)",
    "bloch_observable": "(axis)",
    "commutator_tensor": "(setting)",
    "incompatibility_degree": "(setting)",
    "noisy_family_povms": "(lam)",
    "noisy_pauli_povm": "(axis, lam)",
}


def _parameters(fn):
    """fn's signature with names and kinds only, e.g. '(e, angles, *, seed)'."""
    sig = inspect.signature(fn)
    bare = [p.replace(default=p.empty, annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


def test_public_function_signatures():
    public = {name: getattr(chshlab, name) for name in chshlab.__all__}
    assert {name: _parameters(obj) for name, obj in public.items() if inspect.isfunction(obj)} == _SIGNATURES
