"""Uniformly colored digraphs and the two-step nilpotent Lie algebras they
encode, with exact arithmetic throughout.

Importing the package loads no submodule: each public name below, and each
submodule, is imported on first access (PEP 562) and then kept here."""

import importlib

__version__ = "0.1.0"

# module -> the public names the package re-exports from it
_EXPORTS = {
    "graphs": ("BudgetExceededError", "ColorPermAutomorphism", "ColoredDigraph",
               "SimpleGraph", "UniformityReport", "automorphisms",
               "colorings_equivalent", "connected_components",
               "disjoint_union", "relabel", "validate_uniform"),
    "algebra": ("GeneralLinearWitness", "SignClass", "SignClassReport",
                "SignedPermWitness", "StructureTensor", "WitnessCheck",
                "check_witness", "compose_witnesses", "concatenate",
                "derivation_dim", "diagonal_orbit_representatives",
                "diagonal_witness", "from_graph", "invert_witness", "j_map",
                "lift_automorphism", "sign_class_report", "sign_vector",
                "signed_perm_isomorphic", "to_graph"),
    "analysis": ("ad_rank", "center_dim", "commutator_dim", "is_heisenberg_type",
                 "j_gram", "totally_geodesic"),
    "families": ("cyclic", "free_two_step", "heisenberg", "kneser",
                 "quaternionic", "ring_algebra"),
    "constructions": ("FiniteGroup", "cayley", "cyclic_group",
                      "dihedral_bipartite", "dihedral_group",
                      "elementary_abelian_group", "from_factorization",
                      "symmetric_group", "trivial_coloring"),
    "enumeration": ("regular_graphs", "uniform_colorings"),
    "factorizations": ("FactorizationReport", "near_one_factorizations",
                       "one_factorizations"),
    "classification": ("Block", "ClassificationRow", "Invariants",
                       "KnownPresentation", "Split", "classify",
                       "classify_detailed", "known_presentations",
                       "near_factorization_sign_witness", "refine",
                       "ring_sum_witness"),
    "exact": (),
    "gf2": (),
    "record": (),
    "serialize": (),
    "cli": (),
    "fileverbs": (),
}

# every lazily importable name -> its module; a submodule maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
