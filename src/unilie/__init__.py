"""Uniformly colored digraphs and the two-step nilpotent Lie algebras they
encode, with exact arithmetic throughout."""

from .graphs import (BudgetExceededError, ColorPermAutomorphism, ColoredDigraph,
                     SimpleGraph, UniformityReport, automorphisms,
                     canonical_coloring, canonical_graph, colorings_equivalent,
                     connected_components, disjoint_union, relabel,
                     validate_uniform)
from .algebra import (GeneralLinearWitness, NVector, SignedPermWitness,
                      StructureTensor, WitnessCheck, ad_matrix, ad_rank,
                      bracket, center, centralizer, check_witness, commutator,
                      compose_witnesses, concatenate, derivation_dim,
                      diagonal_orbit_count, diagonal_orbit_representatives,
                      diagonal_witness, from_graph, invert_witness,
                      is_heisenberg_type, j_basis, j_gram, j_map,
                      lift_automorphism, sign_orbit_canonical, sign_vector,
                      signed_perm_isomorphic, to_graph, totally_geodesic)
from .families import (FiniteGroup, cayley, cyclic, cyclic_group,
                       dihedral_bipartite, dihedral_group,
                       elementary_abelian_group, free_two_step,
                       from_factorization, heisenberg, kneser, quaternionic,
                       ring_algebra, symmetric_group, trivial_coloring)
from .enumeration import (ClassificationRow, FactorizationReport,
                          KnownPresentation, SignClass, SignClassReport,
                          UndeterminedPairError, classify, classify_detailed,
                          distinguish, known_presentations,
                          near_factorization_sign_witness,
                          near_one_factorizations, one_factorizations,
                          regular_graphs, ring_sum_witness, sign_class_report,
                          uniform_colorings)

__version__ = "0.1.0"
