"""Unified 8x8 wave equation for electromagnetic and electron fields.

The package constructs the constant matrices of the representation,
machine-verifies their algebraic identities, implements the two Lorentz
transformation laws and an independent tensor-boost oracle, builds both
spin operators, and runs exact spectral time evolution with analysis of
the doubled-frequency velocity jitter and its identity with the
oscillatory part of the energy flux.
"""

from .algebra import (AlgebraReport, dirac44, dirac88, gamma88, generators,
                      pauli_matrices, transformed_dirac88, unitary_u,
                      verify_identities)
from .errors import (ConfigError, ConstraintViolation, Dirac88Error, FitError,
                     GridMismatch)
from .fields import (EMField, FourCurrent, GridSpec, SpinorField8, curl,
                     divergence, embed_em, extract_em, field_tensor)
from .lorentz import (Boost, boost_matrix_L, closed_form_field_boost,
                      em_wavefunction_transform, four_vector_boost,
                      tensor_boost_oracle)
from .spin import (SpinOperator, angular_momentum_series, photon_spin_selection,
                   spin_half, spin_one, verify_spin_evolution)
from .evolution import (EvolutionRun, ModeDecomposition, ZitterReport,
                        alpha_expectation_series, evolve_free, evolve_sourced,
                        hamiltonian_k, mode_decomposition, omega_k,
                        run_free, zitter_decompose, zitter_equals_poynting)
from .oracle import CompareReport, OracleRun, compare, maxwell_evolve

__version__ = "0.1.0"
