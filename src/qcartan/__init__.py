"""Exact computations in quantized enveloping algebras, quantum symmetric
pair coideal subalgebras, and their quantum Cartan subalgebras."""

from .classical import (cayley_on_triple, chevalley_matrices,
                        matrix_root_vector, verify_classical_cartan)
from .coideal import (CartanReport, CoidealParams, cartan_element,
                      verify_cartan_suite)
from .involutions import (GammaEntry, Involution, ThetaSystem,
                          build_involution, classical_cartan_symbolic,
                          delta_theta, gamma_theta, verify_theta_system)
from .qfield import QRat, format_qrat, gauss_binomial, q_power, qvar
from .rootsys import (RootData, build_root_data, kostant_partition_count,
                      weights_up_to_height)
from .uqalgebra import Algebra, Element, LusztigT, q_comm

__all__ = [
    "Algebra", "CartanReport", "CoidealParams", "Element", "GammaEntry",
    "Involution", "LusztigT", "QRat", "RootData", "ThetaSystem",
    "build_involution", "build_root_data", "cartan_element",
    "cayley_on_triple", "chevalley_matrices", "classical_cartan_symbolic",
    "delta_theta", "format_qrat", "gamma_theta", "gauss_binomial",
    "kostant_partition_count", "matrix_root_vector", "q_comm", "q_power",
    "qvar", "verify_cartan_suite", "verify_classical_cartan",
    "verify_theta_system", "weights_up_to_height",
]
