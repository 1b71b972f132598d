"""Sequential products on quantum effects.

Implements the Lüders product A^{1/2} B A^{1/2} and the phased family
A^{1/2} A^{it} B A^{-it} A^{1/2} on effects, machine-verifies the
sequential-product axioms S1-S5, demonstrates that the two products differ
(so the Lüders form is not the only sequential product), and builds the
trace-preserving Kraus channels the phased product induces.
"""

from .linalg import (
    SpectralDecomposition,
    apply_spectral_function,
    hermitian_eig,
    hermitize,
    is_hermitian,
    is_psd,
    operator_norm,
)
from .effects import (
    DensityOperator,
    DomainError,
    Effect,
    Projection,
    ValidationError,
    closed_form_2d,
    effect_power_it,
    f_z,
    kraus_operator,
    luders_product,
    phased_product,
    product_on_selfadjoint,
    sqrt_effect,
)
from .axioms import (
    CheckReport,
    check_commutativity_theorem,
    check_s1,
    check_s2,
    check_s3,
    check_s4,
    check_s5,
    distinct_spectrum,
    find_nonuniqueness_witness,
    gen_commuting_pair,
    gen_generic,
    gen_kernel_disjoint_pair,
    gen_near_boundary,
    gen_projection,
    haar_unitary,
    projector_interpolation,
    run_axiom_suite,
)
from .channels import (
    DecompositionError,
    EffectDecomposition,
    QuantumChannel,
    apply_channel,
    apply_operation,
    choi_input_marginal,
    choi_matrix,
    compose,
    dual_apply,
    luders_channel,
    phased_channel,
)

__version__ = "0.1.0"
