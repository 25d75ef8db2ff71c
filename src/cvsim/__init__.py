"""cvsim: Gaussian-state quantum optics simulation.

Multimode Gaussian states via symplectic covariance algebra, entanglement
certification (Simon criterion, logarithmic negativity), phase-space
functions, exact Fock-basis beam-splitter interference, and simulated
balanced-homodyne-detection data.
"""

from .errors import (
    CVSimError,
    DegenerateInputError,
    InversionError,
    MalformedInputError,
    NetworkRuntimeError,
    SpecValidationError,
    UnsupportedOrderingError,
)
from .states import (
    GaussianState,
    PhysicalityReport,
    check_physicality,
    clean_tiny,
    purity,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum_state,
)
from .gates import (
    SymplecticGate,
    apply_gate,
    beamsplitter_gate,
    displacement_gate,
    rotation_gate,
    squeeze_gate,
    thermal_prepare,
)
from .entanglement import (
    ENTANGLED,
    SEPARABLE,
    Bipartition,
    SimonReport,
    log_negativity,
    partial_transpose_cov,
    ptranspose_symplectic_spectrum,
    reduced_state,
    simon_criterion,
)
from .phase_space import (
    PhaseSpaceGrid,
    WignerField,
    characteristic_gaussian,
    read_wigner_csv,
    s_quasiprob_gaussian,
    wigner_gaussian,
    write_wigner_csv,
)
from .fock import (
    TwoModeFockState,
    bs_output,
    bs_output_from_angle,
    photon_number_distribution,
)
from .homodyne import (
    CatState,
    Fock,
    GaussianSource,
    SampleSet,
    SourceModel,
    Spats,
    SqueezedVacuum,
    Thermal,
    Vacuum,
    VarianceReport,
    binned_variance,
    characteristic_fn,
    heisenberg_violations,
    invert_cdf,
    quadrature_cdf,
    quadrature_pdf,
    read_samples_csv,
    read_variance_csv,
    sample,
    squeezing_certificate,
    theoretical_variance,
    variance_standard_error,
    write_samples_csv,
    write_variance_csv,
)
from .network import (
    AnalysisRequest,
    GateDescriptor,
    NetworkResult,
    NetworkSpec,
    parse_network_spec,
    run_network,
)

__version__ = "0.1.0"
