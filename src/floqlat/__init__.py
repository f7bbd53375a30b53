"""Quasienergy spectra of a two-step driven dimerized chain and their exact
discrete-time static counterparts (dimerized SSH and Wilson-Dirac chains)."""

__version__ = "0.1.0"

from .errors import FloqlatError, GaplessPointError, NumericalError, ValidationError
from .models import (
    BoundaryCondition,
    DriveParams,
    HermitianOperator,
    SSHParams,
    WDParams,
    build_h0,
    build_h1,
    build_h1_scaled,
    build_ssh,
    build_ssh_profile,
    build_wd,
    build_wd_profile,
    ssh_dispersion,
    ssh_momentum_grid,
    wd_dispersion,
    wd_momentum_grid,
)
from .floquet import (
    EdgeModeReport,
    Phase,
    PhaseLabel,
    QuasienergySpectrum,
    UnitaryOperator,
    analytic_dispersion_general,
    analytic_dispersion_line,
    analytic_pbc_spectrum,
    build_floquet,
    bulk_gaps,
    classify_phase,
    find_edge_modes,
    fold_quasienergy,
    mode_states,
    quasienergies,
    wrap_distance,
)
from .doubling import (
    PiPairingCheck,
    SSHCouplings,
    WDCouplings,
    check_pi_pairing,
    compare_spectra,
    double_poles,
    partition_quasienergies,
    sine_transform,
    solve_ssh_params,
    solve_wd_params,
    static_spectrum,
)
from .walls import (
    BoundState,
    DomainWallProfile,
    analytic_wall_state,
    analytic_wd_zero_mode,
    build_floquet_wall,
    build_ssh_wall,
    build_wd_wall,
    fit_localization_length,
    floquet_bound_states,
    numeric_bound_state,
    wall_decay_factors,
)
from .scaling import (
    MapTarget,
    PowerLawFit,
    ScalingConfig,
    ScalingRun,
    fit_power_law,
    mapped_static_spectrum,
    pbc_control,
    run_scaling,
    scaling_metric,
)
