"""Secrecy rates, link budgets and orbital-pass analysis for OOK
coherent-state satellite downlinks."""

from .detection import (
    BinaryCoherentEnsemble,
    HelstromSolution,
    distinguishability_angle,
    helstrom_error,
    helstrom_projector,
    holevo_binary,
    overlap,
)
from .linkbudget import (
    LinkGeometry,
    bob_free_space,
    db_to_fraction,
    eve_free_space,
    exclusion_radius_partial,
    exclusion_radius_total,
    fraction_to_db,
    gamma_partial,
    radius_vs_gamma_curve,
)
from .numerics import (
    BracketError,
    Interval,
    binary_entropy,
    find_root,
    gaussian_disk_fraction,
    maximize_1d,
)
from .orbitsim import (
    DEFAULT_CONSTANTS,
    OrbitScenario,
    PassProfile,
    PhysicalConstants,
    StepSizeWarning,
    alignment_periods,
    angular_velocity,
    integrated_gamma,
    pass_window,
    required_orbital_exclusion,
)
from .receiver import BobChannel, DetectorModel, bob_click_model, mutual_info_bob
from .scenario_io import (
    ConfigError,
    ReportRow,
    ScenarioConfig,
    SweepAxis,
    config_from_dict,
    emit_table1,
    load_config,
    preset_config,
    sweep,
)
from .secrecy import (
    ClockedLink,
    SecrecyPoint,
    devetak_winter_rate,
    dw_rate_symmetric,
    optimal_signal_strength,
    plob_bound,
    private_capacity,
    private_capacity_fixed,
    private_capacity_symmetric,
    private_rate,
    required_laser_power,
    secrecy_points,
)

__version__ = "0.1.0"
