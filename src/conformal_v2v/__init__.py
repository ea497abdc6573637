"""Simulation of mmWave V2V links assisted by conformal reflecting surfaces.

The package models cylindrical reflecting surfaces mounted on car doors,
either electronically tunable or factory-preconfigured, and the side-lane
relay links they form when the direct vehicle-to-vehicle ray is blocked.
"""

from .config import SPEED_OF_LIGHT, SimConfig, resolve_config
from .geometry import (
    AnglePair,
    CirsGeometry,
    DoorPose,
    RoadConfig,
    SpecularArea,
    Vehicle,
    arc_area,
    build_cirs_geometry,
    global_to_local_angles,
    local_to_global_angles,
    pose_local_angles,
    specular_area,
    surface_area,
    vec3,
)
from .phase import (
    PHASE_SIGN,
    PhaseProfile,
    Wavevector,
    incident_wavevector,
    is_evanescent,
    optimal_phase,
    preconfigured_phase,
    reflected_elevation,
    reflected_wavevector,
    snell_residual,
    wrap_phase,
)
from .channel import (
    PathLossSample,
    array_response,
    blockage_mean_db,
    cascaded_channels,
    channel_gain_azimuth,
    channel_gain_elevation,
    direct_channel,
    element_pattern,
    endpoint_pattern,
    mean_pathloss_db,
    sample_blockage_db,
    sample_direct_pathloss,
    total_channel,
)
from .scenario import (
    Scenario,
    candidate_relays_irs,
    candidate_relays_ris,
    count_blockers,
    door_pose,
    door_reference_point,
    generate_traffic,
)
from .link import (
    Codebook,
    CodebookEntry,
    LinkResult,
    beam_power,
    build_codebooks,
    compute_snr,
    rescale_direct,
    select_beams,
    steering_vector,
)
from .experiments import (
    EcdfResult,
    SweepSpec,
    bootstrap_median_ci,
    gain_width_deg,
    make_sweep,
    run_angle_pdf,
    run_blockage_sweep,
    run_gain_azimuth,
    run_gain_elevation,
    run_gain_frequency,
    run_snr_ecdf,
    snr_summary,
    trial_rng,
    wilson_interval,
    write_csv,
    write_sidecar,
)

__version__ = "0.1.0"
