"""Sub-pixel-scanned single-photon lidar: Poisson histogram simulation and
super-resolved 3D deconvolution with TV-regularized reconstruction."""

from .baselines import pixelwise_ml, reconstruct_no_scan
from .evaluate import (
    ExperimentSpec,
    bar_contrast,
    resolved_groups,
    rmse,
    run_experiment,
)
from .forward import (
    HistogramCube,
    Kernel,
    ScanConfig,
    calibrate_flux,
    convolve3d,
    convolve3d_adjoint,
    load_cube,
    make_kernel,
    rayleigh_resolution,
    save_cube,
    simulate,
)
from .scene import (
    RDVolume,
    Scene,
    chart_layout,
    load_scene,
    load_scene_dir,
    make_resolution_chart,
    save_scene,
    scene_to_rd,
)
from .solver import (
    Maps,
    SolveReport,
    SolverConfig,
    extract_depth_reflectivity,
    load_volume,
    neg_log_likelihood,
    nll_gradient,
    prox_tv_nonneg,
    save_volume,
    spiral_solve,
    tv_penalty,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "HistogramCube",
    "Kernel",
    "Maps",
    "RDVolume",
    "ScanConfig",
    "Scene",
    "SolveReport",
    "SolverConfig",
    "bar_contrast",
    "calibrate_flux",
    "chart_layout",
    "convolve3d",
    "convolve3d_adjoint",
    "extract_depth_reflectivity",
    "load_cube",
    "load_scene",
    "load_scene_dir",
    "load_volume",
    "make_kernel",
    "make_resolution_chart",
    "neg_log_likelihood",
    "nll_gradient",
    "pixelwise_ml",
    "prox_tv_nonneg",
    "rayleigh_resolution",
    "reconstruct_no_scan",
    "resolved_groups",
    "rmse",
    "run_experiment",
    "save_cube",
    "save_scene",
    "save_volume",
    "scene_to_rd",
    "simulate",
    "spiral_solve",
    "tv_penalty",
]
