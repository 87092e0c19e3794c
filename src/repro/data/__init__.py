"""Datasets: irregular locations, exact GRF simulation, the paper's
two dataset surrogates, preprocessing, and splitting."""

from .evapotranspiration import (
    ET_THETA,
    ET_THETA_PAPER,
    N_MONTHS,
    SpaceTimeDataset,
    et_raw_panel,
    et_surrogate,
)
from .locations import (
    REGIONS,
    region_locations,
    space_time_locations,
    uniform_locations,
)
from .preprocess import (
    detrend_linear,
    gaussianity_diagnostics,
    monthly_climatology_residuals,
)
from .soil_moisture import (
    SOIL_MOISTURE_THETA,
    SpatialSplitDataset,
    soil_moisture_surrogate,
)
from .split import train_test_split
from .synthetic import (
    CORRELATION_RANGES,
    SyntheticDataset,
    sample_gaussian_field,
    simulate_matern_dataset,
)

__all__ = [
    "uniform_locations",
    "region_locations",
    "space_time_locations",
    "REGIONS",
    "sample_gaussian_field",
    "simulate_matern_dataset",
    "SyntheticDataset",
    "CORRELATION_RANGES",
    "train_test_split",
    "soil_moisture_surrogate",
    "SpatialSplitDataset",
    "SOIL_MOISTURE_THETA",
    "et_surrogate",
    "et_raw_panel",
    "SpaceTimeDataset",
    "ET_THETA",
    "ET_THETA_PAPER",
    "N_MONTHS",
    "monthly_climatology_residuals",
    "detrend_linear",
    "gaussianity_diagnostics",
]
