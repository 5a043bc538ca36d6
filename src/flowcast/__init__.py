"""Short-duration traffic flow forecasting for heterogeneous streams.

Pipeline: classified vehicle counts -> PCU conversion -> fixed-interval
series -> scalar Kalman filtering -> accuracy report and plots.
"""

from flowcast.errors import FlowcastError, ConfigError, DataError
from flowcast.kalman import FilterParams, estimate_noise, filter_series, forecast_next
from flowcast.metrics import build_report
from flowcast.pcu import PcuTable, VehicleClass
from flowcast.series import FlowSeries, aggregate

__version__ = "0.1.0"

__all__ = [
    "FlowcastError", "ConfigError", "DataError",
    "VehicleClass", "PcuTable", "FlowSeries", "aggregate",
    "FilterParams", "estimate_noise", "filter_series", "forecast_next",
    "build_report",
    "__version__",
]
