"""Secret-key-rate simulator for reflecting-surface assisted key
generation over spatially correlated channels."""

__version__ = "0.1.0"

from .channel_model import (ConfigError, ScenarioConfig, build_correlations,
                            load_config, simulate_probing)
from .kgr_core import kgr_bits, min_kgr_bits
from .bsum import optimize_design, statistical_design
from .harness import run_experiment

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "build_correlations",
    "load_config",
    "simulate_probing",
    "kgr_bits",
    "min_kgr_bits",
    "optimize_design",
    "statistical_design",
    "run_experiment",
    "__version__",
]
