"""Shared fixtures: the worked parameter points used across the suite."""

from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from fiscap import CostSpec, ModelParams, parse_config_text, sample_params, validate_params

settings.register_profile("suite", derandomize=True, max_examples=60)
settings.load_profile("suite")

# the paper's regime-map base point, as committed; epsilon and sigma_d vary per point
REGIME_MAP_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "regime_map.cfg"
_regime_map = asdict(validate_params(parse_config_text(REGIME_MAP_CONFIG.read_text())))
REGIME_MAP_BASE = {k: v for k, v in _regime_map.items() if k not in ("epsilon", "sigma_d")}


def regime_map_point(epsilon: float, sigma_d: float) -> ModelParams:
    return ModelParams(epsilon=epsilon, sigma_d=sigma_d, **REGIME_MAP_BASE)


def draw_params(seed: int, trial: int = 0, bargaining: bool = False) -> ModelParams:
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    return sample_params(rng, bargaining=bargaining)


@pytest.fixture
def cost():
    return CostSpec(kind="quadratic", c=1.0)


@pytest.fixture
def p0a():
    # peace-side worked point: high cohesiveness
    return regime_map_point(epsilon=0.3, sigma_d=0.9)


@pytest.fixture
def p0b():
    # war-side worked point: low cohesiveness
    return regime_map_point(epsilon=0.3, sigma_d=0.3)


@pytest.fixture
def p0c():
    # interior-investment worked point
    return ModelParams(alpha=0.2, lam=0.0, epsilon=0.2, delta=0.1, rho=0.4,
                       mu=0.05, omega=0.3, sigma_d=0.2, sigma_f=0.05,
                       m=1.0, tau1=0.2)


@pytest.fixture
def p1():
    # constitutional-stage worked point (sits on the omega = delta boundary)
    return ModelParams(alpha=0.3, lam=0.0, epsilon=0.3, delta=0.3, rho=0.4,
                       mu=0.1, omega=0.3, sigma_d=0.0, sigma_f=0.1,
                       m=1.0, tau1=0.2)
