import numpy as np
import pytest

from asvid import oracle
from asvid.dataprep import GeoReference


@pytest.fixture(scope="session")
def gt_static():
    return oracle.default_ground_truth()


@pytest.fixture(scope="session")
def gt_dynamic():
    return oracle.default_ground_truth(dynamic=True, alpha=0.9)


@pytest.fixture(scope="session")
def ds_static(gt_static):
    """Exact in-class static dataset with mixed operating regions."""
    cfg = oracle.DiscreteGenConfig(steps=3000, kind="static", seed=3, n_segments=4)
    return oracle.generate_discrete(gt_static, cfg)


@pytest.fixture(scope="session")
def ds_dynamic(gt_dynamic):
    """Exact in-class dynamic dataset; per-segment initial gain states."""
    cfg = oracle.DiscreteGenConfig(
        steps=3000, kind="dynamic", seed=5, n_segments=4, g0_scale=0.05
    )
    return oracle.generate_discrete(gt_dynamic, cfg)


@pytest.fixture(scope="session")
def small_bundle(gt_static):
    """40 s of raw sensor logs from a static RK4 run."""
    traj = oracle.simulate_continuous(gt_static, oracle.smooth_excitation(), duration=40.0)
    return oracle.emit_sensor_logs(traj, GeoReference(lat0=37.4, lon0=-6.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
