import numpy as np
import pytest

from mwfi.photonic_link import LinkModels, PdModel
from mwfi.rf_signals import TimeGrid
from mwfi.scan_engine import SawtoothDrive, calibrate

# trace rate deliberately incommensurate with microsecond-scale emitter
# periods, so samples land on effectively random waveform phases
INCOMMENSURATE_RATE = 2718281.0

CAL_TONES = np.arange(10e9, 20.1e9, 1e9)


def make_grid(rate: float, drive: SawtoothDrive) -> TimeGrid:
    return TimeGrid(sample_rate=rate, n_samples=round(rate * drive.period))


@pytest.fixture(scope="session")
def drive():
    return SawtoothDrive()


@pytest.fixture(scope="session")
def noiseless_models():
    return LinkModels(pd=PdModel(noise_sigma=0.0))


@pytest.fixture(scope="session")
def grid_1ms(drive):
    return make_grid(1e6, drive)


@pytest.fixture(scope="session")
def grid_fast(drive):
    return make_grid(INCOMMENSURATE_RATE, drive)


@pytest.fixture(scope="session")
def table_1ms(noiseless_models, drive, grid_1ms):
    return calibrate(noiseless_models, drive, CAL_TONES, grid_1ms)


@pytest.fixture(scope="session")
def table_fast(noiseless_models, drive, grid_fast):
    return calibrate(noiseless_models, drive, CAL_TONES, grid_fast)
