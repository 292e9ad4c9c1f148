"""Session fixtures. Pretraining dominates test wall clock, so each encoder
is built once per run and shared read-only across modules."""

import time

import pytest

from _helpers import make_modemix
from frameprompt import clustering, encoder as E


@pytest.fixture(scope="session")
def tiny_encoder():
    """16px encoder over a 2-mode set; cheap enough for unit tests."""
    ds = make_modemix(2, 2, 12, 0.08, seed=3, size=16)
    return E.pretrain(ds, epochs=6, seed=7, batch_size=24), ds


class DeskBench:
    """Acceptance-scale 32px encoder plus its calibrated threshold.

    setup_seconds is charged to whichever budget covers pretraining."""

    def __init__(self):
        t0 = time.perf_counter()
        self.pretrain_data = make_modemix(4, 4, 30, 0.06, seed=11)
        self.encoder = E.pretrain(self.pretrain_data, epochs=4, seed=11)
        self.reference = make_modemix(1, 2, 150, 0.05, seed=21)
        self.tau_star = clustering.calibrate_threshold(
            self.encoder, self.reference, probe_size=300, seed=0)
        self.setup_seconds = time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk():
    return DeskBench()
