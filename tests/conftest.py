import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from synchrony.core import InteractionSample

# Every run draws the same examples and keeps no example database. Hypothesis
# still caches the constants it finds in local source; that cache goes to the
# temp directory, so no run writes .hypothesis/ into the tree.
settings.register_profile("tier1", derandomize=True, max_examples=100, database=None)
settings.load_profile("tier1")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "synchrony-hypothesis"))


def random_sample(
    k=2, c=1, t=60, label=0.5, group_id="g0", seed=0
) -> InteractionSample:
    # participant-major, channel by channel: each channel is t consecutive draws
    values = np.random.default_rng(seed).standard_normal((k, c, t))
    return InteractionSample(values.transpose(2, 0, 1), label=label, group_id=group_id)


@pytest.fixture
def sample():
    return random_sample()
