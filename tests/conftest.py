import numpy as np
import pytest

from synchrony.core import InteractionSample


def random_sample(
    k=2, c=1, t=60, label=0.5, group_id="g0", seed=0
) -> InteractionSample:
    # participant-major, channel by channel: each channel is t consecutive draws
    values = np.random.default_rng(seed).standard_normal((k, c, t))
    return InteractionSample(values.transpose(2, 0, 1), label=label, group_id=group_id)


@pytest.fixture
def sample():
    return random_sample()
