"""Shared fixtures: a small run configuration that exercises every check."""

import pytest

SMALL = """\
[run]
seed = 3

[world]
k = 2
per_class = 1
m = 6
m_prime = 6
q_star = 2
nuisance_rank = 1
nuisance_confusion = 0.9
noise_scale = 0.0
seed = 3

[transforms]
rho = 0.35
transform_1 = identity 0.4
transform_2 = flip 0 1 0.2
transform_3 = flip 1 0 0.2
transform_4 = bridge 0 1 0.1
transform_5 = bridge 1 0 0.1

[svd]
mode = none
sweep = 1, 2, 3

[train]
loss = infonce
k = 2
k_sweep = 1, 2
steps = 15
step_size = 1.0
m = 1

[probe]
steps = 150
step_size = 2.0
l2 = 0.0

[bounds]
which = t1, t3, t4, corollaries
mc_samples = 2000
mc_replicates = 4
n_max = 40
m_max = 2

[inflation]
factor = 1

[output]
directory = artifacts
formats = csv, text
"""


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL)
    return str(p)
