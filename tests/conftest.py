import numpy as np
import pytest

from cellfree_maxmin import Dimensions, PhysicalConfig, build_rate_model, generate_instance
from cellfree_maxmin.netgen import iter_smallscale_blocks


@pytest.fixture(scope="session")
def small_instance():
    dims = Dimensions.uniform(num_aps=12, num_groups=2, users_per_group=3)
    return generate_instance(dims, PhysicalConfig(), seed=42)


@pytest.fixture(scope="session")
def small_model(small_instance):
    return build_rate_model(small_instance)


def make_model(num_aps=8, num_groups=2, users_per_group=2, seed=0):
    dims = Dimensions.uniform(num_aps, num_groups, users_per_group)
    return build_rate_model(generate_instance(dims, PhysicalConfig(), seed=seed))


def kernel_args(model, mu):
    """The leading arguments (gs, asq, ptr, mu, rho) of a kernels.IMPL
    evaluation of `model` at the (N, M) power control mu."""
    return (model.gamma_sqrt, model.a_sq, model.group_ptr,
            np.ascontiguousarray(mu, dtype=float), model.rho_bar)


def random_feasible_matrix(model, rng, scale=1.0):
    """Random strictly positive point inside S, as an (N, M) matrix."""
    raw = rng.uniform(0.05, scale, size=(model.num_groups, model.num_aps))
    nsq = (raw ** 2).sum(axis=0)
    over = np.sqrt(np.maximum(nsq, 1.0))
    return np.ascontiguousarray(raw / over)


def sampled_draws(instance, count, seed):
    """The `count` joint draws of iter_smallscale_blocks as complex arrays,
    g (count, M, T) and z (count, M, N): the blocks concatenated."""
    g_re, g_im, z_re, z_im = map(np.concatenate,
                                 zip(*iter_smallscale_blocks(instance, count, seed)))
    return g_re + 1j * g_im, z_re + 1j * z_im
