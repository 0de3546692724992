import numpy as np
import pytest

import polykernel as pk


@pytest.fixture(scope="session")
def spaces():
    """Session cache of built spaces keyed by (weight, q, n, m)."""
    cache = {}

    def get(weight_text: str, q: int, n: int, m: float) -> pk.KernelEvaluator:
        key = (weight_text, q, n, float(m))
        if key not in cache:
            cache[key] = pk.build_space(
                pk.parse_weight(weight_text), pk.SpaceSpec(q, n, float(m))
            )
        return cache[key]

    return get


def disk_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Uniform draws from the disk of the given radius."""
    r = radius * np.sqrt(rng.uniform(size=count))
    return r * np.exp(2j * np.pi * rng.uniform(size=count))


GRAM_PANELS, GRAM_NODES = 25, 16  # 400 Gauss-Legendre nodes on [0, r]


def block_grams(K: pk.KernelEvaluator, radii) -> np.ndarray:
    """G_d(r) = int_0^r 2 rho phi_d(rho) phi_d(rho)^T d rho of every block d of
    K, over its real radial features phi_d, at each of the increasing
    ``radii``: the kernel restricted to the disk |z| < r, shaped (radius,
    block, row, row), zero in the rows past a block's size.  Gauss-Legendre
    panels of GRAM_NODES nodes, GRAM_PANELS of them on [0, radii[0]] and one
    on each later interval, summed in order."""
    radii = np.asarray(radii, dtype=float)
    edges = np.concatenate([np.linspace(0.0, radii[0], GRAM_PANELS + 1), radii[1:]])
    x, v = np.polynomial.legendre.leggauss(GRAM_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    rho = half * (x + 1.0) + edges[:-1, None]  # (panel, node)
    shift, mantissa, _ = K._features(rho.ravel().astype(complex), 0.5)
    phi = (np.exp(shift) * mantissa).reshape(*mantissa.shape[:2], *rho.shape)
    panels = np.einsum("kbpj,lbpj,pj->pbkl", phi, phi, 2.0 * rho * half * v)
    return np.cumsum(panels, axis=0)[GRAM_PANELS - 1:]
