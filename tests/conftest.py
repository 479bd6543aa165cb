import numpy as np
import pytest

import membrane_spectra as ms
from membrane_spectra import fem
from membrane_spectra.fixtures import gaussian_bump_log_factor

J0_ZERO = 2.4048255576      # first positive zero of J0
J1P_ZERO = 1.8411837813     # first positive zero of J1'


@pytest.fixture()
def blas_libs():
    """(get, set) thread-count functions of every OpenBLAS in the process,
    each library's count restored afterwards; skips where there is none."""
    libs = fem._openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS with a thread setter is loaded in this "
                    "process, so there is no thread count to change")
    before = [get() for get, _ in libs]
    yield libs
    for (_, set_), n in zip(libs, before):
        set_(n)


@pytest.fixture(scope="session")
def disc8():
    return ms.generate_disc(8)


@pytest.fixture(scope="session")
def disc16():
    return ms.generate_disc(16)


@pytest.fixture(scope="session")
def disc32():
    return ms.generate_disc(32)


@pytest.fixture(scope="session")
def hemisphere16():
    return ms.generate_spherical_cap(np.pi / 2, 16)


@pytest.fixture(scope="session")
def hemisphere32():
    return ms.generate_spherical_cap(np.pi / 2, 32)


@pytest.fixture(scope="session")
def bump_disc12():
    """Asymmetric fixture: conformal disc with a Gaussian bump at z = 0.5."""
    return ms.generate_conformal_disc(12, gaussian_bump_log_factor())


@pytest.fixture(scope="session")
def branched12():
    return ms.generate_branched_double_disc(12)


def identity_map(mesh):
    return ms.transplant.identity_map_from_positions(mesh)


def square_mesh(n):
    """Unit square [0,1]^2 as an n-by-n grid of crossed right triangles."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pos = np.column_stack([X.ravel(), Y.ravel(), np.zeros((n + 1) ** 2)])
    tris = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            v10 = (i + 1) * (n + 1) + j
            v01 = v00 + 1
            v11 = v10 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return ms.SurfaceMesh(np.array(tris), positions=pos)


def octahedron():
    """Closed regular octahedron: every vertex is interior."""
    pos = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                    [0, 0, 1], [0, 0, -1]], dtype=float)
    tris = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
            [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    return ms.SurfaceMesh(tris, positions=pos)
