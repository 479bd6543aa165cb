import os
import sys

import numpy as np
import pytest

import membrane_spectra as ms
from membrane_spectra import balance, fem, mesh

J0_ZERO = 2.4048255576      # first positive zero of J0
J1P_ZERO = 1.8411837813     # first positive zero of J1'

# edge-length rows that name no edge of the 37-vertex branched disc (rings
# 3), with the error each raises
BAD_ROWS = [
    pytest.param([5, 99999, 1.0],
                 r"\[5, 99999, 1\.0\] names a vertex outside \[0, 37\)",
                 id="vertex-past-the-last"),
    pytest.param([-3, 2, 0.5],
                 r"\[-3, 2, 0\.5\] names a vertex outside \[0, 37\)",
                 id="negative-vertex"),
    pytest.param([0, 30, 0.7], r"\[0, 30, 0\.7\] names no edge$",
                 id="not-an-edge")]


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


@pytest.fixture()
def cpus(monkeypatch):
    """`cpus(n)` makes `fem.forked_map` see n usable CPUs and returns the
    list of forks this process makes from then on, one entry per
    `os.fork`; n > 1 skips where this host cannot fork."""
    fork = getattr(os, "fork", None)
    forks = []

    def counted():
        forks.append(os.getpid())
        return fork()

    def set_cpus(n):
        if n > 1 and fork is None:
            pytest.skip("this host cannot fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        if fork is not None:
            monkeypatch.setattr(os, "fork", counted)
        return forks
    return set_cpus


@pytest.fixture()
def solver_path(monkeypatch):
    """`solver_path("dense")` sends every later eigensolve to the dense
    `eigh`, and `solver_path("sparse")` every one the size rule allows
    (k < n - 1) to shift-invert Lanczos, by moving `fem.DENSE_CUTOFF`."""
    def force(path):
        cutoff = {"dense": sys.maxsize, "sparse": 0}[path]
        monkeypatch.setattr(fem, "DENSE_CUTOFF", cutoff)
    return force


@pytest.fixture()
def unvalidated(monkeypatch):
    """Meshes built in the test skip the triangulation's checks, so that a
    solver or walk can be shown an invalid mesh."""
    monkeypatch.setattr(mesh.Triangulation, "_validate", lambda self: None)


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


def gaussian_bump_log_factor(center: complex = 0.5, amplitude: float = 1.0,
                             width: float = 0.3):
    """Conformal log-factor of a Gaussian bump at `center`."""
    def phi(z):
        z = np.asarray(z, dtype=complex)
        return amplitude * np.exp(-(np.abs(z - center) ** 2) / (2.0 * width ** 2))

    return phi


def assert_no_child_left():
    """Fail if this process has a child, running or not yet reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def rotated(f, theta):
    """The map sample `f` followed by the rotation z -> e^{i theta} z."""
    return ms.MapSample(np.exp(1j * theta) * f.values, f.degree)


@pytest.fixture(scope="session")
def bump_disc12():
    """Asymmetric fixture: conformal disc with a Gaussian bump at z = 0.5."""
    return ms.generate_conformal_disc(12, gaussian_bump_log_factor())


@pytest.fixture(scope="session")
def branched12():
    return ms.generate_branched_double_disc(12)


def grid_search_balance(mesh, f):
    """Brute-force minimizer of ||G(a)|| over the 101-by-101 grid on
    [-0.99, 0.99]^2, cut to the disc.

    Independent cross-check for the Newton solver: it evaluates the same
    transplant (`balance._moments`) at every grid point and uses no
    Jacobian or step control.  Returns the best grid point and its
    residual.
    """
    m1 = ms.assemble_mass(mesh) @ np.ones(mesh.vertex_count)
    ticks = np.linspace(-0.99, 0.99, 101)
    re, im = np.meshgrid(ticks, ticks, indexing="ij")
    aa = (re + 1j * im).ravel()
    aa = aa[np.abs(aa) < 1.0]
    g = [np.linalg.norm(balance._moments(mesh, f, a, m1)[0]) for a in aa]
    best = int(np.argmin(g))
    return complex(aa[best]), float(g[best])


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


def resized_map(mesh, count):
    """The identity map of a flat disc mesh cut to, or padded with the
    point 0.5 to, `count` samples."""
    z = mesh.positions[:, 0] + 1j * mesh.positions[:, 1]
    return ms.MapSample(np.r_[z[:count], np.full(max(count - z.size, 0), 0.5)],
                        1)
