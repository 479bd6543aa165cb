"""Linear (P1) Laplace-Beltrami finite elements on intrinsic meshes.

Stiffness weights are cotangents recovered from edge lengths alone via
the law of cosines, so the assembly works for metrics without an
embedding.  Both matrices are filled, from per-edge and per-vertex sums,
into the symmetric CSR pattern the mesh's triangulation builds once (the
diagonal plus both orientations of every edge), so no assembly sorts,
and each is built once per mesh and kept on it with read-only data.
Dirichlet problems are solved on the interior vertices; Neumann problems
on the full matrices with the zero mode detected and excluded.  Each
reads the number k of pairs through `mesh.positive_int` and checks its
range once, before any solve, naming it in its EigenSolveError: 1 to the
interior dofs, or 1 to the dofs less the zero mode.  Size alone picks the
solver: up to `DENSE_CUTOFF` dofs, and for k >= n - 1 pairs, a
full-spectrum dense `eigh` sliced to k.  Larger ones use shift-invert
Lanczos (`eigsh`) on the pencil of K and M divided by the area, whose
spectrum, and so ARPACK's stopping test, does not move when the metric
is rescaled, with the shift -0.1 just below it; one
sparse LU factor of the shifted matrix, which is SPD, is made in SuperLU's
symmetric mode without pivoting, in minimum-degree order.  The Lanczos
basis holds max(2k + 2, 8) vectors (at most n), ARPACK stops at
`LANCZOS_TOL`, and the start vector is drawn from a fixed seed so that
repeated solves agree to the last bit.
Every eigensolve, balancing (`balance.balance_center_of_mass`), trial sum
(`verify.trial_bound_sum`) and `forked_map` call runs with each OpenBLAS
capped at one thread (`single_threaded_blas`), as their last digits would
otherwise follow the host's core count.  Residuals are normalized by the
eigenvalue, so every check is invariant under rescaling the metric, and
every pair is still checked against `RESIDUAL_TOL`.  `forked_map`, the one
way calls are spread over processes, runs them in turn on one CPU and
otherwise starts its workers with `os.fork`: they take call numbers from
one pipe and send pickled results back on another each, and no thread is
started.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import selectors
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .mesh import SurfaceMesh, positive_int

DENSE_CUTOFF = 300           # dofs above which the sparse path is used
RESIDUAL_TOL = 1e-8          # ||K u - lam M u|| / (lam ||M u||)
LANCZOS_TOL = 1e-10          # ARPACK's relative accuracy of the Ritz values
ZERO_FLOOR_REL = 1e-12       # zero-mode floor relative to trace(K)/trace(M)
ZERO_MODE_REL = 1e-8         # zero-mode threshold relative to mu_reference


class EigenSolveError(RuntimeError):
    """Eigenvalue solve failed or did not meet the residual tolerance."""


# thread-count functions of OpenBLAS: numpy and SciPy ship it with the
# prefix "scipy_", the 64-bit-integer build adding the suffix "64_"
_OPENBLAS_THREAD_FUNCTIONS = [
    (f"{prefix}openblas_get_num_threads{suffix}",
     f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_") for suffix in ("", "64_")]


@cache
def _openblas_libraries() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into
    this process, as /proc/self/maps lists them; a library without both
    functions is left out.  Empty where /proc/self/maps does not exist.

    Looked up once per process: numpy's and SciPy's libraries are both
    mapped by the time this module is imported."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5].strip() for parts in
                            (line.split(maxsplit=5) for line in fh)
                            if len(parts) == 6
                            and "openblas" in os.path.basename(parts[5])})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                found.append((get, set_))
                break
    return tuple(found)


# the cap is process-wide, so nested and concurrent uses share one: the
# first to enter saves each library's count, the last to leave restores it
_cap_lock = threading.Lock()
_cap_depth = 0
_cap_saved: list = []


@contextmanager
def single_threaded_blas():
    """Cap every OpenBLAS in the process at one thread, and restore each
    library's previous count when the outermost cap exits."""
    global _cap_depth, _cap_saved
    libs = _openblas_libraries()
    with _cap_lock:
        if _cap_depth == 0:
            _cap_saved = [get() for get, _ in libs]
            for _, set_ in libs:
                set_(1)
        _cap_depth += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap_depth -= 1
            if _cap_depth == 0:
                for (_, set_), n in zip(libs, _cap_saved):
                    set_(n)


_forking = False     # set while forked_map forks, and so in its workers


def _call_name(fn, args) -> str:
    return f"{getattr(fn, '__name__', fn)}({', '.join(map(repr, args))})"


def forked_map(calls) -> list:
    """`[fn(*args) for fn, args in calls]` spread over forked worker
    processes, with the same results and the first error in call order.

    One worker runs per CPU in `os.sched_getaffinity`, never more than
    there are calls; with a CPU for every call, this process runs the last
    call itself, and otherwise only waits, so that a call that kills its
    process never kills the caller.  The calls run here in turn when fewer
    than 2 workers would (one CPU, or no `os.sched_getaffinity`), when the
    caller has other Python threads (a fork copies none), inside a worker
    and inside this process's own call (so no call forks twice).  Every
    call runs under `single_threaded_blas`, so the results are the same
    bits either way.  The calls reach the workers through the fork, not
    pickled, and forked_map starts no thread.  A worker that dies is an
    EigenSolveError naming its exit status and the first call without a
    result; once one has died, the calls still running finish and those
    not yet taken, all later in call order, are dropped.  Once forked_map
    returns, raises or is interrupted, no worker is left.
    """
    global _forking
    calls = list(calls)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(calls))
    with single_threaded_blas():
        if workers < 2 or _forking or threading.active_count() > 1:
            return [fn(*args) for fn, args in calls]
        _forking = True
        try:
            here = workers == len(calls)
            outcomes, statuses = _fork_and_wait(calls, workers - here, here)
        finally:
            _forking = False
    results = []
    for i, (fn, args) in enumerate(calls):
        if i not in outcomes:
            status = ", ".join(str(s) for s in statuses if s) or 0
            raise EigenSolveError(f"{_call_name(fn, args)} did not return: "
                                  f"its forked worker process died "
                                  f"(exit status {status})")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _fork_and_wait(calls, workers: int, here: bool):
    """`{i: (ok, value)}` for each call i that returned (ok) or raised,
    and the exit statuses of the `workers` forked processes that took the
    calls, in order, from a queue pipe; this process runs the last call
    if `here`.  Every worker is killed and reaped if this raises."""
    # one 4-byte call number per queued call.  Writes of at most PIPE_BUF
    # bytes are whole, so a worker's 4-byte read always gets one number.
    # The first write fills the empty pipe before any worker starts, so
    # that none waits for this process's own call; the rest are written as
    # the workers make room
    queue = memoryview(b"".join(i.to_bytes(4, "little")
                                for i in range(len(calls) - here)))
    outcomes, statuses, pids = {}, [], {}       # pids: result pipe -> worker
    sel = selectors.DefaultSelector()
    qr, qw = os.pipe()
    sel.register(qw, selectors.EVENT_WRITE)
    try:
        queue = queue[os.write(qw, queue[:select.PIPE_BUF]):]
        for _ in range(workers):
            r, w = os.pipe()
            sel.register(r, selectors.EVENT_READ, bytearray())
            try:
                if (pid := os.fork()) == 0:
                    _work(calls, qr, qw, w)     # never returns
            finally:
                os.close(w)
            pids[r] = pid
        os.set_blocking(qw, False)
        if here:
            fn, args = calls[-1]
            try:
                outcomes[len(calls) - 1] = (True, fn(*args))
            except Exception as exc:
                outcomes[len(calls) - 1] = (False, exc)
        # read each result pipe as data arrives, so no worker waits on a
        # full one, and reap each worker when it has closed its own
        while sel.get_map():
            for key, _ in sel.select():
                if key.fd == qw:
                    queue = queue[os.write(qw, queue[:select.PIPE_BUF]):]
                    if not queue:
                        sel.unregister(qw)
                        os.close(qw)
                elif data := os.read(key.fd, 1 << 20):
                    key.data.extend(data)
                else:
                    sel.unregister(key.fd)
                    os.close(key.fd)
                    outcomes.update(_records(key.data))
                    status = os.waitpid(pids[key.fd], 0)[1]
                    del pids[key.fd]
                    statuses.append(os.waitstatus_to_exitcode(status))
                    if statuses[-1]:
                        # a worker died: the calls no worker has taken
                        # come after its call, so they are dropped, and
                        # the calls before it still finish.  With no
                        # writer left, reading the queue never blocks
                        if qw in sel.get_map():
                            sel.unregister(qw)
                            os.close(qw)
                        while os.read(qr, select.PIPE_BUF):
                            pass
        return outcomes, statuses
    finally:
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):     # reaped
                pass
        for key in list(sel.get_map().values()):
            os.close(key.fd)
        sel.close()
        os.close(qr)


def _work(calls, qr: int, qw: int, out: int):
    """A forked worker: run each call whose number the queue's read end
    `qr` holds until it ends, and write to `out` an 8-byte length and the
    pickle of (number, ok, value) for each; leaves through `os._exit`."""
    status = 1
    try:
        os.close(qw)    # this copy would keep the queue from ending
        while number := os.read(qr, 4):
            i = int.from_bytes(number, "little")
            fn, args = calls[i]
            try:
                outcome = (i, True, fn(*args))
            except Exception as exc:
                outcome = (i, False, exc)
            try:
                data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = pickle.dumps((i, False, EigenSolveError(
                    f"{_call_name(fn, args)} gave its forked worker process "
                    f"a {'result' if outcome[1] else 'error'} it cannot "
                    f"pickle: {exc!r}")))
            view = memoryview(len(data).to_bytes(8, "little") + data)
            while view:
                view = view[os.write(out, view):]
        status = 0
    finally:
        os._exit(status)


def _records(data: bytearray):
    """The (number, (ok, value)) pairs in a worker's result pipe, up to
    one cut short by the worker's death."""
    with memoryview(data) as view:
        start = 0
        while start + 8 <= len(view):
            end = start + 8 + int.from_bytes(view[start:start + 8], "little")
            if end > len(view):
                return
            i, ok, value = pickle.loads(view[start + 8:end])
            yield i, (ok, value)
            start = end


@dataclass
class SpectralResult:
    """Sorted eigenvalues with vertex-sampled, M-normalized eigenfunctions."""

    boundary_condition: str          # "dirichlet" | "neumann"
    eigenvalues: np.ndarray          # ascending, shape (k,)
    eigenfunctions: np.ndarray       # shape (V, k)
    residuals: np.ndarray            # per-pair, relative to lam ||M u||
    zero_mode_gap: float | None = None   # neumann only: mu_1 - mu_0

    def to_json_dict(self, include_eigenfunctions: bool = False) -> dict:
        doc = {
            "bc": self.boundary_condition,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "residuals": [float(v) for v in self.residuals],
        }
        if self.boundary_condition == "neumann":
            doc["zero_mode_gap"] = float(self.zero_mode_gap)
        if include_eigenfunctions:
            doc["eigenfunctions"] = self.eigenfunctions.T.tolist()
        return doc


def assemble_stiffness(mesh: SurfaceMesh) -> csr_matrix:
    """Cotangent-weight stiffness matrix from intrinsic edge lengths.

    Symmetric positive semidefinite with zero row sums.  Built on the
    mesh's first request and kept on the mesh for its lifetime, so every
    later request returns the same matrix, whose data is read-only.
    """
    return _kept(mesh, "_stiffness", _stiffness)


def assemble_mass(mesh: SurfaceMesh) -> csr_matrix:
    """Consistent P1 mass matrix: per triangle (T/12) * [[2,1,1],[1,2,1],[1,1,2]].

    1^T M 1 equals the total area exactly.  Built and kept once per mesh,
    with read-only data, as `assemble_stiffness` is.
    """
    return _kept(mesh, "_mass", _mass)


def _kept(mesh: SurfaceMesh, name: str, build) -> csr_matrix:
    """The matrix stored on `mesh` as `name`, made by `build(mesh)` with its
    data set read-only on the first request.  Threads that race to build
    it both return the one stored first."""
    matrix = vars(mesh).get(name)
    if matrix is None:
        matrix = build(mesh)
        matrix.data.flags.writeable = False
        matrix = vars(mesh).setdefault(name, matrix)
    return matrix


def _stiffness(mesh: SurfaceMesh) -> csr_matrix:
    l2 = mesh.tri_lengths() ** 2
    # half-cotangent of the angle at corner c (opposite side c)
    w = ((l2[:, [1, 2, 0]] + l2[:, [2, 0, 1]] - l2)
         / (8.0 * mesh.triangle_areas[:, None]))
    # each corner's weight couples the two other corners of its triangle
    off = -np.bincount(mesh.corner_edges.ravel(), weights=w.ravel(),
                       minlength=mesh.edge_count)
    diagonal = np.bincount(mesh.triangles.ravel(),
                           weights=(w[:, [1, 2, 0]] + w[:, [2, 0, 1]]).ravel(),
                           minlength=mesh.vertex_count)
    return mesh.csr_pattern.fill(np.concatenate([diagonal, off, off]))


def _mass(mesh: SurfaceMesh) -> csr_matrix:
    area = np.repeat(mesh.triangle_areas, 3)
    off = np.bincount(mesh.corner_edges.ravel(), weights=area * (1.0 / 12.0),
                      minlength=mesh.edge_count)
    diagonal = np.bincount(mesh.triangles.ravel(), weights=area * (2.0 / 12.0),
                           minlength=mesh.vertex_count)
    return mesh.csr_pattern.fill(np.concatenate([diagonal, off, off]))


def _spectral_scale(K, M) -> float:
    """trace(K) / trace(M): an eigenvalue scale that moves with the metric."""
    return K.diagonal().sum() / M.diagonal().sum()


@single_threaded_blas()
def _solve_gevp(K, M, k: int):
    """k smallest eigenpairs of K u = lam M u (M > 0, one symmetric pattern)."""
    n = K.shape[0]
    # ARPACK needs k < n, and a Krylov basis of nearly n vectors buys
    # nothing over the dense solve
    if n <= DENSE_CUTOFF or k >= n - 1:
        # the full spectrum, sliced: a subset solve is less accurate and
        # moves with the number of pairs asked for
        vals, vecs = eigh(K.toarray(), M.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        # solve K u = (lam area) (M / area) u, a pencil that does not
        # change when the metric is rescaled: ARPACK accepts a Ritz value
        # on an error bound with an absolute floor, so one that shrank with
        # the metric would stop it early.  Shift slightly below the
        # pencil's spectrum.
        area, sigma = M.sum(), -0.1
        Ma = M / area
        try:
            # one factorization of K - sigma Ma, SPD for sigma < 0, so it
            # needs no pivoting: symmetric mode keeps the diagonal as pivots
            # on a minimum-degree ordering of its (symmetric) pattern.  The
            # matrix is symmetric, so its CSR arrays are its CSC arrays.
            A = csc_matrix((K.data - sigma * Ma.data, K.indices, K.indptr),
                           shape=(n, n))
            lu = splu(A, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            # mode 3 applies only OPinv and M, so K is passed for its shape;
            # both are bare matvecs (a sparse M would go through scipy's
            # matmat layers on each product), and the seeded start vector
            # makes repeated solves bit-identical
            mass = LinearOperator((n, n), matvec=Ma.dot, dtype=float)
            inverse = LinearOperator((n, n), matvec=lu.solve, dtype=float)
            vals, vecs = eigsh(K, k=k, M=mass, sigma=sigma, OPinv=inverse,
                               v0=np.random.default_rng(0).uniform(-1.0, 1.0, n),
                               ncv=min(n, max(2 * k + 2, 8)), tol=LANCZOS_TOL)
            vals = vals / area
        except RuntimeError as exc:
            # ARPACK raises ArpackError (ArpackNoConvergence included);
            # SuperLU reports a singular shifted matrix as a RuntimeError
            if not isinstance(exc, ArpackError) and "singular" not in str(exc):
                raise
            raise EigenSolveError(
                f"shift-invert Lanczos failed on n={n} dofs, k={k}, "
                f"sigma={sigma:.6e}: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    mv = M @ vecs
    # M-normalize
    norms = np.sqrt(np.einsum("ij,ij->j", vecs, mv))
    vecs = vecs / norms
    mv = mv / norms
    # relative to the eigenvalue; the zero mode is measured against the
    # spectrum's scale instead
    scale = _spectral_scale(K, M)
    lam = np.where(vals > ZERO_FLOOR_REL * scale, vals, scale)
    res = (np.linalg.norm(K @ vecs - vals * mv, axis=0)
           / (lam * np.linalg.norm(mv, axis=0)))
    # written so that a NaN residual fails the check
    if not np.max(res) <= RESIDUAL_TOL:
        raise EigenSolveError(
            f"eigensolver residuals too large: max {np.max(res):.3e} "
            f"(tolerance {RESIDUAL_TOL:.0e}); residuals {res.tolist()}"
        )
    return vals, vecs, res


def solve_dirichlet(mesh: SurfaceMesh, k: int) -> SpectralResult:
    """k smallest eigenpairs with u = 0 on the boundary.

    The matrices are filled into `mesh.interior_pattern`; eigenfunctions
    are re-embedded with exact zeros on boundary vertices.  A closed mesh
    or a k that is not a positive integer (`positive_int`) raises
    MeshError, and a k above the interior dofs EigenSolveError.
    """
    k = positive_int(k, "k")
    mesh.require_boundary()
    interior = mesh.interior_vertex_indices
    if k > interior.size:
        raise EigenSolveError(f"k={k} is not in [1, {interior.size}]: "
                              f"{interior.size} interior dofs")
    sub = mesh.interior_pattern
    vals, vecs, res = _solve_gevp(sub.fill(assemble_stiffness(mesh).data),
                                  sub.fill(assemble_mass(mesh).data), k)
    full = np.zeros((mesh.vertex_count, k))
    full[interior] = vecs
    return SpectralResult("dirichlet", vals, full, res)


def solve_neumann(mesh: SurfaceMesh, k: int) -> SpectralResult:
    """k smallest nonzero eigenpairs of the free problem.

    The Neumann condition is natural and never imposed.  The constant
    zero mode is detected by threshold and excluded; returned
    eigenfunctions are projected to exact zero M-mean.  A k that is not a
    positive integer (`positive_int`) raises MeshError, and a k of the
    vertex count or more EigenSolveError.
    """
    k = positive_int(k, "k")
    if k >= mesh.vertex_count:      # the zero mode takes one dof
        raise EigenSolveError(f"k={k} is not in [1, {mesh.vertex_count - 1}]: "
                              f"{mesh.vertex_count} dofs less the zero mode")
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    # the zero mode and the k wanted ones.  A built mesh is one connected
    # surface, so an extra zero mode, or no eigenvalue above the floor, no
    # longer comes from a mesh that was built: only from one whose checks
    # were skipped, or from a failed solve
    vals, vecs, res = _solve_gevp(K, M, k + 1)

    above = vals > ZERO_FLOOR_REL * _spectral_scale(K, M)
    if not above.any():
        raise EigenSolveError(
            f"no eigenvalue above the zero-mode floor among the {vals.size} "
            "smallest: mesh is disconnected")
    mu_ref = vals[above][0]
    zero = vals < ZERO_MODE_REL * mu_ref
    nzero = int(zero.sum())
    if nzero > 1:
        raise EigenSolveError(
            f"{nzero} numerically zero Neumann modes: mesh is disconnected")
    if nzero == 0:
        raise EigenSolveError("constant Neumann mode not found among the "
                              "smallest eigenvalues")
    mu0 = vals[0]
    vals, vecs, res = vals[1:k + 1], vecs[:, 1:k + 1], res[1:k + 1]

    # enforce the zero-mean side condition exactly
    m1 = M @ np.ones(mesh.vertex_count)
    vecs = vecs - (m1 @ vecs) / m1.sum()
    norms = np.sqrt(np.einsum("ij,ij->j", vecs, M @ vecs))
    vecs = vecs / norms
    return SpectralResult("neumann", vals, vecs, res,
                          zero_mode_gap=float(vals[0] - mu0))


def rayleigh_quotient(u: np.ndarray, K, M) -> float:
    """(u^T K u) / (u^T M u)."""
    u = np.asarray(u, dtype=float)
    denom = float(u @ (M @ u))
    if not denom > 0.0:         # written so that NaN fails it
        raise ValueError(f"Rayleigh quotient needs u^T M u > 0, got {denom}")
    return float(u @ (K @ u)) / denom
