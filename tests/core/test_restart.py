"""Contract shared by every solver built on ``RestartedSolve``.

GMRES, CA-GMRES and pipelined GMRES differ only inside one restart cycle;
input checks, the zero right-hand side, the deadline watchdog and the
``on_cycle`` hook belong to :class:`repro.core.restart.RestartedSolve`, so
each is checked once here for all three.
"""

import functools

import numpy as np
import pytest

from repro.core.ca_gmres import ca_gmres
from repro.core.gmres import gmres
from repro.core.pipelined import pipelined_gmres
from repro.matrices import poisson2d
from repro.precond import JacobiPreconditioner
from repro.sparse.csr import csr_from_dense

SOLVERS = {
    "gmres": gmres,
    "ca_gmres": functools.partial(ca_gmres, s=2),
    "pipelined_gmres": pipelined_gmres,
}


@pytest.fixture(params=sorted(SOLVERS))
def solver(request):
    return SOLVERS[request.param]


def test_rejects_bad_input(solver):
    A = poisson2d(4)
    with pytest.raises(ValueError, match="square"):
        solver(csr_from_dense(np.ones((3, 4))), np.ones(3), m=2)
    with pytest.raises(ValueError, match="b must have shape"):
        solver(A, np.ones(5), m=4)
    with pytest.raises(ValueError, match="non-finite"):
        solver(A, np.full(16, np.nan), m=4)
    for m in (0, 17):
        with pytest.raises(ValueError):
            solver(A, np.ones(16), m=m)
    with pytest.raises(ValueError, match="restart length"):
        solver(A, np.ones(16), m=17)


def test_zero_rhs_is_converged_without_a_cycle(solver):
    A = poisson2d(4)
    r = solver(A, np.zeros(16), m=8)
    assert r.converged
    assert r.n_restarts == 0
    assert "profile" in r.details
    np.testing.assert_array_equal(r.x, np.zeros(16))


def test_tiny_deadline_stops_at_a_restart_boundary(solver):
    A = poisson2d(8)
    r = solver(A, np.ones(A.n_rows), n_gpus=2, m=8, tol=1e-12,
               max_restarts=50, deadline=1e-9)
    deg = r.details["degradation"]
    assert not r.converged
    assert deg["deadline_exceeded"]
    assert r.n_restarts == 1


def test_on_cycle_fires_once_per_restart(solver):
    A = poisson2d(8)
    calls = []
    r = solver(A, np.ones(A.n_rows), n_gpus=2, m=8, tol=1e-10,
               max_restarts=6, on_cycle=lambda *args: calls.append(args))
    assert r.n_restarts > 1
    assert [c[0] for c in calls] == list(range(r.n_restarts))
    ends = 0.0
    for _, start, end in calls:
        assert ends <= start <= end
        ends = end


@pytest.mark.parametrize("name", ["gmres", "ca_gmres"])
def test_x0_with_preconditioner_rejected(name):
    A = poisson2d(4)
    with pytest.raises(ValueError, match="x0 with a preconditioner"):
        SOLVERS[name](A, np.ones(16), m=4, x0=np.zeros(16),
                      preconditioner=JacobiPreconditioner(A))
