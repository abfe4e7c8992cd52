"""Session fixtures shared by the module tests and the acceptance suite.

The expensive objects (the h=1/64 background problem and the four scenario
sweeps) are computed once per session.
"""

import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).parent))

from eigenshift import eigsolve, fem2d, hilbert
from eigenshift.fem2d import CoefficientField, unit_square_mesh
from eigenshift.harness import ScenarioConfig, run_scenario


# a FEM run densifies only complete spectra of subspaces sized by the
# eigenpairs its cells read, which grow with max(m) and the expansion; a
# larger dense matrix is sized by the mesh
DENSE_ROWS_LIMIT = 64


def _refuse_toarray(monkeypatch, limit):
    """Make toarray raise on every sparse matrix with more than limit rows."""
    for cls in (sp.csr_array, sp.csc_array, sp.coo_array):

        def toarray(self, *args, _original=cls.toarray, **kwargs):
            if self.shape[0] > limit:
                raise AssertionError(f"a sparse {self.shape} matrix was densified")
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "toarray", toarray)


@pytest.fixture
def dense_free(monkeypatch):
    """Make every dense array sized by the mesh raise: the dense Grams of an
    energy space and any sparse matrix larger than DENSE_ROWS_LIMIT; and fail
    on any larger pencil in the census the test runs in, where ``solve_pencil``
    notes every dense pencil.  The dense branch of ``hilbert._top_pairs``
    densifies A_II, so the toarray refusal covers it over DENSE_ROWS_LIMIT
    rows too; the capacitance pencil of ``SubspacePair.sigma_star`` is
    |R| x |R|, sized by the removed dofs, at most ``hilbert._CAPACITANCE_MAX``."""

    def refuse(self):
        raise AssertionError("a dense N x N Gram was built")

    for name in ("energy_gram", "mass_gram"):
        monkeypatch.setattr(hilbert.EnergySpace, name, property(refuse))
    _refuse_toarray(monkeypatch, DENSE_ROWS_LIMIT)
    with eigsolve.census() as census:
        yield
    largest = max(census["pencils"], default=0)
    assert largest <= DENSE_ROWS_LIMIT, f"a dense pencil of {largest} rows was solved"


@pytest.fixture
def sparse_only(monkeypatch):
    """Make every sparse-to-dense conversion raise, whatever its size."""
    _refuse_toarray(monkeypatch, 0)


@pytest.fixture(scope="session")
def square64():
    """Background problem on the unit square at h = 1/64."""
    mesh = unit_square_mesh(64)
    space = fem2d.assemble(mesh, CoefficientField.identity())
    eigs = hilbert.solve_operator_eigs(
        space.whole(), fem2d.suggested_group_tol(mesh.h), n_lowest=8
    )
    return mesh, space, eigs


@pytest.fixture(scope="session")
def shrink64_report():
    """Fine-mesh shrink cells for the boundary-sensitivity comparisons."""
    config = ScenarioConfig(
        scenario="square_shrink", h=1.0 / 64.0, eps=[1.0 / 64.0, 2.0 / 64.0], m=[1]
    )
    return run_scenario(config)


@pytest.fixture(scope="session")
def th1_report():
    """First-order check geometry: the only desk-scale mesh on which both
    eps = 0.05 and eps = 0.025 are mesh-conforming."""
    config = ScenarioConfig(
        scenario="square_shrink", h=1.0 / 40.0, eps=[0.025, 0.05], m=[1]
    )
    return run_scenario(config)


@pytest.fixture(scope="session")
def zero_report():
    config = ScenarioConfig(
        scenario="square_shrink", h=1.0 / 16.0, eps=[0.0], m=[1, 2]
    )
    return run_scenario(config)


@pytest.fixture(scope="session")
def sweep_reports():
    """The four scenario sweeps over eps in {2h, 4h, 8h, 16h}, m in {1, 2}."""
    h48 = 1.0 / 48.0
    h64 = 1.0 / 64.0
    configs = {
        "square_shrink": ScenarioConfig(
            scenario="square_shrink", h=h48,
            eps=[2 * h48, 4 * h48, 8 * h48, 16 * h48], m=[1, 2],
        ),
        "square_expand": ScenarioConfig(
            scenario="square_expand", h=h64,
            eps=[2 * h64, 4 * h64, 8 * h64, 16 * h64], m=[1, 2],
        ),
        "boundary_notch": ScenarioConfig(
            scenario="boundary_notch", h=h48,
            eps=[2 * h48, 4 * h48, 8 * h48, 16 * h48], m=[1, 2], anchor=(0.5, 1.0),
        ),
        "l_shape": ScenarioConfig(
            scenario="l_shape", h=h48,
            eps=[2 * h48, 4 * h48, 8 * h48, 16 * h48], m=[1, 2],
        ),
    }
    return {name: run_scenario(config) for name, config in configs.items()}
