"""Reproducible experiment runner.

A scenario config names a perturbation family (shrinking or expanding
square, boundary notch, corner cut), a mesh size, a coefficient field and a
sweep of perturbation widths.  Running it executes assemble -> carve ->
solve -> localize -> correct -> predict for every (eps, m) cell, evaluates
the gated assertions, and emits a JSON report plus fixed-schema CSV rows.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _oracle_grid, fem2d, hilbert, perturbation
from .eigsolve import PencilError
from .fem2d import CoefficientField, DomainSpec, MeshError, unit_square_mesh
from .hilbert import Subspace

__all__ = [
    "ScenarioConfig",
    "ScenarioReport",
    "CSV_COLUMNS",
    "run_scenario",
    "write_report",
    "write_csv",
    "verify_abstract",
    "verify_fem",
]

CSV_COLUMNS = [
    "scenario",
    "h",
    "eps",
    "m",
    "k",
    "lambda_inv",
    "mu_inv",
    "tau",
    "sigma",
    "sigma_star",
    "rho",
    "rho0",
    "remainder",
    "bound",
    "ratio",
]

# the ScenarioCell scalars that an error cell leaves NaN
_NAN_FIELDS = ("lam_m", "sigma", "sigma_star", "rho", "rho0", "gate_value")

# direction -> (sign under which a drift monotonicity forbids is positive, message words)
_MONOTONE = {
    "shrink": (1.0, "positive", "decreased", "shrinking"),
    "expand": (-1.0, "negative", "increased", "growing"),
}

_SCENARIOS = ("square_shrink", "square_expand", "boundary_notch", "l_shape")
# the fields each coefficient kind takes, besides "kind"
_COEFFICIENT_FIELDS = {"identity": (), "constant": ("matrix", "nu"), "checker": ("nu",)}

# the failures a run records as error cells; any other exception is a bug
# and propagates
_CELL_ERRORS = (
    MeshError,
    PencilError,
    hilbert.DimensionMismatchError,
    hilbert.SubspaceRankError,
    hilbert.NotInSubspaceError,
    perturbation.LocalizationError,
    perturbation.CorrectionGramError,
    np.linalg.LinAlgError,
)


def _check_number(value, name: str, kind=numbers.Real) -> None:
    """ValueError naming the field unless value is a finite number of
    ``kind``; a bool is not a number here, though Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    # every integer is finite, and one beyond the float range overflows isfinite
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class ScenarioConfig:
    """One experiment: scenario family, mesh, coefficients, sweeps.  Each
    field is validated at load, and then ``eps`` is stored as a list, ``m``
    as a list of ints and ``anchor`` as a tuple."""

    scenario: str
    h: float
    eps: list
    m: list
    coefficient: dict = field(default_factory=lambda: {"kind": "identity"})
    q: float = 2.0
    group_tol: float | None = None
    seed: int = 0
    base: float = 0.25
    anchor: tuple = (0.5, 1.0)
    n_lowest: int = 12

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; pick one of {_SCENARIOS}")
        _check_number(self.h, "h")
        if not 0.0 < self.h <= 0.5:  # a mesh has at least 2 cells per side
            raise ValueError(f"mesh size h must be in (0, 1/2], got {self.h}")
        n = 1.0 / self.h
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"mesh size h={self.h} must be the reciprocal of an integer")
        for name, value in (("eps", self.eps), ("m", self.m)):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
        if not self.eps:
            raise ValueError("eps sweep must not be empty")
        for eps in self.eps:
            _check_number(eps, "eps")
        for m in self.m:
            _check_number(m, "m", numbers.Integral)
        if any(m < 1 for m in self.m) or not self.m:
            raise ValueError("m list must contain positive group indices")
        for name, value in (("eps", self.eps), ("m", self.m)):
            if len(set(value)) != len(value):  # a repeat gives rows of one key
                raise ValueError(f"{name} must not repeat a value, got {value!r}")
        self.eps, self.m = list(self.eps), [int(m) for m in self.m]
        if not isinstance(self.coefficient, dict):
            raise ValueError(f"coefficient must be an object, got {self.coefficient!r}")
        kind = self.coefficient.get("kind", "identity")
        if not isinstance(kind, str) or kind not in _COEFFICIENT_FIELDS:
            raise ValueError(f"unknown coefficient kind {kind!r}")
        given, needed = set(self.coefficient) - {"kind"}, set(_COEFFICIENT_FIELDS[kind])
        if given != needed:
            raise ValueError(
                f"coefficient kind {kind!r} takes the fields {sorted(needed)}, got {sorted(given)}"
            )
        nu = self.coefficient.get("nu", 1.0)
        _check_number(nu, "coefficient nu")
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"coefficient nu must be in (0, 1], got {nu}")
        if kind == "constant":
            matrix = np.asarray(self.coefficient["matrix"], dtype=object)
            if matrix.shape != (2, 2):
                raise ValueError(f"coefficient matrix must be 2x2, got shape {matrix.shape}")
            for entry in matrix.flat:
                _check_number(entry, "coefficient matrix entry")
            self.coefficient_field()  # the field's own symmetry check
        _check_number(self.n_lowest, "n_lowest", numbers.Integral)
        if self.n_lowest < 1:
            raise ValueError(f"n_lowest must be at least 1, got {self.n_lowest}")
        if self.group_tol is not None:
            _check_number(self.group_tol, "group_tol")
            if not self.group_tol > 0.0:
                raise ValueError(f"group_tol must be positive or None, got {self.group_tol}")
        _check_number(self.q, "q")
        if not self.q > 1.0:
            raise ValueError(f"q must be greater than 1, got {self.q}")
        _check_number(self.base, "base")
        if not isinstance(self.anchor, (tuple, list)) or len(self.anchor) != 2:
            raise ValueError(f"anchor must be two real numbers, got {self.anchor!r}")
        for coordinate in self.anchor:
            _check_number(coordinate, "anchor")
        self.anchor = tuple(self.anchor)
        _check_number(self.seed, "seed", numbers.Integral)
        for eps in self.eps:
            # the family's own checks: eps, anchor, and conformity to the mesh
            self.perturbed_domain(eps).check_conforming(self.h)

    @property
    def subdivisions(self) -> int:
        return int(round(1.0 / self.h))

    def coefficient_field(self) -> CoefficientField:
        kind = self.coefficient.get("kind", "identity")
        if kind == "identity":
            return CoefficientField.identity()
        if kind == "constant":
            return CoefficientField.constant(
                np.array(self.coefficient["matrix"], dtype=float),
                nu=self.coefficient["nu"],
            )
        return CoefficientField.checker(self.coefficient["nu"])

    def reference_domain(self) -> DomainSpec:
        return self.perturbed_domain(0.0)

    def group_tol_for(self, dom: DomainSpec) -> float:
        """Relative grouping gap for a carved domain's spectrum.

        Degenerate continuum eigenvalues split by O(h^2 lambda) relative,
        and lambda scales with the inverse squared domain size, so the
        mesh-aware tolerance is widened by that factor for inset squares.
        """
        if self.group_tol is not None:
            return self.group_tol
        return fem2d.suggested_group_tol(self.h) / max(dom.side, 2.0 * self.h) ** 2

    def perturbed_domain(self, eps: float) -> DomainSpec:
        return DomainSpec(self.scenario, eps=eps, anchor=self.anchor, base=self.base)

    def to_dict(self) -> dict:
        return {**asdict(self), "anchor": list(self.anchor)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object, got {data!r}")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        missing = {"scenario", "h", "eps", "m"} - set(data)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass
class ScenarioReport:
    """Full outcome of one scenario run."""

    config: ScenarioConfig
    cells: list
    failures: list
    passed: bool

    def _sorted_cells(self) -> list:
        return sorted(self.cells, key=lambda c: (c.eps, c.m))

    def csv_rows(self) -> list:
        """One list of CSV_COLUMNS values per row; a row's field overrides its
        cell's, and a cell's overrides the config's."""
        config = vars(self.config)
        return [
            [{**config, **vars(cell), **vars(row)}[name] for name in CSV_COLUMNS]
            for cell in self._sorted_cells()
            for row in cell.rows
        ]

    def to_dict(self) -> dict:
        cells = []
        for cell in self._sorted_cells():
            record = asdict(cell)
            record.update({name: _json_scalar(record[name]) for name in _NAN_FIELDS})
            record["lambda"] = record.pop("lam_m")
            cells.append(record)
        return {
            "config": self.config.to_dict(),
            "cells": cells,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def _json_scalar(value):
    """Strict-JSON scalar: non-finite floats become null."""
    value = float(value)
    return value if np.isfinite(value) else None


def _error_cell(config, eps, m, exc, sigma, sigma_star):
    return perturbation.ScenarioCell(
        **{**dict.fromkeys(_NAN_FIELDS, np.nan), "sigma": sigma, "sigma_star": sigma_star},
        eps=eps, m=m, multiplicity=0, admitted=False, tracked=False, direction="none",
        error=f"({config.scenario}, eps={eps}, m={m}): {exc}",
    )


def _cell_for(space, mesh, pair, eigs1, eigs2, collar, area, eps, m):
    lam_m, x_m, j_m = eigs1.group(m)
    if pair.direction == "equal":
        # identical subspaces: the problems coincide, and the resolved spectral
        # object is the group itself, so the cell is an exact fixed point
        lam_inv = 1.0 / lam_m
        return perturbation.ScenarioCell(
            eps=eps, m=m, lam_m=lam_m, multiplicity=j_m,
            sigma=0.0, sigma_star=0.0, rho=0.0, rho0=0.0,
            gate_value=0.0, admitted=True, tracked=True, direction="equal",
            mu_inv=[lam_inv] * j_m, tau=[0.0] * j_m,
            rows=[
                perturbation.PredictionRow(
                    k=k, lambda_inv=lam_inv, mu_inv=lam_inv, tau=0.0,
                    predicted_mu_inv=lam_inv, remainder=0.0, bound=0.0, ratio=0.0,
                )
                for k in range(1, j_m + 1)
            ],
            proximity=[0.0] * j_m,
            sym_diff_area=0.0,
        )
    # the run asked the pair for both distances, which it solves once
    sigma = pair.sigma
    loc = perturbation.localize(eigs1, eigs2, m, sigma)
    images = hilbert.eigenspace_images(pair, x_m, lam_m)
    cp = perturbation.assemble_correction(images, sigma)
    collar_max = 0.0
    if collar is not None:
        collar_max = hilbert.form_extremes(fem2d.gradient_energy_form(space, mesh, collar, x_m))[1]
    return perturbation.ScenarioCell(
        eps=eps, m=m, lam_m=lam_m, multiplicity=j_m,
        sigma=sigma, sigma_star=pair.sigma_star, rho=cp.rho, rho0=hilbert.compute_rho0(images),
        gate_value=loc.gate_value, admitted=loc.admitted, tracked=loc.counted,
        direction=pair.direction,
        mu_inv=[float(v) for v in loc.mu_inv],
        tau=[float(t) for t in cp.tau],
        rows=perturbation.predict_and_check(cp, loc.mu),
        proximity=perturbation.eigenvector_proximity(loc.vectors, images, sigma).tolist(),
        # squared energy norms over the unit coefficient sphere
        t_norm2_range=hilbert.form_extremes(images.t_a_t),
        psi_norm2_range=hilbert.form_extremes(images.psi_a_psi),
        collar_energy_max=collar_max,
        sym_diff_area=area,
        group_spread=float(eigs1.spreads[m - 1]),
    )


def _lowest_eigs(sub, group_tol, n, cap, enough):
    """(final request, eigenpairs of sub) from the n lowest, doubling n until
    ``enough`` holds for the decomposition, it is complete, or n reaches cap."""
    while True:
        n = min(n, cap)
        eigs = hilbert.solve_operator_eigs(sub, group_tol, n_lowest=n)
        if eigs.complete or n == cap or enough(eigs):
            return n, eigs
        n *= 2


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute the full pipeline for one scenario config.

    Each eigensolve asks for the pairs the run reads, up to ``n_lowest``: the
    reference for the groups up to max(m) + 1, which fix the windows, and
    each perturbed solve for J_m eigenvalues past every window's lower end in
    the reciprocal scale.  Uncomputed eigenvalues lie below those, so none can
    fall in a window or lie nearer 1/lambda_m than the J_m that ``localize``
    falls back to.  A request that proves too short is doubled, and the
    next eps (eps ascending) starts from the last request that sufficed.
    """
    mesh = unit_square_mesh(config.subdivisions)
    coeff = config.coefficient_field()
    space = fem2d.assemble(mesh, coeff)
    dom1 = config.reference_domain()
    h1 = fem2d.carve_subspace(space, mesh, dom1)
    max_m = max(config.m)

    def resolved(eigs):
        """Groups 1..max(m), which fix the windows, and the next unless complete."""
        return eigs.n_groups >= max_m + (0 if eigs.complete else 1)

    _, eigs1 = _lowest_eigs(h1, config.group_tol_for(dom1), max_m + 2, config.n_lowest, resolved)
    if not resolved(eigs1):
        raise ValueError(
            f"reference decomposition resolves {eigs1.n_groups} groups, "
            f"but m up to {max_m} was requested; increase n_lowest"
        )
    # (lo, J_m) of each window
    floors = [(perturbation.spectral_window(eigs1, m)[0], eigs1.group(m)[2]) for m in config.m]

    def covered(eigs):
        mu_inv = 1.0 / eigs.flat_values()
        return all(np.count_nonzero(mu_inv <= lo) >= j_m for lo, j_m in floors)

    cells = []
    request = eigs1.n_computed
    for eps in sorted(config.eps):
        sigma = sig_star = np.nan
        try:
            dom2 = config.perturbed_domain(eps)
            pair = hilbert.SubspacePair(h1, fem2d.carve_subspace(space, mesh, dom2))
            request, eigs2 = _lowest_eigs(
                pair.h2, config.group_tol_for(dom2), request, config.n_lowest, covered
            )
            sigma, sig_star = hilbert.sigma_distance(pair), hilbert.sigma_star(pair)
            # an equal pair is an exact fixed point and needs no geometry
            moved = pair.direction != "equal"
            collar = fem2d.collar_elements(mesh, dom2, q=config.q) if moved else None
            area = fem2d.symmetric_difference_area(mesh, dom1, dom2) if moved else 0.0
        except _CELL_ERRORS as exc:
            cells.extend(_error_cell(config, eps, m, exc, sigma, sig_star) for m in config.m)
            continue
        for m in config.m:
            try:
                cells.append(_cell_for(space, mesh, pair, eigs1, eigs2, collar, area, eps, m))
            except _CELL_ERRORS as exc:
                cells.append(_error_cell(config, eps, m, exc, sigma, sig_star))
    failures = [cell.error for cell in cells if cell.error]
    failures.extend(_gated_assertions(config, cells))
    return ScenarioReport(
        config=config, cells=cells, failures=failures, passed=not failures
    )


def _gated_assertions(config, cells) -> list:
    """Invariants every successful run must satisfy."""
    failures = []
    for cell in cells:
        where = f"({config.scenario}, eps={cell.eps}, m={cell.m})"
        if cell.error:
            continue
        scalars = [cell.sigma, cell.sigma_star, cell.rho, cell.rho0, *cell.mu_inv, *cell.tau]
        if not np.all(np.isfinite(scalars)):
            failures.append(f"{where}: non-finite reported quantity")
            continue
        if cell.eps == 0.0:
            zeros = [cell.sigma, cell.sigma_star, cell.rho, cell.rho0]
            zeros += [abs(t) for t in cell.tau]
            zeros += [row.remainder for row in cell.rows]
            if max(zeros) > 1e-12:
                failures.append(f"{where}: zero perturbation produced {max(zeros):.3e}")
        if cell.admitted and not cell.tracked:
            failures.append(f"{where}: admitted cell failed the window count")
        if cell.direction not in _MONOTONE:
            continue
        sign, shift, went, domain = _MONOTONE[cell.direction]
        lam_inv = 1.0 / cell.lam_m
        # sign structure holds up to the grouped reference's own resolution: a
        # split near-degenerate group pollutes tau by up to twice its internal
        # spread (the corrector sees the member offsets), so allow 2x margin
        floor = 4.0 * cell.group_spread + 1e-12
        if any(sign * t > floor for t in cell.tau):
            failures.append(f"{where}: {shift} shift predicted for a {domain} domain")
        # monotonicity of the matched eigenvalues is only meaningful when
        # the identification is certified, i.e. within the distance gate
        if cell.admitted and any(
            sign * (mi - lam_inv) > floor + 1e-9 * lam_inv for mi in cell.mu_inv
        ):
            failures.append(f"{where}: eigenvalue {went} on a {domain} domain")
    return failures


def write_csv(report: ScenarioReport, path) -> None:
    """Fixed-schema CSV: one row per (eps, m, k), 10 significant digits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in report.csv_rows():
            writer.writerow(
                [value if isinstance(value, (str, int)) else f"{value:.10g}" for value in row]
            )


def write_report(report: ScenarioReport, out_dir) -> Path:
    """JSON audit record (full double precision) next to the CSV rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    write_csv(report, out / "rows.csv")
    return out / "report.json"


# -- verification suites -------------------------------------------------------


def _random_nodal(rng, space, dim):
    return Subspace.nodal(space, rng.choice(space.dim, size=int(dim), replace=False))


def _random_case(rng):
    n = int(rng.integers(3, 13))
    f1 = rng.normal(size=(n, n))
    f2 = rng.normal(size=(n, n))
    space = hilbert.EnergySpace(f1 @ f1.T + 0.5 * np.eye(n), f2 @ f2.T + 0.5 * np.eye(n))
    dims = rng.integers(1, min(4, n), size=3)
    subs = [_random_nodal(rng, space, d) for d in dims]
    return space, subs


def _serialize_case(space, subs) -> dict:
    return {
        "energy_gram": space.energy_gram.tolist(),
        "mass_gram": space.mass_gram.tolist(),
        "indices": [sub.indices.tolist() for sub in subs],
    }


class _Property:
    def __init__(self, name):
        self.name = name
        self.worst = np.inf
        self.violations = []
        self.count = 0

    def record(self, margin, case_fn=None):
        self.count += 1
        if margin < self.worst:
            self.worst = float(margin)
        if margin < 0 and case_fn is not None and len(self.violations) < 3:
            self.violations.append(case_fn())

    def summary(self) -> dict:
        return {
            "worst_margin": self.worst if self.count else None,
            "cases": self.count,
            "violations": self.violations,
        }


def verify_abstract(seed: int, n_cases: int) -> dict:
    """Random-case inequality suite on small spaces.

    Checks projector laws, cross symmetry, the distance axioms, the
    comparison with the complement constant, the projected-norm and bridge
    estimates, and re-verifies the projector distance against the
    grid-search oracle on a subsample.  Margins are 'amount of slack left';
    any negative margin is a violation and fails the suite.

    Each case draws random s.p.d. Grams and three subspaces on random index
    sets; a violation's counterexample carries the Grams and the ``indices``.
    Any pair of subspaces is a pair of index sets after a congruence of the
    Grams, so the pair properties cover every pair.  Three index sets do not
    cover every triple: a generic triple with d1 + d2 + d3 > n is not three
    coordinate spans in one basis, so the triangle check sees fewer triples.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be at least 1, got {n_cases}")
    rng = np.random.default_rng(seed)
    props = {
        name: _Property(name)
        for name in (
            "projector_idempotent",
            "projector_self_adjoint",
            "cross_symmetry",
            "distance_symmetry",
            "distance_triangle",
            "distance_zero_on_equal",
            "sigma_le_4_sigma_star",
            "projected_norm_bounds",
            "projected_inner_product",
            "bridge_norm",
            "mass_norm_transfer",
            "complement_membership",
            "remainder_via_complement",
            "sigma_grid_oracle",
        )
    }
    fitted_okt = 0.0
    for case_index in range(n_cases):
        space, subs = _random_case(rng)
        h1, h2, h3 = subs
        u = rng.normal(size=space.dim)
        v1 = h1.embed(rng.normal(size=h1.dim))
        w2 = h2.embed(rng.normal(size=h2.dim))

        def _case():
            return {"case": case_index, **_serialize_case(space, subs)}

        # projector laws
        su = h1.project_block(u)
        scale = max(space.energy_norm(u), 1.0)
        defect = space.energy_norm(h1.project_block(su) - su) / scale
        props["projector_idempotent"].record(1e-10 - defect, _case)
        adj = abs(space.energy_inner(su, w2) - space.energy_inner(u, h1.project_block(w2)))
        adj_scale = max(scale * max(space.energy_norm(w2), 1.0), 1.0)
        props["projector_self_adjoint"].record(1e-10 - adj / adj_scale, _case)
        cross = abs(
            space.energy_inner(h2.project_block(v1), w2)
            - space.energy_inner(v1, h1.project_block(w2))
        )
        cross_scale = max(space.energy_norm(v1) * space.energy_norm(w2), 1.0)
        props["cross_symmetry"].record(1e-10 - cross / cross_scale, _case)

        # distance axioms and the complement constant
        pair = hilbert.SubspacePair(h1, h2)
        s12 = hilbert.sigma_distance(pair)
        # (h2, h1) is a pair of its own, so the symmetry check compares two
        # independent solves
        s21, s13, s23, s11 = (
            hilbert.sigma_distance(hilbert.SubspacePair(a, b))
            for a, b in ((h2, h1), (h1, h3), (h2, h3), (h1, h1))
        )
        props["distance_symmetry"].record(
            1e-9 - abs(s12 - s21) / max(s12, 1e-30), _case
        )
        props["distance_triangle"].record(
            np.sqrt(s12) + np.sqrt(s23) - np.sqrt(s13) + 1e-9, _case
        )
        props["distance_zero_on_equal"].record(1e-12 - s11, _case)
        star = hilbert.sigma_star(pair)
        props["sigma_le_4_sigma_star"].record(4.0 * star - s12 + 1e-10, _case)

        # spectral estimates on the first groups of H1
        eigs1 = hilbert.solve_operator_eigs(h1, group_tol=1e-8)
        c0 = hilbert.embedding_constant(space)
        root_sigma = np.sqrt(s12)
        m_top = eigs1.n_groups
        lam_cum = eigs1.cumulative_sum(m_top)
        lam_big = np.sqrt(lam_cum)
        stack = np.hstack([eigs1.spaces[g] for g in range(m_top)])
        coeffs = rng.normal(size=stack.shape[1])
        phi = stack @ (coeffs / np.linalg.norm(coeffs))
        psi = stack @ rng.normal(size=stack.shape[1])
        s_phi = h2.project_block(phi)
        norm_phi2 = space.energy_norm(phi) ** 2
        upper = norm_phi2 * (1.0 + 1e-10) - space.energy_norm(s_phi) ** 2
        props["projected_norm_bounds"].record(upper, _case)
        if lam_big * root_sigma < 1.0:
            lower = space.energy_norm(s_phi) ** 2 - (1.0 - lam_big * root_sigma) * norm_phi2
            props["projected_norm_bounds"].record(lower + 1e-10, _case)
        ip_defect = abs(
            space.energy_inner(s_phi, h2.project_block(psi)) - space.energy_inner(phi, psi)
        )
        ip_bound = 3.0 * lam_big * root_sigma * (
            norm_phi2 + space.energy_norm(psi) ** 2
        )
        props["projected_inner_product"].record(ip_bound - ip_defect + 1e-10, _case)

        # bridge operator and mass-norm transfer
        bv = hilbert.apply_B(pair, v1)
        bridge_slack = 2.0 * c0 * root_sigma * space.energy_norm(v1) - space.energy_norm(bv)
        props["bridge_norm"].record(bridge_slack + 1e-10, _case)
        transfer = (
            space.mass_norm(h1.project_block(w2)) ** 2
            + (2.0 * c0 * root_sigma + s12) * space.energy_norm(w2) ** 2
            - space.mass_norm(w2) ** 2
        )
        props["mass_norm_transfer"].record(transfer + 1e-10, _case)

        # T phi and Psi_phi live in (H1 + H2) orthogonal to the intersection,
        # so the complement constant controls their mass norms, and hence the
        # remainder magnitude: rho <= (sigma + sigma*) * rho_star.  The Psi
        # part needs the exact member eigenvalue, so simple groups only.  They
        # take their own T phi and Psi_phi, a second route to rho's images.
        lam1, x1_first, mult1 = eigs1.group(1)
        images = hilbert.eigenspace_images(pair, x1_first, lam1)
        phi1 = x1_first[:, 0]
        t_phi = phi1 - h2.project_block(phi1)
        t_slack = star * space.energy_norm(t_phi) ** 2 - space.mass_norm(t_phi) ** 2
        props["complement_membership"].record(t_slack + 1e-10, _case)
        if mult1 == 1:
            psi_phi = hilbert.corrector_block(h2, phi1, lam1)
            p_slack = star * space.energy_norm(psi_phi) ** 2 - space.mass_norm(psi_phi) ** 2
            props["complement_membership"].record(p_slack + 1e-10, _case)
            rho_val = hilbert.compute_rho(images, s12)
            rho_star = space.energy_norm(t_phi) ** 2 + space.energy_norm(psi_phi) ** 2
            props["remainder_via_complement"].record(
                (s12 + star) * rho_star - rho_val + 1e-10, _case
            )

        # reported (non-asserted) fit for the localized-pair inner products
        eigs2 = hilbert.solve_operator_eigs(h2, group_tol=1e-8)
        loc = perturbation.localize(eigs1, eigs2, 1, s12)
        if loc.counted and s12 > 1e-12:
            # P_m projects onto span(S2 X_1), as in eigenvector_proximity; a
            # Gram that is not definite means S2 X_1 lost rank: no fit
            uu = loc.vectors[:, 0]
            vv = loc.vectors[:, -1]
            try:
                pu, pv = perturbation.project_onto_span(
                    space, images.s, images.s_a_s, np.column_stack([uu, vv])
                ).T
            except np.linalg.LinAlgError:
                pass
            else:
                defect = abs(space.energy_inner(uu, vv) - space.energy_inner(pu, pv))
                denom = s12 * (space.energy_norm(uu) ** 2 + space.energy_norm(vv) ** 2)
                fitted_okt = max(fitted_okt, defect / denom)

        # oracle subsample: dedicated pairs with dim <= 2 keep the active
        # subspace of the projector difference within the grid's reach
        if case_index % 10 == 0:
            h1o, h2o = (_random_nodal(rng, space, rng.integers(1, 3)) for _ in range(2))
            val = hilbert.sigma_distance(hilbert.SubspacePair(h1o, h2o))
            eye = np.eye(space.dim)
            grid = _oracle_grid.sigma_grid(
                space.energy_gram, space.mass_gram, eye[:, h1o.indices], eye[:, h2o.indices]
            )
            props["sigma_grid_oracle"].record(
                1e-3 - abs(grid - val) / max(val, 1e-3), _case
            )

    summary = {name: prop.summary() for name, prop in props.items()}
    summary["fitted_projected_pair_constant"] = fitted_okt
    summary["passed"] = all(
        prop.worst >= 0 for prop in props.values() if prop.count
    )
    summary["seed"] = seed
    summary["n_cases"] = n_cases
    return summary


_PANEL_FUNCS = (
    lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    lambda x, y: np.sin(2 * np.pi * x) * np.sin(np.pi * y),
    lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y),
    lambda x, y: x * (1 - x) * y * (1 - y),
    lambda x, y: np.sin(3 * np.pi * x) * np.sin(2 * np.pi * y),
)


def verify_fem() -> dict:
    """Mesh-based invariant suite: spectral convergence, degenerate-pair
    detection, discrete domain monotonicity, and the vanishing-distance
    family (sigma, sigma*, and projections converge together)."""
    report = {}
    lam_ref = 2.0 * np.pi**2
    fitted = {}
    for n in (16, 32):
        mesh = unit_square_mesh(n)
        space = fem2d.assemble(mesh, CoefficientField.identity())
        eigs = hilbert.solve_operator_eigs(
            space.whole(), fem2d.suggested_group_tol(mesh.h), n_lowest=8
        )
        lam1 = float(eigs.values[0])
        fitted[n] = (lam1 - lam_ref) / (lam_ref / n**2)
        report[f"lambda1_overshoots_n{n}"] = lam1 - lam_ref >= -1e-9
        lam2, _, mult2 = eigs.group(2)
        report[f"second_group_multiplicity_n{n}"] = mult2 == 2
    report["h2_constant_stable"] = max(fitted.values()) / min(fitted.values()) < 1.5
    report["h2_constants"] = fitted

    # monotonicity under domain shrinking
    mesh = unit_square_mesh(16)
    space = fem2d.assemble(mesh, CoefficientField.identity())
    whole = hilbert.solve_operator_eigs(space.whole(), 1e-9)
    inner = hilbert.solve_operator_eigs(
        fem2d.carve_subspace(space, mesh, DomainSpec("square_shrink", eps=1.0 / 8.0)), 1e-9
    )
    k = min(inner.n_computed, 20)
    report["domain_monotonicity"] = bool(
        np.all(inner.flat_values()[:k] >= whole.flat_values()[:k] - 1e-9)
    )

    # vanishing-distance family: sigma and projections converge together
    mesh = unit_square_mesh(32)
    space = fem2d.assemble(mesh, CoefficientField.identity())
    h_star = space.whole()
    pts = mesh.vertices[mesh.interior_vertices]
    panel = [f(pts[:, 0], pts[:, 1]) for f in _PANEL_FUNCS]
    sigmas, stars, panel_defects = [], [], []
    for eps in (4.0 / 32.0, 2.0 / 32.0, 1.0 / 32.0):
        sub = fem2d.carve_subspace(space, mesh, DomainSpec("square_shrink", eps=eps))
        pair = hilbert.SubspacePair(h_star, sub)
        sigmas.append(hilbert.sigma_distance(pair))
        stars.append(hilbert.sigma_star(pair))
        defect = max(
            space.mass_norm(u - sub.project_block(u)) / space.mass_norm(u) for u in panel
        )
        panel_defects.append(defect)
    report["sigma_family"] = sigmas
    report["sigma_star_family"] = stars
    report["panel_defects"] = panel_defects
    report["sigma_decreases_to_small"] = bool(
        sigmas[0] > sigmas[1] > sigmas[2] and sigmas[2] < 1e-2
    )
    report["sigma_star_decreases"] = bool(
        stars[0] > stars[1] > stars[2] and stars[2] < 1e-2
    )
    report["panel_converges"] = bool(
        panel_defects[0] > panel_defects[1] > panel_defects[2]
        and panel_defects[2] < 0.5 * panel_defects[0]
    )
    report["passed"] = all(
        value for key, value in report.items()
        if isinstance(value, bool)
    )
    return report
