"""Span tracer for the benchmark's traced run, and the per-layer metrics built from its spans.

The tracer wraps the public functions of each eigenshift layer from outside
the package.  A function imported by name into another module (``hilbert``
and ``perturbation`` import ``solve_pencil``, ``compute_rho`` and
``corrector_block``; ``harness`` and ``cli`` import ``unit_square_mesh``,
``run_scenario``, ``write_report`` and ``verify_abstract``) is looked up in
the importing module's namespace, so the wrapper is installed in every
eigenshift module that holds the original, not only where it is defined.

A span is ``[id, parent_id, name, start, end, attrs]``.  Spans stay in memory
and are written once, with the run id, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute); the attribute may be "Class.method"
TARGETS = (
    ("eigenshift.eigsolve", "solve_pencil"),
    ("eigenshift.hilbert", "solve_operator_eigs"),
    ("eigenshift.hilbert", "sigma_distance"),
    ("eigenshift.hilbert", "sigma_star"),
    ("eigenshift.hilbert", "intersection_subspace"),
    ("eigenshift.hilbert", "compute_rho0"),
    ("eigenshift.hilbert", "compute_rho"),
    ("eigenshift.hilbert", "corrector_block"),
    ("eigenshift.hilbert", "Subspace.project_block"),
    ("eigenshift.fem2d", "unit_square_mesh"),
    ("eigenshift.fem2d", "assemble"),
    ("eigenshift.fem2d", "carve_subspace"),
    ("eigenshift.fem2d", "collar_elements"),
    ("eigenshift.fem2d", "gradient_energy_form"),
    ("eigenshift.fem2d", "symmetric_difference_area"),
    ("eigenshift.perturbation", "localize"),
    ("eigenshift.perturbation", "assemble_correction"),
    ("eigenshift.perturbation", "eigenvector_proximity"),
    ("eigenshift.perturbation", "predict_and_check"),
    ("eigenshift.harness", "run_scenario"),
    ("eigenshift.harness", "write_report"),
    ("eigenshift.harness", "verify_abstract"),
    ("eigenshift.cli", "main"),
)

# stages run once per eps (not per cell): calls beneath them are not per-cell work
PER_EPS_STAGES = frozenset(
    {
        "hilbert.sigma_distance",
        "hilbert.sigma_star",
        "hilbert.solve_operator_eigs",
        "fem2d.carve_subspace",
    }
)


def _pencil_attrs(bound, result):
    return {"dim": int(bound.arguments["pencil"].dim)}


def _eigs_attrs(bound, result):
    dim = int(bound.arguments["sub"].dim)
    n_lowest = bound.arguments["n_lowest"]
    partial = n_lowest is not None and n_lowest < dim
    requested = min(dim, n_lowest + 3) if partial else dim
    return {"dim": dim, "requested": requested, "kept": int(result.n_computed)}


def _assemble_attrs(bound, result):
    return {"dofs": int(result.dim)}


ATTRS = {
    "eigsolve.solve_pencil": _pencil_attrs,
    "hilbert.solve_operator_eigs": _eigs_attrs,
    "fem2d.assemble": _assemble_attrs,
}


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "eigenshift" or name.startswith("eigenshift."))
    ]


class Tracer:
    """Records one span per call of each target function while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.sites = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, func):
        attrs = ATTRS.get(name)
        signature = inspect.signature(func) if attrs else None
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[5] = attrs(bound, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at every lookup site in the loaded eigenshift modules."""
        modules = _package_modules()
        for module_name, attr in targets:
            module = sys.modules[module_name]
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = vars(owner)[method]
                self._replace(owner, method, original, self._wrap(name, original))
                self.sites.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, original, wrapper)
                        self.sites.append(f"{holder.__name__}.{key}")

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "sites": self.sites, "spans": self.spans}, handle)


def _durations(spans):
    return [span[4] - span[3] for span in spans]


def layer_metrics(spans: list, cells: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``s`` is inclusive time (a span nested in a span of the same name is not
    counted twice), ``self_s`` is ``s`` minus the time of direct child
    spans, and ``per_cell`` counts calls made outside the per-eps stages,
    divided by the number of cells.
    """
    duration = _durations(spans)
    child_time = defaultdict(float)
    for span, dur in zip(spans, duration):
        if span[1] is not None:
            child_time[span[1]] += dur

    def ancestors(span):
        names = set()
        parent = span[1]
        while parent is not None:
            names.add(spans[parent][2])
            parent = spans[parent][1]
        return names

    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    per_cell_calls = defaultdict(int)
    for span, dur in zip(spans, duration):
        name = span[2]
        above = ancestors(span)
        calls[name] += 1
        self_time[name] += dur - child_time[span[0]]
        if name not in above:
            inclusive[name] += dur
        if "harness.run_scenario" in above and not above & PER_EPS_STAGES:
            per_cell_calls[name] += 1

    def attrs_of(name):
        return [span[5] for span in spans if span[2] == name and span[5] is not None]

    pencils = attrs_of("eigsolve.solve_pencil")
    eigs = attrs_of("hilbert.solve_operator_eigs")
    sigma_pencil_dims = [
        span[5]["dim"]
        for span in spans
        if span[2] == "eigsolve.solve_pencil"
        and span[1] is not None
        and spans[span[1]][2] == "hilbert.sigma_distance"
    ]
    requested = sum(a["requested"] for a in eigs)

    def per_cell(name):
        return per_cell_calls[name] / cells if cells else 0.0

    return {
        "eigsolve.solve_pencil.calls": calls["eigsolve.solve_pencil"],
        "eigsolve.solve_pencil.s": inclusive["eigsolve.solve_pencil"],
        "eigsolve.solve_pencil.self_s": self_time["eigsolve.solve_pencil"],
        "eigsolve.solve_pencil.dim_max": max((a["dim"] for a in pencils), default=0),
        "eigsolve.solve_pencil.flops_computed": float(sum(a["dim"] ** 3 for a in pencils)),
        "hilbert.solve_operator_eigs.calls": calls["hilbert.solve_operator_eigs"],
        "hilbert.solve_operator_eigs.s": inclusive["hilbert.solve_operator_eigs"],
        "hilbert.solve_operator_eigs.self_s": self_time["hilbert.solve_operator_eigs"],
        "hilbert.solve_operator_eigs.dim_sum": sum(a["dim"] for a in eigs),
        "hilbert.solve_operator_eigs.kept_frac": (
            sum(a["kept"] for a in eigs) / requested if requested else 0.0
        ),
        "hilbert.sigma_distance.calls": calls["hilbert.sigma_distance"],
        "hilbert.sigma_distance.s": inclusive["hilbert.sigma_distance"],
        "hilbert.sigma_distance.pencil_dim_sum": sum(sigma_pencil_dims),
        "hilbert.sigma_star.calls": calls["hilbert.sigma_star"],
        "hilbert.sigma_star.s": inclusive["hilbert.sigma_star"],
        "hilbert.compute_rho0.s": inclusive["hilbert.compute_rho0"],
        "hilbert.compute_rho.s": inclusive["hilbert.compute_rho"],
        "hilbert.corrector_block.calls": calls["hilbert.corrector_block"],
        "hilbert.corrector_block.s": inclusive["hilbert.corrector_block"],
        "hilbert.corrector_block.per_cell": per_cell("hilbert.corrector_block"),
        "hilbert.Subspace.project_block.calls": calls["hilbert.Subspace.project_block"],
        "hilbert.Subspace.project_block.per_cell": per_cell("hilbert.Subspace.project_block"),
        "hilbert.intersection_subspace.calls": calls["hilbert.intersection_subspace"],
        "fem2d.unit_square_mesh.s": inclusive["fem2d.unit_square_mesh"],
        "fem2d.assemble.s": inclusive["fem2d.assemble"],
        "fem2d.carve_subspace.calls": calls["fem2d.carve_subspace"],
        "fem2d.carve_subspace.s": inclusive["fem2d.carve_subspace"],
        "fem2d.collar.s": inclusive["fem2d.collar_elements"]
        + inclusive["fem2d.gradient_energy_form"],
        "fem2d.symmetric_difference_area.s": inclusive["fem2d.symmetric_difference_area"],
        "fem2d.n_dofs": max((a["dofs"] for a in attrs_of("fem2d.assemble")), default=0),
        "perturbation.localize.s": inclusive["perturbation.localize"],
        "perturbation.assemble_correction.s": inclusive["perturbation.assemble_correction"],
        "perturbation.assemble_correction.self_s": self_time["perturbation.assemble_correction"],
        "perturbation.eigenvector_proximity.calls": calls["perturbation.eigenvector_proximity"],
        "perturbation.eigenvector_proximity.s": inclusive["perturbation.eigenvector_proximity"],
        "perturbation.predict_and_check.s": inclusive["perturbation.predict_and_check"],
        "harness.run_scenario.self_s": self_time["harness.run_scenario"],
        "harness.write_report.s": inclusive["harness.write_report"],
        "cli.main.s": inclusive["cli.main"],
    }
