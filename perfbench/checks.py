"""Output checks: a FEM sweep against its reference rows, an abstract run by batch status.

A FEM cell is one (eps, m) pair.  It fails if it carries an ``error``, if a
gated assertion names it, or if any of its CSV rows is missing, extra, or
outside the reference tolerance.  Numeric columns are compared column by
column: ``|got - ref| <= RTOL * max |ref column|``.  RTOL = 1e-8 admits a
1e-9 relative change of any value plus the rounding of the 10-digit CSV,
and rejects any change a wrong answer would make.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

RTOL = 1e-8
EXACT_COLUMNS = ("scenario", "h", "eps", "m", "k")  # inputs: compared as text
KEY_COLUMNS = ("eps", "m", "k")


def read_rows(path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    return table[0], table[1:]


def _row_key(header, row):
    return tuple(row[header.index(name)] for name in KEY_COLUMNS)


def compare_rows(got_path, ref_path) -> dict:
    """Mismatches of a rows.csv against its reference, keyed by (eps, m) cell."""
    ref_header, ref_rows = read_rows(ref_path)
    misses = {}
    try:
        header, rows = read_rows(got_path)
    except (OSError, IndexError) as exc:
        for row in ref_rows:
            cell = _row_key(ref_header, row)[:2]
            misses.setdefault(cell, []).append(f"rows.csv unreadable: {exc}")
        return misses
    if header != ref_header:
        for row in ref_rows:
            cell = _row_key(ref_header, row)[:2]
            misses.setdefault(cell, []).append(f"header {header} != {ref_header}")
        return misses
    scale = {}
    for j, name in enumerate(header):
        if name not in EXACT_COLUMNS:
            scale[j] = max(abs(float(row[j])) for row in ref_rows)
    got = {_row_key(header, row): row for row in rows}
    ref = {_row_key(header, row): row for row in ref_rows}
    for key in sorted(set(got) | set(ref)):
        where = f"eps={key[0]} m={key[1]} k={key[2]}"
        if key not in got:
            misses.setdefault(key[:2], []).append(f"{where}: row missing")
            continue
        if key not in ref:
            misses.setdefault(key[:2], []).append(f"{where}: unexpected row")
            continue
        for j, name in enumerate(header):
            a, b = got[key][j], ref[key][j]
            try:
                ok = a == b if j not in scale else abs(float(a) - float(b)) <= RTOL * scale[j]
            except ValueError:
                ok = False
            if not ok:
                misses.setdefault(key[:2], []).append(f"{where}: {name} {a} != reference {b}")
    return misses


def check_sweep(out_dir, ref_path, config: dict, rc: int) -> dict:
    """Per-cell verdict of one ``eigenshift run`` output directory."""
    cells = [(eps, int(m)) for eps in sorted(config["eps"]) for m in config["m"]]
    failures = {cell: [] for cell in cells}
    report_path = Path(out_dir) / "report.json"
    try:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        report = None
        for cell in cells:
            failures[cell].append(f"no report.json (exit code {rc}): {exc}")
    if report is not None:
        reported = {(cell["eps"], cell["m"]): cell for cell in report["cells"]}
        for cell in cells:
            entry = reported.get(cell)
            if entry is None:
                failures[cell].append("cell missing from report.json")
            elif entry["error"]:
                failures[cell].append(f"error: {entry['error']}")
        unmatched = []
        for text in report["failures"]:
            hits = [
                cell for cell in cells
                if text.startswith(f"({config['scenario']}, eps={cell[0]}, m={cell[1]})")
            ]
            for cell in hits:
                if f"error: {text}" not in failures[cell]:
                    failures[cell].append(f"gated: {text}")
            if not hits:
                unmatched.append(text)
        if not report["passed"] and not any(failures.values()):
            unmatched.append("report.passed is false")
        for text in unmatched:
            for cell in cells:
                failures[cell].append(f"report: {text}")
        for (eps_text, m_text), misses in compare_rows(
            Path(out_dir) / "rows.csv", ref_path
        ).items():
            cell = _cell_of(cells, eps_text, m_text)
            failures.setdefault(cell, []).extend(misses)
    return {f"eps={cell[0]} m={cell[1]}": found for cell, found in failures.items()}


def _cell_of(cells, eps_text, m_text):
    for cell in cells:
        if abs(cell[0] - float(eps_text)) <= 1e-9 * max(cell[0], 1e-12) and cell[1] == int(m_text):
            return cell
    return (float(eps_text), int(m_text))


def check_batches(batches: list) -> dict:
    """Per-batch verdict of one abstract run, keyed by batch seed.

    A batch fails if it raised, if its summary says ``passed: false`` (the
    suite found a violated property), or if the summary is not the one asked
    for (seed or case count differ).
    """
    verdict = {}
    for batch in batches:
        found = []
        if batch["status"] == "raised":
            found.append(batch["error"])
        elif batch["status"] == "violated":
            found.append("passed is false; violated: " + ", ".join(batch["violated"]))
        elif batch["status"] == "incomplete":
            found.append("summary does not match the requested seed and case count")
        verdict[f"seed={batch['seed']}"] = found
    return verdict
