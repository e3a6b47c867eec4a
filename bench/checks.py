"""Output checks and accuracy measures for `distdyn analyze` output directories.

Every timed call's directory goes through :func:`check_output`. The
accuracy measures read only the written CSV files:

* solver error: L1 distance between a group's ergodic.csv and the dense
  fixed point of its kernel.csv, the Perron eigenvector of the
  trapezoid-weighted transition operator from numpy.linalg.eig;
* truth error: L1 distance between the pooled group's ergodic.csv and the
  long-run law of the process that generated the panel.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output directory fails a check."""


def check_output(out: Path, code: int, reference_manifest: bytes | None) -> list[str]:
    """Problems with one analyze output directory (empty when it passes).

    Checks the exit code, that every group's status is ok, that every file
    in the manifest exists with its sha256 and nothing else was written, and
    that the manifest equals ``reference_manifest`` byte for byte.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    path = out / "manifest.json"
    if not path.is_file():
        return problems + ["no manifest.json"]
    raw = path.read_bytes()
    manifest = json.loads(raw)
    for group in manifest["groups"]:
        if group["status"] != "ok":
            problems.append(f"group {group['label']}: status {group['status']}")
    for name, digest in manifest["files"].items():
        f = out / name
        if not f.is_file():
            problems.append(f"{name}: missing")
        elif hashlib.sha256(f.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    extra = written - set(manifest["files"]) - {"manifest.json"}
    if extra:
        problems.append(f"files not in the manifest: {sorted(extra)}")
    if reference_manifest is not None and raw != reference_manifest:
        problems.append("manifest differs from the first call's")
    return problems


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    h = (x[-1] - x[0]) / (x.size - 1)
    w = np.full(x.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _read_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, data = _read_csv(path)
    return data[:, 0], data[:, 1]


def solver_l1_error(group_dir: Path, n_components: int) -> float:
    """L1 distance from ergodic.csv to the dense fixed point of kernel.csv.

    One evolve step maps f to g(y) = sum_i w_i f_i K(i, y), renormalized to
    unit mass, so the power iteration's limit is the Perron eigenvector of
    A = (w K)^T. Its eigenvalue is 1 less the mass that lands on
    unsupported (zero) rows. With more than one support component that
    eigenvector is not unique, so the comparison is refused.
    """
    if n_components != 1:
        raise CheckError(f"{group_dir.name}: {n_components} support components; "
                         "the dense fixed point is not unique")
    header, data = _read_csv(group_dir / "kernel.csv")
    x, kernel = data[:, 0], data[:, 1:]
    y = np.array([float(v) for v in header[1:]])
    if not np.array_equal(x, y):
        raise CheckError(f"{group_dir.name}: kernel is not square")
    w = _trapezoid_weights(x)
    values, vectors = np.linalg.eig((w[:, None] * kernel).T)
    perron = int(np.argmax(values.real))
    fixed = vectors[:, perron].real
    fixed = fixed / np.sum(w * fixed)
    xe, ergodic = _read_curve(group_dir / "ergodic.csv")
    if not np.array_equal(xe, x):
        raise CheckError(f"{group_dir.name}: ergodic and kernel grids differ")
    return float(np.sum(w * np.abs(fixed - ergodic)))


def max_solver_l1_error(out: Path) -> tuple[float, dict[str, float]]:
    """Largest solver error over the manifest's groups, and each group's."""
    manifest = json.loads((out / "manifest.json").read_bytes())
    per_group = {
        g["label"]: solver_l1_error(out / g["label"], len(g["support_components"]))
        for g in manifest["groups"]
    }
    return max(per_group.values()), per_group


def _lognormal(x: np.ndarray, log_mean: float, log_sd: float) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    z = (np.log(x[pos]) - log_mean) / log_sd
    out[pos] = np.exp(-0.5 * z * z) / (x[pos] * log_sd * math.sqrt(2.0 * math.pi))
    return out


def truth_l1_error(out: Path, spec) -> float:
    """L1 distance from the pooled ergodic.csv to the process's long-run law.

    For ar1_log this is ``synthesis.stationary_density``. A two-club unit
    never changes club, so the long-run law of that process is the mixture
    of the two clubs' stationary lognormals with the realized club shares.
    """
    from distdyn import Grid, club_assignments, stationary_density
    from distdyn.synthesis import club_log_sd

    manifest = json.loads((out / "manifest.json").read_bytes())
    g = manifest["grid"]
    grid = Grid.uniform(g["lower"], g["upper"], g["count"])
    x, ergodic = _read_curve(out / "pooled" / "ergodic.csv")
    if not np.array_equal(x, grid.points):
        raise CheckError("pooled ergodic.csv is not on the manifest's grid")
    w = _trapezoid_weights(x)
    if spec.kind == "two_club":
        low = float(np.mean(club_assignments(spec) == 0))
        sd = club_log_sd(spec)
        c_low, c_high = spec.club_centers
        truth = low * _lognormal(x, math.log(c_low), sd) + (1 - low) * _lognormal(x, math.log(c_high), sd)
        truth = truth / np.sum(w * truth)
    else:
        truth = stationary_density(spec, grid).values
    return float(np.sum(w * np.abs(truth - ergodic)))
