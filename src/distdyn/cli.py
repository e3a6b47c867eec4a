"""Command-line front end: analyze, simulate, compare-years.

``analyze`` runs the full chain per configured group (pairs, kernel,
ergodic density, NTP, figures, report) and writes a manifest hashing every
output. ``simulate`` emits a synthetic panel CSV. ``compare-years``
overlays per-sector income densities for the panel's first and last year.

Configuration comes from an optional flat JSON file (keys named like the
flags, kebab-case) with command-line flags taking precedence. Outputs land
under --out-dir, the DISTDYN_OUT_DIR environment variable, or ./distdyn-out,
in that order. All files are written atomically (temp file, then rename).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 when some
group's ergodic solve did not converge (other groups still complete and the
manifest records the failure).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import pipeline
from .errors import DistDynError, InvalidSpec, MissingYear, NotConverged
from .kde import MIN_GRID_POINTS
from .panel import dump_panel, load_panel
from .report import compare_years
from .synthesis import ProcessSpec, simulate
from .viz import PlotStyle, export_csv, render_contour, render_curves, render_surface

ENV_OUT_DIR = "DISTDYN_OUT_DIR"


class ConfigError(Exception):
    """Bad flag, config key, or out-of-range parameter (exit code 2)."""


@dataclass
class RunConfig:
    """Resolved settings for one invocation (defaults, file, then flags)."""

    input: str | None = None
    out_dir: str | None = None
    tau: int = 1
    grid_count: int = 256
    grid_upper_factor: float = 1.1
    scope: str = "pooled"
    groups: str = "pooled"
    fraction: float = 1.0 / 3.0
    base_year: int | None = None
    bandwidth_x: float | None = None
    bandwidth_y: float | None = None
    tol: float = 1e-10
    max_iter: int = 10000
    prominence: float = 0.05
    seed: int = 0
    threads: int = 1
    kind: str = "ar1_log"
    rho: float = 0.0
    sigma: float = 0.2
    club_centers: str = "0.48,1.1"
    club_pull: float = 0.3
    units: int = 400
    years: int = 15


_INT_KEYS = {"tau", "grid-count", "base-year", "max-iter", "seed", "threads", "units", "years"}
_FLOAT_KEYS = {
    "grid-upper-factor", "fraction", "bandwidth-x", "bandwidth-y", "tol",
    "prominence", "rho", "sigma", "club-pull",
}
_STR_KEYS = {"input", "out-dir", "scope", "groups", "kind", "club-centers"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def _attr(key: str) -> str:
    return key.replace("-", "_")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _INT_KEYS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config key {key!r} must be an integer")
        elif key in _FLOAT_KEYS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key!r} must be a number")
            value = float(value)
        else:
            if not isinstance(value, str):
                raise ConfigError(f"config key {key!r} must be a string")
        out[key] = value
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in _load_config_file(args.config).items():
            setattr(cfg, _attr(key), value)
    for key in _ALL_KEYS:
        flag_value = getattr(args, _attr(key), None)
        if flag_value is not None:
            setattr(cfg, _attr(key), flag_value)
    if cfg.out_dir is None:
        cfg.out_dir = os.environ.get(ENV_OUT_DIR) or "distdyn-out"
    cfg.scope = cfg.scope.replace("-", "_")
    return cfg


def _validate_panel_settings(cfg: RunConfig):
    """Range-check the settings that load a panel and lay out its grid."""
    if cfg.input is None:
        raise ConfigError("no input panel given (use --input or the config file)")
    if cfg.grid_count < MIN_GRID_POINTS:
        raise ConfigError(f"grid-count must be at least {MIN_GRID_POINTS}, got {cfg.grid_count}")
    if not cfg.grid_upper_factor > 0:
        raise ConfigError(f"grid-upper-factor must be positive, got {cfg.grid_upper_factor}")
    if cfg.scope not in ("pooled", "per_sector"):
        raise ConfigError(f"scope must be pooled or per_sector, got {cfg.scope!r}")


def _validate_analysis(cfg: RunConfig) -> list[str]:
    """Range-check analyze settings; returns the normalized group tokens."""
    _validate_panel_settings(cfg)
    if cfg.tau < 1:
        raise ConfigError(f"tau must be a positive integer, got {cfg.tau}")
    if not (0 < cfg.fraction <= 1):
        raise ConfigError(f"fraction must lie in (0, 1], got {cfg.fraction}")
    for name in ("bandwidth_x", "bandwidth_y"):
        val = getattr(cfg, name)
        if val is not None and not val > 0:
            raise ConfigError(f"{name.replace('_', '-')} must be positive, got {val}")
    if not cfg.tol > 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    if cfg.max_iter < 1:
        raise ConfigError(f"max-iter must be positive, got {cfg.max_iter}")
    if cfg.prominence < 0:
        raise ConfigError(f"prominence must be nonnegative, got {cfg.prominence}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be positive, got {cfg.threads}")
    try:
        return pipeline.parse_groups(cfg.groups)
    except ValueError as e:
        raise ConfigError(str(e))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, data: bytes) -> str:
    """Write bytes via a temp file and rename; returns the content hash."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return _sha256(data)


def _config_echo(cfg: RunConfig) -> dict:
    """The analysis-relevant settings, in fixed order, for the manifest.

    Output location and thread count deliberately excluded: they do not
    change the computation, and the manifest must be byte-identical across
    them.
    """
    echo = {
        "input": cfg.input,
        "tau": cfg.tau,
        "grid-count": cfg.grid_count,
        "grid-upper-factor": cfg.grid_upper_factor,
        "scope": cfg.scope,
        "groups": cfg.groups,
        "fraction": cfg.fraction,
        "base-year": cfg.base_year,
        "bandwidth-x": cfg.bandwidth_x,
        "bandwidth-y": cfg.bandwidth_y,
        "tol": cfg.tol,
        "max-iter": cfg.max_iter,
        "prominence": cfg.prominence,
    }
    return echo


def _run_group(label, gpanel, grid, cfg: RunConfig, out_base: Path, style: PlotStyle) -> dict:
    """One group end to end, persisting artifacts as they become available.

    A failed solve (NotConverged) keeps the estimation-stage files on disk
    and marks the group; any other domain error marks the group as failed.
    """
    gdir = out_base / label
    files: dict[str, str] = {}

    def put(name: str, data: bytes):
        files[f"{label}/{name}"] = _write_atomic(gdir / name, data)

    def on_estimate(est, ntp):
        put("pairs.csv", export_csv(est.pairs))
        put("kernel.csv", export_csv(est.kernel))
        put("contour.svg", render_contour(est.kernel, style).encode("utf-8"))
        put("surface.svg", render_surface(est.kernel, style).encode("utf-8"))
        put("ntp.csv", export_csv(ntp))
        put(
            "ntp.svg",
            render_curves(
                [(label, ntp)], style, y_label="net transition probability"
            ).encode("utf-8"),
        )

    entry: dict = {"label": label}
    try:
        res = pipeline.analyze_group(
            label, gpanel, grid, tau=cfg.tau,
            bandwidth_x=cfg.bandwidth_x, bandwidth_y=cfg.bandwidth_y,
            tol=cfg.tol, max_iter=cfg.max_iter, min_prominence=cfg.prominence,
            on_estimate=on_estimate,
        )
        put("ergodic.csv", export_csv(res.ergodic.density))
        put(
            "ergodic.svg",
            render_curves(
                [(label, res.ergodic.density)], style, y_label="density"
            ).encode("utf-8"),
        )
        put("report.json", res.report.to_json().encode("utf-8"))
        entry.update(
            status="ok",
            ergodic_iterations=res.ergodic.iterations,
            ergodic_residual="%.17g" % res.ergodic.residual,
            support_components=[["%.17g" % a, "%.17g" % b] for a, b in res.components],
        )
    except NotConverged as e:
        entry.update(
            status="not_converged",
            error=str(e),
            last_deltas=["%.17g" % d for d in e.last_deltas],
        )
    except DistDynError as e:
        entry.update(status="failed", error=str(e))
    entry["files"] = files
    return entry


def _cmd_analyze(cfg: RunConfig) -> int:
    tokens = _validate_analysis(cfg)
    panel = load_panel(cfg.input)
    panel = pipeline.prepare_panel(panel, scope=cfg.scope)
    grid = pipeline.default_grid(panel, cfg.grid_count, cfg.grid_upper_factor)
    groups = pipeline.expand_groups(
        panel, tokens, base_year=cfg.base_year, fraction=cfg.fraction
    )
    out_base = Path(cfg.out_dir)
    out_base.mkdir(parents=True, exist_ok=True)
    style = PlotStyle()

    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        entries = list(
            ex.map(lambda g: _run_group(g[0], g[1], grid, cfg, out_base, style), groups)
        )

    all_files: dict[str, str] = {}
    for e in entries:
        all_files.update(e["files"])
    manifest = {
        "command": "analyze",
        "config": _config_echo(cfg),
        "grid": {"lower": grid.lower, "upper": grid.upper, "count": grid.count},
        "groups": entries,
        "files": all_files,
    }
    data = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    _write_atomic(out_base / "manifest.json", data)

    for e in entries:
        note = e["status"] if e["status"] == "ok" else f"{e['status']} ({e['error']})"
        print(f"group {e['label']}: {note}")
    print(f"wrote {out_base / 'manifest.json'}")
    if any(e["status"] == "not_converged" for e in entries):
        return 4
    if not any(e["status"] == "ok" for e in entries):
        return 3
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    try:
        centers = tuple(float(t) for t in cfg.club_centers.split(","))
    except ValueError:
        raise ConfigError(f"club-centers must be two comma-separated numbers, got {cfg.club_centers!r}")
    spec = ProcessSpec(
        kind=cfg.kind,
        rho=cfg.rho,
        sigma=cfg.sigma,
        club_centers=centers,
        club_pull=cfg.club_pull,
        units=cfg.units,
        years=cfg.years,
        seed=cfg.seed,
    )
    panel = simulate(spec)
    out_base = Path(cfg.out_dir)
    path = out_base / "panel.csv"
    _write_atomic(path, dump_panel(panel))
    print(f"wrote {path} ({len(panel)} observations)")
    return 0


def _cmd_compare_years(cfg: RunConfig) -> int:
    _validate_panel_settings(cfg)
    panel = load_panel(cfg.input)
    panel = pipeline.prepare_panel(panel, scope=cfg.scope)
    years = panel.years()
    if len(years) < 2:
        raise MissingYear(f"panel spans a single year ({int(years[0])}); nothing to compare")
    first, last = int(years.min()), int(years.max())
    grid = pipeline.default_grid(panel, cfg.grid_count, cfg.grid_upper_factor)
    by_sector = compare_years(panel, first, last, grid)
    labeled = []
    for sector in ("urban", "rural"):
        if sector in by_sector:
            a, b = by_sector[sector]
            labeled.append((f"{sector} {first}", a))
            labeled.append((f"{sector} {last}", b))
    out_base = Path(cfg.out_dir)
    h_csv = _write_atomic(out_base / "compare.csv", export_csv(labeled))
    svg = render_curves(labeled, PlotStyle(), y_label="density")
    h_svg = _write_atomic(out_base / "compare.svg", svg.encode("utf-8"))
    print(f"wrote {out_base / 'compare.csv'} ({h_csv[:12]}) and compare.svg ({h_svg[:12]})")
    return 0


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--input", help="input panel CSV")
    p.add_argument("--out-dir", help=f"output directory (default ${ENV_OUT_DIR} or ./distdyn-out)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distdyn",
        description="Distribution dynamics of income panels: stochastic kernels, "
        "ergodic densities, net transition probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full per-group analysis of a panel CSV")
    _add_common_flags(pa)
    pa.add_argument("--tau", type=int, help="transition horizon in years (default 1)")
    pa.add_argument("--grid-count", type=int, help="grid points (default 256)")
    pa.add_argument("--grid-upper-factor", type=float,
                    help="grid top as a multiple of the max relative income (default 1.1)")
    pa.add_argument("--scope", help="relative-income scope: pooled or per_sector")
    pa.add_argument("--groups",
                    help="comma list of pooled, per-sector, per-region, poorest-fraction")
    pa.add_argument("--fraction", type=float, help="poorest fraction to keep (default 1/3)")
    pa.add_argument("--base-year", type=int, help="ranking year for poorest-fraction")
    pa.add_argument("--bandwidth-x", type=float, help="override the x bandwidth")
    pa.add_argument("--bandwidth-y", type=float, help="override the y bandwidth")
    pa.add_argument("--tol", type=float, help="ergodic L1 tolerance (default 1e-10)")
    pa.add_argument("--max-iter", type=int, help="ergodic iteration cap (default 10000)")
    pa.add_argument("--prominence", type=float,
                    help="mode prominence threshold as a fraction of the peak (default 0.05)")
    pa.add_argument("--threads", type=int, help="concurrent groups (default 1)")

    ps = sub.add_parser("simulate", help="generate a synthetic panel CSV")
    _add_common_flags(ps)
    ps.add_argument("--kind", help="iid_lognormal, ar1_log, or two_club")
    ps.add_argument("--rho", type=float, help="AR(1) persistence in [0, 1)")
    ps.add_argument("--sigma", type=float, help="innovation sd of log income")
    ps.add_argument("--club-centers", help="two comma-separated club centers")
    ps.add_argument("--club-pull", type=float, help="mean-reversion rate in (0, 1]")
    ps.add_argument("--units", type=int, help="cross-section size")
    ps.add_argument("--years", type=int, help="panel length in years")
    ps.add_argument("--seed", type=int, help="64-bit seed")

    pc = sub.add_parser("compare-years",
                        help="overlay first- and last-year income densities per sector")
    _add_common_flags(pc)
    pc.add_argument("--grid-count", type=int, help="grid points (default 256)")
    pc.add_argument("--grid-upper-factor", type=float,
                    help="grid top as a multiple of the max relative income (default 1.1)")
    pc.add_argument("--scope", help="relative-income scope: pooled or per_sector")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "analyze":
            return _cmd_analyze(cfg)
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        return _cmd_compare_years(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvalidSpec as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DistDynError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
