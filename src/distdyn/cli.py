"""Command-line front end: analyze, simulate, compare-years.

``analyze`` runs the full chain per configured group (pairs, kernel,
ergodic density, NTP, figures, report) and writes a manifest hashing every
output. ``simulate`` emits a synthetic panel CSV. ``compare-years``
overlays per-sector income densities for the panel's first and last year.

Each field of :class:`RunConfig` declares one setting; its flag, config
key, type, help text and range rule all come from that field. Configuration
comes from an optional flat JSON file (keys named like the subcommand's
flags, kebab-case) with command-line flags taking precedence, and every
setting of the subcommand is checked before any file is read. Outputs land
under --out-dir, the DISTDYN_OUT_DIR environment variable, or
./distdyn-out, in that order. All files are written atomically (temp file, then rename).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 when some
group's ergodic solve did not converge (other groups still complete and the
manifest records the failure).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import typing
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import pipeline
from .errors import DistDynError, InvalidSpec, MissingYear, NotConverged
from .kde import MIN_GRID_POINTS
from .panel import SECTORS, dump_panel, load_panel
from .report import compare_years, json_text, report_to_json
from .synthesis import ProcessSpec, simulate
from .viz import _csv_chunks, render_contour, render_curves, render_surface

ENV_OUT_DIR = "DISTDYN_OUT_DIR"
DEFAULT_OUT_DIR = "distdyn-out"

ANALYZE, SIMULATE, COMPARE = "analyze", "simulate", "compare-years"
_PANEL = (ANALYZE, COMPARE)


class ConfigError(Exception):
    """Bad flag, config key, or out-of-range parameter (exit code 2)."""


def _setting(default, help: str, commands: tuple[str, ...], rule=None, must: str = ""):
    """Declare one setting: its default, help text and subcommands, and its
    range rule, a predicate on the value and what the value ``must`` do when
    the predicate is false. A rule that parses the value (the group grammar,
    the club centers) raises ValueError worded in full instead."""
    meta = {"help": help, "commands": commands, "rule": rule, "must": must}
    return field(default=default, metadata=meta)


def _positive(v) -> bool:
    return v > 0


def _club_centers(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"club-centers must be two comma-separated numbers, got {text!r}")


@dataclass
class RunConfig:
    """Resolved settings for one invocation (defaults, file, then flags).

    Each field is the one declaration of a setting. Its flag is
    ``--kebab-name``, its config key ``kebab-name`` and its type the
    annotation's, where ``None`` means unset.
    """

    input: str | None = _setting(
        None, "input panel CSV", _PANEL,
        lambda v: v is not None, "name a panel CSV (use --input or the config file)")
    out_dir: str | None = _setting(
        None, f"output directory; if not given, ${ENV_OUT_DIR} or ./{DEFAULT_OUT_DIR}",
        (ANALYZE, SIMULATE, COMPARE))
    tau: int = _setting(1, "transition horizon in years", (ANALYZE,),
                        _positive, "be a positive integer")
    grid_count: int = _setting(256, "grid points", _PANEL,
                               lambda v: v >= MIN_GRID_POINTS, f"be at least {MIN_GRID_POINTS}")
    grid_upper_factor: float = _setting(
        1.1, "grid top as a multiple of the max relative income", _PANEL, _positive, "be positive")
    scope: str = _setting("pooled", "relative-income scope: pooled or per_sector", _PANEL,
                          lambda v: v in ("pooled", "per_sector"), "be pooled or per_sector")
    groups: str = _setting("pooled", f"comma list of {', '.join(pipeline.GROUP_TOKENS)}",
                           (ANALYZE,), pipeline.parse_groups)
    fraction: float = _setting(1.0 / 3.0, "poorest fraction to keep", (ANALYZE,),
                               lambda v: 0 < v <= 1, "lie in (0, 1]")
    base_year: int | None = _setting(None, "ranking year for poorest-fraction", (ANALYZE,))
    bandwidth_x: float | None = _setting(None, "override the x bandwidth", (ANALYZE,),
                                         lambda v: v is None or v > 0, "be positive")
    bandwidth_y: float | None = _setting(None, "override the y bandwidth", (ANALYZE,),
                                         lambda v: v is None or v > 0, "be positive")
    tol: float = _setting(1e-10, "ergodic L1 tolerance", (ANALYZE,), _positive, "be positive")
    max_iter: int = _setting(10000, "ergodic iteration cap", (ANALYZE,), _positive, "be positive")
    prominence: float = _setting(0.05, "mode prominence threshold as a fraction of the peak",
                                 (ANALYZE,), lambda v: v >= 0, "be nonnegative")
    threads: int = _setting(1, "concurrent groups", (ANALYZE,), _positive, "be positive")
    # synthesis.ProcessSpec range-checks the simulate settings.
    kind: str = _setting("ar1_log", "iid_lognormal, ar1_log, or two_club", (SIMULATE,))
    rho: float = _setting(0.0, "AR(1) persistence in [0, 1)", (SIMULATE,))
    sigma: float = _setting(0.2, "innovation sd of log income", (SIMULATE,))
    club_centers: str = _setting("0.48,1.1", "two comma-separated club centers", (SIMULATE,),
                                 _club_centers)
    club_pull: float = _setting(0.3, "mean-reversion rate in (0, 1]", (SIMULATE,))
    units: int = _setting(400, "cross-section size", (SIMULATE,))
    years: int = _setting(15, "panel length in years", (SIMULATE,))
    seed: int = _setting(0, "64-bit seed", (SIMULATE,))


_FIELDS = {f.name.replace("_", "-"): f for f in fields(RunConfig)}  # by flag name
_TYPES = {name: (typing.get_args(t) or (t,))[0]
          for name, t in typing.get_type_hints(RunConfig).items()}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _settings(command: str) -> dict:
    """Flag name -> field of every setting ``command`` takes, in declaration order."""
    return {key: f for key, f in _FIELDS.items() if command in f.metadata["commands"]}


def _load_config_file(path: str, command: str) -> dict:
    """Settings from a flat JSON config file; every key must be a setting of ``command``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
    settings = _settings(command)
    out = {}
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if key not in settings:
            raise ConfigError(f"config key {key!r} is not a setting of {command}")
        name = _FIELDS[key].name
        kind = _TYPES[name]
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigError(f"config key {key!r} must be {_TYPE_NAMES[kind]}")
        try:
            out[name] = float(value) if kind is float else value
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"config key {key!r} must be a finite number")
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for name, value in _load_config_file(args.config, args.command).items():
            setattr(cfg, name, value)
    for f in _FIELDS.values():
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
    if cfg.out_dir is None:
        cfg.out_dir = os.environ.get(ENV_OUT_DIR) or DEFAULT_OUT_DIR
    cfg.scope = cfg.scope.replace("-", "_")
    return cfg


def _validate(cfg: RunConfig, command: str):
    """Check every setting ``command`` takes: a float must be finite, then
    each value must pass its declared rule."""
    for key, f in _settings(command).items():
        value, rule = getattr(cfg, f.name), f.metadata["rule"]
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        try:
            ok = rule is None or rule(value)
        except ValueError as e:  # a parsing rule words its own error
            raise ConfigError(str(e))
        if not ok:
            raise ConfigError(f"{key} must {f.metadata['must']}, got {value!r}")


def _write_atomic(path: Path, data: bytes | Iterable[bytes]) -> str:
    """Write bytes, or a stream of byte chunks, via a temp file and rename.

    Each chunk is hashed as it is written; returns the content hash.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    with open(tmp, "wb") as fh:
        for chunk in [data] if isinstance(data, bytes) else data:
            fh.write(chunk)
            digest.update(chunk)
    os.replace(tmp, path)
    return digest.hexdigest()


def _config_echo(cfg: RunConfig) -> dict:
    """The analysis-relevant settings, in declaration order, for the manifest.

    Output location and thread count deliberately excluded: they do not
    change the computation, and the manifest must be byte-identical across
    them.
    """
    echo = {key: getattr(cfg, f.name) for key, f in _settings(ANALYZE).items()
            if key not in ("out-dir", "threads")}
    echo["groups"] = ",".join(pipeline.parse_groups(cfg.groups))
    return echo


def _run_group(label, gpanel, grid, cfg: RunConfig, out_base: Path) -> tuple[dict, dict[str, str]]:
    """One group end to end, persisting artifacts as they become available.

    Returns the group's manifest entry and the hash of each file written.
    A failed solve (NotConverged) keeps the estimation-stage files on disk
    and marks the group; any other domain error marks the group as failed.
    """
    gdir = out_base / label
    files: dict[str, str] = {}

    def put(name: str, data: bytes | Iterable[bytes]):
        files[f"{label}/{name}"] = _write_atomic(gdir / name, data)

    def on_estimate(est, ntp):
        put("pairs.csv", _csv_chunks(est.pairs))
        put("kernel.csv", _csv_chunks(est.kernel))
        put("contour.svg", render_contour(est.kernel).encode("utf-8"))
        put("surface.svg", render_surface(est.kernel).encode("utf-8"))
        put("ntp.csv", _csv_chunks(ntp))
        svg = render_curves([(label, ntp)], y_label="net transition probability")
        put("ntp.svg", svg.encode("utf-8"))

    entry: dict = {"label": label}
    try:
        res = pipeline.analyze_group(
            label, gpanel, grid, tau=cfg.tau,
            bandwidth_x=cfg.bandwidth_x, bandwidth_y=cfg.bandwidth_y,
            tol=cfg.tol, max_iter=cfg.max_iter, min_prominence=cfg.prominence,
            on_estimate=on_estimate,
        )
        put("ergodic.csv", _csv_chunks(res.ergodic.density))
        svg = render_curves([(label, res.ergodic.density)], y_label="density")
        put("ergodic.svg", svg.encode("utf-8"))
        put("report.json", report_to_json(res.report).encode("utf-8"))
        entry.update(
            status="ok",
            ergodic_iterations=res.ergodic.iterations,
            ergodic_residual=res.ergodic.residual,
            support_components=res.components,
        )
    except NotConverged as e:
        entry.update(
            status="not_converged",
            error=str(e),
            # an infinite delta is one never measured (the solve stopped first)
            last_deltas=[d if math.isfinite(d) else None for d in e.last_deltas],
        )
    except DistDynError as e:
        entry.update(status="failed", error=str(e))
    return entry, files


def _cmd_analyze(cfg: RunConfig) -> int:
    panel = load_panel(cfg.input)
    panel = pipeline.prepare_panel(panel, scope=cfg.scope)
    grid = pipeline.default_grid(panel, cfg.grid_count, cfg.grid_upper_factor)
    groups = pipeline.expand_groups(
        panel, cfg.groups, base_year=cfg.base_year, fraction=cfg.fraction
    )
    out_base = Path(cfg.out_dir)
    out_base.mkdir(parents=True, exist_ok=True)

    def run(group):
        return _run_group(*group, grid, cfg, out_base)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            results = list(ex.map(run, groups))
    else:  # in this thread, so the groups' arrays share the caller's heap
        results = list(map(run, groups))

    entries = [entry for entry, _ in results]
    # in group order, whatever the thread count
    all_files = {name: digest for _, files in results for name, digest in files.items()}
    manifest = {
        "command": "analyze",
        "config": _config_echo(cfg),
        "grid": {"lower": grid.lower, "upper": grid.upper, "count": grid.count},
        "groups": entries,
        "files": all_files,
    }
    _write_atomic(out_base / "manifest.json", json_text(manifest).encode("utf-8"))

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
    spec = ProcessSpec(
        kind=cfg.kind,
        rho=cfg.rho,
        sigma=cfg.sigma,
        club_centers=_club_centers(cfg.club_centers),
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
    panel = load_panel(cfg.input)
    panel = pipeline.prepare_panel(panel, scope=cfg.scope)
    years = panel.years()
    if len(years) < 2:
        raise MissingYear(f"panel spans a single year ({int(years[0])}); nothing to compare")
    first, last = int(years.min()), int(years.max())
    grid = pipeline.default_grid(panel, cfg.grid_count, cfg.grid_upper_factor)
    by_sector = compare_years(panel, first, last, grid)
    labeled = []
    for sector in SECTORS:
        if sector in by_sector:
            a, b = by_sector[sector]
            labeled.append((f"{sector} {first}", a))
            labeled.append((f"{sector} {last}", b))
    out_base = Path(cfg.out_dir)
    h_csv = _write_atomic(out_base / "compare.csv", _csv_chunks(labeled))
    svg = render_curves(labeled, y_label="density")
    h_svg = _write_atomic(out_base / "compare.svg", svg.encode("utf-8"))
    print(f"wrote {out_base / 'compare.csv'} ({h_csv[:12]}) and compare.svg ({h_svg[:12]})")
    return 0


_COMMANDS = {
    ANALYZE: ("full per-group analysis of a panel CSV", _cmd_analyze),
    SIMULATE: ("generate a synthetic panel CSV", _cmd_simulate),
    COMPARE: ("overlay first- and last-year income densities per sector", _cmd_compare_years),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distdyn",
        description="Distribution dynamics of income panels: stochastic kernels, "
        "ergodic densities, net transition probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for key, f in _settings(command).items():
            default = "" if f.default is None else f" (default {f.default})"
            p.add_argument(f"--{key}", type=_TYPES[f.name], help=f.metadata["help"] + default)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        _validate(cfg, args.command)
        return _COMMANDS[args.command][1](cfg)
    except (ConfigError, InvalidSpec) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DistDynError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
