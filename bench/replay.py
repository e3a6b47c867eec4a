"""Traced replay of one `distdyn analyze` run through each layer's public API.

The replay calls the lowest public functions in the order, and with the
arguments, that the CLI's per-group chain uses, and records a span around
each call. It returns the bytes each output file would hold, so the caller
can check them against the files the untraced CLI run wrote: if they
differ, the spans timed a different program.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

from distdyn import cli, pipeline
from distdyn.dynamics import ergodic_distribution, net_transition_probability, support_components
from distdyn.kde import Bandwidths, conditional_density, density_1d, density_2d, silverman_bandwidth
from distdyn.panel import build_transition_pairs, load_panel
from distdyn.report import build_report, report_to_json
from distdyn.viz import PlotStyle, export_csv, render_contour, render_curves, render_surface

# Support floor the CLI's kernel estimate runs with.
_FLOOR = inspect.signature(pipeline.estimate_kernel).parameters["floor"].default


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str, label: str | None = None):
        sid = len(self.spans)
        rec = {"id": sid, "run": self.run, "name": name, "label": label,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, run: int) -> dict[str, float]:
        """Self time (duration minus child spans) summed by span name."""
        spans = [s for s in self.spans if s["run"] == run]
        own = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
        return out


def config_for(argv: list[str]) -> cli.RunConfig:
    """The RunConfig the CLI resolves from ``argv``."""
    return cli._resolve_config(cli._build_parser().parse_args(argv))


def replay(cfg: cli.RunConfig, tr: Tracer) -> tuple[dict[str, bytes], dict[str, float]]:
    """Run the analyze chain under spans; returns (files, counts)."""
    counts = {"panel.rows": 0, "panel.pairs": 0, "kde.joint_madds": 0,
              "kde.supported_rows": 0, "kde.rows": 0,
              "dynamics.ergodic_iterations": 0, "viz.bytes": 0}
    files: dict[str, bytes] = {}
    with tr.span("run"):
        with tr.span("panel.load"):
            panel = load_panel(cfg.input)
        counts["panel.rows"] = len(panel)
        with tr.span("panel.prepare"):
            panel = pipeline.prepare_panel(panel, scope=cfg.scope)
        grid = pipeline.default_grid(panel, cfg.grid_count, cfg.grid_upper_factor)
        with tr.span("panel.groups"):
            groups = pipeline.expand_groups(
                panel, cfg.groups, base_year=cfg.base_year, fraction=cfg.fraction
            )
        seen = set()
        groups = [(lbl, p) for lbl, p in groups if not (lbl in seen or seen.add(lbl))]
        style = PlotStyle()

        def put(label, name, data):
            files[f"{label}/{name}"] = data
            if not name.endswith(".json"):
                counts["viz.bytes"] += len(data)

        for label, gpanel in groups:
            with tr.span("group", label):
                with tr.span("panel.pairs"):
                    pairs = build_transition_pairs(gpanel, tau=cfg.tau)
                with tr.span("kde.bandwidth"):
                    h_x = cfg.bandwidth_x if cfg.bandwidth_x is not None else silverman_bandwidth(pairs.x, 2)
                    h_y = cfg.bandwidth_y if cfg.bandwidth_y is not None else silverman_bandwidth(pairs.y, 2)
                bw = Bandwidths(h_x=h_x, h_y=h_y)
                with tr.span("kde.joint"):
                    joint = density_2d(pairs, bw, grid, grid)
                with tr.span("kde.marginal"):
                    marginal = density_1d(pairs.x, bw.h_x, grid)
                with tr.span("kde.conditional"):
                    kernel = conditional_density(joint, marginal, floor=_FLOOR)
                with tr.span("viz.csv"):
                    put(label, "pairs.csv", export_csv(pairs))
                    put(label, "kernel.csv", export_csv(kernel))
                with tr.span("viz.contour"):
                    put(label, "contour.svg", render_contour(kernel, style).encode("utf-8"))
                with tr.span("viz.surface"):
                    put(label, "surface.svg", render_surface(kernel, style).encode("utf-8"))
                with tr.span("dynamics.ntp"):
                    ntp = net_transition_probability(kernel)
                with tr.span("viz.csv"):
                    put(label, "ntp.csv", export_csv(ntp))
                with tr.span("viz.curves"):
                    put(label, "ntp.svg", render_curves(
                        [(label, ntp)], style, y_label="net transition probability"
                    ).encode("utf-8"))
                with tr.span("kde.bandwidth"):
                    h_init = silverman_bandwidth(pairs.x, 1)
                with tr.span("kde.marginal"):
                    init = density_1d(pairs.x, h_init, grid)
                with tr.span("dynamics.ergodic"):
                    ergodic = ergodic_distribution(kernel, init, tol=cfg.tol, max_iter=cfg.max_iter)
                with tr.span("viz.csv"):
                    put(label, "ergodic.csv", export_csv(ergodic.density))
                with tr.span("viz.curves"):
                    put(label, "ergodic.svg", render_curves(
                        [(label, ergodic.density)], style, y_label="density"
                    ).encode("utf-8"))
                with tr.span("report.build"):
                    rep = build_report(label, gpanel, pairs, ergodic, ntp, cfg.prominence)
                with tr.span("report.json"):
                    put(label, "report.json", report_to_json(rep).encode("utf-8"))
                with tr.span("dynamics.components"):
                    support_components(kernel)
            counts["panel.pairs"] += len(pairs)
            counts["kde.joint_madds"] += len(pairs) * grid.count * grid.count
            counts["kde.supported_rows"] += kernel.n_supported
            counts["kde.rows"] += grid.count
            counts["dynamics.ergodic_iterations"] += ergodic.iterations
    return files, counts
