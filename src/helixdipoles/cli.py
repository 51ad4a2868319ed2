"""Experiment runner: configuration, orchestration and CSV/summary export.

Every subcommand writes three kinds of artifact into the run directory:
``metadata.txt`` (the settings the subcommand takes, echoed verbatim, plus
the run status and library versions), one or more CSV data files, and
``summary.txt`` with the headline numbers.  Runs are always seeded and
serial, so repeated runs produce byte-identical files.

Exit codes: 0 success, 2 configuration error or an output file that cannot
be written, 3 invalid geometry, 4 eigensolver non-convergence (partial
outputs are kept and flagged).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import build_size_scan, fit_harmonic_size, size_energy_product
from .errors import ConvergenceError, GeometryError, HelixDipolesError
from .linalg import DEFAULT_SEED, DENSE_CUTOFF, METHODS
from .potential import (TWO_PI, HelixGeometry, energy_unit_joules, find_minima,
                        reduced_potential, validate_geometry)
from .threebody import WedgeGrid2D, solve_three_body, symmetrize_wavefunction
from .twobody import STATISTICS, Grid1D, extend_full_line, scan_beta, solve_two_body

#: Environment variable overriding the default output directory.
OUTDIR_ENV = "HELIX_DIPOLES_OUTDIR"

_BODIES = ("two-body", "three-body")
_SOLVING = _BODIES + ("scan", "fit")
_HALF_LINE = ("two-body", "scan", "fit")
_WEDGE = ("three-body",)


def _flag(default, doc: str, on=None, flag: str | None = None, choices=None):
    """Field that is also ``--flag`` (default: its name) on subcommands ``on`` (or all)."""
    return field(default=default,
                 metadata={"help": doc, "on": on, "flag": flag, "choices": choices})


@dataclass
class RunConfig:
    """Flat run configuration; every field has a default.

    The one declaration of each setting: :func:`_flag` fields are also flags.
    ``x_max``/``y_max``/``spacing_2d`` default to ``None`` ("auto"), resolved
    per coupling strength: (30, 40, 0.1) for beta >= 1 and (60, 90, 0.15)
    below (weakly bound states need the larger box).  Runs are always seeded
    and serial.
    """

    problem: str = "two-body"
    ratio: float = _flag(1.0, "pitch-to-radius ratio h/R")
    beta: float = _flag(1.0, "coupling strength", on=_BODIES)
    betas: tuple[float, ...] = _flag(
        (), "comma-separated coupling values; none picks the built-in list",
        on=("scan", "fit"))
    product_betas: tuple[float, ...] = _flag(
        (), "comma-separated weak couplings for the size-energy product", on=("fit",))
    box_length: float = _flag(100.0, "half-line box size L", on=_HALF_LINE)
    spacing_1d: float = _flag(0.01, "grid spacing", on=_HALF_LINE, flag="spacing")
    x_max: float | None = _flag(None, "box extent in x", on=_WEDGE)
    y_max: float | None = _flag(None, "box extent in y", on=_WEDGE)
    spacing_2d: float | None = _flag(None, "grid spacing", on=_WEDGE, flag="spacing")
    k_states: int = _flag(4, "number of states (per coupling for scan)",
                          on=_BODIES + ("scan",), flag="k")
    statistics: str = _flag("boson", "exchange symmetry", on=_BODIES, choices=STATISTICS)
    phi_max: float = _flag(3.0 * TWO_PI, "largest separation sampled", on=("potential",))
    n_samples: int = _flag(2000, "number of curve samples", on=("potential",))
    out_dir: str = _flag("runs", f"output directory (or ${OUTDIR_ENV})")
    seed: int = _flag(DEFAULT_SEED, "eigensolver start-vector seed", on=_SOLVING)
    tol: float = _flag(1e-9, "relative accuracy of the ARPACK Ritz values: "
                       "E for lanczos, 1/(E - sigma) for shift-invert", on=_SOLVING)
    solver: str = _flag("auto", "eigensolver path; auto picks by operator structure, "
                        "a banded solve for two-body and shift-invert for three-body; "
                        f"dense takes at most {DENSE_CUTOFF} unknowns",
                        on=_SOLVING, choices=METHODS)
    allow_small_box: bool = _flag(False, "skip the five-winding wall-clearance check",
                                  on=_WEDGE)
    symmetrize: bool = _flag(False, "export the full-plane (anti)symmetrized wave function",
                             on=_WEDGE)
    sample_extent: float = _flag(25.0, "symmetrized sampling half-width", on=_WEDGE)
    sample_spacing: float = _flag(0.25, "symmetrized sampling step", on=_WEDGE)
    emit_full_line: bool = _flag(False, "also export symmetry-extended wave functions",
                                 on=("two-body",), flag="full-line")
    mass_kg: float = _flag(0.0, "particle mass [kg]; set with --radius-m to also report "
                           "energies in joules (0: unset)", on=("two-body",))
    radius_m: float = _flag(0.0, "helix radius [m]", on=("two-body",))

    def resolved_box(self) -> tuple[float, float, float]:
        if self.beta >= 1.0:
            auto = (30.0, 40.0, 0.1)
        else:
            auto = (60.0, 90.0, 0.15)
        return (
            self.x_max if self.x_max is not None else auto[0],
            self.y_max if self.y_max is not None else auto[1],
            self.spacing_2d if self.spacing_2d is not None else auto[2],
        )

    def to_items(self) -> list[tuple[str, str]]:
        """Serialize every field as (key, value-string), round-trip exact."""
        return [(f.name, _format_value(getattr(self, f.name))) for f in fields(self)]

    @classmethod
    def from_items(cls, items: dict[str, str]) -> "RunConfig":
        """Inverse of :meth:`to_items`; rejects unknown keys and values outside ``choices``."""
        kwargs = {}
        known = {f.name: f for f in fields(cls)}
        for key, raw in items.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            value = _PARSERS[known[key].type](raw.strip())
            choices = known[key].metadata.get("choices")
            if choices and value not in choices:
                raise ValueError(f"config key {key!r}: {value!r} is not one of "
                                 f"{', '.join(choices)}")
            kwargs[key] = value
        return cls(**kwargs)


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _optional_float(raw: str) -> float | None:
    return None if raw in ("auto", "") else float(raw)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _true_false(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true/false, got {raw!r}")
    return raw == "true"


# argparse names the type in its errors: "invalid float list value: 'x'"
_optional_float.__name__ = "float or auto"
_float_list.__name__ = "float list"

#: One parser per field annotation, for config-file values and flags alike.
_PARSERS = {"str": str, "int": int, "float": float, "bool": _true_false,
            "float | None": _optional_float, "tuple[float, ...]": _float_list}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    items: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, _, value = line.partition("=")
        items[key.strip()] = value.strip()
    return items


#: Rows formatted per write; bounds the transient strings.
_CSV_BLOCK_ROWS = 1024


def _fmt(x) -> str:
    """Floats at 12 significant digits with '.' decimal point."""
    if isinstance(x, (float, np.floating)):
        return f"{x:.12g}"
    return str(x)


def emit_csv(header: list[str], rows, path: str | Path) -> None:
    """Write a float table as CSV with a header line, every cell ``%.12g``.

    ``rows`` (an array or nested lists, one column per header name) is taken
    as float64 and written through one row template, a block of rows per
    write.  ``%.12g`` gives the bytes :func:`_fmt` gives a float, and prints
    whole numbers without a decimal point (``-1``, ``3``) and NaN as ``nan``.
    """
    table = np.asarray(rows, dtype=np.float64)
    line = ",".join(["%.12g"] * len(header)) + "\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS].tolist()
            fh.write("".join([line % tuple(r) for r in block]))


def emit_summary(record: dict, path: str | Path) -> None:
    """Write a line-oriented ``key = value`` text record."""
    with Path(path).open("w") as fh:
        for key, value in record.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def _takes(f, problem: str) -> bool:
    """Whether subcommand ``problem`` takes field ``f``: its flags and metadata echo."""
    return "help" in f.metadata and problem in (f.metadata["on"] or _COMMANDS)


def _write_metadata(cfg: RunConfig, out: Path, extra: dict) -> None:
    taken = {f.name for f in fields(cfg) if f.name == "problem" or _takes(f, cfg.problem)}
    record = {key: value for key, value in cfg.to_items() if key in taken}
    record["package_version"] = __version__
    record["numpy_version"] = np.__version__
    import scipy

    record["scipy_version"] = scipy.__version__
    record.update(extra)
    emit_summary(record, out / "metadata.txt")


def _eigen_summary(eigen) -> dict:
    summary = {
        "solver_method": eigen.method,
        "solver_seed": "none" if eigen.seed is None else eigen.seed,
        "max_residual_norm": float(eigen.residual_norms.max()),
        "matvec_count": eigen.n_matvec,
    }
    if eigen.method == "shift-invert":
        summary["factor_nnz"] = eigen.factor_nnz
        summary["solver_shift"] = eigen.shift
        # the only estimate a run hands the solver is a coarse wedge's E0
        summary["shift_source"] = "coarse" if eigen.shift_source == "estimate" else "gershgorin"
    return summary


def _energy_unit(cfg: RunConfig) -> float | None:
    """The SI energy unit hbar^2 / (mu alpha^2) once mass or radius is set, else None.

    Called before any solve, so bad mass or radius is a configuration error.
    """
    if cfg.mass_kg == 0.0 and cfg.radius_m == 0.0:
        return None
    if not (0.0 < cfg.mass_kg < math.inf and 0.0 < cfg.radius_m < math.inf):
        raise ValueError("energies in joules need finite positive mass_kg and radius_m")
    return energy_unit_joules(cfg.mass_kg, HelixGeometry(cfg.radius_m, cfg.ratio * cfg.radius_m))


def _run_potential(cfg: RunConfig, out: Path) -> dict:
    validate_geometry(cfg.ratio)
    if cfg.n_samples < 1 or not 0.0 < cfg.phi_max < math.inf:
        raise ValueError("potential needs n_samples >= 1 and finite phi_max > 0")
    step = cfg.phi_max / cfg.n_samples
    phi = step * np.arange(1, cfg.n_samples + 1)
    values = reduced_potential(phi, cfg.ratio)
    emit_csv(
        ["phi_over_2pi", "V_reduced"],
        np.column_stack([phi / TWO_PI, values]),
        out / "data.csv",
    )
    minima = [m for m in find_minima(cfg.ratio, math.ceil(cfg.phi_max / TWO_PI))
              if m.phi_k <= cfg.phi_max]
    summary: dict = {"ratio": cfg.ratio, "n_minima_in_range": len(minima)}
    for m in minima[:5]:
        summary[f"minimum_{m.winding_index}_phi"] = m.phi_k
        summary[f"minimum_{m.winding_index}_value"] = m.value
    return summary


def _run_two_body(cfg: RunConfig, out: Path) -> dict:
    unit = _energy_unit(cfg)
    grid = Grid1D.from_spacing(cfg.box_length, cfg.spacing_1d)
    sol = solve_two_body(grid, cfg.beta, cfg.ratio, cfg.k_states,
                         tol=cfg.tol, method=cfg.solver, seed=cfg.seed)
    header = ["phi"] + [f"psi{m}" for m in range(cfg.k_states)]
    emit_csv(
        header,
        np.column_stack([grid.nodes] + [sol.wavefunction(m) for m in range(cfg.k_states)]),
        out / "wavefunctions.csv",
    )
    if cfg.emit_full_line:
        columns = [extend_full_line(sol, cfg.statistics, m) for m in range(cfg.k_states)]
        emit_csv(
            header,
            np.column_stack([columns[0][0]] + [psi for _, psi in columns]),
            out / "wavefunctions_full_line.csv",
        )
    peak = grid.nodes[int(np.argmax(np.abs(sol.wavefunction(0))))]
    summary: dict = {"beta": cfg.beta, "ratio": cfg.ratio,
                     "bound_count": sol.bound_count, "peak_phi": peak}
    for m, e in enumerate(sol.energies):
        summary[f"E{m}"] = float(e)
    if unit is not None:
        summary["energy_unit_joules"] = unit
        for m, e in enumerate(sol.energies):
            summary[f"E{m}_joules"] = float(e) * unit
    summary.update(_eigen_summary(sol.eigen))
    return summary


def _run_three_body(cfg: RunConfig, out: Path) -> dict:
    if cfg.symmetrize and not (0.0 < cfg.sample_extent < math.inf
                               and 0.0 < cfg.sample_spacing < math.inf):
        raise ValueError("symmetrize needs finite sample_extent > 0 and sample_spacing > 0")
    x_max, y_max, spacing = cfg.resolved_box()
    grid = WedgeGrid2D(x_max=x_max, y_max=y_max, spacing=spacing)
    sol = solve_three_body(
        grid, cfg.beta, cfg.ratio, cfg.k_states,
        tol=cfg.tol, method=cfg.solver, seed=cfg.seed,
        allow_small_box=cfg.allow_small_box,
    )
    psi0 = sol.wavefunction(0)
    emit_csv(["x", "y", "psi"], np.column_stack([grid.x, grid.y, psi0]),
             out / "wavefunction2d.csv")
    peak = int(np.argmax(np.abs(psi0)))
    d12, d23, d13 = sol.distances
    summary: dict = {
        "beta": cfg.beta, "ratio": cfg.ratio,
        "x_max": x_max, "y_max": y_max, "spacing": spacing,
        "n_active_nodes": grid.n_active,
        "peak_x": grid.x[peak], "peak_y": grid.y[peak],
        "dist_12_windings": d12, "dist_23_windings": d23, "dist_13_windings": d13,
    }
    for m, e in enumerate(sol.energies):
        summary[f"E{m}"] = float(e)
    if cfg.symmetrize:
        samples = np.arange(
            -cfg.sample_extent, cfg.sample_extent + 0.5 * cfg.sample_spacing,
            cfg.sample_spacing,
        )
        xg, yg = np.meshgrid(samples, samples, indexing="ij")
        psi_map, n_outside = symmetrize_wavefunction(sol, cfg.statistics, xg, yg)
        emit_csv(
            ["x", "y", "psi"],
            np.column_stack([xg.ravel(), yg.ravel(), psi_map.ravel()]),
            out / "symmetrized.csv",
        )
        summary["symmetrize_statistics"] = cfg.statistics
        summary["samples_outside_box"] = n_outside
    summary.update(_eigen_summary(sol.eigen))
    return summary


def _run_scan(cfg: RunConfig, out: Path) -> dict:
    betas = cfg.betas or tuple(round(0.1 * i, 10) for i in range(1, 15))
    grid = Grid1D.from_spacing(cfg.box_length, cfg.spacing_1d)
    rows = scan_beta(betas, grid, cfg.ratio, cfg.k_states,
                     tol=cfg.tol, method=cfg.solver, seed=cfg.seed)
    header = ["beta"] + [f"E{m}" for m in range(cfg.k_states)] + ["bound_count"]
    csv_rows = []
    failures = []
    for row in rows:
        if row.error is None:
            csv_rows.append([row.beta, *row.energies, row.bound_count])
        else:
            csv_rows.append([row.beta] + [math.nan] * cfg.k_states + [-1])
            failures.append((row.beta, row.error))
    emit_csv(header, csv_rows, out / "scan.csv")
    summary: dict = {"ratio": cfg.ratio, "n_rows": len(rows), "n_failed": len(failures)}
    for beta, err in failures:
        summary[f"error_beta_{_fmt(beta)}"] = err
    return summary


def _run_fit(cfg: RunConfig, out: Path) -> dict:
    betas = cfg.betas or (5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)
    grid = Grid1D.from_spacing(cfg.box_length, cfg.spacing_1d)
    rows = build_size_scan(betas, grid, cfg.ratio,
                           tol=cfg.tol, method=cfg.solver, seed=cfg.seed)
    emit_csv(
        ["beta", "E0", "phi2", "phi0"],
        np.array([[r.beta, r.energy, r.phi2, r.phi0] for r in rows]),
        out / "size_scan.csv",
    )
    fit = fit_harmonic_size(rows, beta_range=(min(betas), max(betas)))
    mean_phi2 = float(np.mean([r.phi2 for r in rows]))
    summary: dict = {
        "ratio": cfg.ratio,
        "fit_c1": fit.c1, "fit_c2": fit.c2,
        "fit_residual_rms": fit.residual_rms,
        "fit_relative_rms": fit.residual_rms / mean_phi2,
        "beta_min": fit.beta_range[0], "beta_max": fit.beta_range[1],
    }
    if cfg.product_betas:
        prows = build_size_scan(cfg.product_betas, grid, cfg.ratio,
                                tol=cfg.tol, method=cfg.solver, seed=cfg.seed)
        table = size_energy_product(prows)
        emit_csv(["E", "product"], table, out / "product.csv")
        summary["n_product_rows"] = len(prows)
    return summary


_COMMANDS = {
    "potential": (_run_potential, "reduced pair potential curve and minima"),
    "two-body": (_run_two_body, "two-dipole spectrum and wave functions"),
    "three-body": (_run_three_body, "three-dipole wedge solve"),
    "scan": (_run_scan, "two-body spectrum vs coupling strength"),
    "fit": (_run_fit, "ground-state size scaling and fit"),
}


def run(cfg: RunConfig) -> int:
    """Execute one configured problem; returns the process exit code."""
    if cfg.problem not in _COMMANDS:
        print(f"error: unknown problem {cfg.problem!r}", file=sys.stderr)
        return 2
    try:
        return _execute(cfg, Path(cfg.out_dir))
    except OSError as exc:  # the exception names the directory or file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


def _execute(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    try:
        summary = _COMMANDS[cfg.problem][0](cfg, out)
    except GeometryError as exc:
        print(f"error: invalid geometry: {exc}", file=sys.stderr)
        _write_metadata(cfg, out, {"status": "geometry_error", "error": str(exc)})
        return 3
    except ConvergenceError as exc:
        print(f"error: eigensolver did not converge: {exc}", file=sys.stderr)
        record: dict = {"status": "not_converged", "error": str(exc)}
        _write_metadata(cfg, out, record)
        if exc.result is not None:  # the pairs ARPACK did converge, flagged
            for m, e in enumerate(exc.result[0]):
                record[f"E{m}_unconverged"] = float(e)
        emit_summary(record, out / "summary.txt")
        return 4
    except (HelixDipolesError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        _write_metadata(cfg, out, {"status": "config_error", "error": str(exc)})
        return 2

    summary["status"] = "ok"
    emit_summary(summary, out / "summary.txt")
    _write_metadata(cfg, out, {"status": "ok"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per problem, its flags generated from ``RunConfig``."""
    parser = argparse.ArgumentParser(
        prog="helix-dipoles",
        description="Bound states of aligned dipoles in a helical trap.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="problem", required=True)
    for problem, (_, summary) in _COMMANDS.items():
        # SUPPRESS: only the flags actually given reach the namespace
        p = sub.add_parser(problem, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="flat key = value config file (default: none)")
        for f in [f for f in fields(RunConfig) if _takes(f, problem)]:
            meta = f.metadata
            flag = "--" + (meta["flag"] or f.name.replace("_", "-"))
            text = f"{meta['help']} (default: {_format_value(f.default) or 'none'})"
            if f.type == "bool":
                p.add_argument(flag, dest=f.name, action="store_true", help=text)
            else:
                p.add_argument(flag, dest=f.name, type=_PARSERS[f.type],
                               choices=meta["choices"], help=text)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Layer defaults < config file < environment < explicit flags."""
    given = dict(vars(args))
    path = given.pop("config", None)
    cfg = RunConfig.from_items(parse_config_file(path) if path else {})

    env_out = os.environ.get(OUTDIR_ENV)
    if env_out:
        cfg.out_dir = env_out

    for name, value in given.items():  # the subcommand and the flags given
        setattr(cfg, name, value)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
