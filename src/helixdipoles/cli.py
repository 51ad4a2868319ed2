"""Experiment runner: configuration, orchestration and CSV/summary export.

Every subcommand writes three kinds of artifact into the run directory:
``metadata.txt`` (the settings the subcommand takes, echoed verbatim, plus
the run status and library versions), one or more CSV data files, and
``summary.txt`` with the headline numbers.  Each subcommand's runner only
computes: it returns its tables and summary, and :func:`run` alone touches
the directory.  A run first deletes ``summary.txt``, ``metadata.txt`` and
every CSV its subcommand can write, then computes, and writes the CSVs,
``summary.txt`` and ``metadata.txt`` only after the whole computation
succeeded.  Runs are always seeded and serial, so repeated runs produce
byte-identical files.  Every solve runs in one scope on scipy's bundled
OpenBLAS at one thread, so the files do not depend on the thread count
either; with another BLAS they hold only at a fixed count.

Exit codes: 0 success, 2 configuration error (``config_error``, a problem
too large for memory included) or an output file that cannot be written
(``write_error``), 3 invalid geometry
(``geometry_error``), 4 eigensolver non-convergence (``not_converged``; the
pairs that did converge are flagged in ``summary.txt``, no CSV is written).
A failure is recorded in ``metadata.txt`` with its status and error message
when the directory can still be written, else only on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._csvcells import format_block
from .analysis import build_size_scan, check_fit_window, fit_harmonic_size, size_energy_product
from .errors import (ConvergenceError, GeometryError, HelixDipolesError, check_count,
                     check_positive, is_real)
from .linalg import DEFAULT_SEED, METHODS, Solution
from .potential import (TWO_PI, energy_unit_joules, find_minima, reduced_potential,
                        validate_coupling, validate_geometry)
from .threebody import WedgeGrid2D, default_box, solve_three_body, symmetrize_wavefunction
from .twobody import (HALF_LINE, STATISTICS, Grid1D, exchange_sign, extend_full_line,
                      scan_beta, solve_two_body)

#: Environment variable overriding the default output directory.
OUTDIR_ENV = "HELIX_DIPOLES_OUTDIR"

_BODIES = ("two-body", "three-body")
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
    ``x_max``/``y_max``/``spacing_2d`` default to ``None`` ("auto"), taken from
    :func:`.threebody.default_box` of the coupling.  Runs are always seeded and serial.
    """

    problem: str = "two-body"
    ratio: float = _flag(1.0, "pitch-to-radius ratio h/R")
    beta: float = _flag(1.0, "coupling strength", on=_BODIES)
    betas: tuple[float, ...] = _flag(
        (), "comma-separated coupling values; none picks the built-in list",
        on=("scan", "fit"))
    product_betas: tuple[float, ...] = _flag(
        (), "comma-separated weak couplings for the size-energy product", on=("fit",))
    box_length: float = _flag(HALF_LINE[0], "half-line box size L", on=_HALF_LINE)
    spacing_1d: float = _flag(HALF_LINE[1], "grid spacing", on=_HALF_LINE, flag="spacing")
    x_max: float | None = _flag(None, "box extent in x", on=_WEDGE)
    y_max: float | None = _flag(None, "box extent in y", on=_WEDGE)
    spacing_2d: float | None = _flag(None, "grid spacing", on=_WEDGE, flag="spacing")
    k_states: int = _flag(4, "number of states; two-body and scan (per coupling) solve "
                          "the bound ones, at most this many",
                          on=_BODIES + ("scan",), flag="k")
    statistics: str = _flag("boson", "exchange symmetry", on=_BODIES, choices=STATISTICS)
    phi_max: float = _flag(3.0 * TWO_PI, "largest separation sampled", on=("potential",))
    n_samples: int = _flag(2000, "number of curve samples", on=("potential",))
    out_dir: str = _flag("runs", f"output directory (or ${OUTDIR_ENV})")
    seed: int = _flag(DEFAULT_SEED, "eigensolver start-vector seed", on=_WEDGE)
    solver: str = _flag("auto", "eigensolver path; auto is shift-invert on the wedge",
                        on=_WEDGE, choices=METHODS)
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
        given = (self.x_max, self.y_max, self.spacing_2d)
        return tuple(auto if v is None else v for v, auto in zip(given, default_box(self.beta)))

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
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) if is_real(v) else repr(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


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


#: Rows formatted per write; bounds the kernel's temporaries.
_CSV_BLOCK_ROWS = 1024


def _fmt(x) -> str:
    """Floats at 12 significant digits with '.' decimal point."""
    if isinstance(x, (float, np.floating)):
        return f"{x:.12g}"
    return str(x)


def emit_csv(header: list[str], rows, path: str | Path) -> None:
    """Write a float table as CSV with a header line, every cell ``%.12g``.

    ``rows`` (an array or nested lists, one column per header name) is taken
    as float64 and formatted a block of rows per write by
    :func:`._csvcells.format_block`, which gives each cell the bytes
    :func:`_fmt` gives that float: whole numbers without a decimal point
    (``-1``, ``3``) and NaN as ``nan``.
    """
    table = np.asarray(rows, dtype=np.float64)
    if table.size and table.shape[1:] != (len(header),):
        raise ValueError(f"{len(header)} header names for rows of shape {table.shape}")
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            fh.write(format_block(table[start:start + _CSV_BLOCK_ROWS]))


def emit_summary(record: dict, path: str | Path) -> None:
    """Write a line-oriented ``key = value`` text record."""
    with Path(path).open("w") as fh:
        for key, value in record.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def _takes(f, problem: str) -> bool:
    """Whether subcommand ``problem`` takes field ``f``: its flags and metadata echo."""
    return "help" in f.metadata and problem in (f.metadata["on"] or _COMMANDS)


def _metadata(cfg: RunConfig, extra: dict) -> dict:
    taken = {f.name for f in fields(cfg) if f.name == "problem" or _takes(f, cfg.problem)}
    record = {key: value for key, value in cfg.to_items() if key in taken}
    record["package_version"] = __version__
    record["numpy_version"] = np.__version__
    record["scipy_version"] = scipy.__version__
    record.update(extra)
    return record


def _energies(values, suffix: str = "") -> dict:
    """``E<m><suffix>`` for state ``m`` of ``values``, lowest first: the one energy-key rule."""
    return {f"E{m}{suffix}": float(e) for m, e in enumerate(values)}


def _solve_record(cfg: RunConfig, sol: Solution, layout: dict, extra: dict) -> dict:
    """The summary of a solve: coupling, grid and observables, ``E<m>``, extras, evidence."""
    eigen = sol.eigen
    record = {"beta": cfg.beta, "ratio": cfg.ratio, **layout, **_energies(sol.energies),
              **extra,
              "solver_method": eigen.method,
              "solver_seed": "none" if eigen.seed is None else eigen.seed,
              "max_residual_norm": float(eigen.residual_norms.max()),
              "matvec_count": eigen.n_matvec}
    if eigen.method == "shift-invert":
        record["factor_nnz"] = eigen.factor_nnz
        record["solver_shift"] = eigen.shift
        # the only estimate a run hands the solver is a coarse wedge's E0
        record["shift_source"] = "coarse" if eigen.shift_source == "estimate" else "gershgorin"
    return record


def _energy_unit(cfg: RunConfig) -> float | None:
    """The SI energy unit hbar^2 / (mu alpha^2) once mass or radius is set, else None.

    Called before any solve, so bad mass or radius is a configuration error.
    """
    if cfg.mass_kg == 0.0 and cfg.radius_m == 0.0:
        return None
    return energy_unit_joules(cfg.mass_kg, cfg.radius_m, cfg.ratio)


def _run_potential(cfg: RunConfig) -> tuple[dict, dict]:
    validate_geometry(cfg.ratio)
    check_positive(ValueError, phi_max=cfg.phi_max)
    check_count(ValueError, 1, n_samples=cfg.n_samples)
    step = cfg.phi_max / cfg.n_samples
    phi = step * np.arange(1, cfg.n_samples + 1)
    values = reduced_potential(phi, cfg.ratio)
    tables = {"data.csv": (["phi_over_2pi", "V_reduced"],
                           np.column_stack([phi / TWO_PI, values]))}
    minima = [m for m in find_minima(cfg.ratio, math.ceil(cfg.phi_max / TWO_PI))
              if m.phi_k <= cfg.phi_max]
    summary: dict = {"ratio": cfg.ratio, "n_minima_in_range": len(minima)}
    for m in minima[:5]:
        summary[f"minimum_{m.winding_index}_phi"] = m.phi_k
        summary[f"minimum_{m.winding_index}_value"] = m.value
    return tables, summary


def _run_two_body(cfg: RunConfig) -> tuple[dict, dict]:
    exchange_sign(cfg.statistics)  # every input before the solve
    unit = _energy_unit(cfg)
    grid = Grid1D(cfg.box_length, cfg.spacing_1d)
    sol = solve_two_body(grid, cfg.beta, cfg.ratio, cfg.k_states)
    states = range(len(sol.energies))  # the bound ones, at most k, or the lowest alone
    header = ["phi"] + [f"psi{m}" for m in states]
    tables = {"wavefunctions.csv": (header, np.column_stack(
        [grid.nodes] + [sol.wavefunction(m) for m in states]))}
    if cfg.emit_full_line:
        columns = [extend_full_line(sol, cfg.statistics, m) for m in states]
        tables["wavefunctions_full_line.csv"] = (header, np.column_stack(
            [columns[0][0]] + [psi for _, psi in columns]))
    peak = grid.nodes[int(np.argmax(np.abs(sol.wavefunction(0))))]
    layout = {"n_points": grid.n_points, "spacing": grid.spacing,
              "bound_count": sol.bound_count, "peak_phi": peak}
    joules = {} if unit is None else {"energy_unit_joules": unit,
                                      **_energies(sol.energies * unit, "_joules")}
    return tables, _solve_record(cfg, sol, layout, joules)


def _run_three_body(cfg: RunConfig) -> tuple[dict, dict]:
    exchange_sign(cfg.statistics)  # every input before the solve
    check_positive(ValueError, sample_extent=cfg.sample_extent,
                   sample_spacing=cfg.sample_spacing)
    if cfg.symmetrize:  # the sample grid comes first, so an oversized one fails at once
        samples = np.arange(-cfg.sample_extent, cfg.sample_extent + 0.5 * cfg.sample_spacing,
                            cfg.sample_spacing)
        xg, yg = np.meshgrid(samples, samples, indexing="ij")
    grid = WedgeGrid2D(*cfg.resolved_box())
    sol = solve_three_body(
        grid, cfg.beta, cfg.ratio, cfg.k_states,
        method=cfg.solver, seed=cfg.seed,
        allow_small_box=cfg.allow_small_box,
    )
    psi0 = sol.wavefunction(0)
    tables = {"wavefunction2d.csv": (["x", "y", "psi"],
                                     np.column_stack([grid.x, grid.y, psi0]))}
    peak = int(np.argmax(np.abs(psi0)))
    d12, d23, d13 = sol.distances
    layout = {"x_max": grid.x_max, "y_max": grid.y_max, "spacing": grid.spacing,
              "n_active_nodes": grid.n_active, "peak_x": grid.x[peak], "peak_y": grid.y[peak],
              "dist_12_windings": d12, "dist_23_windings": d23, "dist_13_windings": d13}
    extra = {}
    if cfg.symmetrize:
        psi_map, n_outside = symmetrize_wavefunction(sol, cfg.statistics, xg, yg)
        tables["symmetrized.csv"] = (["x", "y", "psi"], np.column_stack(
            [xg.ravel(), yg.ravel(), psi_map.ravel()]))
        extra = {"symmetrize_statistics": cfg.statistics, "samples_outside_box": n_outside}
    return tables, _solve_record(cfg, sol, layout, extra)


def _run_scan(cfg: RunConfig) -> tuple[dict, dict]:
    betas = cfg.betas or tuple(round(0.1 * i, 10) for i in range(1, 15))
    grid = Grid1D(cfg.box_length, cfg.spacing_1d)
    rows = scan_beta(betas, grid, cfg.ratio, cfg.k_states)
    header = ["beta", *_energies(range(cfg.k_states)), "bound_count"]
    csv_rows = []
    failures = []
    for row in rows:
        if row.error is None:  # nan for the states not solved, those not bound
            unsolved = [math.nan] * (cfg.k_states - len(row.energies))
            csv_rows.append([row.beta, *row.energies, *unsolved, row.bound_count])
        else:
            csv_rows.append([row.beta] + [math.nan] * cfg.k_states + [-1])
            failures.append((row.beta, row.error))
    summary: dict = {"ratio": cfg.ratio, "n_rows": len(rows), "n_failed": len(failures)}
    for beta, err in failures:
        summary[f"error_beta_{_fmt(beta)}"] = err
    return {"scan.csv": (header, csv_rows)}, summary


def _run_fit(cfg: RunConfig) -> tuple[dict, dict]:
    betas = cfg.betas or (5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)
    grid = Grid1D(cfg.box_length, cfg.spacing_1d)
    for beta in (*betas, *cfg.product_betas):  # every coupling, before any solve
        validate_coupling(beta, cfg.ratio)
    check_fit_window(betas)
    rows = build_size_scan(betas, grid, cfg.ratio)
    tables = {"size_scan.csv": (["beta", "E0", "phi2", "phi0"],
                                [[r.beta, r.energy, r.phi2, r.phi0] for r in rows])}
    fit = fit_harmonic_size(rows)
    mean_phi2 = float(np.mean([r.phi2 for r in rows]))
    summary: dict = {
        "ratio": cfg.ratio,
        "fit_c1": fit.c1, "fit_c2": fit.c2,
        "fit_residual_rms": fit.residual_rms,
        "fit_relative_rms": fit.residual_rms / mean_phi2,
        "beta_min": fit.beta_range[0], "beta_max": fit.beta_range[1],
    }
    if cfg.product_betas:
        prows = build_size_scan(cfg.product_betas, grid, cfg.ratio)
        tables["product.csv"] = (["E", "product"], size_energy_product(prows))
        summary["n_product_rows"] = len(prows)
    return tables, summary


#: subcommand: (runner, help, every CSV name the runner can return)
_COMMANDS = {
    "potential": (_run_potential, "reduced pair potential curve and minima", ("data.csv",)),
    "two-body": (_run_two_body, "two-dipole spectrum and wave functions",
                 ("wavefunctions.csv", "wavefunctions_full_line.csv")),
    "three-body": (_run_three_body, "three-dipole wedge solve",
                   ("wavefunction2d.csv", "symmetrized.csv")),
    "scan": (_run_scan, "two-body spectrum vs coupling strength", ("scan.csv",)),
    "fit": (_run_fit, "ground-state size scaling and fit", ("size_scan.csv", "product.csv")),
}

#: exception: (exit code, status, stderr label); the first match wins
_FAILURES = {
    GeometryError: (3, "geometry_error", "invalid geometry"),
    ConvergenceError: (4, "not_converged", "eigensolver did not converge"),
    HelixDipolesError: (2, "config_error", "bad configuration"),
    ValueError: (2, "config_error", "bad configuration"),
    OSError: (2, "write_error", "cannot write output"),
    MemoryError: (2, "config_error", "problem too large for memory"),
}


def run(cfg: RunConfig) -> int:
    """Execute one configured problem; returns the process exit code.

    The one writer of the run directory: deletes the records and the CSVs
    the subcommand can write, runs it, then writes its CSVs, ``summary.txt``
    and ``metadata.txt``.  A failure leaves only its records.
    """
    runner, _, csv_names = _COMMANDS.get(cfg.problem, (None, None, ()))
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in ("summary.txt", "metadata.txt", *csv_names):
            (out / name).unlink(missing_ok=True)
        if runner is None:
            raise ValueError(f"unknown problem {cfg.problem!r}")
        tables, summary = runner(cfg)
        for name, (header, rows) in tables.items():
            emit_csv(header, rows, out / name)
        emit_summary({**summary, "status": "ok"}, out / "summary.txt")
        emit_summary(_metadata(cfg, {"status": "ok"}), out / "metadata.txt")
        return 0
    except tuple(_FAILURES) as exc:
        code, status, label = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
        print(f"error: {label}: {exc}", file=sys.stderr)
        record: dict = {"status": status, "error": str(exc)}
        try:
            emit_summary(_metadata(cfg, record), out / "metadata.txt")
            if status == "not_converged":  # the pairs ARPACK did converge, flagged
                energies = () if exc.result is None else exc.result[0]
                record.update(_energies(energies, "_unconverged"))
                emit_summary(record, out / "summary.txt")
        except OSError as write_exc:  # the directory itself cannot be written
            print(f"error: cannot write output: {write_exc}", file=sys.stderr)
            return 2
        return code


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per problem, its flags generated from ``RunConfig``."""
    parser = argparse.ArgumentParser(
        prog="helix-dipoles",
        description="Bound states of aligned dipoles in a helical trap.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="problem", required=True)
    for problem, (_, summary, _) in _COMMANDS.items():
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
