import hashlib
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import helixdipoles
from helixdipoles.cli import (
    _CSV_BLOCK_ROWS,
    OUTDIR_ENV,
    RunConfig,
    _fmt,
    build_parser,
    config_from_args,
    emit_csv,
    emit_summary,
    main,
    parse_config_file,
    run,
)
from helixdipoles.errors import ConvergenceError
from helixdipoles.twobody import HALF_LINE, Grid1D

TWO_PI = 2.0 * math.pi

# non-finite, signed-zero, subnormal, extreme and 12-digit rounding-carry cells
CSV_EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                   2.2250738585072014e-308, 1e-308, -1e-308, 1e308, -1e308,
                   1.7976931348623157e308, 999999.9999995, -999999.9999995,
                   9.9999999999995, 0.99999999999995, 99999999999.95, 1e-5, 1e16]


def _with_neighbours(values):
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    return sorted(set(values.tolist()) | set((-values).tolist()))


# cells where a vectorized %.12g can go wrong, each with its +-1-ulp neighbours:
# exact 12-digit decimal ties (2**-18 = 3.814697265625e-06), the doubles
# nearest to decimal ties, powers of ten, the fixed/exponent switch points
# and the edges of the ranges a fast path may take
CSV_KERNEL_VALUES = _with_neighbours(
    [1234567890125.0, 9999999999995.0, 1000000000005.0, 123456789012.5, 2.0**-18]
    + [float(f"{m}e{e}") for m in ("1.234567890125", "9.999999999995", "5.000000000005")
       for e in range(-100, 101, 9)]
    + [float(f"1e{k}") for k in range(-300, 301, 3)]
    + [9.999999999995e-6, 9.9999999999995e-5, 99999999999.95, 999999999999.5]
    + [1e-290, 1e290, 1e-99, 1e99])


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_keyvalue(path):
    items = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        items[key] = value
    return items


class TestRunConfig:
    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_items(dict(cfg.to_items())) == cfg

    def test_round_trip_custom(self):
        cfg = RunConfig(
            problem="fit", ratio=1.6, beta=0.25,
            betas=(5.0, 7.5, 10.0, 12.5), product_betas=(0.1, 0.2),
            x_max=45.0, y_max=None, spacing_2d=0.2,
            k_states=2, statistics="fermion",
            allow_small_box=True, out_dir="elsewhere",
        )
        assert RunConfig.from_items(dict(cfg.to_items())) == cfg

    @given(st.floats(0.05, 4.0), st.integers(1, 8), st.booleans())
    def test_round_trip_property(self, ratio, k, symmetrize):
        cfg = RunConfig(ratio=ratio, k_states=k, symmetrize=symmetrize)
        assert RunConfig.from_items(dict(cfg.to_items())) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_items({"no_such_knob": "1"})

    def test_half_line_defaults_are_the_default_grid(self):
        # one source: HALF_LINE, whose box cuts into whole cells of exactly 0.01
        cfg = RunConfig()
        assert (cfg.box_length, cfg.spacing_1d) == HALF_LINE
        assert (repr(cfg.box_length), repr(cfg.spacing_1d)) == ("100.0", "0.01")
        grid = Grid1D(cfg.box_length, cfg.spacing_1d)
        assert (grid.phi_max, grid.spacing) == HALF_LINE
        assert grid.nodes.tobytes() == Grid1D().nodes.tobytes()

    def test_resolved_box_depends_on_coupling(self):
        assert RunConfig(beta=1.0).resolved_box() == (30.0, 40.0, 0.1)
        assert RunConfig(beta=0.25).resolved_box() == (60.0, 90.0, 0.15)
        assert RunConfig(beta=0.25, x_max=42.0).resolved_box() == (42.0, 90.0, 0.15)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nratio = 1.6\nbeta = 0.5   # inline\n\nk_states = 2\n")
        items = parse_config_file(path)
        assert items == {"ratio": "1.6", "beta": "0.5", "k_states": "2"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ratio 1.6\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestEmitters:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(["a", "b"], [[1.0 / 3.0, 2], [1e-12, math.nan]], path)
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert "0.333333333333" in text  # 12 significant digits
        assert "1e-12" in text
        assert text.splitlines()[1:] == ["0.333333333333,2", "1e-12,nan"]
        with pytest.raises(ValueError, match="header"):
            emit_csv(["a", "b"], [[1.0, 2.0, 3.0]], path)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.sampled_from([0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                       _CSV_BLOCK_ROWS + 1]),
                      st.integers(1, 6)),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.sampled_from(CSV_EDGE_VALUES) | st.sampled_from(CSV_KERNEL_VALUES),
        )
    )
    def test_array_rows_match_per_cell_format(self, table):
        # every cell must get the bytes _fmt gives the same float in summary.txt
        header = [f"c{j}" for j in range(table.shape[1])]
        expected = "".join(
            line + "\n"
            for line in [",".join(header)] + [",".join(_fmt(x) for x in row) for row in table]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            emit_csv(header, table, path)
            assert path.read_bytes() == expected.encode()

    def test_random_bit_patterns_match_per_cell_format(self, tmp_path):
        # 2**20 seeded float64 bit patterns, half with any exponent and half
        # with binary exponents in [-400, 400], four to a row
        rng = np.random.default_rng(2015)
        bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64)
        exponent = rng.integers(1023 - 400, 1023 + 400, size=2**19).astype(np.uint64)
        bits[::2] = bits[::2] & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
        table = bits.view(np.float64).reshape(-1, 4)
        path = tmp_path / "t.csv"
        emit_csv(["a", "b", "c", "d"], table, path)
        expected = "a,b,c,d\n" + "".join(["%.12g,%.12g,%.12g,%.12g\n" % tuple(row)
                                          for row in table.tolist()])
        assert path.read_bytes() == expected.encode()

    def test_summary_format(self, tmp_path):
        path = tmp_path / "s.txt"
        emit_summary({"alpha": 1.5, "label": "ok"}, path)
        assert read_keyvalue(path) == {"alpha": "1.5", "label": "ok"}


class TestPotentialCommand:
    def test_curve_and_summary(self, tmp_path):
        cfg = RunConfig(problem="potential", ratio=1.0, phi_max=3.0 * TWO_PI,
                        n_samples=600, out_dir=str(tmp_path))
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "data.csv")
        assert header == ["phi_over_2pi", "V_reduced"]
        assert len(rows) == 600
        # the sample at one full winding hits the exact pocket value -1
        winding_row = min(rows, key=lambda r: abs(float(r[0]) - 1.0))
        assert float(winding_row[1]) == pytest.approx(-1.0, abs=1e-3)
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["status"] == "ok"
        assert float(summary["minimum_1_phi"]) == pytest.approx(6.2051314, abs=1e-5)

    def test_geometry_error_exit_code(self, tmp_path):
        cfg = RunConfig(problem="potential", ratio=5.0, out_dir=str(tmp_path))
        assert run(cfg) == 3

    @pytest.mark.parametrize("phi_max, count", [(3.0 * TWO_PI, 3), (15.71, 2), (6.0, 0)])
    def test_minima_counted_within_phi_max(self, phi_max, count, tmp_path):
        # the minima sit just below each winding: 6.205, 12.41, 18.61, ...
        cfg = RunConfig(problem="potential", phi_max=phi_max, n_samples=50,
                        out_dir=str(tmp_path))
        assert run(cfg) == 0
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert int(summary["n_minima_in_range"]) == count
        listed = [float(v) for k, v in summary.items() if k.endswith("_phi")]
        assert len(listed) == count and all(phi <= phi_max for phi in listed)

    def test_tiny_separations_written_finite(self, tmp_path):
        # the suite turns warnings into errors, as python -W error does; the
        # rows below phi ~ 1.5e-8 used to read -inf at this ratio
        argv = ["potential", "--ratio", "1e-60", "--phi-max", "1e-6"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "data.csv")
        assert len(rows) == 2000 and all(0.0 < float(v) < math.inf for _, v in rows)

    def test_metadata_echoes_only_its_settings(self, tmp_path):
        # a shared config file may set solver settings; potential runs none
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("solver = lanczos\nseed = 5\nbeta = 2.0\n")
        out = tmp_path / "out"
        assert main(["potential", "--config", str(cfg_file), "--n-samples", "50",
                     "--out-dir", str(out)]) == 0
        meta = read_keyvalue(out / "metadata.txt")
        for key in ("solver", "seed", "beta", "k_states", "mass_kg"):
            assert key not in meta
        assert meta["problem"] == "potential" and meta["n_samples"] == "50"
        assert meta["phi_max"] == repr(3.0 * TWO_PI) and meta["status"] == "ok"


class TestTwoBodyCommand:
    def test_default_run(self, tmp_path):
        cfg = RunConfig(problem="two-body", beta=1.0, ratio=1.0,
                        out_dir=str(tmp_path), emit_full_line=True)
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "wavefunctions.csv")
        assert header == ["phi", "psi0", "psi1", "psi2"]  # the 3 bound states of --k 4
        assert len(rows) == 9999
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["bound_count"] == "3"
        assert float(summary["E0"]) == pytest.approx(-0.3065243752, abs=1e-7)
        full_header, full_rows = read_csv(tmp_path / "wavefunctions_full_line.csv")
        assert full_header == header
        assert len(full_rows) == 2 * 9999 + 3

    @pytest.mark.parametrize("beta, states, bound", [("20", 4, "4"), ("1e-6", 1, "0")])
    def test_writes_the_bound_states_at_most_k_or_the_lowest_level(self, beta, states, bound,
                                                                    tmp_path):
        # beta=20 binds 14 states, of which --k 4 are written; 1e-6 binds none
        assert main(["two-body", "--beta", beta, "--k", "4", "--full-line",
                     "--mass-kg", "1e-26", "--radius-m", "1e-6", "--out-dir", str(tmp_path)]) == 0
        psi = [f"psi{m}" for m in range(states)]
        assert read_csv(tmp_path / "wavefunctions.csv")[0] == ["phi", *psi]
        assert read_csv(tmp_path / "wavefunctions_full_line.csv")[0] == ["phi", *psi]
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["bound_count"] == bound
        energies = {key for key in summary if key.startswith("E")}
        assert energies == {f"E{m}{unit}" for m in range(states) for unit in ("", "_joules")}

    def test_metadata_round_trip(self, tmp_path):
        import dataclasses

        cfg = RunConfig(problem="two-body", beta=0.5, k_states=2,
                        box_length=40.0, spacing_1d=0.05, out_dir=str(tmp_path))
        assert run(cfg) == 0
        meta = read_keyvalue(tmp_path / "metadata.txt")
        config_keys = {f.name for f in dataclasses.fields(RunConfig)}
        echoed = {k: v for k, v in meta.items() if k in config_keys}
        assert RunConfig.from_items(echoed) == cfg
        assert "solver_seed" in read_keyvalue(tmp_path / "summary.txt")

    def test_summary_records_the_solved_grid(self, tmp_path):
        # 100 / 0.03 is no whole number of cells: the grid rounds to 3,333 of them
        assert main(["two-body", "--box-length", "100", "--spacing", "0.03",
                     "--out-dir", str(tmp_path)]) == 0
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["n_points"] == "3332"
        assert summary["spacing"] == _fmt(100.0 / 3333) == "0.0300030003"


class TestThreeBodyCommand:
    def test_mini_run_with_symmetrize(self, tmp_path):
        cfg = RunConfig(problem="three-body", beta=1.0, ratio=1.0,
                        x_max=12.0, y_max=16.0, spacing_2d=0.4,
                        k_states=2, allow_small_box=True, solver="lanczos",
                        symmetrize=True, sample_extent=10.0, sample_spacing=1.0,
                        out_dir=str(tmp_path))
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "wavefunction2d.csv")
        assert header == ["x", "y", "psi"]
        from helixdipoles.threebody import WedgeGrid2D

        grid = WedgeGrid2D(12.0, 16.0, 0.4)
        assert len(rows) == grid.n_active  # mask-excluded nodes omitted
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert float(summary["E0"]) == pytest.approx(-0.486053327, abs=1e-6)
        assert "dist_13_windings" in summary
        sym_header, sym_rows = read_csv(tmp_path / "symmetrized.csv")
        assert sym_header == ["x", "y", "psi"]
        assert len(sym_rows) == 21 * 21

    def test_factor_fill_reported_for_shift_invert_only(self, tmp_path):
        common = dict(problem="three-body", beta=1.0, x_max=12.0, y_max=16.0,
                      spacing_2d=0.4, k_states=1, allow_small_box=True)
        assert run(RunConfig(solver="auto", out_dir=str(tmp_path / "si"),
                             **common)) == 0
        fill = int(read_keyvalue(tmp_path / "si" / "summary.txt")["factor_nnz"])
        assert fill >= 4261  # the mini wedge operator's own nnz
        assert run(RunConfig(solver="lanczos", out_dir=str(tmp_path / "plain"),
                             **common)) == 0
        assert "factor_nnz" not in read_keyvalue(tmp_path / "plain" / "summary.txt")

    def test_shift_reported(self, tmp_path):
        common = dict(problem="three-body", beta=1.0, x_max=12.0, y_max=16.0,
                      spacing_2d=0.2, k_states=1, allow_small_box=True)
        assert run(RunConfig(out_dir=str(tmp_path / "auto"), **common)) == 0
        summary = read_keyvalue(tmp_path / "auto" / "summary.txt")
        assert summary["shift_source"] == "coarse"
        assert float(summary["solver_shift"]) < float(summary["E0"])
        assert run(RunConfig(solver="lanczos", out_dir=str(tmp_path / "plain"),
                             **common)) == 0
        plain = read_keyvalue(tmp_path / "plain" / "summary.txt")
        assert not {"solver_shift", "shift_source"} & plain.keys()

    def test_small_box_rejected_without_flag(self, tmp_path):
        cfg = RunConfig(problem="three-body", x_max=12.0, y_max=16.0,
                        spacing_2d=0.4, out_dir=str(tmp_path))
        assert run(cfg) == 2


class TestScanCommand:
    def test_header_and_rows(self, tmp_path):
        cfg = RunConfig(problem="scan", betas=(0.5, 1.0), k_states=4,
                        out_dir=str(tmp_path))
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "scan.csv")
        assert header == ["beta", "E0", "E1", "E2", "E3", "bound_count"]
        assert [float(r[0]) for r in rows] == [0.5, 1.0]
        assert rows[1][-1] == "3"
        # the states that are not bound read nan
        assert rows[0][3:] == ["nan", "nan", "2"] and rows[1][4:] == ["nan", "3"]

    def test_failed_rows_flagged(self, tmp_path):
        cfg = RunConfig(problem="scan", betas=(0.5, -2.0), k_states=2,
                        box_length=40.0, spacing_1d=0.05, out_dir=str(tmp_path))
        assert run(cfg) == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        assert rows[1][1] == "nan"
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["n_failed"] == "1"


class TestFitCommand:
    def test_fit_and_product(self, tmp_path):
        cfg = RunConfig(problem="fit", betas=(5.0, 7.5, 10.0, 12.5, 15.0),
                        product_betas=(0.2, 0.25), out_dir=str(tmp_path))
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "size_scan.csv")
        assert header == ["beta", "E0", "phi2", "phi0"]
        assert len(rows) == 5
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert float(summary["fit_relative_rms"]) < 0.01
        p_header, p_rows = read_csv(tmp_path / "product.csv")
        assert p_header == ["E", "product"]
        assert len(p_rows) == 2

    def test_zero_fit_coupling_rejected_before_any_solve(self, tmp_path, monkeypatch):
        # the fit basis takes 1/sqrt(beta): 0 would warn, then fail inside LAPACK;
        # two couplings, or four equal ones, would fail only after every solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the fit couplings were checked")

        monkeypatch.setattr("helixdipoles.cli.build_size_scan", no_solve)
        for betas, error in [
                ("0,5,10,15", "beta must be finite and > 0, got 0.0"),
                ("5,10", "need an integer betas >= 4, got 2"),
                ("5,5,5,5", "betas must hold two distinct couplings, got (5.0, 5.0, 5.0, 5.0)")]:
            out = tmp_path / betas
            assert main(["fit", "--betas", betas, "--out-dir", str(out)]) == 2
            meta = read_keyvalue(out / "metadata.txt")
            assert meta["status"] == "config_error"
            assert meta["error"] == error
            assert not list(out.glob("*.csv"))


class TestPhysicalMode:
    def test_energies_in_joules(self, tmp_path):
        import scipy.constants as const

        code = main([
            "two-body", "--beta", "1", "--box-length", "40", "--spacing", "0.05",
            "--k", "2", "--mass-kg", "2.2e-25", "--radius-m", "1e-6",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        summary = read_keyvalue(tmp_path / "summary.txt")
        mu = 2.2e-25 / 2.0
        alpha_sq = 1e-12 * (1.0 + 1.0 / (2.0 * math.pi) ** 2)
        unit = const.hbar**2 / (mu * alpha_sq)
        assert float(summary["energy_unit_joules"]) == pytest.approx(unit, rel=1e-11)
        assert float(summary["E0_joules"]) == pytest.approx(
            float(summary["E0"]) * unit, rel=1e-11)

    @pytest.mark.parametrize("flag", ["--radius-m=nan", "--mass-kg=nan"])
    def test_non_finite_mass_or_radius_rejected_before_solve(self, flag, tmp_path,
                                                             monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the physical inputs were checked")

        monkeypatch.setattr("helixdipoles.cli.solve_two_body", no_solve)
        argv = ["two-body", "--mass-kg", "2.2e-25", "--radius-m", "1e-6"]
        assert main(argv + [flag, "--out-dir", str(tmp_path)]) == 2
        meta = read_keyvalue(tmp_path / "metadata.txt")
        assert meta["status"] == "config_error" and "finite" in meta["error"]
        assert not (tmp_path / "summary.txt").exists()

    def test_physical_requires_mass_and_radius(self, tmp_path):
        cfg = RunConfig(problem="two-body", beta=1.0, box_length=40.0,
                        spacing_1d=0.05, k_states=2, mass_kg=2.2e-25,
                        out_dir=str(tmp_path))
        assert run(cfg) == 2

    def test_physical_switch_is_gone(self, tmp_path, capsys):
        # joules follow from mass and radius; the retired switch is unknown
        with pytest.raises(SystemExit) as exc:
            main(["two-body", "--physical", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --physical" in capsys.readouterr().err
        cfg_file = tmp_path / "run.cfg"
        for key, value in (("physical", "true"), ("tol", "1e-8")):
            cfg_file.write_text(f"{key} = {value}\n")
            assert main(["two-body", "--config", str(cfg_file)]) == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err


MINI_WEDGE = ["three-body", "--x-max", "12", "--y-max", "16", "--spacing", "0.4",
              "--allow-small-box"]
SMALL_FIT = ["fit", "--betas", "5,7.5,10,12.5", "--box-length", "40", "--spacing", "0.05"]


def fail_to_converge(*args, **kwargs):
    raise ConvergenceError("cap reached", result=(np.array([-0.3, -0.02]), None))


class TestSummaryLayout:
    """The key order of summary.txt, part of its bytes that read_keyvalue's dict hides."""

    TWO_BODY = ["beta", "ratio", "n_points", "spacing", "bound_count", "peak_phi",
                "E0", "E1", "E2", "energy_unit_joules", "E0_joules", "E1_joules", "E2_joules"]
    WEDGE = ["beta", "ratio", "x_max", "y_max", "spacing", "n_active_nodes", "peak_x", "peak_y",
             "dist_12_windings", "dist_23_windings", "dist_13_windings", "E0", "E1", "E2", "E3",
             "symmetrize_statistics", "samples_outside_box"]
    EVIDENCE = ["solver_method", "solver_seed", "max_residual_norm", "matvec_count"]
    SHIFT_INVERT = ["factor_nnz", "solver_shift", "shift_source"]

    @pytest.mark.parametrize("argv, keys", [
        (["two-body", "--mass-kg", "2.2e-25", "--radius-m", "1e-6", "--full-line"],
         TWO_BODY + EVIDENCE),
        (MINI_WEDGE + ["--symmetrize", "--solver", "auto"], WEDGE + EVIDENCE + SHIFT_INVERT),
        (MINI_WEDGE + ["--symmetrize", "--solver", "lanczos"], WEDGE + EVIDENCE),
    ], ids=["two-body-joules", "three-body-auto", "three-body-lanczos"])
    def test_key_order(self, argv, keys, tmp_path):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert list(read_keyvalue(tmp_path / "summary.txt")) == keys + ["status"]

    def test_unconverged_key_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr("helixdipoles.cli.solve_two_body", fail_to_converge)
        assert run(RunConfig(problem="two-body", out_dir=str(tmp_path))) == 4
        assert list(read_keyvalue(tmp_path / "summary.txt")) == [
            "status", "error", "E0_unconverged", "E1_unconverged"]


class TestExitCodes:
    def test_unknown_problem(self, tmp_path):
        assert run(RunConfig(problem="four-body", out_dir=str(tmp_path))) == 2
        meta = read_keyvalue(tmp_path / "metadata.txt")
        assert meta["problem"] == "four-body" and meta["status"] == "config_error"
        assert meta["error"] == "unknown problem 'four-body'"

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        (tmp_path / "wavefunctions.csv").mkdir()
        assert main(["two-body", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and "wavefunctions.csv" in err
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert main(["potential", "--out-dir", str(not_a_dir / "run")]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_failed_write_leaves_no_previous_records(self, tmp_path):
        assert main(["two-body", "--beta", "1", "--out-dir", str(tmp_path)]) == 0
        (tmp_path / "wavefunctions_full_line.csv").mkdir()
        argv = ["two-body", "--beta", "2", "--full-line", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert not (tmp_path / "summary.txt").exists()
        meta = read_keyvalue(tmp_path / "metadata.txt")
        assert meta["status"] == "write_error" and meta["beta"] == "2.0"
        assert str(tmp_path / "wavefunctions_full_line.csv") in meta["error"]
        assert not (tmp_path / "wavefunctions.csv").exists()  # the beta = 1 table

    @pytest.mark.parametrize("argv, extra, stale", [
        (["two-body"], ["--full-line"], "wavefunctions_full_line.csv"),
        (MINI_WEDGE, ["--symmetrize"], "symmetrized.csv"),
        (SMALL_FIT, ["--product-betas", "0.5"], "product.csv"),
    ], ids=["two-body", "three-body", "fit"])
    def test_plain_run_leaves_no_stale_csv(self, argv, extra, stale, tmp_path):
        out = ["--out-dir", str(tmp_path)]
        assert main(argv + extra + out) == 0
        assert (tmp_path / stale).exists()
        assert main(argv + out) == 0
        assert not (tmp_path / stale).exists()

    def test_config_error_leaves_no_partial_csv(self, tmp_path):
        # two solves succeed, then the fit needs at least four rows
        assert main(["fit", "--betas", "5,6", "--out-dir", str(tmp_path)]) == 2
        assert read_keyvalue(tmp_path / "metadata.txt")["status"] == "config_error"
        assert not list(tmp_path.glob("*.csv"))

    def test_geometry_error_leaves_no_previous_summary(self, tmp_path):
        assert main(["two-body", "--beta", "1", "--out-dir", str(tmp_path)]) == 0
        assert main(["two-body", "--ratio", "5", "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "summary.txt").exists()
        assert read_keyvalue(tmp_path / "metadata.txt")["status"] == "geometry_error"

    def test_oversized_request_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the symmetrization sample grid would take 182 TiB, beyond any address space
        def no_solve(*args, **kwargs):
            raise AssertionError("wedge solved before the sample grid was built")

        monkeypatch.setattr("helixdipoles.cli.solve_three_body", no_solve)
        argv = MINI_WEDGE + ["--symmetrize", "--sample-spacing", "1e-5"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert read_keyvalue(tmp_path / "metadata.txt")["status"] == "config_error"
        assert "problem too large for memory" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_potential_far_range_scans_only_to_the_last_possible_minimum(self, tmp_path):
        # V' > 0 beyond 118.4 rad at ratio 1, so phi_max = 1e14 costs no more
        # than phi_max = 118.4 in the minima scan
        assert main(["potential", "--phi-max", "1e14", "--out-dir", str(tmp_path)]) == 0
        assert read_keyvalue(tmp_path / "summary.txt")["n_minima_in_range"] == "13"

    def test_potential_minima_scan_memory_is_bounded(self, tmp_path):
        # the unbounded scan of the 319 windings behind phi_max = 2000 peaked
        # at 198.5 MB; VmHWM is the child's own peak, while its ru_maxrss
        # would carry over the peak of the process that spawned it
        src = str(Path(helixdipoles.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["potential", "--phi-max", "2000", "--out-dir", str(tmp_path)]
        code = ("import re; from pathlib import Path; from helixdipoles.cli import main; "
                f"assert main({argv!r}) == 0; "
                "print(re.search(r'VmHWM:\\s*(\\d+) kB', "
                "Path('/proc/self/status').read_text()).group(1))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert int(out) / 1024 < 100.0

    def test_convergence_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr("helixdipoles.cli.solve_two_body", fail_to_converge)
        cfg = RunConfig(problem="two-body", out_dir=str(tmp_path))
        assert run(cfg) == 4
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["status"] == "not_converged"
        assert float(summary["E0_unconverged"]) == pytest.approx(-0.3)


class TestInputEdges:
    @pytest.mark.parametrize("argv", [
        ["potential", "--n-samples", "0"],
        ["potential", "--n-samples", "-5"],
        ["scan", "--spacing", "0.5"],
        MINI_WEDGE + ["--symmetrize", "--sample-spacing=-0.5"],
        MINI_WEDGE + ["--symmetrize", "--sample-extent=-1"],
        MINI_WEDGE + ["--symmetrize", "--sample-extent=nan"],
    ], ids=["n-samples-0", "n-samples-neg", "scan-coarse-spacing",
            "sample-spacing-neg", "sample-extent-neg", "sample-extent-nan"])
    def test_bad_input_is_config_error(self, argv, tmp_path):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        meta = read_keyvalue(tmp_path / "metadata.txt")
        assert meta["status"] == "config_error"
        assert not list(tmp_path.glob("*.csv"))  # rejected before any solve

    @pytest.mark.parametrize("problem, solver", [("scan", "scan_beta")])
    def test_coarse_spacing_rejected_before_any_solve(self, problem, solver, tmp_path,
                                                      capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved on an under-resolving grid")

        monkeypatch.setattr(f"helixdipoles.cli.{solver}", no_solve)
        assert main([problem, "--spacing", "0.5", "--out-dir", str(tmp_path)]) == 2
        assert read_keyvalue(tmp_path / "metadata.txt")["status"] == "config_error"
        assert "spacing 0.5 > 0.2 under-resolves the potential wells" in capsys.readouterr().err

    def test_scan_bad_ratio_is_geometry_error(self, tmp_path):
        assert main(["scan", "--ratio=-1", "--out-dir", str(tmp_path)]) == 3
        assert read_keyvalue(tmp_path / "metadata.txt")["status"] == "geometry_error"
        assert not (tmp_path / "scan.csv").exists()

    # the half-line problems always take the banded solve, which draws no seed
    @pytest.mark.parametrize("argv", [
        ["potential", "--seed=1"], ["potential", "--tol=1e-8"],
        ["potential", "--solver=lanczos"],
        ["two-body", "--seed", "1"], ["two-body", "--solver", "auto"],
        ["scan", "--seed=-1"], ["scan", "--solver=lanczos"],
        ["fit", "--seed=1"], ["fit", "--solver=auto"],
    ], ids=["--seed=1", "--tol=1e-8", "--solver=lanczos", "two-body-seed",
            "two-body-solver", "scan-seed-neg", "scan-solver", "fit-seed", "fit-solver"])
    def test_potential_takes_no_solver_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "1e-20"], ids=["tol-1", "tol-tiny"])
    def test_no_subcommand_takes_tol(self, value, capsys):
        # every solve runs at linalg.ARPACK_TOL
        for problem in _subcommand_parsers(build_parser()):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([problem, "--tol", value])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol" in capsys.readouterr().err


def _subcommand_parsers(parser):
    return parser._subparsers._group_actions[0].choices


class TestGeneratedParser:
    COMMON = {"--config": "config", "--ratio": "ratio", "--out-dir": "out_dir"}
    SOLVER = {"--seed": "seed", "--solver": "solver"}
    PHYSICAL = {"--mass-kg": "mass_kg", "--radius-m": "radius_m"}
    FLAGS = {
        "potential": {**COMMON, "--phi-max": "phi_max", "--n-samples": "n_samples"},
        "two-body": {**COMMON, **PHYSICAL, "--beta": "beta",
                     "--box-length": "box_length", "--spacing": "spacing_1d",
                     "--k": "k_states", "--statistics": "statistics",
                     "--full-line": "emit_full_line"},
        "three-body": {**COMMON, **SOLVER, "--beta": "beta",
                       "--x-max": "x_max", "--y-max": "y_max", "--spacing": "spacing_2d",
                       "--k": "k_states", "--statistics": "statistics",
                       "--allow-small-box": "allow_small_box",
                       "--symmetrize": "symmetrize", "--sample-extent": "sample_extent",
                       "--sample-spacing": "sample_spacing"},
        "scan": {**COMMON, "--betas": "betas", "--box-length": "box_length",
                 "--spacing": "spacing_1d", "--k": "k_states"},
        "fit": {**COMMON, "--betas": "betas",
                "--product-betas": "product_betas", "--box-length": "box_length",
                "--spacing": "spacing_1d"},
    }

    def test_flag_table(self):
        for name, sub in _subcommand_parsers(build_parser()).items():
            table = {flag: action.dest for action in sub._actions
                     for flag in action.option_strings if flag not in ("-h", "--help")}
            assert table == self.FLAGS[name], name
            for action in sub._actions:
                if action.dest != "help":
                    assert "default:" in action.help, (name, action.dest)

    @staticmethod
    def readme_commands():
        """The README's command-line block and its commands, as argv lists."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        return block, [cmd[1:] for cmd in commands if cmd and cmd[0] == "helix-dipoles"]

    def test_readme_examples_run(self, tmp_path):
        # every command runs as written, with its --out-dir moved under tmp_path,
        # and gives what the block's comments say
        block, commands = self.readme_commands()
        out = {}
        for argv in commands:
            at = argv.index("--out-dir") + 1
            argv[at] = str(tmp_path / argv[at])
            assert main(argv) == 0, argv
            assert read_keyvalue(Path(argv[at]) / "summary.txt")["status"] == "ok"
            out[argv[0]] = Path(argv[at])
        assert "(reports 3 bound states)" in block
        assert read_keyvalue(out["two-body"] / "summary.txt")["bound_count"] == "3"
        assert "(columns phi_over_2pi,V_reduced)" in block
        assert (out["potential"] / "data.csv").read_text().split("\n", 1)[0] == \
            "phi_over_2pi,V_reduced"
        assert "(columns beta,E0..E3,bound_count)" in block
        assert (out["scan"] / "scan.csv").read_text().split("\n", 1)[0] == \
            "beta,E0,E1,E2,E3,bound_count"

    def test_only_given_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("x_max = 45.0\nbeta = 0.5\nsymmetrize = true\n")
        args = build_parser().parse_args(
            ["three-body", "--config", str(cfg_file), "--x-max", "auto"])
        cfg = config_from_args(args)
        assert cfg.x_max is None
        assert cfg.beta == 0.5 and cfg.symmetrize is True
        assert cfg.problem == "three-body"


class TestReadmeLibraryExample:
    def test_values_match_its_comments(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Library example", 1)[1].split("```python", 1)[1]
        names: dict = {}
        exec(block.split("```", 1)[0], names)
        assert names["phi0"] == pytest.approx(6.2051, abs=5e-5)
        # the unit arithmetic checked by hand (hbar = 6.62607015e-34 / 2pi J s,
        # eps0 = 8.8541878128e-12 F/m); scipy's CODATA eps0 moves it by 7e-10
        assert names["beta"] == pytest.approx(2.028309145085929, rel=1e-9)
        assert names["two"].bound_count == 3
        assert tuple(np.round(names["three"].distances, 3)) == (1.014, 1.014, 2.027)


def fresh_python(code):
    """Stdout of ``code`` run by a new interpreter on this checkout's package."""
    src = str(Path(helixdipoles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout.strip()


class TestImportCost:
    def test_cli_import_skips_heavy_scipy_modules(self):
        # importing scipy.optimize or scipy.sparse.linalg costs every short
        # run memory and start-up time; ARPACK is imported inside the
        # iterative eigensolver only
        out = fresh_python("import sys, helixdipoles.cli; "
                           "print(sorted(m for m in sys.modules "
                           "if m.startswith(('scipy.optimize', 'scipy.sparse.linalg'))))")
        assert out == "[]"

    def test_package_root_holds_only_the_version(self):
        # names are imported from their modules, so the root loads no numpy or scipy
        out = fresh_python("import sys, helixdipoles; "
                           "print(helixdipoles.__version__, "
                           "[n for n in vars(helixdipoles) if not n.startswith('_')], "
                           "sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
        assert out == f"{helixdipoles.__version__} [] []"


class TestMainEntry:
    def test_cli_flags(self, tmp_path):
        code = main([
            "two-body", "--beta", "0.5", "--ratio", "1.0",
            "--box-length", "40", "--spacing", "0.05", "--k", "2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert float(summary["E0"]) == pytest.approx(-0.0979, abs=1e-3)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("beta = 1.0\nk_states = 2\nbox_length = 40.0\n"
                            "spacing_1d = 0.05\n")
        out = tmp_path / "out"
        code = main(["scan", "--config", str(cfg_file), "--betas", "0.5,1.0",
                     "--out-dir", str(out)])
        assert code == 0
        _, rows = read_csv(out / "scan.csv")
        assert len(rows) == 2

    @pytest.mark.parametrize("argv", [
        ["two-body", "--box-length", "40", "--spacing", "0.05"],
        ["scan", "--betas", "0.5,1", "--box-length", "40", "--spacing", "0.05"],
        SMALL_FIT,
    ], ids=["two-body", "scan", "fit"])
    def test_half_line_ignores_shared_solver_settings(self, argv, tmp_path):
        # the shared file of test_metadata_echoes_only_its_settings: its solver
        # settings are three-body's, so they change neither the outputs nor the echo
        outputs = []
        for text in ("solver = lanczos\nseed = 5\nbeta = 2.0\n", "beta = 2.0\n"):
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(text)
            out = tmp_path / str(len(outputs))
            assert main(argv + ["--config", str(cfg_file), "--out-dir", str(out)]) == 0
            meta = read_keyvalue(out / "metadata.txt")
            assert "solver" not in meta and "seed" not in meta
            assert meta["problem"] == argv[0] and meta["status"] == "ok"
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "metadata.txt"})
        assert outputs[0] == outputs[1]
        if argv[0] == "two-body":
            summary = read_keyvalue(tmp_path / "0" / "summary.txt")
            assert summary["beta"] == "2"
            assert summary["solver_method"] == "tridiagonal"
            assert summary["solver_seed"] == "none"

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "from_env"))
        code = main(["potential", "--ratio", "1.0", "--n-samples", "50"])
        assert code == 0
        assert (tmp_path / "from_env" / "data.csv").exists()

    def test_module_entry_runs_once(self):
        # the package root must not import .cli, or ``-m`` runs it twice
        src = str(Path(helixdipoles.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "helixdipoles.cli",
             "--version"], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.strip() == helixdipoles.__version__

    @pytest.mark.parametrize("line", ["statistics = bosn", "solver = lanczoz",
                                      "symmetrize = yes", "solver = dense",
                                      "solver = shift-invert"])
    def test_config_value_outside_choices(self, line, tmp_path):
        # the flags reject these through argparse; a config file must too
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        argv = ["three-body", "--config", str(cfg_file), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert not (tmp_path / "metadata.txt").exists()

    @pytest.mark.parametrize("solver", ["dense", "shift-invert"])
    def test_solver_takes_auto_or_lanczos(self, solver, tmp_path, capsys):
        # the dense oracle lives in the tests, and auto alone takes shift-invert
        with pytest.raises(SystemExit) as exc:
            main(["three-body", "--solver", solver, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "metadata.txt").exists()


class TestDeterminism:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the default beta=2 wedge: the 12x16 box at h=0.4 or 0.2 stays below
        # OpenBLAS's threading thresholds under ARPACK and would pass even
        # without the limit; the banded solve of the L=300 half line
        # (n = 29,999) does not
        src = str(Path(helixdipoles.__file__).resolve().parents[1])
        for name, args in [("default", ["three-body", "--beta", "2", "--k", "1"]),
                           ("banded", ["two-body", "--beta", "0.3", "--box-length", "300"])]:
            digests = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}-threads{threads}"
                env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
                subprocess.run([sys.executable, "-m", "helixdipoles.cli", *args,
                                "--out-dir", str(out)],
                               env=env, check=True, capture_output=True, timeout=300)
                files = sorted(p for p in out.iterdir()
                               if p.suffix == ".csv" or p.name == "summary.txt")
                digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                for p in files})
            assert "summary.txt" in digests[0] and len(digests[0]) > 1, name
            assert digests[0] == digests[1], name
