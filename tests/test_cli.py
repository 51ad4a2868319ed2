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

TWO_PI = 2.0 * math.pi

# non-finite, signed-zero, subnormal, extreme and 12-digit rounding-carry cells
CSV_EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                   2.2250738585072014e-308, 1e-308, -1e-308, 1e308, -1e308,
                   1.7976931348623157e308, 999999.9999995, -999999.9999995,
                   9.9999999999995, 0.99999999999995, 99999999999.95, 1e-5, 1e16]


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

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.sampled_from([0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                       _CSV_BLOCK_ROWS + 1]),
                      st.integers(1, 6)),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.sampled_from(CSV_EDGE_VALUES),
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

    def test_metadata_echoes_only_its_settings(self, tmp_path):
        # a shared config file may set solver settings; potential runs none
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("solver = lanczos\nseed = 5\ntol = 1e-8\nbeta = 2.0\n")
        out = tmp_path / "out"
        assert main(["potential", "--config", str(cfg_file), "--n-samples", "50",
                     "--out-dir", str(out)]) == 0
        meta = read_keyvalue(out / "metadata.txt")
        for key in ("solver", "seed", "tol", "beta", "k_states", "mass_kg"):
            assert key not in meta
        assert meta["problem"] == "potential" and meta["n_samples"] == "50"
        assert meta["phi_max"] == repr(3.0 * TWO_PI) and meta["status"] == "ok"


class TestTwoBodyCommand:
    def test_default_run(self, tmp_path):
        cfg = RunConfig(problem="two-body", beta=1.0, ratio=1.0,
                        out_dir=str(tmp_path), emit_full_line=True)
        assert run(cfg) == 0
        header, rows = read_csv(tmp_path / "wavefunctions.csv")
        assert header == ["phi", "psi0", "psi1", "psi2", "psi3"]
        assert len(rows) == 9999
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["bound_count"] == "3"
        assert float(summary["E0"]) == pytest.approx(-0.3065243752, abs=1e-7)
        full_header, full_rows = read_csv(tmp_path / "wavefunctions_full_line.csv")
        assert full_header == header
        assert len(full_rows) == 2 * 9999 + 3

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
        assert run(RunConfig(solver="shift-invert", out_dir=str(tmp_path / "si"),
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

    @pytest.mark.parametrize("flag", ["--radius-m=inf", "--radius-m=nan",
                                      "--mass-kg=inf", "--mass-kg=nan"])
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
        cfg_file.write_text("physical = true\n")
        assert main(["two-body", "--config", str(cfg_file)]) == 2
        assert "unknown config key 'physical'" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_problem(self, tmp_path):
        assert run(RunConfig(problem="four-body", out_dir=str(tmp_path))) == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        (tmp_path / "wavefunctions.csv").mkdir()
        assert main(["two-body", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and "wavefunctions.csv" in err
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert main(["potential", "--out-dir", str(not_a_dir / "run")]) == 2
        assert "cannot write output" in capsys.readouterr().err

    def test_convergence_failure(self, tmp_path, monkeypatch):
        import numpy as np

        def explode(*args, **kwargs):
            raise ConvergenceError("cap reached",
                                   result=(np.array([-0.3, -0.02]), None))

        monkeypatch.setattr("helixdipoles.cli.solve_two_body", explode)
        cfg = RunConfig(problem="two-body", out_dir=str(tmp_path))
        assert run(cfg) == 4
        summary = read_keyvalue(tmp_path / "summary.txt")
        assert summary["status"] == "not_converged"
        assert float(summary["E0_unconverged"]) == pytest.approx(-0.3)


MINI_WEDGE = ["three-body", "--x-max", "12", "--y-max", "16", "--spacing", "0.4",
              "--allow-small-box"]


class TestInputEdges:
    @pytest.mark.parametrize("argv", [
        ["two-body", "--k", "0"],
        MINI_WEDGE + ["--k", "0"],
        ["potential", "--phi-max", "0"],
        ["potential", "--n-samples", "0"],
        ["potential", "--n-samples", "-5"],
        ["two-body", "--spacing", "0"],
        ["scan", "--k", "0"],
        ["scan", "--k", "100000"],
        ["scan", "--spacing", "0.5"],
        ["scan", "--tol", "1"],
        ["scan", "--tol", "1e-20"],
        MINI_WEDGE + ["--symmetrize", "--sample-spacing", "0"],
        MINI_WEDGE + ["--symmetrize", "--sample-spacing=-0.5"],
        MINI_WEDGE + ["--symmetrize", "--sample-extent=-1"],
        MINI_WEDGE + ["--symmetrize", "--sample-extent=nan"],
    ], ids=["two-body-k0", "three-body-k0", "phi-max-0", "n-samples-0", "n-samples-neg",
            "spacing-0", "scan-k0", "scan-k-huge", "scan-coarse-spacing",
            "scan-tol-1", "scan-tol-tiny",
            "sample-spacing-0", "sample-spacing-neg", "sample-extent-neg",
            "sample-extent-nan"])
    def test_bad_input_is_config_error(self, argv, tmp_path):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        meta = read_keyvalue(tmp_path / "metadata.txt")
        assert meta["status"] == "config_error"
        assert not list(tmp_path.glob("*.csv"))  # rejected before any solve

    def test_scan_bad_ratio_is_geometry_error(self, tmp_path):
        assert main(["scan", "--ratio=-1", "--out-dir", str(tmp_path)]) == 3
        assert read_keyvalue(tmp_path / "metadata.txt")["status"] == "geometry_error"
        assert not (tmp_path / "scan.csv").exists()

    @given(st.sampled_from([["three-body", "--x-max"], ["three-body", "--y-max"],
                            ["three-body", "--spacing"], ["two-body", "--box-length"],
                            ["two-body", "--spacing"]]),
           st.sampled_from(["nan", "inf", "-inf"]))
    def test_non_finite_box_is_config_error(self, flag, value):
        # "--flag=-inf": a bare "-inf" would parse as an option name
        with tempfile.TemporaryDirectory() as tmp:
            assert main([flag[0], f"{flag[1]}={value}", "--out-dir", tmp]) == 2
            meta = read_keyvalue(Path(tmp) / "metadata.txt")
            assert meta["status"] == "config_error"
            assert "finite" in meta["error"]

    @pytest.mark.parametrize("flag", ["--seed=1", "--tol=1e-8", "--solver=lanczos"])
    def test_potential_takes_no_solver_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["potential", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _subcommand_parsers(parser):
    return parser._subparsers._group_actions[0].choices


class TestGeneratedParser:
    COMMON = {"--config": "config", "--ratio": "ratio", "--out-dir": "out_dir"}
    SOLVER = {"--seed": "seed", "--tol": "tol", "--solver": "solver"}
    PHYSICAL = {"--mass-kg": "mass_kg", "--radius-m": "radius_m"}
    FLAGS = {
        "potential": {**COMMON, "--phi-max": "phi_max", "--n-samples": "n_samples"},
        "two-body": {**COMMON, **SOLVER, **PHYSICAL, "--beta": "beta",
                     "--box-length": "box_length", "--spacing": "spacing_1d",
                     "--k": "k_states", "--statistics": "statistics",
                     "--full-line": "emit_full_line"},
        "three-body": {**COMMON, **SOLVER, "--beta": "beta",
                       "--x-max": "x_max", "--y-max": "y_max", "--spacing": "spacing_2d",
                       "--k": "k_states", "--statistics": "statistics",
                       "--allow-small-box": "allow_small_box",
                       "--symmetrize": "symmetrize", "--sample-extent": "sample_extent",
                       "--sample-spacing": "sample_spacing"},
        "scan": {**COMMON, **SOLVER, "--betas": "betas", "--box-length": "box_length",
                 "--spacing": "spacing_1d", "--k": "k_states"},
        "fit": {**COMMON, **SOLVER, "--betas": "betas",
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

    def test_readme_examples_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [cmd[1:] for cmd in commands if cmd and cmd[0] == "helix-dipoles"]
        assert len(commands) >= 5
        for argv in commands:
            build_parser().parse_args(argv)

    def test_only_given_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("x_max = 45.0\nbeta = 0.5\nsymmetrize = true\n")
        args = build_parser().parse_args(
            ["three-body", "--config", str(cfg_file), "--x-max", "auto"])
        cfg = config_from_args(args)
        assert cfg.x_max is None
        assert cfg.beta == 0.5 and cfg.symmetrize is True
        assert cfg.problem == "three-body"


class TestImportCost:
    def test_cli_import_skips_heavy_scipy_modules(self):
        # importing scipy.optimize or scipy.sparse.linalg costs every short
        # run memory and start-up time; ARPACK is imported inside the
        # iterative eigensolver only
        src = str(Path(helixdipoles.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, helixdipoles.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy.optimize', 'scipy.sparse.linalg'))))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "[]"


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

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "from_env"))
        code = main(["potential", "--ratio", "1.0", "--n-samples", "50"])
        assert code == 0
        assert (tmp_path / "from_env" / "data.csv").exists()

    def test_bad_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense_key = 3\n")
        assert main(["potential", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("line", ["statistics = bosn", "solver = lanczoz"])
    def test_config_value_outside_choices(self, line, tmp_path):
        # the flags reject these through argparse; a config file must too
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        argv = ["three-body", "--config", str(cfg_file), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert not (tmp_path / "metadata.txt").exists()


class TestDeterminism:
    PINNED = [
        dict(problem="potential", ratio=1.0, phi_max=3.0 * TWO_PI, n_samples=600),
        dict(problem="two-body", beta=1.0, box_length=60.0, spacing_1d=0.05,
             k_states=4),
        dict(problem="three-body", beta=1.0, x_max=12.0, y_max=16.0,
             spacing_2d=0.4, k_states=2, allow_small_box=True, solver="lanczos"),
    ]

    @pytest.mark.parametrize("pinned", PINNED, ids=["potential", "two-body", "three-body"])
    def test_golden_outputs_byte_stable(self, pinned, tmp_path):
        outputs = []
        for label in ("first", "second"):
            out = tmp_path / label
            cfg = RunConfig(out_dir=str(out), **pinned)
            assert run(cfg) == 0
            outputs.append(sorted(p for p in out.iterdir() if p.suffix == ".csv"))
        assert [p.name for p in outputs[0]] == [p.name for p in outputs[1]]
        for a, b in zip(*outputs):
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
