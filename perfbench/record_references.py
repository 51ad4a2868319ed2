#!/usr/bin/env python3
"""Record ``references.json``: the outputs the benchmark's gate compares against.

    python3 perfbench/record_references.py

Runs every reference problem once through ``helixdipoles.cli.run`` (about a
minute and a half; the two wedge solves dominate): both wedge requests, a
``two-body`` solve for each coupling of the pool the twobody-mix workload
draws from, and the harmonic-size fit.  Rerun it only when a change is meant
to move these numbers, and say so.
"""

from __future__ import annotations

import json
import shutil

import run


def _solve(config: dict, out) -> dict:
    from helixdipoles import cli

    shutil.rmtree(out, ignore_errors=True)
    if cli.run(cli.RunConfig(**config, out_dir=str(out))) != 0:
        raise SystemExit(f"reference request failed: {config}")
    import workloads

    return workloads.read_summary(out / "summary.txt")


def main() -> None:
    run.use_checkout_source()
    import workloads
    from helixdipoles.linalg import DEFAULT_SEED
    from helixdipoles.twobody import Grid1D, solve_two_body

    out = run.OUT / "references"
    refs: dict = {"environment": run.environment()}
    for name in ("wedge-bound", "wedge-weak"):
        (req,) = workloads.build(name, 0).requests
        _solve(req.config, out)
        refs[name] = workloads.wedge_reference(out)
    refs["two-body"] = {}
    for beta in workloads.TWO_BODY_POOL:
        s = _solve({"problem": "two-body", "beta": beta, "ratio": 1.0, "k_states": 4}, out)
        refs["two-body"][repr(beta)] = {"E0": float(s["E0"]),
                                        "max_residual_norm": float(s["max_residual_norm"]),
                                        "bound_count": int(s["bound_count"])}
    s = _solve({"problem": "fit", "ratio": 1.0, "betas": workloads.FIT_BETAS}, out)
    residual = max(float(solve_two_body(Grid1D(), b, 1.0, 1, seed=DEFAULT_SEED)
                         .eigen.residual_norms.max()) for b in workloads.FIT_BETAS)
    refs["fit"] = {"fit_c1": float(s["fit_c1"]), "fit_c2": float(s["fit_c2"]),
                   "size_scan_E0": [float(r[1]) for r in
                                    workloads.read_csv(out / "size_scan.csv")],
                   "max_residual_norm": residual}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
