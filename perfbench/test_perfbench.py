"""Fast checks of the benchmark itself: a tiny wedge through the traced path,
the correctness gate and the seeded generator.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from helixdipoles import cli  # noqa: E402

TINY = {"problem": "three-body", "beta": 2.0, "ratio": 1.0, "k_states": 1,
        "x_max": 12.0, "y_max": 16.0, "spacing_2d": 0.2, "allow_small_box": True,
        "solver": "lanczos", "symmetrize": True, "sample_extent": 4.0,
        "sample_spacing": 0.5}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One pass of a tiny wedge request, traced, gated against its own reference.

    The gate tests below re-check the reference outputs in ``root / "ref"``;
    the traced run's own directory is removed when the pass ends.
    """
    root = tmp_path_factory.mktemp("perfbench")
    assert cli.run(cli.RunConfig(**TINY, out_dir=str(root / "ref"))) == 0
    refs = {"tiny": workloads.wedge_reference(root / "ref")}
    workload = workloads.Workload("tiny", 0, [workloads.Request(dict(TINY), 1, "tiny")], 1.0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        passes, records = run.run_passes(workload, 1, refs, root, tracer)
    return tracer, passes, records, refs, workload, root / "ref"


def test_tiny_wedge_passes_gate(traced):
    tracer, passes, records, refs, _, _ = traced
    assert len(passes) == 1
    assert [r["ok"] for r in records] == [True], records[0]["reasons"]


def test_spans_nest(traced):
    tracer = traced[0]
    names = {s.name for s in tracer.spans}
    assert {"cli.request", "threebody.grid", "threebody.assemble", "potential.eval",
            "linalg.eigensolve", "linalg.matvec", "threebody.observables",
            "threebody.symmetrize", "cli.export"} <= names
    for i, span in enumerate(tracer.spans):
        if span.parent < 0:
            assert span.name == "cli.request"
            continue
        parent = tracer.spans[span.parent]
        assert span.parent < i
        assert parent.start <= span.start <= span.end <= parent.end
        assert parent.request == span.request


def test_self_times_within_wall(traced):
    tracer, passes = traced[0], traced[1]
    own = tracer.self_times()
    wall = sum(passes[0]["latencies"])
    assert min(own) >= -1e-9
    assert sum(own) <= wall


def test_layer_metrics(traced):
    tracer, passes, records = traced[:3]
    wall = sum(passes[0]["latencies"])
    m = spans.layer_metrics(tracer, 1, wall, {"rows": 0, "bytes": 0})
    assert m["linalg.matvecs"][0] == records[0]["matvec_count"]
    assert m["linalg.inner_s"][0] + m["linalg.matvec_s"][0] == pytest.approx(
        m["linalg.eigensolve_s"][0])
    assert m["threebody.symmetrize_points"][0] == 17 * 17
    assert 0.0 <= m["trace.overhead_frac"][0] < 0.05


def test_output_directory_removed(traced):
    assert not list(traced[5].parent.glob("tiny-*"))


def test_wrappers_removed(traced):
    for owner, attr, _, _ in spans.WRAPPED:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


@pytest.mark.parametrize("key, delta", [("E0", 1e-3), ("distances", 1e-3)])
def test_perturbed_reference_fails(traced, key, delta):
    _, _, _, refs, workload, out = traced
    bad = copy.deepcopy(refs)
    if key == "E0":
        bad["tiny"]["E0"] += delta
    else:
        bad["tiny"]["distances"][0] += delta
    verdict = workloads.check(workload.requests[0], 0, out, bad)
    assert not verdict.ok
    assert workloads.check(workload.requests[0], 0, out, refs).ok


def test_nonzero_exit_fails(traced):
    _, _, _, refs, workload, out = traced
    assert workloads.check(workload.requests[0], 4, out, refs).reasons == ["exit code 4"]


def test_missing_output_fails(traced, tmp_path):
    _, _, _, refs, workload, _ = traced
    verdict = workloads.check(workload.requests[0], 0, tmp_path, refs)
    assert not verdict.ok and verdict.reasons[0].startswith("unreadable output")


def test_energy_bound_adds_both_residuals():
    assert workloads.energy_bound(-1.0, 1e-6, -1.0, 2e-6) == pytest.approx(3e-6 + 1e-11)


def test_twobody_mix_is_seeded():
    a, b = workloads.build("twobody-mix", 5), workloads.build("twobody-mix", 5)
    assert [r.config for r in a.requests] == [r.config for r in b.requests]
    other = workloads.build("twobody-mix", 6)
    assert [r.config for r in a.requests] != [r.config for r in other.requests]
    problems = [r.problem for r in a.requests]
    assert problems.count("two-body") == workloads.N_TWO_BODY
    assert problems.count("scan") == problems.count("fit") == 1
    full = [r for r in a.requests if r.config.get("emit_full_line")]
    assert len(full) == workloads.N_TWO_BODY // workloads.FULL_LINE_EVERY
    refs = workloads.load_references()
    for r in a.requests:
        for beta in ([r.config["beta"]] if r.problem == "two-body"
                     else r.config.get("product_betas", ()) if r.problem == "fit"
                     else r.config["betas"]):
            assert repr(float(beta)) in refs["two-body"]


def test_pass_count_depends_only_on_seconds():
    workload = workloads.build("wedge-bound", 0)
    assert [workload.passes(s) for s in (1, 25, 45, 75)] == [1, 1, 1, 3]


def test_wedge_workloads_ignore_seed():
    for name in ("wedge-bound", "wedge-weak"):
        assert (workloads.build(name, 0).requests[0].config
                == workloads.build(name, 7).requests[0].config)
