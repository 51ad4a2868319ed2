#!/usr/bin/env python3
"""helix-dipoles benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload wedge-bound --seed 0 --seconds 45 --trace 0

One process, one client, closed loop: each request is a ``RunConfig`` handed
to ``helixdipoles.cli.run`` and the next one is issued only after it returns
and its outputs have been checked.  The workload's request list is one pass;
``--seconds`` fixes how many passes run (see ``Workload.passes``).
``--trace 1`` installs the span wrappers of ``spans.py`` and reports per-layer
numbers instead of the end-to-end ones.  The last line of standard
output is one JSON object; the full record (environment, per-request
verdicts, E0 drift, CSV sha256) goes to ``.perfbench_out/results/`` and the
spans of a traced run to ``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed for ``setup_s``; the median discards the first
#: one's bytecode compilation in a new checkout.
SETUP_SAMPLES = 5

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import helixdipoles.cli, workloads
workloads.build({name!r}, {seed})
print(time.perf_counter() - t0)
"""

def use_checkout_source() -> None:
    """Import helixdipoles from this checkout's ``src/``, or stop."""
    if not (SRC / "helixdipoles" / "__init__.py").is_file():
        raise SystemExit(f"error: no helixdipoles sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import helixdipoles

    if Path(helixdipoles.__file__).resolve().parent != SRC / "helixdipoles":
        raise SystemExit(f"error: helixdipoles imported from {helixdipoles.__file__}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _openblas() -> list[dict]:
    """Config string and thread count of each OpenBLAS numpy and scipy load."""
    import numpy
    import scipy

    found = []
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if get_threads is None or get_config is None:
                        continue
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    found.append({"user": mod.__name__, "library": path.name,
                                  "config": get_config().decode(),
                                  "threads": int(get_threads())})
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup(name: str, seed: int) -> list[float]:
    """Import plus input generation, each in a fresh interpreter."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_passes(workload, n_passes: int, refs: dict, out_root: Path = OUT, tracer=None):
    """Issue the workload's requests in a closed loop; returns (passes, records).

    A pass is the full request list.  Each pass records its request
    latencies and the process CPU time spent inside them; each request
    record holds its verdict.  Clearing the output directory and checking
    the outputs happen between requests, outside the timed spans.  The
    output directory is private to this process and removed at the end.
    """
    import workloads
    from helixdipoles import cli

    call = cli.run if tracer is None else tracer.wrap("cli.request", cli.run)
    out = out_root / f"{workload.name}-{os.getpid()}"
    passes, records = [], []
    try:
        for _ in range(n_passes):
            latencies, cpu = [], 0.0
            for req in workload.requests:
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir(parents=True)
                cfg = cli.RunConfig(**req.config, out_dir=str(out))
                if tracer is not None:
                    tracer.request = len(records)
                raised = None
                cpu0 = _cpu_s()
                t0 = time.perf_counter()
                try:
                    rc = call(cfg)
                except Exception:  # a crashing request is a failed request, not a crashed run
                    rc, raised = None, traceback.format_exc()
                latency = time.perf_counter() - t0
                cpu += _cpu_s() - cpu0
                latencies.append(latency)
                verdict = workloads.check(req, rc, out, refs)
                if raised:
                    verdict.reasons.insert(0, "raised " + raised.strip().splitlines()[-1])
                records.append({"problem": req.problem, "latency_s": latency,
                                "solves": req.solves, **verdict.record()})
            passes.append({"latencies": latencies, "cpu_s": cpu})
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return passes, records


def end_to_end(passes, records, setup: list[float]) -> dict:
    import numpy as np

    walls = [sum(p["latencies"]) for p in passes]
    latencies = [x for p in passes for x in p["latencies"]]
    solves = sum(r["solves"] for r in records if r["ok"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "request_p50_s": (float(np.percentile(latencies, 50)), "s"),
        "request_p95_s": (float(np.percentile(latencies, 95)), "s"),
        "solves_per_s": (solves / sum(walls), "1/s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wedge-bound", "wedge-weak", "twobody-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    use_checkout_source()
    import spans
    import workloads

    env = environment()
    over = [b for b in env["blas"] if b["threads"] > env["nproc"]]
    if over:
        print(f"error: BLAS uses {over[0]['threads']} threads on {env['nproc']} cpus; "
              "set OPENBLAS_NUM_THREADS", file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed)
    refs = workloads.load_references()
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        passes, records = run_passes(workload, workload.passes(args.seconds), refs)
    else:
        with spans.installed(tracer):
            passes, records = run_passes(workload, workload.passes(args.seconds), refs,
                                         tracer=tracer)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    if tracer is None:
        metrics = end_to_end(passes, records, setup)
    else:
        files = [f for r in records for f in r["files"].values()]
        export = {"rows": sum(f["rows"] for f in files), "bytes": sum(f["bytes"] for f in files)}
        wall = statistics.median(sum(p["latencies"]) for p in passes)
        metrics = spans.layer_metrics(tracer, len(passes), wall, export)

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "shape": "closed loop, one client, serial requests in one process",
        "inputs": workload.inputs, "environment": env, "setup_samples_s": setup,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "correct": failed == 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "requests": records,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        (OUT / "spans" / f"{stem}.json").write_text(json.dumps(tracer.dump()))

    blas = ", ".join(f"{b['user']}:{b['config'].split()[1]}x{b['threads']}" for b in env["blas"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  closed loop, 1 client")
    print(f"environment  commit {env['git_commit'] or 'n/a'}  src {env['src_sha256'][:12]}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas {blas or 'unknown'}  nproc {env['nproc']}")
    print(f"requests  attempted {attempted}  failed {failed}  failed_frac {failed / attempted:g}")
    for record in records:
        if not record["ok"]:
            print(f"  FAILED {record['problem']}: {'; '.join(record['reasons'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
