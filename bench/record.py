#!/usr/bin/env python3
"""Record a ``BENCH_*.json``: the benchmark of HEAD against its parent.

    python3 bench/record.py --out BENCH_<n>.json      # HEAD against HEAD~1

HEAD and its parent are checked out as git worktrees under ``.bench_build/``
(ignored by git), so each side runs its own unchanged ``perfbench/run.py``
on its committed files.  Every ``BENCHMARK.json`` workload runs in 10
pairs (seed 0, ``--seconds 45``, ``--trace 0``); the side that runs first
swaps from one pair to the next, so a drift of the machine's speed
favours neither.  After each run the record that run wrote,
``.perfbench_out/results/<workload>-seed0-trace0.json`` of its checkout, is
read.  The Tier-1 suite is then run and timed once on each side.

The JSON written holds, per workload and per ``BENCHMARK.json`` end-to-end
metric, each side's runs, median, quartiles and drift (the median of its
later half of runs minus that of its earlier half), the pairs the head side
won (a tie counts for neither) and whether its median is worse than the
base's by more than the metric's bound; the requests attempted and failed;
and the sha256 of every CSV and ``summary.txt`` a run wrote (``metadata.txt``
echoes its output directory and is left out), with whether every run of
both sides wrote the same bytes.  It also holds both commits, the
environment, and each side's Tier-1 passed count and wall time.  Nothing
is gated here.  The worktrees are removed at the end, also after a failure.
About 7 minutes on 2 vCPU.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SEED, SECONDS, TRACE = 0, 45, 0
PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles, linear between the order statistics (numpy's default)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pair_wins(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which ``head`` beats ``base``; a tie counts for neither side."""
    if len(base) != len(head):
        raise ValueError(f"{len(base)} base runs against {len(head)} head runs")
    sign = {"lower": -1.0, "higher": 1.0}[better]
    return sum(sign * (h - b) > 0.0 for b, h in zip(base, head))


def drift(runs: list[float]) -> float:
    """Median of the later half of ``runs`` minus that of the earlier half, in
    run order (an odd count leaves the middle run out): the machine's drift."""
    half = len(runs) // 2
    return statistics.median(runs[len(runs) - half:]) - statistics.median(runs[:half])


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric of both sides: runs, medians, quartiles, drift, pair wins,
    the bound check.

    ``worse_than_bound`` holds when the head median is worse than the base
    median by more than the fraction ``bound`` of it.
    """
    sides = {}
    for name, runs in (("base", base), ("head", head)):
        q1, q3 = quartiles(runs)
        sides[name] = {"median": statistics.median(runs), "q1": q1, "q3": q3,
                       "drift": drift(runs), "runs": runs}
    mb, mh = sides["base"]["median"], sides["head"]["median"]
    worse = mh - mb if better == "lower" else mb - mh
    return {**sides, "better": better, "bound": bound,
            "head_wins": pair_wins(base, head, better), "pairs": len(base),
            "worse_than_bound": worse > bound * abs(mb)}


def output_hashes(requests: list[dict]) -> dict:
    """sha256 of every file the ``requests`` of a run record wrote but
    ``metadata.txt``, keyed ``<request number>-<problem>/<file>``."""
    return {f"{i}-{req['problem']}/{name}": f["sha256"]
            for i, req in enumerate(requests)
            for name, f in sorted(req["files"].items()) if name != "metadata.txt"}


def _digest(hashes: dict) -> str:
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def add_worktree(name: str, commit: str) -> Path:
    path = BUILD / name
    subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                   capture_output=True)
    git("worktree", "prune")
    git("worktree", "add", "--detach", str(path), commit)
    return path


def run_workload(checkout: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; the result record it wrote."""
    record = checkout / ".perfbench_out" / "results" / f"{workload}-seed{SEED}-trace{TRACE}.json"
    record.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS),
                           "--trace", str(TRACE)],
                          cwd=checkout, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise SystemExit(f"{workload} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(record.read_text())


def tier1(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=1800)
    wall = time.perf_counter() - t0
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed|errors?)", tail)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "wall_s": wall, "summary": tail}


def host() -> dict:
    """What perfbench's record leaves out: the CPU model and the platform."""
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), "")
    return {"cpu": cpu, "machine": platform.machine(), "platform": platform.platform()}


def record() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {side: {"commit": git("rev-parse", rev),
                      "subject": git("log", "-1", "--format=%s", rev)}
               for side, rev in (("base", "HEAD~1"), ("head", "HEAD"))}
    checkouts = {}
    try:
        for side in ("base", "head"):
            checkouts[side] = add_worktree(side, commits[side]["commit"])
        workloads = {}
        for w in spec["workloads"]:
            results = {"base": [], "head": []}
            for i in range(PAIRS):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    results[side].append(run_workload(checkouts[side], w["name"]))
                    print(f"{w['name']} pair {i + 1}/{PAIRS} {side}: wall_s "
                          f"{results[side][-1]['metrics']['wall_s']['value']:.3f}",
                          flush=True)
            metrics = {
                m["name"]: {"unit": m["unit"], **compare(
                    [r["metrics"][m["name"]]["value"] for r in results["base"]],
                    [r["metrics"][m["name"]]["value"] for r in results["head"]],
                    m["better"], m["bound"])}
                for m in spec["end_to_end"]}
            digests = {side: sorted({_digest(output_hashes(r["requests"])) for r in runs})
                       for side, runs in results.items()}
            first = results["head"][0]  # every pass repeats the first one's requests
            workloads[w["name"]] = {
                "metrics": metrics,
                "requests": {side: {"attempted": sum(r["attempted"] for r in runs),
                                    "failed": sum(r["failed"] for r in runs)}
                             for side, runs in results.items()},
                "outputs": {"same_bytes_every_run": digests["base"] == digests["head"]
                            and len(digests["head"]) == 1,
                            "distinct_output_sets": {s: len(d) for s, d in digests.items()},
                            "sha256_first_pass": output_hashes(
                                first["requests"][:len(first["requests"]) // first["passes"]])},
            }
        # python, numpy, scipy, BLAS, nproc, commit and src hash of each side
        env = {side: runs[0]["environment"] for side, runs in results.items()}
        tests = {side: tier1(checkouts[side]) for side in ("base", "head")}
    finally:
        for path in checkouts.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                           capture_output=True)
        git("worktree", "prune")
    return {"commits": commits, "environment": {"host": host(), **env},
            "protocol": {"pairs": PAIRS, "seed": SEED, "seconds": SECONDS, "trace": TRACE,
                         "order": "base first in odd-numbered pairs, head first in even",
                         "quartiles": "linear between order statistics"},
            "workloads": workloads, "tier1": {"command": " ".join(TIER1[1:]), **tests}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)
    result = record()
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, w in result["workloads"].items():
        for metric, m in w["metrics"].items():
            print(f"{name:12s} {metric:14s} {m['base']['median']:12.6g} -> "
                  f"{m['head']['median']:12.6g} {m['unit']:4s} drift "
                  f"{m['base']['drift']:+.3g} | {m['head']['drift']:+.3g}, head won "
                  f"{m['head_wins']}/{m['pairs']}"
                  f"{'  WORSE THAN BOUND' if m['worse_than_bound'] else ''}")
        print(f"{name:12s} failed requests {w['requests']['base']['failed']} -> "
              f"{w['requests']['head']['failed']}, same output bytes: "
              f"{w['outputs']['same_bytes_every_run']}")
    print(f"Tier-1 {result['tier1']['base']['summary']} -> {result['tier1']['head']['summary']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
