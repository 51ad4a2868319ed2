"""In-memory call spans around the public functions of each helixdipoles layer.

Wrappers are installed from outside the package: each one replaces a name in
the namespace of the module that calls it (``threebody.lowest_eigenpairs``,
``cli.emit_csv`` ...), so ``src/`` is untouched and removing the wrappers
restores the original objects.  ``SymmetricSparseOperator.matvec`` is wrapped
on the class, because every layer reaches it through the operator object.

A span is ``(name, start, end, parent, request, attrs)``; ``parent`` is the
index of the enclosing span or -1, and ``request`` the request id that was
current when the span opened.  Self time is a span's duration minus the
durations of its direct children (children never overlap: one thread).
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from helixdipoles import analysis, cli, linalg, threebody, twobody


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped so each call appends a span named ``name``.

        ``attrs(args, kwargs, result)`` may return extra per-span values; it
        runs after the span's end time is taken.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.request, s.attrs] for s in self.spans]


def _eigen_attrs(args, kwargs, result):
    return {"pairs": int(result.values.size),
            "max_residual": float(result.residual_norms.max())}


def _matvec_attrs(args, kwargs, result):
    csr = args[0].csr
    # CSR arrays read once, input vector read and output vector written once
    moved = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes + 2 * 8 * csr.shape[0]
    return {"bytes": int(moved)}


def _assemble_attrs(args, kwargs, result):
    return {"n": int(result.n), "nnz": int(result.nnz)}


def _points_attrs(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _symmetrize_attrs(args, kwargs, result):
    return {"points": int(len(args[2]) * len(args[3]))}


#: (module, attribute, span name, attrs) -- every call into a layer that the
#: CLI workloads make, wrapped where the caller looks the name up.
WRAPPED = (
    (cli, "WedgeGrid2D", "threebody.grid", None),
    (cli, "solve_three_body", "threebody.solve", None),
    (threebody, "assemble_hamiltonian_2d", "threebody.assemble", _assemble_attrs),
    (threebody, "reduced_potential", "potential.eval", _points_attrs),
    (threebody, "lowest_eigenpairs", "linalg.eigensolve", _eigen_attrs),
    (threebody, "pair_distance_expectations", "threebody.observables", None),
    (cli, "symmetrize_wavefunction", "threebody.symmetrize", _symmetrize_attrs),
    (cli, "solve_two_body", "twobody.solve", None),
    (twobody, "solve_two_body", "twobody.solve", None),
    (analysis, "solve_two_body", "twobody.solve", None),
    (twobody, "assemble_hamiltonian_1d", "twobody.assemble", None),
    (twobody, "reduced_potential", "potential.eval", _points_attrs),
    (twobody, "lowest_eigenpairs", "linalg.eigensolve", _eigen_attrs),
    (cli, "extend_full_line", "twobody.extend", None),
    (cli, "scan_beta", "twobody.scan", None),
    (cli, "build_size_scan", "analysis.size_scan", None),
    (cli, "fit_harmonic_size", "analysis.fit", None),
    (cli, "find_minima", "potential.minima", None),
    (analysis, "find_minima", "potential.minima", None),
    (cli, "emit_csv", "cli.export", None),
    (cli, "emit_summary", "cli.export", None),
    (linalg.SymmetricSparseOperator, "matvec", "linalg.matvec", _matvec_attrs),
)


class installed:
    """Context manager: wrap every entry of :data:`WRAPPED` for ``tracer``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, attrs in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, attrs))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def span_cost_s(batches: int = 5, calls: int = 20000) -> float:
    """Median extra time one wrapped call costs over a plain call.

    The wrapper runs its attrs hook too, so the estimate covers the whole
    per-span bookkeeping that a traced request pays.
    """

    def noop(x):
        return x

    wrapped = Tracer().wrap("noop", noop, lambda a, k, r: {"n": 1})
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))


def layer_metrics(tracer: Tracer, passes: int, wall_s: float, export: dict) -> dict:
    """Per-layer numbers, per workload pass, from the recorded spans.

    ``wall_s`` is the traced time of one pass; ``export`` holds the rows and
    bytes of every file the passes wrote, read back after each request.
    """
    own = tracer.self_times()
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    max_residual = 0.0
    n_active = nnz = 0
    for span, own_s in zip(tracer.spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        count[span.name] = count.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own_s
        for key, value in span.attrs.items():
            akey = f"{span.name}.{key}"
            if key == "max_residual":
                max_residual = max(max_residual, value)
            else:
                attr_sum[akey] = attr_sum.get(akey, 0.0) + value
        if span.name == "threebody.assemble":
            n_active, nnz = span.attrs["n"], span.attrs["nnz"]

    def per_pass(table, key):
        return table.get(key, 0) / passes

    matvecs = per_pass(count, "linalg.matvec")
    matvec_s = per_pass(total, "linalg.matvec")
    moved = per_pass(attr_sum, "linalg.matvec.bytes")
    pairs = per_pass(attr_sum, "linalg.eigensolve.pairs")
    overhead_s = span_cost_s() * len(tracer.spans) / passes
    return {
        "linalg.eigensolve_s": (per_pass(total, "linalg.eigensolve"), "s"),
        "linalg.eigensolve_calls": (per_pass(count, "linalg.eigensolve"), "count"),
        "linalg.matvecs": (matvecs, "count"),
        "linalg.matvec_s": (matvec_s, "s"),
        "linalg.matvec_bytes_computed": (moved, "bytes"),
        "linalg.matvec_gbps_computed": (moved / matvec_s / 1e9 if matvec_s else 0.0, "GB/s"),
        "linalg.inner_s": (per_pass(self_s, "linalg.eigensolve"), "s"),
        "linalg.pairs_per_kmatvec": (1000.0 * pairs / matvecs if matvecs else 0.0,
                                     "pairs/kmatvec"),
        "linalg.max_residual": (max_residual, "norm"),
        "threebody.grid_s": (per_pass(total, "threebody.grid"), "s"),
        "threebody.assemble_s": (per_pass(total, "threebody.assemble"), "s"),
        "threebody.n_active": (n_active, "count"),
        "threebody.nnz": (nnz, "count"),
        "threebody.observables_s": (per_pass(total, "threebody.observables"), "s"),
        "threebody.symmetrize_s": (per_pass(total, "threebody.symmetrize"), "s"),
        "threebody.symmetrize_points": (per_pass(attr_sum, "threebody.symmetrize.points"),
                                        "count"),
        "twobody.assemble_s": (per_pass(total, "twobody.assemble"), "s"),
        "twobody.solve_calls": (per_pass(count, "twobody.solve"), "count"),
        "twobody.extend_s": (per_pass(total, "twobody.extend"), "s"),
        "potential.eval_points": (per_pass(attr_sum, "potential.eval.points"), "count"),
        "potential.eval_s": (per_pass(total, "potential.eval"), "s"),
        "potential.minima_calls": (per_pass(count, "potential.minima"), "count"),
        "potential.minima_s": (per_pass(total, "potential.minima"), "s"),
        "analysis.size_scan_s": (per_pass(total, "analysis.size_scan"), "s"),
        "analysis.fit_s": (per_pass(total, "analysis.fit"), "s"),
        "cli.export_s": (per_pass(total, "cli.export"), "s"),
        "cli.export_rows": (export["rows"] / passes, "count"),
        "cli.export_bytes": (export["bytes"] / passes, "bytes"),
        "cli.request_self_s": (per_pass(self_s, "cli.request"), "s"),
        "trace.overhead_frac": (overhead_s / max(wall_s - overhead_s, 1e-12), "fraction"),
    }
