"""Per-layer spans around ringchain's public functions, recorded from outside.

``traced_api`` replaces each public name in the module that looks it up
(``ringchain.measure.positive_bands``, ``ringchain.bands.brentq_strict``,
...) with a wrapper that records a span: name, start, end and the span
that was open when it began.  Spans stay in memory in flat arrays and are
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its child spans.  The patches last for
the life of the process, which runs one workload and exits.

``sinpi``/``cospi`` are not wrapped: they are called twice per dispersion
evaluation and a wrapper would cost more than they do; their time is part
of the self time of ``phi_positive``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from types import SimpleNamespace

import numpy as np

#: (consuming module, public name, span name)
_WRAPPED = (
    ("ringchain.cli", "flat_bands", "bands.flat_bands"),
    ("ringchain.cli", "dispersion", "bands.dispersion"),
    ("ringchain.bands", "f_shifted", "bands.f_shifted"),
    ("ringchain.bands", "f_prime_scaled", "bands.f_prime_scaled"),
    ("ringchain.bands", "minimize_scalar", "bands.tangency"),
    ("ringchain.bands", "closed_form_value", "secular.closed_form_value"),
    ("ringchain.crosscheck", "assemble", "secular.assemble"),
    ("ringchain.crosscheck", "normalized_determinant", "secular.det"),
    ("ringchain.crosscheck", "closed_form_value", "secular.closed_form_value"),
)
_BAND_SOLVERS = (
    ("ringchain.cli", "positive_bands", "bands.positive_bands"),
    ("ringchain.measure", "positive_bands", "bands.positive_bands"),
    ("ringchain.cli", "negative_bands", "bands.negative_bands"),
)
_PHI = (("ringchain.bands", "phi_positive"), ("ringchain.measure", "phi_positive"))
_BRENTQ = (("ringchain.bands", "brentq_strict"), ("ringchain.crosscheck", "brentq_strict"))

PER_LAYER_UNITS = {
    "bands.phi_scalar_calls": "count",
    "bands.phi_scalar_us": "us",
    "numerics.brentq_calls": "count",
    "numerics.brentq_evals_per_call": "count",
    "numerics.brentq_self_ms": "ms",
    "bands.edges_per_brentq": "ratio",
    "bands.tangency_searches": "count",
    "bands.tangency_ms": "ms",
    "bands.refine_rounds": "count",
    "bands.grid_points": "count",
    "bands.phi_vector_ns_per_point": "ns",
    "measure.self_ms": "ms",
    "bands.negative_bands_ms": "ms",
    "bands.f_shifted_calls": "count",
    "bands.f_prime_scaled_calls": "count",
    "secular.assemble_calls": "count",
    "secular.assemble_us": "us",
    "secular.det_us": "us",
    "secular.closed_form_us": "us",
    "crosscheck.assemble_per_bracket": "ratio",
    "crosscheck.matched_per_bracket": "ratio",
    "cli.self_ms": "ms",
}


def _edges(bands) -> int:
    """Distinct band edges a solver found by root refinement (not k = 0,
    not window cuts, not zero-width tangency points)."""
    edges = set()
    for b in bands:
        if b.e_lo == b.e_hi:
            continue
        if b.e_lo != 0.0 and not b.truncated_lo:
            edges.add(b.e_lo)
        if not b.truncated_hi:
            edges.add(b.e_hi)
    return len(edges)


class Tracer:
    """In-memory span store plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.phi_points = array("q")
        self.brentq_evals = array("q")
        self.solver_brentq = 0
        self.solver_edges = 0
        self._solver_depth = 0
        self.brackets = 0
        self.matched = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.start[i] = t0
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        return wrapper

    def wrap_phi(self, fn):
        scalar, vector = self._id("bands.phi_scalar"), self._id("bands.phi_vector")

        def phi_positive(spec, k):
            if np.ndim(k) == 0:
                return self.call(scalar, fn, (spec, k), {})
            self.phi_points.append(int(np.size(k)))
            return self.call(vector, fn, (spec, k), {})

        return phi_positive

    def wrap_brentq(self, fn):
        nid = self._id("numerics.brentq")

        def brentq_strict(f, a, b):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            if self._solver_depth:
                self.solver_brentq += 1
            try:
                return self.call(nid, fn, (counted, a, b), {})
            finally:
                self.brentq_evals.append(evals[0])

        return brentq_strict

    def wrap_solver(self, name: str, fn):
        nid = self._id(name)

        def solver(*args, **kwargs):
            self._solver_depth += 1
            try:
                out = self.call(nid, fn, args, kwargs)
            finally:
                self._solver_depth -= 1
            self.solver_edges += _edges(out)
            return out

        return solver

    def wrap_match(self, fn):
        nid = self._id("crosscheck.match_roots")

        def match_roots(*args, **kwargs):
            rep = self.call(nid, fn, args, kwargs)
            self.brackets += rep.brackets
            self.matched += rep.matched_roots
            return rep

        return match_roots

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
        )

    def metrics(self) -> dict:
        """Per-layer figures normalized per op (the spans named 'op')."""
        ids, par, start, end = self._arrays()
        n = ids.size
        n_names = len(self.names)
        dur = end - start
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        count = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        own = np.bincount(ids, weights=self_t, minlength=n_names)

        def get(arr, name):
            i = self._ids.get(name)
            return float(arr[i]) if i is not None else 0.0

        def per_call(name, scale):
            c = get(count, name)
            return get(total, name) / c * scale if c else 0.0

        n_ops = get(count, "op") or 1.0
        vec = ids == self._ids.get("bands.phi_vector", -1)
        vec_per_parent = np.bincount(par[vec], minlength=n) if vec.any() else np.zeros(0)
        scans = vec_per_parent[vec_per_parent > 0]
        points = float(sum(self.phi_points))
        brentq_n = get(count, "numerics.brentq")
        assemble_n = get(count, "secular.assemble")
        vals = {
            "bands.phi_scalar_calls": get(count, "bands.phi_scalar") / n_ops,
            "bands.phi_scalar_us": per_call("bands.phi_scalar", 1e6),
            "numerics.brentq_calls": brentq_n / n_ops,
            "numerics.brentq_evals_per_call": (
                sum(self.brentq_evals) / brentq_n if brentq_n else 0.0
            ),
            "numerics.brentq_self_ms": get(own, "numerics.brentq") / n_ops * 1e3,
            "bands.edges_per_brentq": (
                self.solver_edges / self.solver_brentq if self.solver_brentq else 0.0
            ),
            "bands.tangency_searches": get(count, "bands.tangency") / n_ops,
            "bands.tangency_ms": get(total, "bands.tangency") / n_ops * 1e3,
            "bands.refine_rounds": float((scans - 1).sum()) / n_ops,
            "bands.grid_points": points / n_ops,
            "bands.phi_vector_ns_per_point": (
                get(total, "bands.phi_vector") / points * 1e9 if points else 0.0
            ),
            "measure.self_ms": get(own, "measure.spectrum_measure") / n_ops * 1e3,
            "bands.negative_bands_ms": get(total, "bands.negative_bands") / n_ops * 1e3,
            "bands.f_shifted_calls": get(count, "bands.f_shifted") / n_ops,
            "bands.f_prime_scaled_calls": get(count, "bands.f_prime_scaled") / n_ops,
            "secular.assemble_calls": assemble_n / n_ops,
            "secular.assemble_us": per_call("secular.assemble", 1e6),
            "secular.det_us": per_call("secular.det", 1e6),
            "secular.closed_form_us": per_call("secular.closed_form_value", 1e6),
            "crosscheck.assemble_per_bracket": (
                assemble_n / self.brackets if self.brackets else 0.0
            ),
            "crosscheck.matched_per_bracket": (
                self.matched / self.brackets if self.brackets else 0.0
            ),
            "cli.self_ms": get(own, "cli.main") / n_ops * 1e3,
        }
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in vals.items()}

    def save(self, path) -> None:
        """Write every span (name, start, end, parent index) to an .npz file."""
        ids, par, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=ids, parent=par, start=start, end=end
        )


def _api(cli_main, spectrum_measure, negative_bands, match_roots):
    from ringchain import ChainSpec

    return SimpleNamespace(
        ChainSpec=ChainSpec,
        cli_main=cli_main,
        spectrum_measure=spectrum_measure,
        negative_bands=negative_bands,
        match_roots=match_roots,
    )


def plain_api():
    """The entry points the workloads call, untouched."""
    from ringchain.bands import negative_bands
    from ringchain.cli import main
    from ringchain.crosscheck import match_roots
    from ringchain.measure import spectrum_measure

    return _api(main, spectrum_measure, negative_bands, match_roots)


def traced_api(tracer: Tracer):
    """Patch the consuming modules' names with span wrappers and return the
    entry points wrapped the same way."""
    mod = importlib.import_module
    for module, attr, name in _WRAPPED:
        setattr(mod(module), attr, tracer.wrap(name, getattr(mod(module), attr)))
    for module, attr, name in _BAND_SOLVERS:
        setattr(mod(module), attr, tracer.wrap_solver(name, getattr(mod(module), attr)))
    for module, attr in _PHI:
        setattr(mod(module), attr, tracer.wrap_phi(getattr(mod(module), attr)))
    for module, attr in _BRENTQ:
        setattr(mod(module), attr, tracer.wrap_brentq(getattr(mod(module), attr)))
    plain = plain_api()
    return _api(
        tracer.wrap("cli.main", plain.cli_main),
        tracer.wrap("measure.spectrum_measure", plain.spectrum_measure),
        tracer.wrap_solver("bands.negative_bands", plain.negative_bands),
        tracer.wrap_match(plain.match_roots),
    )
