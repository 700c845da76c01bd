"""In-memory span tracer that wraps ttflow's public functions from outside.

Callers inside ttflow bind names with ``from .x import name``, so each name
is patched in the module that looks it up (``ttflow.fpe.tt_round``, not
``ttflow.tt.tt_round``). Every wrapped call records one span
``[name, start, end, parent, op]``; spans stay in memory until the run ends.
The layer of a span is the part of its name before the first dot, which is
the ttflow module that owns the work.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from ttflow import chebyshev, densities, fpe, harness, transport

LAYERS = ("harness", "densities", "cross", "fpe", "flow", "chebyshev", "tt",
          "transport", "gaussian")

# Spans whose call count must be > 0 ("+") or == 0 ("0") on each workload.
# A wrapper that misses its call site, or a stage that silently stops
# running, fails the traced run here.
_SUITE = {"harness.run_suite": "+", "harness.run_one": "+",
          "harness.gaussian_check": "0", "densities.certify": "+",
          "fpe.solve": "+", "fpe.score": "+", "flow.sample": "+",
          "flow.integrate": "+", "chebyshev.value_grad": "+",
          "chebyshev.interp_matrix": "+", "tt.round": "+",
          "tt.mode_apply": "+", "tt.extrema": "+", "transport.compare": "+",
          "transport.assign": "+", "fpe.oracle_l2": "0"}
EXPECTED_CALLS = {
    "mixture-d2": {**_SUITE, "densities.gen_quartic_mixture": "+",
                   "cross.approximate": "+", "densities.gen_tt_random": "0"},
    "mixture-d3": {**_SUITE, "densities.gen_quartic_mixture": "+",
                   "cross.approximate": "+", "densities.gen_tt_random": "0"},
    "ttrandom-d7": {**_SUITE, "densities.gen_tt_random": "+",
                    "cross.approximate": "0",
                    "densities.gen_quartic_mixture": "0"},
    "oracle-d2": {"harness.gaussian_check": "+", "harness.run_one": "0",
                  "harness.run_suite": "0", "cross.approximate": "0",
                  "densities.certify": "0", "densities.diag_gaussian_tt": "+",
                  "fpe.solve": "+", "fpe.oracle_l2": "+", "fpe.score": "+",
                  "flow.sample": "+", "flow.integrate": "+",
                  "chebyshev.value_grad": "+", "chebyshev.interp_matrix": "+",
                  "tt.round": "+", "tt.mode_apply": "+", "tt.extrema": "+",
                  "transport.compare": "+", "transport.assign": "+",
                  "gaussian.finite_time_map": "+",
                  "gaussian.encoder_map": "+"},
}


class Tracer:
    """Patches call sites, records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.maxima = defaultdict(float)
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, hook=None, pre=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            state = pre(args, kwargs) if pre else None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook:
                hook(tracer, args, kwargs, result, state)
            return result

        return traced

    def patch(self, owner, attr, name, hook=None, pre=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, hook, pre))

    def install(self):
        for owner, attr, name, hook, pre in _targets():
            self.patch(owner, attr, name, hook, pre)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---- hooks: counters taken at the layer boundary -------------------------

def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _value_grad(tr, args, kwargs, result, _):
    tr.counters["chebyshev.value_grad_points"] += len(_arg(args, kwargs, 2, "x"))


def _interp_matrix(tr, args, kwargs, result, _):
    tr.counters["chebyshev.interp_matrix_rows"] += result.shape[0]


def _score_pre(args, kwargs):
    return args[0].floor_hits


def _score(tr, args, kwargs, result, before):
    tr.counters["fpe.score_points"] += result.shape[0]
    tr.counters["fpe.floor_hits"] += args[0].floor_hits - before


def _integrate(tr, args, kwargs, result, _):
    provider, x0 = args[0], args[1]
    tr.counters["flow.clamped"] += result.clamped
    tr.counters["flow.stage_evals"] += 4 * provider.n_steps * x0.n
    tr.counters["flow.failed"] += len(result.failed_ids)


def _cross(tr, args, kwargs, result, _):
    tr.counters["cross.evals"] += result.n_evals
    tr.counters["cross.sweeps"] += result.sweeps
    tr.counters["cross.converged"] += int(result.converged)
    tr.maxima["cross.val_error_max"] = max(tr.maxima["cross.val_error_max"],
                                           result.val_error)


def _certify(tr, args, kwargs, result, _):
    tr.counters["densities.rescales"] += result.rescales


def _solve(tr, args, kwargs, result, _):
    tr.maxima["fpe.rank_max"] = max(tr.maxima["fpe.rank_max"],
                                    max(max(r) for r in result.ranks))
    loss = max(abs(1.0 - m) for m in result.masses[1:])
    tr.maxima["fpe.mass_loss_max"] = max(tr.maxima["fpe.mass_loss_max"], loss)


def _targets():
    """(owner, attribute, span name, hook, pre-hook) for every traced name."""
    return [
        (harness, "run_suite", "harness.run_suite", None, None),
        (harness, "run_one", "harness.run_one", None, None),
        (harness, "gaussian_check", "harness.gaussian_check", None, None),
        (harness, "gen_quartic_mixture", "densities.gen_quartic_mixture", None, None),
        (harness, "gen_tt_random", "densities.gen_tt_random", None, None),
        (harness, "diag_gaussian_tt", "densities.diag_gaussian_tt", None, None),
        (harness, "normalize_and_certify", "densities.certify", _certify, None),
        (densities, "cross_approximate", "cross.approximate", _cross, None),
        (harness, "fpe_solve", "fpe.solve", _solve, None),
        (harness, "rel_l2_distance", "fpe.oracle_l2", None, None),
        (fpe.DensityTrajectory, "score_at", "fpe.score", _score, _score_pre),
        (harness, "sample_tt", "flow.sample", None, None),
        (harness, "flow_integrate", "flow.integrate", _integrate, None),
        (fpe, "interp_value_and_grad", "chebyshev.value_grad", _value_grad, None),
        (chebyshev, "interp_matrix", "chebyshev.interp_matrix", _interp_matrix, None),
        (fpe, "tt_round", "tt.round", None, None),
        (fpe, "tt_mode_apply", "tt.mode_apply", None, None),
        (densities, "tt_mode_apply", "tt.mode_apply", None, None),
        (fpe, "tt_extrema", "tt.extrema", None, None),
        (densities, "tt_extrema", "tt.extrema", None, None),
        (fpe, "tt_integrate", "tt.integrate", None, None),
        (fpe, "tt_weighted_inner", "tt.weighted_inner", None, None),
        (harness, "compare", "transport.compare", None, None),
        (transport, "linear_sum_assignment", "transport.assign", None, None),
        (harness, "finite_time_map", "gaussian.finite_time_map", None, None),
        (harness, "encoder_map", "gaussian.encoder_map", None, None),
    ]


# ---- aggregation ---------------------------------------------------------

def span_table(spans):
    """Per-span (duration, self time); self excludes time inside children."""
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, dur - child


def check_spans(spans, op_walls, tolerances):
    """Structural problems: spans outside their parent or missing self time."""
    problems = []
    for i, s in enumerate(spans):
        if s[3] >= 0:
            p = spans[s[3]]
            if s[1] < p[1] or s[2] > p[2] or s[4] != p[4]:
                problems.append(f"span {i} ({s[0]}) is not inside its parent {p[0]}")
                break
    _, self_t = span_table(spans)
    per_op = defaultdict(float)
    for s, st in zip(spans, self_t):
        per_op[s[4]] += st
    for op, wall in op_walls.items():
        gap = abs(per_op.get(op, 0.0) - wall)
        if gap > tolerances[op]:
            problems.append(
                f"op {op}: span self times sum to {per_op.get(op, 0.0):.6f} s but "
                f"the op took {wall:.6f} s (tolerance {tolerances[op]:.6f} s)")
    return problems


def check_calls(workload, calls):
    problems = []
    for name, want in EXPECTED_CALLS[workload].items():
        got = calls.get(name, 0)
        if (want == "+" and got == 0) or (want == "0" and got != 0):
            problems.append(f"{name} called {got} times on {workload}, "
                            f"expected {'> 0' if want == '+' else '0'}")
    return problems


def per_layer_metrics(tracer, n_ops):
    """Per-op averages of times and counts, run maxima, per-layer self time."""
    spans = tracer.spans
    dur, self_t = span_table(spans)
    incl, own, calls = Counter(), Counter(), Counter()
    layer_incl, layer_self, layer_calls = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        name, layer = s[0], s[0].split(".")[0]
        incl[name] += dur[i]
        own[name] += self_t[i]
        calls[name] += 1
        layer_self[layer] += self_t[i]
        layer_calls[layer] += 1
        p = s[3]
        while p >= 0 and spans[p][0].split(".")[0] != layer:
            p = spans[p][3]
        if p < 0:  # outermost span of its layer on this call path
            layer_incl[layer] += dur[i]

    c, mx = tracer.counters, tracer.maxima
    per_op = {
        "chebyshev.value_grad_s": ("s/op", incl["chebyshev.value_grad"]),
        "chebyshev.value_grad_calls": ("count/op", calls["chebyshev.value_grad"]),
        "chebyshev.value_grad_points": ("count/op", c["chebyshev.value_grad_points"]),
        "chebyshev.interp_matrix_s": ("s/op", incl["chebyshev.interp_matrix"]),
        "chebyshev.interp_matrix_rows": ("count/op", c["chebyshev.interp_matrix_rows"]),
        "fpe.score_s": ("s/op", incl["fpe.score"]),
        "fpe.score_points": ("count/op", c["fpe.score_points"]),
        "fpe.floor_hits": ("count/op", c["fpe.floor_hits"]),
        "flow.integrate_s": ("s/op", incl["flow.integrate"]),
        "flow.integrate_self_s": ("s/op", own["flow.integrate"]),
        "flow.failed": ("count/op", c["flow.failed"]),
        "flow.sample_s": ("s/op", incl["flow.sample"]),
        "cross.s": ("s/op", incl["cross.approximate"]),
        "cross.evals": ("count/op", c["cross.evals"]),
        "cross.sweeps": ("count/op", c["cross.sweeps"]),
        "densities.certify_s": ("s/op", incl["densities.certify"]),
        "densities.rescales": ("count/op", c["densities.rescales"]),
        "fpe.solve_s": ("s/op", incl["fpe.solve"]),
        "fpe.oracle_l2_s": ("s/op", incl["fpe.oracle_l2"]),
        "tt.round_s": ("s/op", incl["tt.round"]),
        "tt.round_calls": ("count/op", calls["tt.round"]),
        "tt.mode_apply_s": ("s/op", incl["tt.mode_apply"]),
        "tt.mode_apply_calls": ("count/op", calls["tt.mode_apply"]),
        "tt.extrema_s": ("s/op", incl["tt.extrema"]),
        "tt.extrema_calls": ("count/op", calls["tt.extrema"]),
        "transport.compare_s": ("s/op", incl["transport.compare"]),
        "transport.assign_s": ("s/op", incl["transport.assign"]),
        "trace.spans": ("count/op", len(spans)),
    }
    for layer in LAYERS:
        per_op[f"{layer}.incl_s"] = ("s/op", layer_incl[layer])
        per_op[f"{layer}.self_s"] = ("s/op", layer_self[layer])
        per_op[f"{layer}.calls"] = ("count/op", layer_calls[layer])
    out = {k: (u, float(v) / n_ops) for k, (u, v) in per_op.items()}
    cross_calls = calls["cross.approximate"]
    out.update({
        # 0 when the workload makes no cross-approximation call
        "cross.converged_frac": ("ratio", c["cross.converged"] / cross_calls
                                 if cross_calls else 0.0),
        "cross.val_error_max": ("rel", mx["cross.val_error_max"]),
        "flow.clamped_per_eval": ("ratio", c["flow.clamped"] / c["flow.stage_evals"]
                                  if c["flow.stage_evals"] else 0.0),
        "fpe.rank_max": ("count", mx["fpe.rank_max"]),
        "fpe.mass_loss_max": ("rel", mx["fpe.mass_loss_max"]),
    })
    return out, calls
