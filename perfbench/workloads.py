"""Benchmark workloads: shapes, the measured op, the warm-up and the gates.

An op is one density through ``ttflow.harness.run_suite`` (``n_densities=1``,
``workers=1``) or one Gaussian through ``ttflow.harness.gaussian_check``.
Both entry points are looked up on the module at call time, so a traced run
sees its patched versions. Measured inputs come from the workload seed;
the warm-up, the accuracy probe and oracle op 0 use FIXED_SEED.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from ttflow import harness
from ttflow.harness import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n_grid: int
    m_steps: int
    family: str  # a run_suite family, or "oracle" for gaussian_check
    n_samples: int = 500
    round_ops: int = 1  # a run measures whole rounds of this many ops


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("mixture-d2", 2, 250, 250, "quartic-mixture", round_ops=2),
    Workload("mixture-d3", 3, 100, 100, "quartic-mixture", round_ops=5),
    Workload("ttrandom-d7", 7, 50, 50, "tt-random"),
    Workload("oracle-d2", 2, 128, 256, "oracle"),
)}

# Shapes for --tiny (smoke mode): every code path in seconds.
TINY = {"mixture-d2": dict(n_grid=32, m_steps=16, n_samples=60),
        "mixture-d3": dict(n_grid=24, m_steps=8, n_samples=60),
        "ttrandom-d7": dict(n_grid=12, m_steps=8, n_samples=60),
        "oracle-d2": dict(n_grid=32, m_steps=16, n_samples=60)}

WARMUP_SAMPLES = 50  # the lazy caches are keyed by grid and step size only
PROBE_SAMPLES = 100  # samples in the accuracy probe of the run_suite workloads
FIXED_SEED = 0
MIXTURE_K = 5  # gen_quartic_mixture draws K uniformly from 1..5

# Acceptance-test tolerances (tests/test_acceptance.py), unchanged.
EPS_MAX, EPS_MIN = 1e-8, -1e-12
FINITE_TOL, LIMIT_SLACK, L2_TOL = 1e-3, 1e-3, 1e-4


def _mixture_k(suite_seed: int) -> int:
    """K of density 0 of a quartic-mixture suite, drawn as run_suite and
    gen_quartic_mixture draw it (first draw of the density seed)."""
    ss = np.random.SeedSequence(entropy=suite_seed, spawn_key=(0, 0))
    return int(np.random.default_rng(int(ss.generate_state(1)[0])).integers(1, 6))


def op_seed(wl: Workload, seed: int, index: int) -> int:
    """Suite seed of op ``index``; mixture ops all have K = 5 components.

    Time per density at d=3 grows with K (about 2 s at K=1 to 4 s at K=5 on
    a 2-core host), so a seed drawing other sizes would change the measured
    mix. K=5 does the most cross-approximation work and reaches the highest
    ranks. If the way K is drawn changes, ops stay deterministic but their
    K is no longer fixed.
    """
    for j in itertools.count():
        s = int(np.random.SeedSequence([seed, index, j]).generate_state(1)[0])
        if wl.family != "quartic-mixture" or _mixture_k(s) == MIXTURE_K:
            return s


def criterion2_gaussian(d: int):
    """Acceptance criterion 2's N((1,0), diag(2, 0.5)), repeated to d modes."""
    mean = [1.0] + [0.0] * (d - 1)
    var = [2.0 if k % 2 == 0 else 0.5 for k in range(d)]
    return mean, var


def oracle_gaussian(seed: int, index: int, d: int):
    """Op 0 is the criterion-2 Gaussian (samples from FIXED_SEED, as in the
    acceptance test); later ops are random diagonal ones."""
    if index == 0:
        return criterion2_gaussian(d)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index, 7]))
    return rng.uniform(-1.0, 1.0, d).tolist(), rng.uniform(0.5, 2.0, d).tolist()


def config(wl: Workload, seed: int, n_samples: int = None) -> ExperimentConfig:
    family = "gaussian" if wl.family == "oracle" else wl.family
    return ExperimentConfig(d=wl.d, n_grid=wl.n_grid, m_steps=wl.m_steps,
                            family=family, n_samples=n_samples or wl.n_samples,
                            n_densities=1, workers=1, seed=seed)


def tiny(wl: Workload) -> Workload:
    return replace(wl, **TINY[wl.name])


@dataclass
class OpResult:
    wall: float
    failed: bool
    problems: list  # gate failures and error strings
    report: dict = None  # gaussian_check report (oracle ops)


def _gaussian(cfg, mean, var):
    """One gaussian_check; returns (report, wall)."""
    t0 = perf_counter()
    rep = harness.gaussian_check(cfg, mean=mean, var=var)
    return rep, perf_counter() - t0


def eps_problems(eps_max, eps_min, where):
    out = []
    if eps_max is not None and eps_max > EPS_MAX:
        out.append(f"{where}: eps_rel {eps_max:.3e} > {EPS_MAX:.0e}")
    if eps_min is not None and eps_min < EPS_MIN:
        out.append(f"{where}: eps_rel {eps_min:.3e} < {EPS_MIN:.0e}")
    return out


def oracle_problems(rep, where, limit_gate: bool, accuracy: bool = True):
    out = eps_problems(rep["epsilon_rel"], rep["epsilon_rel"], where)
    if not accuracy:
        return out
    if rep["map_discrepancy_finite"] > FINITE_TOL:
        out.append(f"{where}: map_err.finite {rep['map_discrepancy_finite']:.3e} "
                   f"> {FINITE_TOL:.0e}")
    if rep["l2_max"] > L2_TOL:
        out.append(f"{where}: l2_err.max {rep['l2_max']:.3e} > {L2_TOL:.0e}")
    bound = rep["limit_bound"] + LIMIT_SLACK
    if limit_gate and rep["map_discrepancy_limit"] > bound:
        out.append(f"{where}: map_err.limit {rep['map_discrepancy_limit']:.3e} "
                   f"> {bound:.3e}")
    return out


def run_op(wl: Workload, seed: int, index: int, accuracy_gates: bool) -> OpResult:
    """One measured op, timed around the public entry point."""
    where = f"{wl.name} op {index}"
    try:
        if wl.family == "oracle":
            cfg = config(wl, FIXED_SEED if index == 0 else op_seed(wl, seed, index))
            mean, var = oracle_gaussian(seed, index, wl.d)
            rep, wall = _gaussian(cfg, mean, var)
            # the limit tolerance e^-t |Sigma - I| + 1e-3 is criterion 2's; it
            # does not cover the e^-t |mean| term of other Gaussians
            problems = oracle_problems(rep, where, limit_gate=index == 0,
                                       accuracy=accuracy_gates)
            return OpResult(wall, False, problems, rep)
        cfg = config(wl, op_seed(wl, seed, index))
        t0 = perf_counter()
        summary = harness.run_suite(cfg)
        wall = perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op, reported
        return OpResult(float("nan"), True, [f"{where}: {type(exc).__name__}: {exc}"])
    problems = [f"{where}: {f['error']}" for f in summary["failures"]]
    problems += eps_problems(summary["epsilon_rel_max"], summary["epsilon_rel_min"],
                             where)
    return OpResult(wall, summary["n_failed"] > 0, problems)


def warm_up(wl: Workload) -> None:
    """One density at the workload's grid and step count, from a fixed seed."""
    cfg = config(wl, FIXED_SEED, n_samples=WARMUP_SAMPLES)
    if wl.family == "oracle":
        harness.gaussian_check(cfg, *criterion2_gaussian(wl.d))
    else:
        harness.run_suite(cfg)


def accuracy_probe(wl: Workload):
    """gaussian_check of the criterion-2 Gaussian at a run_suite workload's shape.

    Reported, not gated on accuracy: the acceptance tolerances are stated at
    128 nodes and 256 steps, and the oracle workload gates them there.
    """
    mean, var = criterion2_gaussian(wl.d)
    rep, wall = _gaussian(config(wl, FIXED_SEED, PROBE_SAMPLES), mean, var)
    return rep, wall, oracle_problems(rep, f"{wl.name} accuracy probe",
                                      limit_gate=False, accuracy=False)
