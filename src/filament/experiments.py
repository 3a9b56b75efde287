"""Desk-scale verification studies.

Three families: the multiplier/coercivity bound suites (fitted-constant
protocol: constants are fitted on the coarsest eps and must bound the
finer runs with 10% slack), the eps-sweep convergence of the nonlocal
dynamics to RFT under rescaled time, and the discrepancy energy and
dissipation traces of the difference W = X - Y.

The sweep steps its rows together: every row of one grid size is a
lockstep group of its two models, and all groups advance as one batch
with a member axis first (see evolution.lockstep).  In rescaled time the
RFT evolution does not depend on eps, so every row's RFT member is the
RFT map of the sweep's first eps from one initial state per grid size:
while the rows keep one dt the batch steps it once for all of them.
With jobs > 1 the rows are split into contiguous chunks, one per worker
process and at most one per usable CPU, and each chunk is such a batch
with its own RFT member.
"""

import functools
import itertools
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import ENERGY_TOL, strictly_decreasing
from .evolution import (H2, HORIZON_PARTS, TIME_RTOL, EvolutionState, Group, StepOptions,
                        energy, initial_curve, lockstep)
from .evolution import _named, _step  # noqa: F401  (_step: perfbench/test_smoke.py looks it up)
from .multipliers import ForceMapStack, abs_log, build_table, low_band, rft_constants
from .spectral import (
    GeometryError,
    PeriodicCurve,
    SobolevIndex,
    dealias,
    from_coeffs,
    mean_inner,
    project_tangent,
    sobolev_norm_coeffs,
    to_coeffs,
    write_csv,
)

log = logging.getLogger(__name__)

H72_HOM = SobolevIndex(3.5, homogeneous=True)
H_MINUS_HALF = SobolevIndex(-0.5)

SLACK = 1.1  # fitted-constant protocol: 10% slack on non-fitted rows


@dataclass(frozen=True)
class DiscrepancyRecord:
    eps: float
    n: int
    dt: float = None          # rescaled-time step shared by both runs
    steps: int = 0
    times: np.ndarray = None  # rescaled snapshot times
    h2: np.ndarray = None     # ||W||_H2 trace
    ew: np.ndarray = None     # E_W = ||W_ss||_L2^2 trace
    dw: np.ndarray = None     # D_W trace
    mean_sq: np.ndarray = None  # |mean-mode W_0|^2 trace
    sup_h2: float = None
    l2t_h72: float = None
    max_ew: float = None
    int_dw: float = None
    flags: int = 0
    failed: str = None
    mean_cg_iterations: float = None  # per step, of the leps member's tension

    @property
    def log_eps(self):
        return abs_log(self.eps)

    @property
    def compensated(self):
        return math.sqrt(self.log_eps) * self.sup_h2

    @property
    def snapshots(self):
        return 0 if self.times is None else len(self.times)


def discrepancy_energy_trace(times, curves_x, curves_y, table):
    """Traces of the difference W = X - Y on matched snapshots.

    E_W = ||W_ss||_L2^2; D_W applies the half-power multipliers to the
    fourth derivative of W split into tangential/normal parts along X,
    summed by Parseval on the rfft coefficients.
    """
    return _discrepancy_record(table, curves_x[0].n, times,
                               [_discrepancy_row(cx, cy, table)
                                for cx, cy in zip(curves_x, curves_y)])


def _discrepancy_row(cx, cy, table):
    """||W||_H2, ||W||_H72, E_W, D_W and |mean-mode W_0|^2 at one snapshot."""
    grid = cx.grid
    size = grid.k.shape[0]
    w_hat = cx.coeffs - cy.coeffs
    wss = cx.xss - cy.xss
    wssss = grid.ik_pow[4] * w_hat
    pt = project_tangent(cx, wssss)
    power = table.mt[:size] * np.abs(pt) ** 2 + table.mn[:size] * np.abs(wssss - pt) ** 2
    return (sobolev_norm_coeffs(w_hat, H2), sobolev_norm_coeffs(w_hat, H72_HOM),
            mean_inner(wss, wss), float(np.sum(grid.weight * power)),
            float(np.sum(np.mean(cx.samples.T - cy.samples.T, axis=-1) ** 2)))


def _discrepancy_record(table, n, times, rows):
    """The DiscrepancyRecord of the snapshot rows of _discrepancy_row."""
    times = np.asarray(times, dtype=float)
    h2, h72, ew, dw, mean_sq = (np.array(column, dtype=float) for column in zip(*rows))
    return DiscrepancyRecord(
        eps=table.epsilon, n=n, times=times, h2=h2, ew=ew, dw=dw,
        mean_sq=mean_sq, sup_h2=float(np.max(h2)),
        l2t_h72=float(np.sqrt(np.trapezoid(h72 ** 2, times))),
        max_ew=float(np.max(ew)), int_dw=float(np.trapezoid(dw, times)),
    )


def _pair(table, start, rft, sweep):
    """The lockstep group of the eps row of the MultiplierTable table under
    the SweepConfig sweep, both models in rescaled time from the
    EvolutionState start at t = 0, and the function that makes the stepped
    group its DiscrepancyRecord (a failed one if `lockstep` ended the
    group early).  The models are the table and the RFT constants rft,
    which in rescaled time stand for RFT at every eps: rows that share
    start and rft share their RFT member while they keep one dt.

    Both runs share the grid, the initial curve, and the dt schedule
    bit-for-bit; discrepancy norms are evaluated on shared snapshots
    only.  Built with no dt, the group is policy-timed by the dt rule of
    `Group`; its cap is safe because the semi-implicit update is exactly
    stationary on the relaxed circle.
    """
    curve, horizon = start.curve, sweep.horizon
    eps, n = table.epsilon, curve.n
    interval = horizon / HORIZON_PARTS  # the dt cap
    # Snapshots are taken every `stride` steps, which concentrates them
    # in the initial transient where the policy keeps dt small and the
    # discrepancy actually accumulates, plus at fixed time marks (running
    # sums of the interval) so the quiescent tail is covered too.
    stride, next_snap = sweep.snapshot_every, interval
    # (time, _discrepancy_row) per snapshot: a row is a few numbers, so
    # the rows of a batch keep no curves alive
    snapshots = [(0.0, _discrepancy_row(curve, curve, table))]
    cg_iterations = 0  # of the leps member's steps

    def after_step(group):
        nonlocal next_snap, cg_iterations
        x, y = group.states
        cg_iterations += x.diagnostics.cg_iterations
        t = x.time
        if t >= group.end or group.steps % stride == 0 or t >= next_snap * (1.0 - TIME_RTOL):
            snapshots.append((t, _discrepancy_row(x.curve, y.curve, table)))
            while next_snap <= t * (1.0 + TIME_RTOL):
                next_snap += interval

    def finish(group):
        progress = dict(dt=group.dt, steps=group.steps, flags=group.flagged,
                        mean_cg_iterations=cg_iterations / group.steps if group.steps else None)
        if group.failure is not None:
            return DiscrepancyRecord(eps=eps, n=n, failed=group.failure, **progress)
        times, rows = zip(*snapshots)
        return replace(_discrepancy_record(table, n, times, rows), **progress)

    options = StepOptions(cg_tol=sweep.cg_tol, inext_tol=sweep.inextensibility_tol,
                          energy_tol_abs=ENERGY_TOL * energy(curve))
    group = Group([start] * 2, (table, rft), None, horizon, after_step, options, rescaled=True)
    return group, finish


def _study_worker(sweep, tasks):
    """The records of a chunk of (eps, n) rows of the SweepConfig sweep, in
    task order.  Every row's RFT member is the RFT map of the sweep's
    first eps, the same in every chunk; the rows of one grid size
    (contiguous in a chunk) step as one batch from one initial state, and
    all fail if that curve does."""
    rft = rft_constants(sweep.epsilons[0])
    records = []
    for n, rows in itertools.groupby(tasks, key=lambda task: task[1]):
        epsilons = [eps for eps, _ in rows]
        try:
            curve = initial_curve(sweep.initial_curve, n, sweep.inextensibility_tol)
            start = EvolutionState(curve, 0.0)
        except GeometryError as exc:
            records += [DiscrepancyRecord(eps=eps, n=n, failed=_named(exc)) for eps in epsilons]
            continue
        pairs = [_pair(build_table(eps, n // 2), start, rft, sweep) for eps in epsilons]
        lockstep([group for group, _ in pairs])
        records += [finish(group) for group, finish in pairs]
    for r in records:
        log.info("sweep row eps=%g n=%d: steps=%d dt=%s flags=%d failure=%s",
                 r.eps, r.n, r.steps, r.dt, r.flags, r.failed)
    return records


def convergence_study(sweep, jobs=1):
    """DiscrepancyRecords for every eps in the sweep (plus confirmation).

    A failed eps row is reported with its error message; the study
    continues with the remaining rows.  jobs > 1 splits the rows into
    that many contiguous chunks, at most one per row and one per CPU this
    process may use, each run as one batch in its own worker process.
    """
    tasks = sweep.rows()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    if workers <= 1:
        return _study_worker(sweep, tasks)
    bounds = [i * len(tasks) // workers for i in range(workers + 1)]
    chunks = [tasks[a:b] for a, b in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk_records = pool.map(functools.partial(_study_worker, sweep), chunks)
        return [record for records in chunk_records for record in records]


def compensated_band(records):
    """Factor-2 acceptance corridor for sqrt(|log eps|) * sup ||X-Y||_H2.

    The two coarsest-eps rows fix a power-law trend in |log eps|; every
    finer row must lie within a factor sqrt(2) on either side of the
    trend (total band width: a factor of 2).  Returns a dict with the
    fitted trend, the per-row ratios to it, and the pass flag.
    """
    ok = sorted((r for r in records if r.failed is None), key=lambda r: -r.eps)
    if len(ok) < 3:
        raise ValueError("compensated_band needs at least three successful rows")
    (l1, m1), (l2, m2) = (ok[0].log_eps, ok[0].compensated), (ok[1].log_eps, ok[1].compensated)
    alpha = math.log(m2 / m1) / math.log(l2 / l1)

    def predict(log_eps):
        return m1 * (log_eps / l1) ** alpha

    ratios = {r.eps: r.compensated / predict(r.log_eps) for r in ok[2:]}
    half = math.sqrt(2.0)
    return {
        "alpha": alpha,
        "reference": m1,
        "log_eps_reference": l1,
        "ratios_to_trend": ratios,
        "pass": all(1.0 / half <= v <= half for v in ratios.values()),
    }


def gronwall_constants(records):
    """Fitted constants for max_t E_W * |log eps| and int D_W * |log eps|.

    Fit on the coarsest eps; every other row must stay below with 10%
    slack.
    """
    ok = sorted((r for r in records if r.failed is None), key=lambda r: -r.eps)
    c_ew = ok[0].max_ew * ok[0].log_eps
    c_dw = ok[0].int_dw * ok[0].log_eps
    pass_ew = all(r.max_ew * r.log_eps <= SLACK * c_ew for r in ok[1:])
    pass_dw = all(r.int_dw * r.log_eps <= SLACK * c_dw for r in ok[1:])
    return {"C_EW": c_ew, "C_DW": c_dw, "pass_EW": pass_ew, "pass_DW": pass_dw}


# (column, DiscrepancyRecord attribute): summary.csv has one row per
# successful record, a row's traces CSV one row per snapshot.
SUMMARY_COLUMNS = (("eps", "eps"), ("log_eps", "log_eps"), ("sup_h2_err", "sup_h2"),
                   ("compensated_err", "compensated"), ("l2t_h72_err", "l2t_h72"),
                   ("max_EW", "max_ew"), ("int_DW", "int_dw"))
TRACE_COLUMNS = (("time", "times"), ("h2", "h2"), ("EW", "ew"), ("DW", "dw"),
                 ("mean_sq", "mean_sq"))
# DiscrepancyRecord attributes of each row, failed or not, in the manifest
ROW_KEYS = ("eps", "n", "steps", "dt", "flags", "snapshots", "failed", "mean_cg_iterations")


def write_summary_csv(records, path):
    write_csv(path, [c for c, _ in SUMMARY_COLUMNS],
              ([getattr(r, a) for _, a in SUMMARY_COLUMNS]
               for r in records if r.failed is None))


def write_traces_csv(record, path):
    write_csv(path, [c for c, _ in TRACE_COLUMNS],
              zip(*(getattr(record, a) for _, a in TRACE_COLUMNS)))


# ---------------------------------------------------------------------------
# Multiplier bound suites (fitted-constant protocol)
# ---------------------------------------------------------------------------

MULTIPLIERS = ("mt", "mn")  # the table rows, in report order
# The upper-bound families of each multiplier, in report order.  Each is
# the maximum of a positive ratio over the wavenumbers, 0 where its range
# is empty (the high wavenumbers at fine eps, when the low band reaches
# past kmax).
UPPER_FAMILIES = ("low_over_log", "inv_low_norm", "high_times_epsk", "inv_high_over_epsk")


def _bound_suite_one_eps(eps, kmax):
    """Raw extremal ratios for the bound families at one eps, read from
    one table and the RFT coefficients, its zero modes."""
    table, rft = build_table(eps, kmax), rft_constants(eps)
    k = np.arange(1, kmax + 1)
    log_eps = abs_log(eps)
    low = low_band(eps, k)
    high = ~low
    # Low-wavenumber normalization 1 + |log(eps k)|: a function of
    # eps|k| alone, so its extremal ratio is flat across the sweep,
    # unlike |log eps| which degenerates near the band edge where the
    # multiplier is O(1).
    lowk_scale = 1.0 + np.abs(np.log(eps * k[low]))
    out = {}
    diff_ratios = []
    for name, coefficient in zip(MULTIPLIERS, (rft.tangential, rft.normal)):
        row = getattr(table, name)
        m = row[1:]
        epsk_m = m[high] * eps * k[high]
        # In UPPER_FAMILIES order.  The first includes the zero mode: it
        # attains the sharp low-k constant.
        ratios = (np.concatenate((row[:1], m[low])) / log_eps,
                  lowk_scale / m[low], epsk_m, 1.0 / epsk_m)
        out.update((f"{name}_{family}", float(np.max(r, initial=0.0)))
                   for family, r in zip(UPPER_FAMILIES, ratios))
        # Linear-growth sandwich c eps|k| <= 1/m <= c (eps|k| + 1):
        # feasible interval for the single constant c.
        inv = 1.0 / m
        out[f"{name}_sandwich_lo"] = float(np.max(inv / (eps * k + 1.0)))
        out[f"{name}_sandwich_hi"] = float(np.min(inv / (eps * k)))
        # Low-wavenumber RFT difference, |m - coefficient| over 1 + |log k|
        diff_ratios.append(np.abs(m[low] - coefficient) / (1.0 + np.abs(np.log(k[low]))))
    # Both directions under one constant.
    out["lowk_diff_ratio"] = float(max(np.max(r) for r in diff_ratios))
    return out


def coercivity_ratios(eps, grid_n=256, n_fields=50, seed=0):
    """<f, L_eps f> / (|log eps| ||f||_{H^{-1/2}}^2) on random fields.

    Fields are band-limited Gaussian samples on the unit circle,
    normalized in H^{-1/2}; the operator frame is the circle tangent.
    The fields are the members of one batch, through the table's stack.
    """
    curve = PeriodicCurve.circle(grid_n)
    table = build_table(eps, grid_n // 2)
    draws = np.random.default_rng(seed).standard_normal((n_fields, grid_n, 3))
    f = dealias(np.ascontiguousarray(draws.swapaxes(-1, -2)), axis=-1)
    f /= sobolev_norm_coeffs(to_coeffs(f, axis=-1), H_MINUS_HALF)[:, None, None]
    lf = ForceMapStack([table], grid_n // 2 + 1).apply(curve, to_coeffs(f, axis=-1))
    return np.mean(np.sum(f * from_coeffs(lf, grid_n, axis=-1), axis=-2), axis=-1) / abs_log(eps)


def lemma_suite(epsilons=(1e-2, 1e-3, 1e-4, 1e-5), kmax=4096):
    """All multiplier bound suites plus the coercivity random-field test.

    epsilons must be strictly decreasing: constants are fitted on the
    coarsest eps (first entry) and must bound the finer rows with 10%
    slack.  Returns a report dict with fitted constants and pass flags.
    """
    epsilons = strictly_decreasing(epsilons)
    per_eps = {eps: _bound_suite_one_eps(eps, kmax) for eps in epsilons}
    coarse = per_eps[epsilons[0]]
    suites = {}
    keys = [f"{name}_{family}" for family in UPPER_FAMILIES for name in MULTIPLIERS]
    for key in keys + ["lowk_diff_ratio"]:
        fitted = coarse[key]
        # High-k families may be empty (low band beyond kmax) at fine eps.
        fine = [v for v in (per_eps[e][key] for e in epsilons[1:]) if v > 0.0]
        suites[key] = {"constant": fitted, "pass": all(v <= SLACK * fitted for v in fine)}

    for name in MULTIPLIERS:
        lo, hi = coarse[f"{name}_sandwich_lo"], coarse[f"{name}_sandwich_hi"]
        feasible = lo <= hi
        c = math.sqrt(lo * hi) if feasible else float("nan")
        ok = feasible
        for e in epsilons[1:]:
            row = per_eps[e]
            ok &= row[f"{name}_sandwich_lo"] <= SLACK * c
            ok &= row[f"{name}_sandwich_hi"] >= c / SLACK
        suites[f"{name}_sandwich"] = {"constant": c, "pass": bool(ok)}

    coercivity = {eps: coercivity_ratios(eps) for eps in epsilons}
    c_fit = float(np.min(coercivity[epsilons[0]]))
    ok = c_fit > 0.0 and all(
        float(np.min(coercivity[e])) >= c_fit / SLACK for e in epsilons[1:]
    )
    suites["coercivity"] = {"constant": c_fit, "pass": bool(ok)}

    return {"epsilons": list(epsilons), "kmax": kmax, "suites": suites,
            "per_eps": {format(e, ".3g"): per_eps[e] for e in epsilons},
            "passed": all(s["pass"] for s in suites.values())}
