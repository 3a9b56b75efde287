"""Function-level spans for the traced benchmark run.

The tracer wraps named functions of filament's modules from outside the
program.  A name bound into another module with ``from .x import name``
is a second reference to the same function, so every filament module
attribute that is the original function is rebound to the wrapper;
patching only the defining module would miss calls made through those
copies.  A traced name that a refactor removed is reported as absent.

Spans are aggregated in memory per function: calls, busy time (the
span's duration) and self time (busy time minus the time of traced
spans nested inside it).  Times are raw seconds; the speed probe's
ticks (probe.py, about 3% of the time) land in whichever span they
interrupt.
"""

import functools
import sys
import time

TRACED = (
    ("spectral", "to_coeffs"),
    ("spectral", "from_coeffs"),
    ("spectral", "dealias"),
    ("spectral", "apply_L_eps"),
    ("spectral", "apply_L_rft"),
    ("spectral", "reparameterize_arclength"),
    ("spectral", "read_curve_csv"),
    ("spectral", "write_curve_csv"),
    ("tension", "solve_tension"),
    ("evolution", "_step"),
    ("evolution", "choose_dt"),
    ("evolution", "write_diagnostics_csv"),
    ("experiments", "discrepancy_energy_trace"),
    ("experiments", "write_summary_csv"),
    ("multipliers", "build_table"),
    ("cli", "main"),
)

IO_FUNCTIONS = ("spectral.read_curve_csv", "spectral.write_curve_csv",
                "evolution.write_diagnostics_csv", "experiments.write_summary_csv")

# Unit of every per-layer metric.  "per step" means
# per model step (evolution._step call); a workload that takes no steps
# counts per CLI call instead.
PER_LAYER_UNITS = {
    "spectral.fft_calls_per_step": "calls/step",
    "spectral.fft_s": "s",
    "spectral.dealias_calls_per_step": "calls/step",
    "spectral.apply_L_s": "s",
    "spectral.reparam_per_1k_steps": "calls/1000steps",
    "spectral.reparam_s": "s",
    "spectral.reparam_self_s": "s",
    "tension.solves_per_step": "calls/step",
    "tension.cg_iters_per_solve.cold": "iters/solve",
    "tension.cg_iters_per_solve.warm": "iters/solve",
    "tension.solve_s": "s",
    "tension.solve_self_s": "s",
    "evolution.steps": "count",
    "evolution.step_s": "s",
    "evolution.choose_dt_calls": "count",
    "evolution.choose_dt_s": "s",
    "evolution.energy_flag_ratio": "ratio",
    "experiments.discrepancy_trace_s": "s",
    "multipliers.build_table_calls": "count",
    "multipliers.build_table_s": "s",
    "cli.io_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead": "ratio",
}


def _record_cg(tracer, args, kwargs, result):
    initial = args[1] if len(args) > 1 else kwargs.get("initial")
    tracer.cg_iterations["cold" if initial is None else "warm"].append(result.iterations)


def _record_flag(tracer, args, kwargs, result):
    tracer.energy_flags += bool(result.diagnostics.energy_flag)


OBSERVERS = {"tension.solve_tension": _record_cg, "evolution._step": _record_flag}


class Tracer:
    def __init__(self):
        self.stats = {}  # "module.name" -> [calls, busy_s, self_s]
        self.absent = []
        self.cg_iterations = {"cold": [], "warm": []}
        self.energy_flags = 0
        self._stack = []  # traced time of the spans nested in each open span

    def install(self):
        """Rebind every traced function in every loaded filament module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "filament" or name.startswith("filament.")]
        for module_name, name in TRACED:
            key = f"{module_name}.{name}"
            module = sys.modules.get(f"filament.{module_name}")
            original = getattr(module, name, None)
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original, OBSERVERS.get(key))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, key, fn, observe):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _get(self, *keys):
        """Summed [calls, busy_s, self_s] of the given functions."""
        rows = [self.stats.get(k, (0, 0.0, 0.0)) for k in keys]
        return [sum(r[i] for r in rows) for i in range(3)]

    def layer_metrics(self, traced_wall, untraced_wall, bytes_written):
        """Per-layer metrics of everything traced so far."""
        step = self._get("evolution._step")
        steps = step[0]
        per = steps or self._get("cli.main")[0]
        fft = self._get("spectral.to_coeffs", "spectral.from_coeffs")
        reparam = self._get("spectral.reparameterize_arclength")
        solve = self._get("tension.solve_tension")
        choose = self._get("evolution.choose_dt")
        table = self._get("multipliers.build_table")
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
        ratio = lambda a, b: a / b if b else 0.0
        values = {
            "spectral.fft_calls_per_step": ratio(fft[0], per),
            "spectral.fft_s": fft[1],
            "spectral.dealias_calls_per_step": ratio(self._get("spectral.dealias")[0], per),
            "spectral.apply_L_s": self._get("spectral.apply_L_eps", "spectral.apply_L_rft")[1],
            "spectral.reparam_per_1k_steps": ratio(1000.0 * reparam[0], per),
            "spectral.reparam_s": reparam[1],
            "spectral.reparam_self_s": reparam[2],
            "tension.solves_per_step": ratio(solve[0], per),
            "tension.cg_iters_per_solve.cold": mean(self.cg_iterations["cold"]),
            "tension.cg_iters_per_solve.warm": mean(self.cg_iterations["warm"]),
            "tension.solve_s": solve[1],
            "tension.solve_self_s": solve[2],
            "evolution.steps": steps,
            "evolution.step_s": ratio(step[2], steps),
            "evolution.choose_dt_calls": choose[0],
            "evolution.choose_dt_s": choose[1],
            "evolution.energy_flag_ratio": ratio(self.energy_flags, steps),
            "experiments.discrepancy_trace_s": self._get("experiments.discrepancy_energy_trace")[1],
            "multipliers.build_table_calls": table[0],
            "multipliers.build_table_s": table[1],
            "cli.io_s": self._get(*IO_FUNCTIONS)[1],
            "cli.bytes_written": bytes_written,
            "trace.overhead": ratio(traced_wall, untraced_wall),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}

    def table(self):
        """Per-function lines, largest self time first."""
        lines = [f"{'function':40s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}"]
        for key, (calls, busy, own) in sorted(self.stats.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{key:40s} {calls:9d} {busy:10.4f} {own:10.4f}")
        lines.extend(f"{key:40s} absent" for key in self.absent)
        return lines
