"""Spans around the public functions of every specshift module.

The wrappers live here, in the benchmark, not in the program: a wrapper
replaces a function in every specshift module that looks it up (the
defining module and each module that imported it by name), and a method on
its class.  Each span records its name, start, end, parent span and op id.
Spans stay in memory until the run ends.

``paths.PerturbationPath.at`` is counted but gets no span: it is called
hundreds of times per op and a span would cost more than the call.

Observers read numerical health values from the objects the wrapped calls
return; nothing in the program changes.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

SPANNED = (
    "cli.run_campaign",
    "report.write_csv",
    "report.write_reports_json",
    "cayley.verify_selfadjoint_formula",
    "cayley.verify_dissipative_formula",
    "cayley.resolvent_pipeline",
    "cayley.verify_resolvent_formula",
    "shift.gamma_pipeline",
    "shift.shift_step_representation",
    "shift.RealLineShift.pairing_realline",
    "shift.RealLineShift.pairing_second_derivative",
    "shift.eta_moment_linear",
    "shift.eta_tilde_moments_mult",
    "shift.quotient_bound_test",
    "shift.verify_trace_formula_linear",
    "shift.verify_trace_formula_mult",
    "semispectral.semispectral_cdf",
    "semispectral.moment_residual",
    "dilation.n_dilation",
    "dilation.schaffer_window",
    "dilation.hs_difference_schaffer",
    "quadrature.adaptive_gk15",
    "paths.PerturbationPath.second_order_trace",
    "opcore.TrigPolynomial.sup_norm_estimate",
    "opcore.apply_function",
    "truncate.build_projections",
    "truncate.reduction_diagnostics",
    "truncate.truncation_gap",
)
COUNTED = ("paths.PerturbationPath.at",)
GK15 = "quadrature.adaptive_gk15"

HEALTH = (
    "cayley.headroom_circle_max",
    "cayley.headroom_realline_max",
    "cayley.headroom_resolvent_max",
    "shift.headroom_linear_max",
    "shift.headroom_mult_max",
    "semispectral.jumps_per_cdf",
    "semispectral.kept_jump_ratio",
    "dilation.unitary_dim_max",
    "quadrature.evals_per_call",
    "quadrature.failures",
)


def _headroom(residual: float, tol: float, lhs) -> float:
    return residual / (tol * (1.0 + abs(lhs)))


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.at_in_gk15 = 0
        self.health: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple] = []
        self._jumps = 0
        self._jump_dims = 0
        self._observers = {
            "cayley.verify_selfadjoint_formula": self._on_transform,
            "cayley.verify_dissipative_formula": self._on_transform,
            "cayley.verify_resolvent_formula": self._on_resolvent,
            "shift.verify_trace_formula_linear": self._on_linear,
            "shift.verify_trace_formula_mult": self._on_mult,
            "semispectral.semispectral_cdf": self._on_cdf,
            "dilation.n_dilation": self._on_dilation,
        }

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "specshift" or n.startswith("specshift.")]
        for name in SPANNED + COUNTED:
            wrap = self._span if name in SPANNED else self._count
            mod_name, *attrs = name.split(".")
            owner = sys.modules[f"specshift.{mod_name}"]
            if len(attrs) == 2:
                cls = getattr(owner, attrs[0])
                original = cls.__dict__[attrs[1]]
                self._patch(cls, attrs[1], original, wrap(name, original))
                continue
            original = getattr(owner, attrs[0])
            wrapper = wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _span(self, name, fn):
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if self._active[GK15]:
                self.at_in_gk15 += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- health observers ----------------------------------------------------

    def _max(self, key: str, value: float) -> None:
        if math.isfinite(value):
            self.health[key] = max(self.health[key], value)

    def _on_transform(self, args, kwargs, rep) -> None:
        self._max("cayley.headroom_circle_max", _headroom(rep.residual, rep.tol, rep.lhs))
        self._max(
            "cayley.headroom_realline_max",
            _headroom(
                rep.extras["residual_circle_vs_realline"], rep.extras["realline_tol"], rep.lhs
            ),
        )

    def _on_resolvent(self, args, kwargs, rep) -> None:
        self._max("cayley.headroom_resolvent_max", _headroom(rep.residual, rep.tol, rep.lhs))

    def _on_linear(self, args, kwargs, rep) -> None:
        self._max("shift.headroom_linear_max", _headroom(rep.residual, rep.tol, rep.lhs))

    def _on_mult(self, args, kwargs, rep) -> None:
        self._max("shift.headroom_mult_max", _headroom(rep.residual, rep.tol, rep.lhs))

    def _on_cdf(self, args, kwargs, cdf) -> None:
        degree = kwargs["n"] if "n" in kwargs else args[1]
        self._jumps += cdf.angles.size
        self._jump_dims += (degree + 1) * cdf.dim

    def _on_dilation(self, args, kwargs, dil) -> None:
        self._max("dilation.unitary_dim_max", float(dil.unitary.shape[0]))

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, self_s and total_s per spanned function, the counted
        calls, and the health values; 0 where the workload made no call."""
        duration = [s[2] - s[1] for s in self.spans]
        covered = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, duration):
            if span[3] >= 0:
                covered[span[3]] += dur
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for span, dur, cov in zip(self.spans, duration, covered):
            calls[span[0]] += 1
            self_s[span[0]] += dur - cov
            total_s[span[0]] += dur
        out: dict[str, tuple[float, str]] = {}
        for name in SPANNED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.total_s"] = (total_s[name], "s")
        for name in COUNTED:
            out[f"{name}.calls"] = (self.counts[name], "count")
        cdf_calls = calls["semispectral.semispectral_cdf"]
        health = dict(self.health)
        health["semispectral.jumps_per_cdf"] = self._jumps / cdf_calls if cdf_calls else 0.0
        health["semispectral.kept_jump_ratio"] = (
            self._jumps / self._jump_dims if self._jump_dims else 0.0
        )
        health["quadrature.evals_per_call"] = self.at_in_gk15 / calls[GK15] if calls[GK15] else 0.0
        health["quadrature.failures"] = self.errors[GK15]
        for key in HEALTH:
            unit = "count" if key.endswith(("failures", "_dim_max", "per_cdf", "per_call")) else "ratio"
            out[key] = (health.get(key, 0.0), unit)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
