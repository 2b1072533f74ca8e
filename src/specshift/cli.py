"""Campaign runner: seeded randomized verification of every identity in the
toolkit, sample emission for the shift functions, and report aggregation.

Subcommands: ``verify``, ``eta``, ``diagnose``, ``report``.  Configuration
comes from an optional JSON file plus flags (flags win); campaigns are
deterministic given the seed, and summary CSVs are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import sampling
from .cayley import (
    DissipativePair,
    SelfAdjointPair,
    verify_dissipative_formula,
    verify_selfadjoint_formula,
)
from .dilation import hs_difference_schaffer, n_dilation, schaffer_window
from .opcore import TrigPolynomial, hs_norm, is_unitary, power_ladder
from .paths import LINEAR, PerturbationPath
from .report import VerificationReport, write_csv, write_json, write_reports_json, write_table
from .shift import (
    DEFAULT_GRID,
    DEGREE_MARGIN,
    TRACE_TOL_LINEAR,
    TRACE_TOL_MULT,
    PipelineError,
    gamma_pipeline,
    mode_integrals,
    shift_step_representation,
    verify_trace_formula_linear,
    verify_trace_formula_mult,
    quotient_bound_test,
)
from .truncate import (
    DIAGNOSTIC_FIELDS,
    build_projections,
    exp_remainder,
    reduction_diagnostics,
    truncation_gap,
)

KINDS = ("linear", "mult", "cayley_sa", "cayley_diss", "dilation", "truncate")
ETA_KINDS = ("linear", "mult", "cayley_sa", "cayley_diss")  # the kinds with shift samples

# Fixed tolerances of the dilation and truncate verdicts (no config key).
DILATION_TOL = 1e-9          # unitarity and power compression of the N-dilation
SCHAFFER_TOL = 1e-10         # closed-form vs windowed Schaffer difference
OVERSHOOT_MIN = 1e-8         # the first uncovered power must miss T^(N+1) by more,
UNITARY_CONTROL_TOL = 1e-6   # unless T is unitary, when every power dilates
REMAINDER_SLACK = 1e-10      # exponential remainder gap over its closed-form bound
TRUNCATION_GAP_TOL = 1e-12   # compression gap at full rank


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class CampaignConfig:
    kind: str = "linear"
    seed: int = 0
    trials: int = 50
    dims: list[int] = field(default_factory=lambda: [2, 3, 4, 6])
    degrees: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    grid: int = DEFAULT_GRID
    out: str = "specshift-out"
    zero_direction: bool = False
    workers: int = 1

    def validate(self):
        for name in ("seed", "trials", "grid", "workers"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("dims", "degrees"):
            value = getattr(self, name)
            if not (isinstance(value, list) and all(_is_int(x) for x in value)):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")
        if not isinstance(self.zero_direction, bool):
            raise ValueError(f"zero_direction must be true or false, got {self.zero_direction!r}")
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if not self.degrees or any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be nonnegative")
        if self.grid < 256:
            raise ValueError("grid must be at least 256")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    @classmethod
    def from_sources(cls, args: argparse.Namespace) -> "CampaignConfig":
        cfg = cls()
        if getattr(args, "config", None):
            data = json.loads(Path(args.config).read_text())
            if not isinstance(data, dict):
                raise ValueError("a config file holds one JSON object")
            for key, value in data.items():
                if key not in _FLAGS or args.command not in _FLAGS[key][0].split():
                    raise ValueError(f"{args.command} reads no config key {key!r}")
                setattr(cfg, key, value)
        for f in fields(cfg):
            value = getattr(args, f.name, None)  # None: the flag is not given or not taken
            if value is not None:
                setattr(cfg, f.name, value)
        cfg.validate()
        return cfg


def _trial_rng(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master, index]))


def _pick(rng: np.random.Generator, items) -> int:
    return int(items[int(rng.integers(len(items)))])


def _sample_path(rng: np.random.Generator, kind: str, dim: int, zero_direction: bool):
    # a random path of the kind, or a random base with a zero direction
    if zero_direction:
        make = PerturbationPath.linear if kind == "linear" else PerturbationPath.multiplicative
        return make(sampling.random_contraction(rng, dim), np.zeros((dim, dim)))
    if kind == "linear":
        return sampling.random_linear_path(rng, dim)
    return sampling.random_multiplicative_path(rng, dim)


def _sample_pair(rng: np.random.Generator, kind: str, dim: int, zero_direction: bool):
    # cayley_sa: a Hermitian pair; cayley_diss: a dissipative pair; x0 is drawn first
    sa = kind == "cayley_sa"
    sample = sampling.random_hermitian if sa else sampling.random_dissipative
    x0 = sample(rng, dim)
    x = x0 if zero_direction else sample(rng, dim)
    return SelfAdjointPair(x, x0) if sa else DissipativePair(x, x0)


# --- per-kind trial bodies -------------------------------------------------


def _trial_path(cfg: CampaignConfig, i: int) -> VerificationReport:
    rng = _trial_rng(cfg.seed, i)
    path = _sample_path(rng, cfg.kind, _pick(rng, cfg.dims), cfg.zero_direction)
    deg = _pick(rng, cfg.degrees)
    if cfg.kind == "linear":
        p = sampling.random_analytic_polynomial(rng, deg)
        return verify_trace_formula_linear(path, p, seed=i)
    p = sampling.random_trig_polynomial(rng, max(deg, 1))
    return verify_trace_formula_mult(path, p, seed=i)


def _trial_transform(cfg: CampaignConfig, i: int) -> VerificationReport:
    rng = _trial_rng(cfg.seed, i)
    pair = _sample_pair(rng, cfg.kind, _pick(rng, cfg.dims), cfg.zero_direction)
    deg = max(_pick(rng, cfg.degrees), 2)
    phi = sampling.random_analytic_polynomial(rng, deg)
    verify = verify_selfadjoint_formula if cfg.kind == "cayley_sa" else verify_dissipative_formula
    return verify(pair, phi, grid=cfg.grid, seed=i)


def _trial_dilation(cfg: CampaignConfig, i: int) -> VerificationReport:
    rng = _trial_rng(cfg.seed, i)
    start = time.perf_counter()
    dim = _pick(rng, cfg.dims)
    t = sampling.random_contraction(rng, dim)
    t0 = t if cfg.zero_direction else sampling.random_contraction(rng, dim)
    degree = max(_pick(rng, cfg.degrees), 1)
    dil = n_dilation(t, degree)
    eye = np.eye(dil.unitary.shape[0])
    unitarity = hs_norm(dil.unitary.conj().T @ dil.unitary - eye)
    gaps = power_ladder(dil.unitary, degree + 1)[:, :dim, :dim] - power_ladder(t, degree + 1)
    compression = max(hs_norm(gap) for gap in gaps[: degree + 1])
    overshoot = hs_norm(gaps[degree + 1])
    closed = hs_difference_schaffer(t, t0)
    windowed = hs_norm(schaffer_window(t, degree) - schaffer_window(t0, degree))
    residual = abs(closed - windowed)
    negcontrol_ok = is_unitary(t, UNITARY_CONTROL_TOL) or overshoot > OVERSHOOT_MIN
    passed = (
        unitarity <= DILATION_TOL
        and compression <= DILATION_TOL
        and residual <= SCHAFFER_TOL
        and negcontrol_ok
    )
    return VerificationReport(
        kind="dilation",
        lhs=complex(closed),
        rhs=complex(windowed),
        residual=residual,
        tol=SCHAFFER_TOL,
        passed=passed,
        dim=dim,
        degree=degree,
        seed=i,
        runtime=time.perf_counter() - start,
        extras={
            "unitarity": unitarity,
            "compression": compression,
            "overshoot": overshoot,
        },
    )


def _truncation_setup(rng: np.random.Generator, dim: int, ranks, seed: int, zero_direction: bool):
    # normal N0, perturbation V, generator A (V = A = 0 for a zero direction),
    # the rotated projection ladder, (N0, V, A) and the path from N0 + V along A
    n0 = 0.8 * sampling.random_normal_contraction(rng, dim)
    v = np.zeros((dim, dim)) if zero_direction else 0.05 * sampling.complex_gaussian(rng, dim)
    a = np.zeros((dim, dim)) if zero_direction else sampling.random_hermitian(rng, dim, cap=1.0)
    seq = build_projections(n0, ranks, rotate=True, seed=seed)
    base = n0 + v
    scale = 1.0 / max(1.0, np.linalg.norm(base, 2) * 1.01)
    return seq, (n0, v, a), PerturbationPath.multiplicative(scale * base, a)


def _trial_truncate(cfg: CampaignConfig, i: int) -> VerificationReport:
    rng = _trial_rng(cfg.seed, i)
    start = time.perf_counter()
    dim = max(_pick(rng, cfg.dims), 2)
    ranks = sorted(set([max(1, dim // 2), dim]))
    seq, (_, _, a), path = _truncation_setup(rng, dim, ranks, i, cfg.zero_direction)
    remainder, bound = exp_remainder(seq, a)
    bound_ok = bool((remainder <= bound + REMAINDER_SLACK).all())
    deg = max(_pick(rng, cfg.degrees), 1)
    gaps = truncation_gap(seq, path, TrigPolynomial({deg: 1.0}))
    full_gap = gaps[-1]["gap"]
    passed = bound_ok and full_gap <= TRUNCATION_GAP_TOL
    return VerificationReport(
        kind="truncate",
        lhs=complex(full_gap),
        rhs=0.0,
        residual=full_gap,
        tol=TRUNCATION_GAP_TOL,
        passed=passed,
        dim=dim,
        degree=deg,
        seed=i,
        runtime=time.perf_counter() - start,
        extras={"bound_ok": bound_ok, "first_gap": gaps[0]["gap"]},
    )


_TRIALS = {
    "linear": _trial_path,
    "mult": _trial_path,
    "cayley_sa": _trial_transform,
    "cayley_diss": _trial_transform,
    "dilation": _trial_dilation,
    "truncate": _trial_truncate,
}


def run_campaign(cfg: CampaignConfig) -> tuple[int, list[VerificationReport]]:
    """Run the configured suite; write summary.csv and reports.json.

    Returns (exit_status, reports): 0 when every verdict passes, 1 otherwise.
    """
    body = _TRIALS[cfg.kind]
    indices = range(cfg.trials)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            reports = list(pool.map(lambda i: body(cfg, i), indices))
    else:
        reports = [body(cfg, i) for i in indices]
    # quotient-bound reports ride along with linear campaigns
    if cfg.kind == "linear" and not cfg.zero_direction:
        rng = _trial_rng(cfg.seed, cfg.trials)
        path = sampling.random_linear_path(rng, _pick(rng, cfg.dims))
        trials = min(cfg.trials * 5, 500)
        reports.append(quotient_bound_test(path, trials, max(cfg.degrees), cfg.seed))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "summary.csv", reports)
    write_reports_json(out / "reports.json", reports)
    write_json(out / "config.json", asdict(cfg))
    status = 0 if all(r.passed for r in reports) else 1
    return status, reports


def _check_step(cfg: CampaignConfig, path: PerturbationPath, step, max_deg: int) -> None:
    # the pointwise step function must carry the moment route's modes
    # e_r = i time_fourier(r): 0 < r <= max_deg (linear), 0 < |r| <= max_deg (mult)
    linear = path.kind == LINEAR
    ref = mode_integrals(path, [r for r in range(1 if linear else -max_deg, max_deg + 1) if r])
    tol = TRACE_TOL_LINEAR if linear else TRACE_TOL_MULT
    gaps = [abs(1j * step.time_fourier(r) - e) / (1.0 + abs(e)) for r, e in ref.items()]
    gap = max(gaps, default=0.0)
    if not gap <= tol:
        raise PipelineError(
            f"{cfg.kind} step function misses the moment route by {gap:.3e} (tol {tol:g})"
        )


def emit_shift_samples(cfg: CampaignConfig) -> Path:
    """Write pointwise shift samples for external plotting.

    Circle kinds produce rows (t, re_eta, im_eta) on a uniform closed grid of
    ``grid`` rows including both endpoints; transform kinds produce
    (lambda, re_xi, im_xi) on the half-angle pullback of a midpoint grid.
    Every kind first checks its step function against the moment route of
    its circle path (:class:`PipelineError` on a mismatch, and no file).
    """
    if cfg.kind not in ETA_KINDS:
        raise ValueError(f"eta emits samples for the kinds {ETA_KINDS}, not {cfg.kind!r}")
    rng = _trial_rng(cfg.seed, 0)
    dim = _pick(rng, cfg.dims)
    max_deg = max(cfg.degrees)
    if cfg.kind in ("linear", "mult"):
        path = _sample_path(rng, cfg.kind, dim, cfg.zero_direction)
        step = shift_step_representation(path, max_power=max_deg)
        t = np.linspace(0.0, 2.0 * np.pi, cfg.grid)
        vals = step(t)
        header = ("t", "re_eta", "im_eta")
        cols = (t, vals.real, vals.imag)
    else:
        path = _sample_pair(rng, cfg.kind, dim, cfg.zero_direction).circle_path()
        line = gamma_pipeline(path, max_deg + DEGREE_MARGIN, grid=cfg.grid)
        step = line.step
        t = (np.arange(cfg.grid) + 0.5) * (2.0 * np.pi / cfg.grid)
        lam = np.tan(0.5 * t)
        vals = 0.5 * line.eta_tilde(t)
        header = ("lambda", "re_xi", "im_xi")
        cols = (lam, vals.real, vals.imag)
    _check_step(cfg, path, step, max_deg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "shift_samples.csv", header, zip(*cols))
    return out / "shift_samples.csv"


def run_diagnose(cfg: CampaignConfig) -> Path:
    """Write per-rank truncation diagnostics to CSV (one row per rank)."""
    rng = _trial_rng(cfg.seed, 0)
    dim = max(max(cfg.dims), 2)
    ranks = sorted(set(list(range(1, dim + 1, max(1, dim // 4))) + [dim]))
    seq, operators, path = _truncation_setup(rng, dim, ranks, cfg.seed, cfg.zero_direction)
    rows = reduction_diagnostics(seq, *operators)
    gaps = truncation_gap(seq, path, TrigPolynomial({max(cfg.degrees): 1.0}))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    table = [[row[k] for k in DIAGNOSTIC_FIELDS] + [gap["gap"]] for row, gap in zip(rows, gaps)]
    write_table(out / "truncation_diagnostics.csv", (*DIAGNOSTIC_FIELDS, "gap"), table)
    return out / "truncation_diagnostics.csv"


def run_report(cfg: CampaignConfig) -> int:
    """Aggregate a campaign directory into summary.json; echo per-kind stats."""
    out = Path(cfg.out)
    reports_file = out / "reports.json"
    if not reports_file.exists():
        print(f"no reports.json under {out}", file=sys.stderr)
        return 2
    by_kind: dict[str, dict] = {}
    try:
        entries = json.loads(reports_file.read_text())
        for entry in entries:
            slot = by_kind.setdefault(
                entry["kind"], {"count": 0, "failed": 0, "max_residual": 0.0}
            )
            slot["count"] += 1
            slot["failed"] += entry["verdict"] != "pass"
            residual = entry["residual"]  # null when it was not finite
            if residual is not None and math.isfinite(residual):
                slot["max_residual"] = max(slot["max_residual"], residual)
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        print(f"malformed {reports_file}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    write_json(out / "summary.json", {"kinds": by_kind, "total": len(entries)})
    for kind, slot in sorted(by_kind.items()):
        print(
            f"{kind}: {slot['count'] - slot['failed']}/{slot['count']} pass, "
            f"max residual {slot['max_residual']:.3e}"
        )
    return 0 if all(slot["failed"] == 0 for slot in by_kind.values()) else 1


class _Parser(argparse.ArgumentParser):
    """Reports a bad or unknown flag in one line; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"invalid configuration: {message}\n")


def _int_list(text: str) -> list[int]:
    # a --dims/--degrees value: comma-separated integers, at least one
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


# flag: (the commands that read it, its argparse spec); a command's flags are its config keys
_FLAGS = {
    "seed": ("verify eta diagnose", {"type": int}),
    "kind": ("verify eta", {"choices": KINDS}),
    "trials": ("verify", {"type": int}),
    "dims": ("verify eta diagnose", {"type": _int_list, "help": "comma-separated dimensions"}),
    "degrees": ("verify eta diagnose", {"type": _int_list,
                                        "help": "comma-separated polynomial degrees"}),
    "grid": ("verify eta", {"type": int}),
    "out": ("verify eta diagnose report", {"help": "output directory"}),
    "workers": ("verify", {"type": int, "help": "trial threads; same trial order and output "
                           "bytes, but no faster: the numpy-bound trials hold the GIL"}),
    "zero_direction": ("verify eta diagnose", {"action": "store_const", "const": True}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specshift",
        description="verification campaigns for second-order spectral shift identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("verify", "run a randomized verification campaign"),
        ("eta", "emit pointwise shift-function samples"),
        ("diagnose", "emit truncation diagnostics tables"),
        ("report", "aggregate an existing campaign directory"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", help="JSON config file")
        for flag, (readers, spec) in _FLAGS.items():
            if name in readers.split():
                cmd.add_argument("--" + flag.replace("_", "-"), **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = CampaignConfig.from_sources(args)
        if args.command == "eta" and cfg.kind not in ETA_KINDS:
            raise ValueError(f"eta emits samples for the kinds {ETA_KINDS}, not {cfg.kind!r}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            status, reports = run_campaign(cfg)
            failed = sum(not r.passed for r in reports)
            print(
                f"{cfg.kind}: {len(reports) - failed}/{len(reports)} pass "
                f"-> {Path(cfg.out) / 'summary.csv'}"
            )
            return status
        if args.command == "eta":
            try:
                path = emit_shift_samples(cfg)
            except PipelineError as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {path}")
            return 0
        if args.command == "diagnose":
            path = run_diagnose(cfg)
            print(f"wrote {path}")
            return 0
        return run_report(cfg)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
