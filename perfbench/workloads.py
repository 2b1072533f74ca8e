"""The benchmark's three workloads: op schedules, op bodies and the
correctness and work-fingerprint gate.

An op is the unit a user waits for.  ``transform`` and ``moments`` ops are
single ``specshift.cli.run_campaign`` calls (what ``specshift verify``
runs); a ``resolvent`` op builds one self-adjoint pair, runs the resolvent
pipeline once and verifies the resolvent identity at five points on the
shared line.

Every op is drawn from a fixed pool of inputs, so its work can be checked
against a reference recorded once and stored in ``reference/``.  The
workload seed picks a permutation of each pool, so different seeds run
different inputs.  Each workload runs its rotation (kinds or dims) in a
fixed order, so every whole rotation carries the same mix of work.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specshift import cayley, cli

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Campaign settings shared by every campaign op: the CLI defaults for dims,
# degrees and grid, one worker.
CAMPAIGN_DIMS = [2, 3, 4, 6]
CAMPAIGN_DEGREES = [2, 3, 4, 5, 6]
CAMPAIGN_GRID = 4096

RESOLVENT_POINTS = (-2j, 1 - 2j, -1 - 2j, -3j, 0.5 - 1.5j)
RESOLVENT_GRID = 4096

# Work fingerprints match the reference to this relative tolerance, on the
# scale 1 + |lhs| that the verifiers use.
FINGERPRINT_RTOL = 1e-9


# --- op bodies ------------------------------------------------------------
#
# Each op class turns a pool input into the op's inputs (outside the timed
# region), runs the op (the timed region: public specshift calls only), and
# reads back its work fingerprint and anything wrong with its outputs.


class CampaignOps:
    """One ``cli.run_campaign`` call per op; output goes to ``work_dir``."""

    def __init__(self, trials: int, work_dir: Path):
        self.trials = trials
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def prepare(self, kind: str, index: int) -> cli.CampaignConfig:
        return cli.CampaignConfig(
            kind=kind,
            seed=index,
            trials=self.trials,
            dims=list(CAMPAIGN_DIMS),
            degrees=list(CAMPAIGN_DEGREES),
            grid=CAMPAIGN_GRID,
            out=str(self.work_dir),
            workers=1,
        )

    def run(self, cfg: cli.CampaignConfig):
        return cli.run_campaign(cfg)

    def rows(self, index: int, result) -> list[list]:
        """``[seed, dim, kind, degree, lhs_re, lhs_im]`` rows of summary.csv."""
        with open(self.work_dir / "summary.csv", newline="") as fh:
            return [
                [int(r["seed"]), int(r["dim"]), r["kind"], int(r["degree"]),
                 float(r["lhs_re"]), float(r["lhs_im"])]
                for r in csv.DictReader(fh)
            ]

    def problems(self, result) -> list[str]:
        status, reports = result
        out = [f"{r.kind} verdict {r.verdict}" for r in reports if not r.passed]
        if status != 0:
            out.append(f"campaign status {status}")
        return out

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (g + g.conj().T)
    return h * (np.pi * rng.uniform(0.2, 1.0) / np.linalg.norm(h, 2))


class ResolventOps:
    """One pair, one resolvent pipeline, five resolvent checks per op."""

    def __init__(self, trials: int, work_dir: Path):
        pass  # writes nothing

    def prepare(self, dim: int, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Hermitian pair (H, H0) of pool input ``index``, norm at most pi."""
        rng = np.random.default_rng(np.random.SeedSequence([dim, index]))
        return _hermitian(rng, dim), _hermitian(rng, dim)

    def run(self, inputs):
        pair = cayley.SelfAdjointPair(*inputs)
        line = cayley.resolvent_pipeline(pair, grid=RESOLVENT_GRID)
        return [
            cayley.verify_resolvent_formula(pair, z, grid=RESOLVENT_GRID, line=line)
            for z in RESOLVENT_POINTS
        ]

    def rows(self, index: int, reports) -> list[list]:
        """``[seed, dim, kind, degree, lhs_re, lhs_im]`` rows of the reports."""
        return [[index, r.dim, r.kind, r.degree, r.lhs.real, r.lhs.imag] for r in reports]

    def problems(self, reports) -> list[str]:
        out = []
        for r in reports:
            limit = cayley.RESOLVENT_TOL * (1.0 + abs(r.lhs))
            if not r.passed or not r.residual <= limit:
                out.append(f"resolvent residual {r.residual:.3e} > {limit:.3e}")
        return out

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class Workload:
    """``rotation`` lists the slots one op cycles through; each slot has a
    pool of ``pool`` inputs.  ``trials`` is the campaign size of one op.
    ``tail_pct`` is the percentile that ``op_tail_ms`` reports, fixed so
    that runs of different commits compare the same percentile; it was
    chosen so that a 34 s run at the reference commit has at least ten ops
    beyond it where the op latency allows."""

    name: str
    ops: type
    rotation: tuple
    pool: int
    tail_pct: float
    trials: int = 0

    def runner(self, work_dir: Path):
        return self.ops(self.trials, work_dir)

    def schedule(self, seed: int):
        """Infinite op sequence ``(slot, index)`` for a workload seed."""
        perms = [
            np.random.default_rng(np.random.SeedSequence([seed, k])).permutation(self.pool)
            for k in range(len(self.rotation))
        ]
        i = 0
        while True:
            k = i % len(self.rotation)
            yield self.rotation[k], int(perms[k][(i // len(self.rotation)) % self.pool])
            i += 1

    def warmup_op(self):
        """The untimed op that ends set-up: the first pool input of the
        first slot, identical for every seed."""
        return self.rotation[0], 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("transform", CampaignOps, ("cayley_sa", "cayley_diss"), 256, 90.0, trials=2),
        Workload(
            "moments", CampaignOps, ("linear", "mult", "dilation", "truncate"), 384, 95.0,
            trials=10,
        ),
        # A resolvent op takes about 2 s (2-core x86-64, one OpenBLAS thread),
        # too long for ten ops beyond any tail percentile in one run; p80 is
        # the middle of the dim-6 ops, the slowest third of every rotation.
        Workload("resolvent", ResolventOps, (2, 4, 6), 24, 80.0),
    )
}


def op_key(slot, index: int) -> str:
    return f"{slot}/{index}"


# --- reference --------------------------------------------------------------


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)["rows"]


def fingerprint_mismatch(rows: list[list], expected: list[list] | None) -> str | None:
    """Why ``rows`` is not the recorded work, or None when it is."""
    if expected is None:
        return "op missing from the reference"
    if len(rows) != len(expected):
        return f"{len(rows)} rows, reference has {len(expected)}"
    for got, want in zip(rows, expected):
        if got[:4] != want[:4]:
            return f"row {got[:4]} differs from reference {want[:4]}"
        gap = abs(complex(got[4], got[5]) - complex(want[4], want[5]))
        if not gap <= FINGERPRINT_RTOL * (1.0 + abs(complex(want[4], want[5]))):
            return f"lhs of row {got[:4]} is {gap:.3e} from the reference"
    return None
