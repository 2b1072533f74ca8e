"""Golden outputs: campaign, sample and diagnose CSVs against a recorded commit.

The outputs in ``tests/golden/`` were written by ``tests/golden/record.py``
at the commit named in ``tests/golden/COMMIT``, except ``diagnose.csv``,
re-recorded alone when the projection basis stopped coming from Schur
vectors (CHANGES.md names the commit).  This test reruns the same CLI calls
and compares column by column:

* ``seed``, ``dim``, ``kind``, ``degree`` and ``verdict`` match exactly;
* ``lhs`` (direct matrix algebra) agrees within 1e-13 (1 + |lhs|);
* ``rhs`` and ``residual`` agree within a tenth of the verdict's own
  tolerance, on the scale 1 + |lhs| for the kinds judged on that scale and
  absolutely for the others;
* every sample and diagnose value agrees within 1e-12 (1 + |v|).

A mismatch names the worst row of each column that misses.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
EXACT = ("seed", "dim", "kind", "degree", "verdict")
RELATIVE_KINDS = ("linear", "mult", "cayley_sa", "cayley_diss")
LHS_REL = 1e-13
VERDICT_SHARE = 0.1
VALUE_REL = 1e-12


def _recorder():
    spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _gap(got: str, want: str) -> float:
    a, b = float(got), float(want)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a - b) else math.inf


def _summary_bounds(rows, tols):
    # allowed gap per row for each numeric column of summary.csv
    bounds = {col: [] for col in ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual")}
    for row, tol in zip(rows, tols):
        seed, dim, kind, degree, lhs_re, lhs_im, *_ = row
        scale = 1.0 + abs(complex(float(lhs_re), float(lhs_im)))
        verdict_scale = scale if kind in RELATIVE_KINDS else 1.0
        for col in ("lhs_re", "lhs_im"):
            bounds[col].append(LHS_REL * scale)
        for col in ("rhs_re", "rhs_im", "residual"):
            bounds[col].append(VERDICT_SHARE * tol * verdict_scale)
    return bounds


def _mismatches(name: str, got_file: Path, tols=None) -> list[str]:
    header, want = _rows(GOLDEN / f"{name}.csv")
    got_header, got = _rows(got_file)
    if got_header != header or len(got) != len(want):
        return [
            f"{name}: header {got_header} / {len(got)} rows, recorded {header} / {len(want)} rows"
        ]
    if tols is None:
        bounds = {
            col: [VALUE_REL * (1.0 + abs(float(r[j]))) for r in want] for j, col in enumerate(header)
        }
    else:
        bounds = _summary_bounds(want, tols)
    out = []
    for j, col in enumerate(header):
        if col in EXACT:
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if g[j] != w[j]]
            if bad:
                i = bad[0]
                out.append(
                    f"{name} {col}: row {i} is {got[i][j]!r}, recorded {want[i][j]!r} "
                    f"({len(bad)} rows differ)"
                )
            continue
        ratios = [_gap(g[j], w[j]) / bound for g, w, bound in zip(got, want, bounds[col])]
        worst = max(range(len(ratios)), key=ratios.__getitem__, default=None)
        if worst is not None and ratios[worst] > 1.0:
            out.append(
                f"{name} {col}: worst row {worst} is {got[worst][j]}, recorded {want[worst][j]}, "
                f"allowed gap {bounds[col][worst]:.3e}"
            )
    return out


def test_outputs_match_the_recorded_commit(tmp_path):
    recorder = _recorder()
    commit = (GOLDEN / "COMMIT").read_text().strip()
    problems = []
    for name, args, output in recorder.RUNS:
        out = tmp_path / name
        try:
            written = recorder.run(args, out, output)
        except RuntimeError as exc:
            problems.append(f"{name}: {exc}")
            continue
        tols = None
        if args[0] == "verify":
            tols = [entry["tol"] for entry in json.loads((out / "reports.json").read_text())]
        problems += _mismatches(name, written, tols)
    assert not problems, f"outputs moved against {commit}:\n" + "\n".join(problems)
