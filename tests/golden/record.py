"""Record the golden outputs that refactors are compared against.

    PYTHONPATH=src python tests/golden/record.py [OUT_DIR]

Runs, in-process through ``specshift.cli.main``:

* ``verify`` for every kind at seeds 0-2, 10 trials each (``summary.csv``);
* ``eta --grid 256 --seed 1`` for every kind with samples (``shift_samples.csv``);
* ``diagnose --seed 7 --dims 8`` (``truncation_diagnostics.csv``);

and copies each output to ``OUT_DIR/<run name>.csv`` (default: the directory
of this script), with the commit of the ``specshift`` that produced them in
``OUT_DIR/COMMIT``.  ``tests/test_golden.py`` reruns the same list and
compares column by column.  Re-record only in a change that is meant to
move these outputs, and report the drift per column when doing so.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

VERIFY_KINDS = ("linear", "mult", "cayley_sa", "cayley_diss", "dilation", "truncate")
ETA_KINDS = ("linear", "mult", "cayley_sa", "cayley_diss")

# (run name, CLI arguments without --out, output file the run writes)
RUNS = (
    *(
        (
            f"verify-{kind}-seed{seed}",
            ["verify", "--kind", kind, "--seed", str(seed), "--trials", "10"],
            "summary.csv",
        )
        for kind in VERIFY_KINDS
        for seed in range(3)
    ),
    *(
        (f"eta-{kind}", ["eta", "--kind", kind, "--grid", "256", "--seed", "1"], "shift_samples.csv")
        for kind in ETA_KINDS
    ),
    ("diagnose", ["diagnose", "--seed", "7", "--dims", "8"], "truncation_diagnostics.csv"),
)


def run(args: list[str], out: Path, output: str) -> Path:
    """One CLI run into ``out``; returns the file it wrote.  A run whose exit
    status is neither 0 nor 1 (a verdict may fail, the command may not)
    raises ``RuntimeError``."""
    from specshift import cli

    with redirect_stdout(StringIO()):
        status = cli.main(args + ["--out", str(out)])
    if status not in (0, 1) or not (out / output).exists():
        raise RuntimeError(f"specshift {' '.join(args)} exited {status}")
    return out / output


def _commit() -> str:
    import specshift

    where = Path(specshift.__file__).resolve().parent
    done = subprocess.run(
        ["git", "-C", str(where), "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def main(argv: list[str]) -> int:
    dest = Path(argv[0]) if argv else Path(__file__).resolve().parent
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, output in RUNS:
            shutil.copyfile(run(args, Path(tmp) / name, output), dest / f"{name}.csv")
    (dest / "COMMIT").write_text(_commit() + "\n")
    print(f"{len(RUNS)} outputs recorded in {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
