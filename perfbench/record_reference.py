"""Record the work fingerprints of every pool input of a workload.

    python3 perfbench/record_reference.py transform moments resolvent

Runs each op in the pool once, requires it to pass, and writes its
``[seed, dim, kind, degree, lhs_re, lhs_im]`` rows to
``perfbench/reference/<workload>.json``, the lhs to 12 significant digits
(the gate compares to relative 1e-9).  The stored references were
recorded at the commit named in each file; re-record only when a change is
meant to alter the work the benchmark does.
"""

from __future__ import annotations

import json
import os
import sys

import run  # pins BLAS threads before numpy is imported

run._import_specshift()

import workloads  # noqa: E402


def record(workload: workloads.Workload) -> dict:
    runner = workload.runner(run.RUN_DIR / f"record-{workload.name}-{os.getpid()}")
    rows = {}
    try:
        for slot in workload.rotation:
            for index in range(workload.pool):
                result = runner.run(runner.prepare(slot, index))
                problems = runner.problems(result)
                if problems:
                    raise RuntimeError(f"{workloads.op_key(slot, index)}: {problems}")
                rows[workloads.op_key(slot, index)] = [
                    row[:4] + [float(f"{x:.12g}") for x in row[4:]]
                    for row in runner.rows(index, result)
                ]
    finally:
        runner.close()
    return {"commit": run._git_commit(), "rows": rows}


def write(path, data: dict) -> None:
    """One op per line, so a re-recorded reference diffs op by op."""
    with open(path, "w") as fh:
        fh.write('{"commit": %s, "rows": {\n' % json.dumps(data["commit"]))
        fh.write(
            ",\n".join(
                f"{json.dumps(key)}: {json.dumps(rows, separators=(',', ':'))}"
                for key, rows in data["rows"].items()
            )
        )
        fh.write("\n}}\n")


def main(names: list[str]) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        data = record(workload)
        write(workloads.reference_path(workload), data)
        print(f"{name}: {len(data['rows'])} ops recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
