"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {ingest,batch,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``
of that checkout (nothing needs building). ``--trace 0`` measures the
end-to-end metrics with the shipped defaults; ``--trace 1`` measures the
per-layer ledger, with the benchmark's layer wrappers installed for half
of the run, and reports the gap between the halves as
``obs.trace_overhead_pct``. The workload's figures are printed one per
line by name and unit; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Any failed output
check makes ``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ingest", "batch", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import repro from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from perfbench import maintenance, serve
    from perfbench.measure import catalog

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        if args.workload == "serve":
            outcome = serve.run(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            outcome = maintenance.run(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally, verdict = outcome.tally, outcome.verdict
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in outcome.figures.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<24} {tally.failed_share():>14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for note in outcome.notes:
        print(f"  note: {note}")
    for error in tally.errors:
        print(f"  failed: {error}")
    for problem in verdict.problems:
        print(f"  CHECK FAILED: {problem}")

    units = catalog("per_layer" if args.trace else "end_to_end")
    values = outcome.layers if args.trace else outcome.e2e
    metrics = {name: values[name] for name in units}
    result = {
        "correct": verdict.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
