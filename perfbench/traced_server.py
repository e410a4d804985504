"""``repro serve`` with the benchmark's layer wrappers installed.

    PERFBENCH_LEDGER_OUT=<file> python3 perfbench/traced_server.py serve <snapshot> ...

Runs the program's own CLI in this process after :func:`perfbench.layers.install`,
and writes the wrappers' ledger as JSON to ``PERFBENCH_LEDGER_OUT`` once the
server has drained and stopped.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench import layers
    from repro.cli import run

    ledger = layers.install()
    code = run(sys.argv[1:])
    with open(os.environ["PERFBENCH_LEDGER_OUT"], "w", encoding="utf-8") as fh:
        json.dump(ledger.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
