"""One sha256 per benchmark workload over every item's exit code and stdout.

Usage, from the repository root::

    python3 tools/item_digests.py --seed 401

For each workload of ``perfbench/workloads.py`` this builds the item pool for
the seed in a fresh temporary directory and runs every item through
``stochorder.cli.main`` in process, in pool order.  It prints one line per
workload: the name and the sha256 of the (workload, exit code, stdout)
records of its items.  Two checkouts whose lines agree print the same bytes
and exit with the same codes on every item of the benchmark.  The sources
under ``src`` next to this script are the ones run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/, put on the path above)
from stochorder import cli  # noqa: E402


def digest(workload: str, seed: int) -> str:
    """The sha256 of the workload's (name, exit code, stdout) records."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for item in workloads.build(workload, seed, workdir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(item.argv))
            h.update(repr((workload, code, out.getvalue())).encode("utf-8"))
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True, help="seed of the item pools")
    args = ap.parse_args(argv)
    for workload in workloads.BUILDERS:
        print(workload, digest(workload, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
