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

Each pool then runs a second time in the same process.  If any item's exit
code or stdout differs from the first pass, state has leaked from one call
into a later one: the script names the workload on stderr and exits 1.
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


def records(workload: str, items) -> list[bytes]:
    """The (name, exit code, stdout) record of each item, run in order."""
    found = []
    for item in items:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(item.argv))
        found.append(repr((workload, code, out.getvalue())).encode("utf-8"))
    return found


def digest(workload: str, seed: int) -> tuple[str, bool]:
    """The sha256 of the workload's records, and whether a second pass repeats them."""
    with tempfile.TemporaryDirectory() as workdir:
        items = workloads.build(workload, seed, workdir)
        first = records(workload, items)
        repeated = records(workload, items) == first
    return hashlib.sha256(b"".join(first)).hexdigest(), repeated


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True, help="seed of the item pools")
    args = ap.parse_args(argv)
    for workload in workloads.BUILDERS:
        sha, repeated = digest(workload, args.seed)
        print(workload, sha, flush=True)
        if not repeated:
            print(f"{workload}: a second pass in this process gave other records",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
