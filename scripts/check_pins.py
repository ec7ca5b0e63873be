"""Replay every benchmark catalogue item and compare it with its pinned digest.

    python3 scripts/check_pins.py [WORKLOAD ...]

Runs each item of each named workload (all three by default) once
in-process, the way ``perfbench/pin.py`` does, and compares the digest of
its exit code and stdout with ``perfbench/pinned.json``.  Unlike ``pin.py``
it never writes that file: it prints one line per item whose digest
differs, naming its key, and exits 1 if there is any.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # catalogue items name their inputs relative to the checkout
    with open(os.path.join(run.HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    bad = 0
    for name in argv or sorted(workloads.WORKLOADS):
        ctx = workloads.Context(ROOT, "check-%s" % name)
        try:
            items = workloads.catalogue(name)
            for key, make in items:
                rc, out, _, _ = run.run_inprocess(make(ctx))
                got, want = run.digest(rc, out), pinned[name].get(key)
                if got != want:
                    print("MISMATCH %s %s: digest %s, pinned %s" % (name, key, got, want))
                    bad += 1
            print("%s: %d items" % (name, len(items)))
        finally:
            shutil.rmtree(os.path.join(ROOT, ctx.dir), ignore_errors=True)
    print("%d mismatches" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
