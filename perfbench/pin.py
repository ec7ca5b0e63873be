"""Pin the output digest of every catalogue item of every workload.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each item once in-process, requires its oracle to pass, and rewrites
``pinned.json``.  Re-pin only when an answer is meant to change; the
benchmark counts every op whose digest differs from its pin as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    path = os.path.join(run.HERE, "pinned.json")
    pinned = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            pinned = json.load(fh)
    bad = 0
    for name in argv or sorted(workloads.WORKLOADS):
        ctx = workloads.Context(run.ROOT, "pin-%s" % name)
        try:
            digests = {}
            for key, make in workloads.catalogue(name):
                op = make(ctx)
                rc, out, err, _ = run.run_inprocess(op)
                problem = op.check(rc, out, err)
                if problem:
                    print("FAIL %s: %s" % (key, problem), file=sys.stderr)
                    bad += 1
                digests[key] = run.digest(rc, out)
            pinned[name] = dict(sorted(digests.items()))
            print("%s: %d items" % (name, len(digests)))
        finally:
            shutil.rmtree(os.path.join(run.ROOT, ctx.dir), ignore_errors=True)
    if bad:
        return 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
