"""Pinned CLI output: one digest over a fixed in-process command sweep.

Every command's argv, exit code, stdout and stderr goes into a single
SHA-256, so any change of an answer, a message or an exit code, error
paths included, changes the digest.  The sweep runs ``analyze`` (text and
``--json``) and, for every d from 1 to 25, ``check`` (text and ``--json``)
and ``basechange`` (with and without ``--contract``) on every curve fixture
and on five malformed documents, then ``series`` and ``zeta`` on the three
providers.  Temporary paths are replaced by a placeholder before hashing.

A change that alters output on purpose re-pins :data:`DIGEST` and says why.
"""

import contextlib
import hashlib
import io
import json
import os

from neroncalc.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEGREES = range(1, 26)
PROVIDERS = ("provider_II.json", "provider_I0star.json", "provider_I2.json")

DIGEST = "e4e59bed7181cd32003d90916aae8ca7857ee9f32100f33c7cdb7f29eccb7fe4"
COMMANDS = 2556
SUCCEEDED = 1556


def _doc(vertices, edges) -> str:
    return json.dumps({
        "p": 1,
        "vertices": [{"id": i, "N": n, "g": g} for i, n, g in vertices],
        "edges": [list(e) for e in edges],
    })


MALFORMED = {
    # II with every multiplicity times 4: a multiple fiber
    "multiple.json": _doc(
        [("c", 24, 0), ("a0_0", 12, 0), ("a1_0", 8, 0), ("a2_0", 4, 0)],
        [("a0_0", "c"), ("a1_0", "c"), ("a2_0", "c")],
    ),
    # N = 3 does not divide the incident sum 1
    "nondividing.json": _doc([("a", 3, 0), ("b", 1, 0)], [("a", "b")]),
    # two elliptic components that do not meet
    "disconnected.json": _doc([("a", 1, 1), ("b", 1, 1)], []),
    # both faults: the connectivity message must come first
    "both.json": _doc([("a", 3, 0), ("b", 1, 0), ("c", 1, 1)], [("a", "b")]),
    # two rational components meeting in three points
    "triple.json": _doc([("a", 1, 0), ("b", 1, 0)], [("a", "b")] * 3),
}


def _sweep(tmp: str) -> list[list[str]]:
    curves = sorted(
        os.path.join("fixtures", name)
        for name in os.listdir(os.path.join(ROOT, "fixtures"))
        if not name.startswith("provider")
    )
    for name, text in MALFORMED.items():
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        curves.append(path)
    argvs = []
    for path in curves:
        argvs += [["analyze", path], ["analyze", path, "--json"]]
        for d in DEGREES:
            argvs += [
                ["check", path, "-d", str(d)],
                ["check", path, "-d", str(d), "--json"],
                ["basechange", path, "-d", str(d)],
                ["basechange", path, "-d", str(d), "--contract"],
            ]
    for name in PROVIDERS:
        path = os.path.join("fixtures", name)
        argvs += [["series", path], ["zeta", path]]
    return argvs


def sweep_digest(tmp: str) -> tuple[int, int, str]:
    """Commands run, commands that exit 0, and the digest of the sweep."""
    h = hashlib.sha256()
    argvs = _sweep(tmp)
    succeeded = 0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        succeeded += code == 0
        record = [argv, code, out.getvalue(), err.getvalue()]
        h.update(json.dumps(record).replace(tmp, "<tmp>").encode() + b"\n")
    return len(argvs), succeeded, h.hexdigest()


def test_cli_output_digest_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert sweep_digest(str(tmp_path)) == (COMMANDS, SUCCEEDED, DIGEST)
