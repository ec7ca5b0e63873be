"""Pinned CLI output: one digest over a fixed in-process command sweep.

Every command's argv, exit code, stdout and stderr goes into a single
SHA-256, so any change of an answer, a message or an exit code, error
paths included, changes the digest.  The sweep covers every subcommand:

- ``analyze`` (text and ``--json``) and, for every d from 1 to 25, ``check``
  (text and ``--json``) and ``basechange`` (with and without
  ``--contract``) on every curve fixture and on five malformed documents;
- ``analyze``, ``check -d 5`` and ``basechange -d 7`` with ``--p`` 2, 3
  and 5 on every curve fixture;
- ``series`` and ``zeta`` on the three providers;
- ``hj`` on every ``n`` up to 12 and ``r`` from -1 to ``n + 1``, so
  non-coprime and out-of-range pairs are included;
- ``resolve`` on multiplicities up to 4 and degrees up to 6, without
  ``--p`` and with ``--p`` 2 and 5;
- ``elliptic`` for every reduction type at its standard discriminant
  valuation, with potential good reduction, potential multiplicative
  reduction with and without ``--vj``, and ``--p 2 --delta 1``;
- ``genus2`` on a grid with ``tau > sigma`` and extension degree 0 included.

Every command past the first group runs in text and in ``--json`` mode.
Temporary paths are replaced by a placeholder before hashing.

A change that alters output on purpose re-pins :data:`DIGEST` and says why.
"""

import contextlib
import hashlib
import io
import json
import os

from neroncalc.cli import main
from neroncalc.conductors import STANDARD_VDELTA, KodairaType

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEGREES = range(1, 26)
PRIMES = (2, 3, 5)
ELLIPTIC_TYPES = ("I0", "I1", "I2", "I3", "I4", "II", "III", "IV",
                  "I0*", "I1*", "I2*", "I3*", "IV*", "III*", "II*")
PROVIDERS = ("provider_II.json", "provider_I0star.json", "provider_I2.json")

DIGEST = "6bd415397a2eb4b54f84cb210b599ebf3b0cc70e68d6a38e32d6e1b99424c432"
COMMANDS = 4086
SUCCEEDED = 2602


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
    fixtures = sorted(
        os.path.join("fixtures", name)
        for name in os.listdir(os.path.join(ROOT, "fixtures"))
        if not name.startswith("provider")
    )
    curves = list(fixtures)
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
    return argvs + [argv + mode for argv in _flag_sweep(fixtures)
                    for mode in ([], ["--json"])]


def _flag_sweep(curves: list[str]) -> list[list[str]]:
    """The commands that run in both text and ``--json`` mode."""
    argvs = []
    for path in curves:
        for p in PRIMES:
            argvs += [
                ["analyze", path, "--p", str(p)],
                ["check", path, "-d", "5", "--p", str(p)],
                ["basechange", path, "-d", "7", "--p", str(p)],
            ]
    for n in range(1, 13):
        for r in range(-1, n + 2):
            argvs.append(["hj", "--n", str(n), "--r", str(r)])
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            for d in range(1, 7):
                base = ["resolve", "--m1", str(m1), "--m2", str(m2), "--d", str(d)]
                argvs += [base, base + ["--p", "2"], base + ["--p", "5"]]
    for symbol in ELLIPTIC_TYPES:
        kt = KodairaType.parse(symbol)
        base = ["elliptic", "--type", symbol,
                "--vdelta", str(STANDARD_VDELTA[kt.kind](kt.n))]
        argvs += [
            base + ["--potential", "good"],
            base + ["--potential", "multiplicative"],
            base + ["--potential", "multiplicative", "--vj", "-2"],
            base + ["--potential", "good", "--p", "2", "--delta", "1"],
            base + ["--potential", "multiplicative", "--vj", "-2", "--p", "2", "--delta", "1"],
        ]
    for vdmin in (0, 3, 10, 21):
        for sigma in range(3):
            for tau in range(3):
                for deg in range(3):
                    argvs.append(["genus2", "--vdmin", str(vdmin), "--sigma", str(sigma),
                                  "--tau", str(tau), "--deg", str(deg)])
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
