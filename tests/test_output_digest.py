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
Temporary paths are replaced by a placeholder before hashing.  The sweep
runs once per module, and a second test reads the same records to check
that every ``--json`` error names a type a caller can act on.

A change that alters output on purpose re-pins :data:`DIGEST` and says why.
"""

import builtins
import contextlib
import hashlib
import io
import json
import os

import pytest

from neroncalc import errors
from neroncalc.cli import main
from neroncalc.conductors import STANDARD_VDELTA, KodairaType

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEGREES = range(1, 26)
PRIMES = (2, 3, 5)
ELLIPTIC_TYPES = ("I0", "I1", "I2", "I3", "I4", "II", "III", "IV",
                  "I0*", "I1*", "I2*", "I3*", "IV*", "III*", "II*")
PROVIDERS = ("provider_II.json", "provider_I0star.json", "provider_I2.json")

DIGEST = "e07fab190e4705414700191304378314848c7f6c34b143607a2119cbd5c7be59"
COMMANDS = 4086
SUCCEEDED = 2566


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


def sweep_records(tmp: str) -> list[list]:
    """``[argv, exit code, stdout, stderr]`` of every command of the sweep."""
    records = []
    for argv in _sweep(tmp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        records.append([argv, code, out.getvalue(), err.getvalue()])
    return records


def sweep_digest(tmp: str, records: list[list]) -> tuple[int, int, str]:
    """Commands run, commands that exit 0, and the digest of the sweep."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record).replace(tmp, "<tmp>").encode() + b"\n")
    return len(records), sum(code == 0 for _, code, _, _ in records), h.hexdigest()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The sweep's temporary directory and its records, run once per module."""
    tmp = str(tmp_path_factory.mktemp("sweep"))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        return tmp, sweep_records(tmp)


def test_cli_output_digest_is_pinned(sweep):
    assert sweep_digest(*sweep) == (COMMANDS, SUCCEEDED, DIGEST)


def _named_type(kind: str) -> bool:
    """A class of ``neroncalc.errors``, argparse's usage error, or an
    ``OSError`` subclass such as ``FileNotFoundError``."""
    cls = getattr(errors, kind, None) or getattr(builtins, kind, None)
    return kind == "UsageError" or isinstance(cls, type) and (
        issubclass(cls, errors.NeroncalcError) or issubclass(cls, OSError))


def test_every_json_error_names_a_neroncalc_type(sweep):
    """With ``--json`` every error is one JSON line naming a type a caller
    can act on, never a built-in such as ``ValueError``."""
    kinds = []
    for argv, code, out, err in sweep[1]:
        if "--json" in argv and err:
            doc = json.loads(err)
            assert (code, list(doc), err.count("\n")) == (1, ["error", "type"], 1), argv
            kinds.append(doc["type"])
    assert kinds
    assert [kind for kind in kinds if not _named_type(kind)] == []
