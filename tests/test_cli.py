"""Command line surface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from math import gcd

import pytest

from neroncalc import cli, errors
from neroncalc.cli import main
from neroncalc.curves import SncdCurve, load_curve
from neroncalc.invariants import stabilization_index

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_type_II(capsys):
    code, out, _ = run(capsys, "analyze", fx("II.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["e_model"] == 6
    assert doc["phi"] == []
    assert doc["P"] == "t^2 - t + 1"
    assert doc["additive"] is True


def test_analyze_is_deterministic(capsys):
    _, first, _ = run(capsys, "analyze", fx("I3star.json"))
    _, second, _ = run(capsys, "analyze", fx("I3star.json"))
    assert first == second


def test_analyze_all_fixtures_pass(capsys):
    for name in sorted(os.listdir(FIXTURES)):
        if name.startswith("provider"):
            continue
        code, _, err = run(capsys, "analyze", fx(name))
        assert code == 0, (name, err)


def test_analyze_rejects_invalid_curve(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"p": 1, "vertices": [{"id": "a", "N": 2, "g": 0}, '
        '{"id": "b", "N": 2, "g": 0}], "edges": [["a", "b"]]}'
    )
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and "gcd" in err


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", fx("I2.json"), "-d", "3")
    assert code == 0
    assert out.count("PASS") == 3


def test_check_json_mode(capsys):
    code, out, _ = run(capsys, "check", fx("II.json"), "-d", "5", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert doc["checks"]["component_growth"]["after"] == 1


def test_basechange_command(capsys, tmp_path):
    code, out, _ = run(capsys, "basechange", fx("II.json"), "-d", "5", "--contract")
    assert code == 0
    doc = json.loads(out)
    mults = sorted(v["N"] for v in doc["curve"]["vertices"])
    assert mults == [1, 2, 2, 3, 3, 4, 4, 5, 6]

    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "basechange", fx("I2.json"), "-d", "3", "-o", str(target)
    )
    assert code == 0
    written = json.loads(target.read_text())
    assert len(written["vertices"]) == 6
    assert os.path.exists(str(target) + ".trace.json")


@pytest.mark.parametrize("name, d", [("II.json", "5"), ("I5.json", "7")])
def test_basechange_trace_file_is_the_printed_trace(capsys, tmp_path, name, d):
    target = str(tmp_path / "out.json")
    assert run(capsys, "basechange", fx(name), "-d", d, "-o", target)[0] == 0
    code, out, _ = run(capsys, "basechange", fx(name), "-d", d)
    assert code == 0
    with open(target + ".trace.json", encoding="utf-8") as fh:
        assert json.load(fh) == json.loads(out)["trace"]


def test_basechange_precondition_failure(capsys):
    code, _, err = run(capsys, "basechange", fx("II.json"), "-d", "2")
    assert code == 1 and "gcd" in err


def test_hj_command(capsys):
    code, out, _ = run(capsys, "hj", "--n", "5", "--r", "2")
    assert code == 0
    assert json.loads(out) == {"b": [3, 2]}


def test_resolve_command(capsys):
    code, out, _ = run(capsys, "resolve", "--m1", "6", "--m2", "3", "--d", "5")
    assert json.loads(out) == {"b": [2, 3], "mu": [3, 3, 3, 6], "c": 1}
    # --p defaults to 1, equal characteristic zero
    assert run(capsys, "resolve", "--m1", "6", "--m2", "3", "--d", "5", "--p", "1") == (0, out, "")
    code, out, _ = run(capsys, "resolve", "--m1", "2", "--m2", "2", "--d", "2")
    assert json.loads(out) == {"b": [], "mu": [], "c": 2}


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", fx("provider_I0star.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["pole_order_at_1"] == 1 and doc["degree"] == 0
    assert doc["series"]["den"] == [[0, 2]]


def test_zeta_command(capsys):
    code, out, _ = run(capsys, "zeta", fx("provider_II.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["pole"] == {"slope": "1/6", "order": 1}
    assert doc["degree"] == 0
    assert doc["euler"]["den"] == [[0, 6]]


def test_elliptic_command(capsys):
    code, out, _ = run(
        capsys, "elliptic", "--type", "II", "--vdelta", "6",
        "--potential", "good", "--p", "2",
    )
    doc = json.loads(out)
    assert doc["c"] == "1/2" and doc["c_tame"] == "1/6" and doc["art"] == -6


def test_genus2_command(capsys):
    code, out, _ = run(
        capsys, "genus2", "--vdmin", "21", "--sigma", "2", "--tau", "0",
        "--deg", "2",
    )
    assert json.loads(out) == {"c": "2"}


def test_json_error_stream(capsys):
    code, out, err = run(capsys, "analyze", "missing-file.json", "--json")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basechange", fx("II.json")])  # missing -d
    assert exc.value.code == 2


def test_json_usage_error_is_one_json_line(capsys):
    want = {"error": "the following arguments are required: -d", "type": "UsageError"}
    code, out, err = run_child("basechange", "--json", fx("II.json"))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert json.loads(err) == want
    assert run_catching_exit(capsys, "basechange", "--json", fx("II.json")) == (2, "", err)
    # the next call without --json prints argparse's usage text again
    code, out, err = run_catching_exit(capsys, "basechange", fx("II.json"))
    assert code == 2 and err.startswith("usage: ")
    assert err.endswith("error: the following arguments are required: -d\n")


def _determinism_commands() -> list[list[str]]:
    commands = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.startswith("provider"):
            commands += [["series", fx(name)], ["zeta", fx(name)]]
            continue
        curve = load_curve(fx(name))
        commands.append(["analyze", fx(name)])
        for d in (5, 7):
            if gcd(d, stabilization_index(curve) * curve.p) == 1:
                commands.append(["check", fx(name), "-d", str(d)])
    return commands


CHILD = """
import json, sys
from neroncalc import cli
from neroncalc.cli import main
sys.exit(max(main(argv) for argv in json.load(sys.stdin)))
"""


def test_stdout_is_identical_across_hash_seeds():
    commands = _determinism_commands()
    checks = sum(argv[0] == "check" for argv in commands)
    assert checks > 20
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", CHILD], input=json.dumps(commands),
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr  # every command succeeded
        outputs.append(child.stdout)
    assert outputs[0].count("charpoly_commutation: PASS") == checks
    assert outputs[0] == outputs[1] == outputs[2]


SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(*argv):
    child = subprocess.run(
        [sys.executable, "-m", "neroncalc", *argv], env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    return child.returncode, child.stdout, child.stderr


def run_catching_exit(capsys, *argv):
    """Like :func:`run`, with argparse's ``SystemExit`` read as an exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_never_hashes_its_input():
    code = (
        "import sys\n"
        "from neroncalc.cli import main\n"
        "assert main(['check', 'fixtures/II.json', '-d', '5']) == 0\n"
        "assert 'hashlib' not in sys.modules\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=os.path.join(SRC, ".."),
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.count("PASS") == 3


def test_no_subcommand_loads_the_introspection_modules(tmp_path):
    """Importing the package compiles no generated methods: a child that
    runs every subcommand once, without cached bytecode, never loads
    ``dataclasses`` or the modules it pulls in."""
    provider = fx("provider_II.json")
    commands = [
        ["analyze", fx("II.json")],
        ["basechange", fx("II.json"), "-d", "5", "-o", str(tmp_path / "out.json")],
        ["check", fx("II.json"), "-d", "5"],
        ["series", provider],
        ["zeta", provider],
        ["hj", "--n", "5", "--r", "2"],
        ["resolve", "--m1", "6", "--m2", "3", "--d", "5"],
        ["elliptic", "--type", "II", "--vdelta", "2", "--potential", "good"],
        ["genus2", "--vdmin", "20", "--sigma", "0", "--tau", "0", "--deg", "1"],
    ]
    code = (
        "import json, sys\n"
        "from neroncalc.cli import main\n"
        "assert [main(argv) for argv in json.load(sys.stdin)] == [0] * 9\n"
        "heavy = ['dataclasses', 'inspect', 'ast', 'dis', 'tokenize']\n"
        "print(json.dumps([m for m in heavy if m in sys.modules]))\n"
    )
    env = dict(child_env(), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(commands), env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []


def test_cli_import_leaves_the_fixture_library_unloaded():
    """``neroncalc.kodaira`` is the fixture library, which no command runs:
    importing the CLI does not load it, and importing it by name works."""
    code = (
        "import sys, neroncalc.cli\n"
        "assert 'neroncalc.kodaira' not in sys.modules\n"
        "from neroncalc.kodaira import fixture_curve\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


def test_reused_parser_matches_a_fresh_process_per_call(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    target = str(tmp_path / "out.json")
    sequence = [
        ["check", fx("II.json"), "-d", "5", "--json"],
        ["check", fx("II.json"), "-d", "5"],
        ["analyze", fx("II.json"), "--p", "2"],
        ["analyze", fx("II.json")],
        ["basechange", fx("II.json")],  # usage error: -d is missing
        ["--version"],
        ["basechange", fx("I2.json"), "-d", "3", "-o", target],
    ]
    in_process = [run_catching_exit(capsys, *argv) for argv in sequence]
    written = open(target).read(), open(target + ".trace.json").read()
    assert [r[0] for r in in_process] == [0, 0, 0, 0, 2, 0, 0]
    assert '"p": 2' in in_process[2][1] and '"p": 1' in in_process[3][1]
    for argv, result in zip(sequence, in_process):
        assert run_child(*argv) == result, argv
    assert (open(target).read(), open(target + ".trace.json").read()) == written


def test_main_builds_its_parser_once(capsys, monkeypatch):
    calls = []
    real = cli.build_parser

    def spy():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        for n in range(2, 12):
            assert run(capsys, "hj", "--n", str(n), "--r", "1")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("command", [
    ["analyze", fx("II.json")],
    ["basechange", fx("II.json"), "-d", "5"],
    ["check", fx("II.json"), "-d", "5"],
    ["resolve", "--m1", "6", "--m2", "3", "--d", "5"],
    ["elliptic", "--type", "II", "--vdelta", "6", "--potential", "good"],
])
def test_p_zero_is_rejected(capsys, command):
    for p in ("0", "-1"):
        code, out, err = run(capsys, *command, "--p", p)
        assert (code, out, err) == (1, "", "error: characteristic exponent must be >= 1\n")


@pytest.mark.parametrize("command", [
    ["analyze", fx("II.json")],
    ["basechange", fx("II.json"), "-d", "5"],
    ["check", fx("II.json"), "-d", "5"],
])
def test_p_zero_on_a_curve_is_a_precondition_error(capsys, command):
    code, out, err = run(capsys, *command, "--p", "0", "--json")
    assert (code, out, json.loads(err)) == (
        1, "", {"error": "characteristic exponent must be >= 1", "type": "PreconditionError"})


HOSTILE_CURVES = {
    "edge_endpoint_list": '{"p": 1, "vertices": [{"id": "a", "N": 1, "g": 0}, '
    '{"id": "b", "N": 1, "g": 0}], "edges": [[["a"], "b"]]}',
    "p_bool": '{"p": true, "vertices": [{"id": "a", "N": 1, "g": 1}], "edges": []}',
    "N_bool": '{"p": 1, "vertices": [{"id": "a", "N": true, "g": 1}], "edges": []}',
    "g_bool": '{"p": 1, "vertices": [{"id": "a", "N": 1, "g": true}], "edges": []}',
    "deep_nesting": "[" * 100000,
    # past the interpreter's 4300-digit limit for int conversion
    "N_5000_digits": '{"p": 1, "vertices": [{"id": "a", "N": 1%s, "g": 1}], '
    '"edges": []}' % ("0" * 4999),
    "not_utf8": b'{"p": 1, "vertices": [{"id": "\xff", "N": 1, "g": 1}], "edges": []}',
}
HOSTILE_PROVIDERS = {
    "base_int": {"base": 5},
    "curves_list": {"base": "II.json", "curves": ["x"]},
    # only an absent "curves" means no curves
    "curves_empty_list": {"base": "II.json", "curves": []},
    "curves_zero": {"base": "II.json", "curves": 0},
    "curves_false": {"base": "II.json", "curves": False},
    "curves_empty_string": {"base": "II.json", "curves": ""},
    "curves_null": {"base": "II.json", "curves": None},
    "curves_degree": {"base": "II.json", "curves": {"two": "IV.json"}},
    "jumps_int": {"base": "II.json", "jumps": 5},
    "jumps_strings": {"base": "II.json", "jumps": ["1/6"]},
    "jump_fractional_m": {"base": "II.json", "jumps": [{"j": "1/6", "m": 1.5}]},
    "jump_exponent": {"base": "II.json", "jumps": [{"j": "1e-5000"}]},
    # a jump past the 4300-digit limit could not be printed in any message
    "jump_4301_decimals": {"base": "II.json", "jumps": [{"j": "0.%s1" % ("0" * 4299)}]},
    "jump_4301_decimals_above_one": {"base": "II.json", "jumps": [{"j": "1.%s1" % ("0" * 4299)}]},
    "jump_4401_digit_denominator": {"base": "II.json", "jumps": [{"j": "1/1%s" % ("0" * 4400)}]},
    "p_bool": {"p": True, "base": "II.json"},
    "p_5000_digits": '{"p": 1%s, "base": "II.json"}' % ("0" * 4999),
    "curves_degree_5000_digits": {"base": "II.json", "curves": {"1" + "0" * 4999: "IV.json"}},
    "curves_degree_5000_letters": {"base": "II.json", "curves": {"x" * 5000: "IV.json"}},
    "not_utf8": b'{"base": "II.json", "note": "\xff"}',
    # parsed, then refused by the provider as no divisor of e
    "curves_degree_3001_digits": {"base": "II.json", "curves": {"1" + "0" * 3000: "II.json"}},
}
# the error type of a hostile provider that is not a ParseError
HOSTILE_PROVIDER_KINDS = {"curves_degree_3001_digits": "InconsistentData"}


def _spy_on_curves(monkeypatch) -> list:
    """Count ``SncdCurve.__init__`` calls from now on."""
    built = []
    real = SncdCurve.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SncdCurve, "__init__", spy)
    return built


def test_load_curve_builds_one_curve(monkeypatch):
    built = _spy_on_curves(monkeypatch)
    assert load_curve(fx("II.json")).p == 1 and load_curve(fx("II.json"), 5).p == 5
    assert len(built) == 2


@pytest.mark.parametrize("command, curves", [
    (["analyze"], 1),
    (["check", "-d", "7"], 3),  # the loaded curve, its transform and its minimal model
    (["basechange", "-d", "7"], 2),
])
def test_p_flag_builds_no_second_curve(capsys, monkeypatch, command, curves):
    built = _spy_on_curves(monkeypatch)
    for extra in ([], ["--p", "5"]):
        del built[:]
        assert run(capsys, command[0], fx("II.json"), *command[1:], *extra)[0] == 0
        assert len(built) == curves, extra


@pytest.mark.parametrize("command, code, err", [
    (["analyze"], 0, ""),
    (["check", "-d", "7"], 0, ""),
    (["basechange", "-d", "7"], 0, ""),
    (["check", "-d", "5"], 1, "error: gcd(d, p) = 5 != 1\n"),  # d must be prime to p
])
def test_p_flag_on_a_document_without_p_warns_nothing(tmp_path, command, code, err):
    doc = json.loads(open(fx("II.json")).read())
    del doc["p"]
    path = tmp_path / "no_p.json"
    path.write_text(json.dumps(doc))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-m", "neroncalc",
         command[0], str(path), *command[1:], "--p", "5"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stderr) == (code, err)
    if command == ["analyze"]:
        assert json.loads(child.stdout)["p"] == 5


def test_composite_p_acts_as_its_primes(capsys):
    """Prime to p means gcd(x, p) = 1, so p = 4 strips what p = 2 strips."""
    for name in sorted(os.listdir(FIXTURES)):
        if name.startswith("provider"):
            continue
        docs = []
        for p in ("2", "4"):
            code, out, _ = run(capsys, "analyze", fx(name), "--p", p)
            assert code == 0, name
            docs.append(json.loads(out))
        assert (docs[0].pop("p"), docs[1].pop("p")) == (2, 4)
        assert docs[0] == docs[1], name
    _, out, _ = run(capsys, "analyze", fx("I0star.json"), "--p", "4")
    assert json.loads(out)["P_prime"] == "1"


def test_p_flag_does_not_excuse_a_bad_p_in_the_document(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(HOSTILE_CURVES["p_bool"])
    code, out, err = run(capsys, "analyze", str(path), "--p", "5", "--json")
    assert (code, out, json.loads(err)) == (
        1, "", {"error": "field 'p' must be a positive integer", "type": "ParseError"})


def _write(path, doc):
    """A hostile document: raw bytes, JSON text, or an object to dump."""
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))


def _assert_one_line_error(path, *text_argv, json_argv, kind="ParseError"):
    """One ``error:`` line in text mode and a ``kind`` error with ``--json``,
    each from a fresh child, with no traceback and nothing on stdout."""
    code, out, err = run_child(*text_argv, str(path))
    assert (code, out) == (1, "") and "Traceback" not in err
    assert "set_int_max_str_digits" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert len(lines[0]) < 200, lines[0][:300]
    code, out, err = run_child(*json_argv, str(path), "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": lines[0][len("error: "):], "type": kind}


@pytest.mark.parametrize("name", sorted(HOSTILE_CURVES))
def test_hostile_curve_ends_in_parse_error(tmp_path, name):
    path = tmp_path / "curve.json"
    _write(path, HOSTILE_CURVES[name])
    _assert_one_line_error(path, "analyze", json_argv=["basechange", "-d", "5"])


@pytest.mark.parametrize("name", sorted(HOSTILE_PROVIDERS))
def test_hostile_provider_ends_in_parse_error(tmp_path, name):
    """A ParseError unless the provider's constructor refuses the parsed
    document (:data:`HOSTILE_PROVIDER_KINDS`); one short line either way."""
    (tmp_path / "II.json").write_text(open(fx("II.json")).read())
    path = tmp_path / "provider.json"
    _write(path, HOSTILE_PROVIDERS[name])
    _assert_one_line_error(path, "series", json_argv=["zeta"],
                           kind=HOSTILE_PROVIDER_KINDS.get(name, "ParseError"))


@pytest.mark.parametrize("provider_p, base_p", [("x" * 5000, 1), (2, 10**4299)],
                         ids=["5000_letters", "base_4300_digits"])
def test_provider_p_contradicting_the_base_is_shortened(tmp_path, provider_p, base_p):
    """Both values of the ``p`` mismatch are named by at most 20 characters
    and their length: a long string in the document, a 4300-digit ``p`` of
    the base curve."""
    _write(tmp_path / "I0.json", {"p": base_p, "vertices": [{"id": "o", "N": 1, "g": 1}],
                                  "edges": []})
    path = tmp_path / "provider.json"
    _write(path, {"p": provider_p, "base": "I0.json"})
    _assert_one_line_error(path, "series", json_argv=["series"])


def test_non_integer_degree_wording_is_unchanged(tmp_path):
    (tmp_path / "II.json").write_text(open(fx("II.json")).read())
    path = tmp_path / "provider.json"
    _write(path, HOSTILE_PROVIDERS["curves_degree"])
    message = "curve degree 'two' is not an integer"
    assert run_child("series", str(path)) == (1, "", "error: %s\n" % message)
    code, out, err = run_child("zeta", str(path), "--json")
    assert (code, out, json.loads(err)) == (1, "", {"error": message, "type": "ParseError"})


def test_long_degree_names_its_digit_count(tmp_path):
    (tmp_path / "II.json").write_text(open(fx("II.json")).read())
    path = tmp_path / "provider.json"
    _write(path, HOSTILE_PROVIDERS["curves_degree_5000_digits"])
    code, out, err = run_child("series", str(path))
    assert err == "error: curve degree %s... has too many digits (5000)\n" % ("1" + "0" * 19)


def test_long_jump_is_named_by_its_first_20_characters(tmp_path):
    (tmp_path / "II.json").write_text(open(fx("II.json")).read())
    path = tmp_path / "provider.json"
    _write(path, HOSTILE_PROVIDERS["jump_4301_decimals"])
    shown = repr(HOSTILE_PROVIDERS["jump_4301_decimals"]["jumps"][0])
    message = "bad jump entry %s... (%d characters)" % (shown[:20], len(shown))
    assert run_child("series", str(path)) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("degree, shown", [
    ("x" * 40, repr("x" * 40)),
    ("x" * 41, "'%s'... (41 characters)" % ("x" * 20)),
    ("x" * 5000, "'%s'... (5000 characters)" % ("x" * 20)),
], ids=["40_letters", "41_letters", "5000_letters"])
def test_long_non_integer_degree_is_shortened(tmp_path, degree, shown):
    """A non-integer degree past 40 characters is named by its first 20
    characters and its length, not echoed in full."""
    (tmp_path / "II.json").write_text(open(fx("II.json")).read())
    path = tmp_path / "provider.json"
    _write(path, {"base": "II.json", "curves": {degree: "IV.json"}})
    message = "curve degree %s is not an integer" % shown
    assert run_child("series", str(path)) == (1, "", "error: %s\n" % message)
    assert len(message) < 200


@pytest.mark.parametrize("value, message", [
    ("x", "invalid int value: 'x'"),
    ("1.5", "invalid int value: '1.5'"),
    ("+-5", "invalid int value: '+-5'"),
    ("1" + "0" * 4999, "integer 1%s... has too many digits (5000)" % ("0" * 19)),
    ("-1" + "0" * 4999, "integer -1%s... has too many digits (5000)" % ("0" * 18)),
    ("x" * 40, "invalid int value: %r" % ("x" * 40)),
    ("x" * 5000, "invalid int value: '%s'... (5000 characters)" % ("x" * 20)),
], ids=["word", "fraction", "two_signs", "5000_digits", "minus_5000_digits", "40_letters",
        "5000_letters"])
def test_integer_flag_errors(capsys, value, message):
    """A bad integer flag is one short usage error, in text and ``--json``
    mode; an integer past the digit limit is named, not echoed."""
    argv = ["hj", "--n", value, "--r", "1"]
    code, out, err = run_catching_exit(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("usage: ")
    assert err.splitlines()[-1] == "neroncalc hj: error: argument --n: %s" % message
    assert len(err.splitlines()[-1]) < 200
    code, out, err = run_catching_exit(capsys, *argv, "--json")
    assert (code, out, err.count("\n")) == (2, "", 1) and len(err) < 200
    assert json.loads(err) == {"error": "argument --n: %s" % message, "type": "UsageError"}


def test_negative_discriminant_valuation_exits_one():
    code, out, err = run_child("elliptic", "--type", "II", "--vdelta", "-6",
                               "--potential", "good")
    assert (code, out, err) == (1, "", "error: v(Delta_min) = -6 < 0 is impossible\n")


@pytest.mark.parametrize("symbol, kind, message", [
    ("II", "InconsistentData",
     "potential multiplicative reduction needs type I_n or I_n* with n >= 1, not II"),
    ("I1", "NegativeConductor", "inputs force c = -1/12 < 0"),
], ids=["II", "I1"])
def test_elliptic_refuses_impossible_data(capsys, symbol, kind, message):
    argv = ["elliptic", "--type", symbol, "--vdelta", "1", "--vj", "-2",
            "--potential", "multiplicative"]
    assert run(capsys, *argv) == (1, "", "error: %s\n" % message)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out, json.loads(err)) == (1, "", {"error": message, "type": kind})


def test_elliptic_index_past_the_digit_limit_is_named(capsys):
    code, out, err = run(capsys, "elliptic", "--type", "I" + "9" * 5000, "--vdelta", "1",
                         "--potential", "good", "--json")
    message = "index %s... has too many digits (5000)" % ("9" * 20)
    assert (code, out, json.loads(err)) == (1, "", {"error": message, "type": "PreconditionError"})


@pytest.mark.parametrize("doc, message", [
    ({"base": "II\u0000.json"}, "field 'base' must be a file name"),
    ({"base": "II.json", "curves": {"2": "IV\u0000.json"}},
     "field 'curves' must map degrees to file names"),
], ids=["base", "curves"])
def test_nul_byte_in_a_provider_file_name_is_a_parse_error(tmp_path, capsys, doc, message):
    (tmp_path / "II.json").write_text(open(fx("II.json")).read())
    path = tmp_path / "provider.json"
    _write(path, doc)
    assert run(capsys, "series", str(path)) == (1, "", "error: %s\n" % message)
    code, out, err = run(capsys, "zeta", str(path), "--json")
    assert (code, out, json.loads(err)) == (1, "", {"error": message, "type": "ParseError"})


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_provider_degree_below_one_is_refused(tmp_path, degree):
    for name in ("II.json", "IV.json"):
        (tmp_path / name).write_text(open(fx(name)).read())
    path = tmp_path / "provider.json"
    path.write_text(json.dumps({"base": "II.json", "curves": {degree: "IV.json"}}))
    code, out, err = run_child("series", str(path))
    assert (code, out, err) == (
        1, "", "error: degree %s is not a prime-to-p divisor of e=6\n" % degree)


@pytest.mark.parametrize("name, refused", [("I0.json", True), ("II.json", False)])
def test_degree_1_curve_must_be_the_base(tmp_path, capsys, name, refused):
    """A degree-1 entry is refused unless it is the base curve again."""
    with open(fx("provider_II.json"), encoding="utf-8") as f:
        provider = json.load(f)
    provider["base"] = os.path.abspath(fx("II.json"))
    provider["curves"] = {a: os.path.abspath(fx(f)) for a, f in provider["curves"].items()}
    provider["curves"]["1"] = os.path.abspath(fx(name))
    path = tmp_path / "provider.json"
    _write(path, provider)
    code, out, err = run(capsys, "series", str(path), "--json")
    if refused:
        assert (code, out, json.loads(err)) == (1, "", {
            "error": "curve for degree 1 is not the base curve", "type": "InconsistentData"})
    else:
        assert (code, out, err) == run(capsys, "series", fx("provider_II.json"), "--json")


@pytest.mark.parametrize("jump, message", [
    ({"j": "3/2"}, "jump 3/2 outside [0, 1)"),
    ({"j": "1/6", "m": 0}, "jump multiplicity must be >= 1"),
    ({"j": "0." + "0" * 3999 + "1"},
     "jump 1/1%s... (4003 characters) is not a multiple of 1/e with e=6" % ("0" * 17)),
    ({"j": "1." + "0" * 3999 + "1"}, "jump 1%s... (8003 characters) outside [0, 1)" % ("0" * 19)),
], ids=["outside_unit_interval", "zero_multiplicity", "long_below_one", "long_above_one"])
def test_bad_jump_is_inconsistent_data(tmp_path, jump, message):
    with open(fx("provider_II.json"), encoding="utf-8") as f:
        provider = json.load(f)
    provider["base"] = os.path.abspath(fx("II.json"))
    provider["curves"] = {a: os.path.abspath(fx(f)) for a, f in provider["curves"].items()}
    provider["jumps"] = [jump]
    path = tmp_path / "provider.json"
    _write(path, provider)
    assert run_child("zeta", str(path)) == (1, "", "error: %s\n" % message)
    code, out, err = run_child("zeta", str(path), "--json")
    assert (code, out, json.loads(err)) == (
        1, "", {"error": message, "type": "InconsistentData"})


def star_doc(q: int) -> dict:
    arms = ["a%d" % k for k in range(q)]
    return {"p": 1, "vertices": [{"id": "c", "N": q, "g": 0}]
            + [{"id": a, "N": 1, "g": 0} for a in arms],
            "edges": [[a, "c"] for a in arms]}


@pytest.mark.parametrize("q, shown", [
    (6, "[2, 3, 6]"),
    (30030, "[2, 3, 5, 6, 7, ...] (63 degrees)"),
], ids=["e6", "e30030"])
def test_missing_degrees_past_40_characters_are_counted(tmp_path, q, shown):
    _write(tmp_path / "star.json", star_doc(q))
    path = tmp_path / "provider.json"
    _write(path, {"base": "star.json"})
    message = "missing reduction data for degrees " + shown
    assert run_child("zeta", str(path)) == (1, "", "error: %s\n" % message)
    code, out, err = run_child("zeta", str(path), "--json")
    assert (code, out, json.loads(err)) == (
        1, "", {"error": message, "type": "ProviderIncomplete"})


def test_json_errors_name_their_type(tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text(open(fx("II.json")).read()[:40])
    fibre = tmp_path / "gcd.json"
    fibre.write_text(
        '{"p": 1, "vertices": [{"id": "a", "N": 2, "g": 0}, '
        '{"id": "b", "N": 2, "g": 0}], "edges": [["a", "b"]]}'
    )
    cases = {
        "ParseError": ["analyze", str(truncated)],
        "PreconditionError": ["basechange", fx("II.json"), "-d", "2"],
        "FileNotFoundError": ["analyze", str(tmp_path / "missing.json")],
        "MalformedFiber": ["analyze", str(fibre)],
    }
    for kind, argv in cases.items():
        code, out, err = run(capsys, *argv, "--json")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert list(doc) == ["error", "type"] and doc["type"] == kind
        assert run(capsys, *argv) == (1, "", "error: %s\n" % doc["error"])


LONG_ID = "x" * 5000
BIG_N = 9 * 10**4299  # 4300 digits, the most a JSON integer may have
LONG_NAMES = {
    "multiplicity_of_long_id": (["analyze"], [(LONG_ID, 0, 0)], []),
    "genus_of_long_id": (["analyze"], [(LONG_ID, 1, -1)], []),
    "edge_to_long_unknown_id": (["analyze"], [("a", 1, 0)], [["a", LONG_ID]]),
    "loop_at_long_id": (["analyze"], [(LONG_ID, 1, 0)], [[LONG_ID, LONG_ID]]),
    "nondividing_long_id": (["analyze"], [("a", 1, 0), (LONG_ID, 3, 0)], [["a", LONG_ID]]),
    "incident_sum_4301_digits": (["analyze"], [("a", 7, 0), ("b", BIG_N, 0), ("c", BIG_N, 0)],
                                 [["a", "b"], ["a", "c"]]),
    "euler_sum_4302_digits": (["analyze"], [("a", 1, 0), ("b", BIG_N, 5)], [["a", "b"]]),
    "gcd_4300_digits": (["analyze"], [("a", BIG_N, 1)], []),
    "basechange_gcd_4300_digits": (["basechange", "-d", "7"], [("a", BIG_N, 1)], []),
    "basechange_e_4300_digits": (["basechange", "-d", "5"], [("a", BIG_N, 1)], []),
    "long_reduction_type": (["elliptic", "--type", "X" * 5000, "--vdelta", "1",
                             "--potential", "good"], None, None),
}


@pytest.mark.parametrize("name", sorted(LONG_NAMES))
def test_long_ids_symbols_and_numbers_are_shortened(capsys, tmp_path, name):
    """A vertex id, a reduction symbol or a fiber number too long to print is
    named by its first 20 characters and its length, in a NeroncalcError."""
    argv, vertices, edges = LONG_NAMES[name]
    if vertices is not None:
        path = tmp_path / "curve.json"
        _write(path, {"p": 1, "vertices": [{"id": v, "N": n, "g": g} for v, n, g in vertices],
                      "edges": edges})
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv, "--json")
    found = json.loads(err)
    assert (code, out) == (1, "")
    assert issubclass(getattr(errors, found["type"]), errors.NeroncalcError)
    assert all(len(problem) < 200 for problem in found["error"].split("; ")), found


def test_a_fiber_with_many_problems_names_three_and_the_count(capsys, tmp_path):
    """1,000 leaves of multiplicity 2 on a reduced centre: 1,001 problems
    (each leaf, then the Euler sum) on one error line of under 400 bytes."""
    path = tmp_path / "star.json"
    leaves = ["x%d" % i for i in range(1000)]
    _write(path, {"p": 1, "vertices": [{"id": "c", "N": 1, "g": 0}]
                  + [{"id": v, "N": 2, "g": 0} for v in leaves],
                  "edges": [["c", v] for v in leaves]})
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert (code, out) == (1, "")
    assert len(err.encode()) < 400
    assert json.loads(err) == {"type": "MalformedFiber", "error": (
        "multiplicity 2 of 'x0' does not divide the incident sum 1; "
        "multiplicity 2 of 'x1' does not divide the incident sum 1; "
        "multiplicity 2 of 'x2' does not divide the incident sum 1; ... (1001 problems)")}
