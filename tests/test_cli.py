"""End-to-end tests for the command-line interface.

Every command is exercised through a real subprocess so exit codes,
stream separation, and byte determinism are observed exactly as a shell
user would see them.  One test calls ``cli.main`` in-process several
times, as a long-lived caller would.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from envylattice import GenParams, cli, generate_responsive_market, serialize

from conftest import AXIOM_FATAL_PATH, LATTICE_PATH, NO_LAD_PATH, PI_PAIR_PATH, RESPONSIVE_PATH


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("ENVYLATTICE_ENUM_CAP", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "envylattice", *args],
        capture_output=True,
        env=env,
    )


def split_json_and_line(stdout: bytes):
    # commands that emit a JSON doc followed by one human summary line
    *doc_lines, line = stdout.decode().strip().split("\n")
    return json.loads("\n".join(doc_lines)), line


def test_validate_ok_exit_zero():
    proc = run_cli("validate", str(NO_LAD_PATH))
    assert proc.returncode == 0
    doc, line = split_json_and_line(proc.stdout)
    assert doc["ok"] is True
    assert line.startswith("ok: ")
    # the d2 aggregate-demand finding is informative, not fatal
    assert "informative finding" in line
    assert proc.stderr == b""


def test_validate_fatal_exit_two(tmp_path):
    doc = json.loads(NO_LAD_PATH.read_text())
    # drop one row from d2's table so the choice function is partial
    doc["doctors"][1]["table"] = doc["doctors"][1]["table"][:-1]
    bad = tmp_path / "partial.market.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 2
    payload, line = split_json_and_line(proc.stdout)
    assert payload["ok"] is False
    assert line.startswith("error: ")


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 2
    payload, line = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "parse"
    assert line.startswith("error: ")


def test_bool_quota_exit_two(tmp_path):
    doc = json.loads(NO_LAD_PATH.read_text())
    doc["hospitals"][0]["quota"] = True
    bad = tmp_path / "bool-quota.market.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 2
    payload, line = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "parse"
    assert "quota" in line


@pytest.mark.parametrize("argv", [("validate",), ("check", "--allocation", "x11")])
def test_non_utf8_market_is_a_parse_error(tmp_path, argv):
    bad = tmp_path / "latin1.market.json"
    bad.write_bytes(b"\x80" + NO_LAD_PATH.read_bytes())
    command, *rest = argv
    proc = run_cli(command, str(bad), *rest)
    assert proc.returncode == 2
    payload, line = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "parse"
    assert line.startswith("error: not valid JSON")
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [("validate",), ("check", "--allocation", "")])
def test_deep_nesting_is_a_parse_error(tmp_path, argv):
    bad = tmp_path / "deep.market.json"
    bad.write_text('{"contracts": ' + "[" * 5_000 + "]" * 5_000 + "}")
    command, *rest = argv
    proc = run_cli(command, str(bad), *rest)
    assert proc.returncode == 2
    payload, line = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "parse"
    assert line.startswith("error: not valid JSON")
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "reference, message",
    [
        ({"cover_edges": [[[1], ["x"]]]}, "cover_edges sides must be lists of contract ids"),
        ({"envy_free": [["x11", "nosuch"]]}, "unknown contract ids: ['nosuch']"),
        ({"cover_edges": [[[], ["nosuch"]]]}, "unknown contract ids: ['nosuch']"),
        # JSON true == 1, so boolean counts once reconciled as matches
        ({"counts": {"envy_free": True, "stable": 4}}, "reference.counts.envy_free must be an integer"),
        ({"counts": {"envy_free": 2, "stable": True}}, "reference.counts.stable must be an integer"),
    ],
)
def test_lattice_refuses_bad_reference_before_output(tmp_path, reference, message):
    doc = json.loads(NO_LAD_PATH.read_text())
    doc["reference"] = reference
    bad = tmp_path / "bad-reference.market.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli("lattice", str(bad), "--format", "json")
    assert proc.returncode == 2
    # the error report is all of stdout: no graph was printed first
    payload, line = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "parse"
    assert message in payload["error"]["message"]
    assert line.startswith("error: ")
    assert proc.stderr == b""


def test_missing_file_exit_two(tmp_path):
    proc = run_cli("check", str(tmp_path / "absent.json"), "--allocation", "x11")
    assert proc.returncode == 2
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "parse"
    assert "cannot read" in payload["error"]["message"]


def test_check_classification_and_summary_line():
    proc = run_cli("check", str(NO_LAD_PATH), "--allocation", "x11,x23")
    assert proc.returncode == 0
    doc, line = split_json_and_line(proc.stdout)
    assert doc["is_envy_free"] is True
    assert doc["is_stable"] is False
    assert doc["blocking"] == ["x12"]
    assert line == "allocation ✓, IR ✓, envy-free ✓, stable ✗, blocking {x12}"


def test_check_unknown_contract_is_refusal():
    proc = run_cli("check", str(NO_LAD_PATH), "--allocation", "x11,zzz")
    assert proc.returncode == 1
    payload, line = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "refusal"
    assert "zzz" in payload["error"]["message"]
    assert line.startswith("error: ")


def test_enumerate_count_only():
    proc = run_cli("enumerate", str(NO_LAD_PATH), "--class", "stable", "--count-only")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"class": "stable", "count": 2}


def test_enumerate_lists_allocations():
    proc = run_cli("enumerate", str(NO_LAD_PATH), "--class", "envy-free")
    doc = json.loads(proc.stdout)
    assert doc["count"] == 11
    assert len(doc["allocations"]) == 11
    assert doc["allocations"][0] == []
    assert ["x11", "x12", "x23"] in doc["allocations"]


def test_enumerate_cap_refusal():
    proc = run_cli(
        "enumerate", str(NO_LAD_PATH), "--class", "stable",
        env_extra={"ENVYLATTICE_ENUM_CAP": "3"},
    )
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "refusal"


def test_meet_cap_refusal():
    proc = run_cli(
        "meet", str(NO_LAD_PATH), "--left", "x11,x23", "--right", "x13,x21,x22",
        env_extra={"ENVYLATTICE_ENUM_CAP": "3"},
    )
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "refusal"
    assert "enumeration cap is 3" in payload["error"]["message"]


def test_deep_search_is_a_refusal(tmp_path):
    market = generate_responsive_market(GenParams(1200, 1200, 1200, seed=1))
    path = tmp_path / "deep.market.json"
    path.write_text(serialize.market_to_text(market))
    for argv in (
        *(("enumerate", str(path), "--class", kind) for kind in ("allocation", "ir", "envy-free")),
        ("lattice", str(path), "--format", "json"),
        *(("enumerate", str(path), "--class", kind, "--count-only") for kind in ("ir", "envy-free")),
    ):
        proc = run_cli(*argv, env_extra={"ENVYLATTICE_ENUM_CAP": "100000"})
        assert proc.returncode == 1, argv
        payload, line = split_json_and_line(proc.stdout)
        assert payload["error"]["type"] == "refusal"
        assert payload["error"]["message"].endswith("levels deep, past the recursion limit")
        assert line == f"error: {payload['error']['message']}"
        assert proc.stderr == b""


def test_count_only_is_refused_like_the_listing():
    # responsive_demo has 31 contracts, above the default cap of 22
    for kind in ("allocation", "ir", "envy-free", "stable"):
        listing = run_cli("enumerate", str(RESPONSIVE_PATH), "--class", kind)
        counting = run_cli("enumerate", str(RESPONSIVE_PATH), "--class", kind, "--count-only")
        assert listing.returncode == counting.returncode == 1, kind
        assert (counting.stdout, counting.stderr) == (listing.stdout, listing.stderr), kind


def test_count_past_the_digit_limit_is_a_refusal(tmp_path, monkeypatch, capsys):
    # Huge X=10,000 has about 1,000 digits of allocations, above a 640 limit
    market = generate_responsive_market(
        GenParams(500, 330, 10000, seed=1, doctor_quota=(1, 3), hospital_quota=(1, 4))
    )
    path = tmp_path / "huge.market.json"
    path.write_text(serialize.market_to_text(market))
    monkeypatch.setenv("ENVYLATTICE_ENUM_CAP", "100000")
    argv = ["enumerate", str(path), "--class", "allocation", "--count-only"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = cli.main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert code == 1
    payload, line = split_json_and_line(out.encode())
    assert payload["error"] == {
        "type": "refusal",
        "message": "cannot print an integer of more than 640 digits, "
        "Python's limit for integer-to-text conversion",
    }
    assert line == f"error: {payload['error']['message']}"
    assert err == ""
    assert cli.main(argv) == 0
    assert 640 < len(str(json.loads(capsys.readouterr().out)["count"])) < limit


def test_meet_checks_its_inputs_before_the_cap():
    # responsive_demo has 31 contracts, above the default cap of 22
    proc = run_cli("meet", str(RESPONSIVE_PATH), "--left", "", "--right", "")
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["message"] == "market has 31 contracts, enumeration cap is 22"
    proc = run_cli("meet", str(RESPONSIVE_PATH), "--left", "x11", "--right", "")
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["message"] == "allocation ('x11',) is not envy-free"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--class", "stable"),
        ("lattice", "--format", "json"),
        ("meet", "--left", "x11,x23", "--right", "x13,x21,x22"),
        ("verify-lad", "--from", "x11,x23"),
    ],
    ids=lambda argv: argv[0],
)
def test_bad_enum_cap_env_refuses_every_search(argv):
    command, *rest = argv
    proc = run_cli(command, str(NO_LAD_PATH), *rest, env_extra={"ENVYLATTICE_ENUM_CAP": "many"})
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["message"] == "ENVYLATTICE_ENUM_CAP must be an integer, got 'many'"


def test_enum_cap_env_must_be_integer():
    proc = run_cli(
        "enumerate", str(NO_LAD_PATH), "--class", "stable",
        env_extra={"ENVYLATTICE_ENUM_CAP": "many"},
    )
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert "must be an integer" in payload["error"]["message"]


def test_empty_enum_cap_env_is_refused():
    proc = run_cli(
        "lattice", str(NO_LAD_PATH), "--format", "json",
        env_extra={"ENVYLATTICE_ENUM_CAP": ""},
    )
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["message"] == "ENVYLATTICE_ENUM_CAP must be an integer, got ''"


def test_lattice_json_and_reconciliation_streams():
    proc = run_cli("lattice", str(LATTICE_PATH), "--format", "json")
    assert proc.returncode == 0
    graph = json.loads(proc.stdout)
    assert len(graph["nodes"]) == 22
    assert len(graph["covers"]) == 34
    assert graph["nodes"][graph["bottom"]] == []
    # reconciliation of the bundled reference block goes to stderr only
    stderr = proc.stderr.decode()
    head, _, table = stderr.partition("\n}\n")
    recon = json.loads(head + "\n}")
    assert recon["mismatches"] == 37
    assert "47 claims, 37 mismatch(es)" in table


def test_lattice_without_reference_block_has_quiet_stderr():
    proc = run_cli("lattice", str(NO_LAD_PATH), "--format", "json")
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_lattice_dot_output():
    proc = run_cli("lattice", str(NO_LAD_PATH), "--format", "dot")
    out = proc.stdout.decode()
    assert out.startswith("digraph envy_free_lattice {")
    assert out.rstrip().endswith("}")
    assert "∅" in out


def test_join_command():
    proc = run_cli(
        "join", str(NO_LAD_PATH), "--left", "x11,x23", "--right", "x13,x21,x22"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"join": ["x11", "x23"]}


def test_join_rejects_non_ir_operand():
    proc = run_cli("join", str(NO_LAD_PATH), "--left", "x11,x13", "--right", "x23")
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "refusal"


def test_meet_command():
    proc = run_cli(
        "meet", str(LATTICE_PATH),
        "--left", "x11,x12,x21,y22", "--right", "x11,x12,x22,y21",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"meet": ["x11", "x12", "y21", "y22"]}


def test_tarski_json():
    proc = run_cli("tarski", str(NO_LAD_PATH), "--from", "x11,x23")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "fixed_point": ["x11", "x12", "x23"],
        "iterations": 1,
    }


def test_tarski_trace_text():
    proc = run_cli("tarski", str(NO_LAD_PATH), "--from", "x11,x23", "--trace")
    out = proc.stdout.decode()
    assert "step 0: {x11, x23}" in out
    assert "fixed point: {x11, x12, x23}" in out
    assert "iterations: 1" in out


def test_tarski_rejects_non_envy_free_start():
    proc = run_cli("tarski", str(NO_LAD_PATH), "--from", "x12")
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "refusal"


def test_vacancy_chain_json():
    proc = run_cli(
        "vacancy-chain", str(NO_LAD_PATH), "--stable", "x13,x21,x22", "--retire", "d1"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "reduced_contracts": ["x21", "x22", "x23"],
        "restriction": ["x21", "x22"],
        "fixed_point": ["x23"],
        "iterations": 1,
    }


def test_vacancy_chain_trace():
    proc = run_cli(
        "vacancy-chain", str(NO_LAD_PATH),
        "--stable", "x13,x21,x22", "--retire", "d1", "--trace",
    )
    out = proc.stdout.decode()
    assert out.startswith("reduced market contracts: {x21, x22, x23}")
    assert "fixed point: {x23}" in out


def test_vacancy_chain_requires_stable_before():
    proc = run_cli(
        "vacancy-chain", str(NO_LAD_PATH), "--stable", "x11,x23", "--retire", "d1"
    )
    assert proc.returncode == 1
    payload, _ = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "refusal"


def test_random_writes_valid_market(tmp_path):
    out = tmp_path / "market.json"
    proc = run_cli(
        "random", "--doctors", "2", "--hospitals", "2",
        "--contracts", "6", "--seed", "5", "--out", str(out),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"out": str(out), "contracts": 6}
    check = run_cli("validate", str(out))
    assert check.returncode == 0

    # the same seed writes the same bytes
    out2 = tmp_path / "market2.json"
    run_cli(
        "random", "--doctors", "2", "--hospitals", "2",
        "--contracts", "6", "--seed", "5", "--out", str(out2),
    )
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("out", ["missing/market.json", "."], ids=["no-directory", "directory"])
def test_random_unwritable_out_is_a_refusal(tmp_path, out):
    target = tmp_path / out
    proc = run_cli(
        "random", "--doctors", "2", "--hospitals", "2",
        "--contracts", "6", "--seed", "5", "--out", str(target),
    )
    assert proc.returncode == 1
    payload, line = split_json_and_line(proc.stdout)
    assert payload["error"]["type"] == "refusal"
    assert payload["error"]["message"].startswith(f"cannot write {target}: ")
    assert line.startswith("error: cannot write")
    assert proc.stderr == b""


def test_verify_lad_json():
    proc = run_cli("verify-lad", str(NO_LAD_PATH), "--from", "x11,x23")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["applicable"] is False
    assert doc["lad_failures"] == ["d2"]
    checks = doc["checks"]
    assert checks["fixed_point_equals_join"]["holds"] is False
    assert checks["fixed_point_equals_join"]["detail"]["fixed_point"] == [
        "x11", "x12", "x23",
    ]
    assert checks["fixed_point_equals_join"]["detail"]["join_with_hospital_optimal"] == [
        "x11", "x23",
    ]


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Each run is made twice and must print the same bytes both times and
# the bytes recorded in tests/golden/<id>.{stdout,stderr,exit}.  The CI
# workflow replays every run through the installed console script.
DOUBLE_RUNS = [
    pytest.param(("validate", str(NO_LAD_PATH)), id="validate"),
    pytest.param(("check", str(NO_LAD_PATH), "--allocation", "x11,x23"), id="check"),
    pytest.param(("enumerate", str(NO_LAD_PATH), "--class", "envy-free"), id="enumerate"),
    pytest.param(("lattice", str(LATTICE_PATH), "--format", "json"), id="lattice0"),
    pytest.param(("lattice", str(LATTICE_PATH), "--format", "dot"), id="lattice1"),
    pytest.param(
        ("join", str(NO_LAD_PATH), "--left", "x11,x23", "--right", "x13,x21,x22"), id="join"
    ),
    pytest.param(
        ("meet", str(LATTICE_PATH), "--left", "x11,x12,x21,y22", "--right", "x11,x12,x22,y21"),
        id="meet",
    ),
    pytest.param(("tarski", str(NO_LAD_PATH), "--from", "x21,x22", "--trace"), id="tarski"),
    pytest.param(
        ("vacancy-chain", str(NO_LAD_PATH), "--stable", "x13,x21,x22", "--retire", "d1", "--trace"),
        id="vacancy-chain",
    ),
    pytest.param(("verify-lad", str(NO_LAD_PATH), "--from", "x11,x23"), id="verify-lad"),
    *(
        pytest.param(("enumerate", str(path), "--class", kind), id=f"enumerate-{kind}-{name}")
        for name, path in (("no-lad", NO_LAD_PATH), ("lattice-demo", LATTICE_PATH))
        for kind in ("allocation", "ir", "envy-free", "stable")
        if (name, kind) != ("no-lad", "envy-free")
    ),
    pytest.param(("lattice", str(NO_LAD_PATH), "--format", "json"), id="lattice-json-no-lad"),
    pytest.param(("lattice", str(NO_LAD_PATH), "--format", "dot"), id="lattice-dot-no-lad"),
    pytest.param(
        ("meet", str(NO_LAD_PATH), "--left", "x11,x23", "--right", "x13,x21,x22"), id="meet-no-lad"
    ),
    pytest.param(
        ("meet", str(LATTICE_PATH), "--left", "x11,x12,x21,y22", "--right", "x21"),
        id="meet-outside-envy-free",
    ),
    pytest.param(
        ("verify-lad", str(LATTICE_PATH), "--from", "x11,x12,y21,y22"), id="verify-lad-lattice-demo"
    ),
    pytest.param(("validate", str(RESPONSIVE_PATH)), id="validate-responsive"),
    pytest.param(("verify-lad", str(RESPONSIVE_PATH), "--from", ""), id="verify-lad-responsive"),
    pytest.param(("validate", str(AXIOM_FATAL_PATH)), id="validate-axiom-fatal"),
    pytest.param(("validate", str(PI_PAIR_PATH)), id="validate-pi-pair"),
    *(
        pytest.param(
            ("enumerate", str(LATTICE_PATH), "--class", kind, "--count-only"),
            id=f"enumerate-count-{kind}-lattice-demo",
        )
        for kind in ("allocation", "ir", "envy-free", "stable")
    ),
    pytest.param(
        ("tarski", str(RESPONSIVE_PATH), "--from", "", "--trace"), id="tarski-responsive"
    ),
    pytest.param(
        ("vacancy-chain", str(RESPONSIVE_PATH), "--stable", "x11,x206,x208,x311,x312,x317",
         "--retire", "d2", "--trace"),
        id="vacancy-chain-responsive",
    ),
]


@pytest.mark.parametrize("argv", DOUBLE_RUNS)
def test_repeat_runs_are_byte_identical(argv, request):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    golden = GOLDEN_DIR / request.node.callspec.id
    assert first.stdout == golden.with_suffix(".stdout").read_bytes()
    assert first.stderr == golden.with_suffix(".stderr").read_bytes()
    assert first.returncode == int(golden.with_suffix(".exit").read_text())


def test_in_process_calls_print_their_golden_bytes(capsys):
    # one process reuses one parser, so no state may leak between calls
    runs = [
        (("validate", str(NO_LAD_PATH)), "validate"),
        (("check", str(NO_LAD_PATH), "--allocation", "x11,x23"), "check"),
        (("validate", str(RESPONSIVE_PATH)), "validate-responsive"),
        (("validate", str(NO_LAD_PATH)), "validate"),
    ]
    for argv, golden_id in runs:
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        golden = GOLDEN_DIR / golden_id
        assert out.encode() == golden.with_suffix(".stdout").read_bytes(), argv
        assert err.encode() == golden.with_suffix(".stderr").read_bytes(), argv
        assert code == int(golden.with_suffix(".exit").read_text()), argv
