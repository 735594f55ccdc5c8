"""End-to-end runs of every subcommand in a fresh interpreter."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
import tracemalloc

import pytest

import zecap
from zecap import blockcode, capacity, cli
from zecap.formats import dumps_canonical, graph_to_json
from zecap import SearchConfig, cycle_graph

from cliutil import load_stdout_json, run_cli, write_spec

PENTAGON_ADJACENCY = [[1, 4], [0, 2], [1, 3], [2, 4], [0, 3]]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_accepts_builtin_specs(tmp_path):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    proc = run_cli(["validate", spec])
    assert proc.returncode == 0
    assert proc.stdout.startswith("OK: pentagon")
    assert "5 states" in proc.stdout and "5-outcome POVM" in proc.stdout


def test_validate_rejects_bad_math_with_exit_1(tmp_path):
    doc = {"name": "broken", "kraus": [[[ [2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_validate_rejects_a_nan_transition_probability_with_exit_1(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"name": "x", "classical_matrix": [[NaN, 1.0], [0.0, 1.0]]}')
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "row 0 is not a probability distribution (sum = nan)" in proc.stderr


def test_missing_and_malformed_files_exit_2(tmp_path):
    proc = run_cli(["validate", str(tmp_path / "absent.json")])
    assert proc.returncode == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    proc = run_cli(["validate", str(garbled)])
    assert proc.returncode == 2
    assert "not valid JSON" in proc.stderr


# ---------------------------------------------------------------------------
# builtin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["identity-d2", "identity-d5", "depolarizing-p1.0", "dephasing-p0.5", "bitflip-p0.25", "pentagon"]
)
def test_builtin_emits_canonical_parseable_specs(name):
    proc = run_cli(["builtin", name])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["name"] == name
    assert proc.stdout == dumps_canonical(doc)


def test_builtin_unknown_name_exits_1():
    proc = run_cli(["builtin", "wormhole"])
    assert proc.returncode == 1
    assert "unknown builtin" in proc.stderr


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_pentagon_report_content(tmp_path):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    report = load_stdout_json(run_cli(["analyze", spec]))

    assert report["tool"] == "zecap"
    assert report["version"] == zecap.__version__
    assert report["channel"]["dim"] == 5
    assert report["channel"]["source"] == "classical_matrix"
    assert report["ensemble"]["provenance"] == "classical-embedding"
    assert report["seed"] is None
    assert report["supports"] == [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]
    assert report["graph"]["adjacency"] == PENTAGON_ADJACENCY
    assert report["non_adjacent_pairs"] == 5
    assert report["positive_zero_error_capacity"] is True

    rates = [e["rate"] for e in report["bounds"]["per_n"]]
    assert rates[0] == 1.0
    assert rates[1] == pytest.approx(math.log2(5.0) / 2.0, abs=1e-12)
    assert report["bounds"]["theta"]["value"] == pytest.approx(math.sqrt(5.0), abs=1e-5)
    assert report["bounds"]["theta_upper"] == pytest.approx(rates[1], abs=1e-4)

    code = report["code"]
    assert code["n"] == 2 and code["message_count"] == 5
    assert code["codewords"] == [[0, 0], [1, 2], [2, 4], [3, 1], [4, 3]]
    assert code["decoder"]["mapped_words"] == 20
    assert code["decoder"]["unreachable_words"] == 5
    assert code["certificate"]["passed"] is True
    assert code["certificate"]["paths_agree"] is True
    assert report["code_failure"] is None
    assert report["search"] is None


def test_analyze_writes_report_and_dot_atomically(tmp_path):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    out = tmp_path / "report.json"
    dot = tmp_path / "graph.dot"
    proc = run_cli(["analyze", spec, "--out", str(out), "--dot", str(dot)])
    assert proc.returncode == 0
    assert proc.stdout == ""
    report = json.loads(out.read_text())
    assert report["non_adjacent_pairs"] == 5
    assert dot.read_text().count(" -- ") == 5


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_out_and_dot_files_get_the_mode_open_would_give_them(tmp_path, monkeypatch, umask):
    # A new file is 0o666 less the umask; an overwritten file keeps its mode.
    monkeypatch.delenv("ZECAP_SEED", raising=False)
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    new = [tmp_path / "report.json", tmp_path / "graph.dot"]
    old = [tmp_path / "old.json", tmp_path / "old.dot"]
    for path in old:
        path.write_text("stale\n")
        path.chmod(0o644)
    previous = os.umask(umask)
    try:
        for out, dot in (new, old):
            assert cli.main(["analyze", spec, "--out", str(out), "--dot", str(dot)]) == 0
    finally:
        os.umask(previous)
    assert [stat.S_IMODE(p.stat().st_mode) for p in new] == [0o666 & ~umask] * 2
    assert [stat.S_IMODE(p.stat().st_mode) for p in old] == [0o644] * 2
    assert [p.read_text() for p in old] == [p.read_text() for p in new]


def test_analyze_reports_are_byte_identical_across_reruns(tmp_path):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["analyze", spec, "--out", str(a)]).returncode == 0
    assert run_cli(["analyze", spec, "--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_searches_when_the_spec_has_no_ensemble(tmp_path):
    spec = write_spec(tmp_path / "dep.json", "depolarizing-p1.0")
    report = load_stdout_json(run_cli(["analyze", spec]))
    assert report["ensemble"]["provenance"] == "searched"
    assert report["seed"] == 7
    assert report["search"]["pair_count"] == 0
    assert report["non_adjacent_pairs"] == 0
    assert report["positive_zero_error_capacity"] is False
    assert report["bounds"]["best_lower"] == 0.0
    # One message still travels: the trivial single-codeword block code.
    assert report["code"]["message_count"] == 1
    assert report["code"]["rate"] == 0.0
    assert report["code"]["certificate"]["passed"] is True


def test_analyze_finds_the_bitflip_x_basis_pair(tmp_path):
    spec = write_spec(tmp_path / "bf.json", "bitflip-p0.1")
    report = load_stdout_json(run_cli(["analyze", spec]))
    assert report["ensemble"]["provenance"] == "searched"
    assert report["non_adjacent_pairs"] == 1
    assert report["positive_zero_error_capacity"] is True
    assert [e["alpha"] for e in report["bounds"]["per_n"]] == [2, 4]
    assert report["code"]["certificate"]["passed"] is True
    assert report["code"]["certificate"]["paths_agree"] is True


def test_analyze_at_a_large_eps_searches_past_empty_supports(tmp_path):
    # At eps = 0.9 the computational start (p = 0.7 / 0.3) leaves both
    # supports empty; the search must not keep it, or the graph is refused.
    spec = write_spec(tmp_path / "bf.json", "bitflip-p0.3")
    report = load_stdout_json(run_cli(["analyze", spec, "--eps", "0.9"]))
    assert report["supports"] == [[0], [1]]
    assert [e["alpha"] for e in report["bounds"]["per_n"]] == [2, 4]
    assert report["code"]["certificate"]["passed"] is True


@pytest.mark.parametrize(
    "name",
    [
        "identity-d2",
        "identity-d3",
        "identity-d5",
        "depolarizing-p0.3",
        "depolarizing-p1.0",
        "dephasing-p0.5",
        "bitflip-p0.1",
        "bitflip-p0.25",
    ],
)
def test_searched_builtins_start_at_the_objective_bound(tmp_path, name):
    # One of the two starts already reaches the bound on every searched builtin.
    spec = write_spec(tmp_path / f"{name}.json", name)
    search = load_stdout_json(run_cli(["analyze", spec]))["search"]
    assert search["pair_count"] == search["objective_bound"]


def test_analyze_seed_env_var_is_recorded(tmp_path):
    spec = write_spec(tmp_path / "dep.json", "depolarizing-p0.5")
    report = load_stdout_json(run_cli(["analyze", spec], env_extra={"ZECAP_SEED": "11"}))
    assert report["seed"] == 11
    assert report["search"]["seed"] == 11


def test_search_defaults_are_search_configs(monkeypatch):
    # The CLI reads its defaults off SearchConfig, so a change there reaches it.
    @dataclasses.dataclass(frozen=True)
    class Config(SearchConfig):
        seed: int = 11

    monkeypatch.setattr(cli, "SearchConfig", Config)
    monkeypatch.delenv("ZECAP_SEED", raising=False)
    args = cli._build_parser().parse_args(["search", "spec.json"])
    assert args.seed is None
    assert cli._env_seed() == 11
    monkeypatch.setenv("ZECAP_SEED", "4")
    assert cli._env_seed() == 4


def test_a_malformed_seed_env_var_is_rejected(tmp_path):
    spec = write_spec(tmp_path / "id2.json", "identity-d2")
    args = ["search", spec]
    for cmd in (args, ["analyze", spec]):
        proc = run_cli(cmd, env_extra={"ZECAP_SEED": "abc"})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: ZECAP_SEED must be an integer, got 'abc'\n"
    # An explicit --seed still wins, so the variable is never read.
    doc = load_stdout_json(run_cli([*args, "--seed", "3"], env_extra={"ZECAP_SEED": "abc"}))
    assert doc["seed"] == 3


# bitflip-p0.1 draws its S-start from the seed; identity-d3 stops before it.
@pytest.mark.parametrize("name", ["bitflip-p0.1", "identity-d3"])
@pytest.mark.parametrize(
    "args, env",
    [
        (["search", "--seed", "-1"], None),
        (["search"], {"ZECAP_SEED": "-1"}),
        (["analyze"], {"ZECAP_SEED": "-1"}),
    ],
    ids=["search-flag", "search-env", "analyze-env"],
)
def test_a_negative_seed_is_rejected_whether_or_not_the_search_draws(tmp_path, name, args, env):
    spec = write_spec(tmp_path / f"{name}.json", name)
    proc = run_cli([args[0], spec, *args[1:]], env_extra=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"


def test_analyze_eps_flag_changes_the_graph(tmp_path):
    # One transition probability of 5e-9 straddles the two cutoffs.
    doc = {"name": "fragile", "classical_matrix": [[1.0 - 5e-9, 5e-9], [0.0, 1.0]]}
    path = tmp_path / "fragile.json"
    path.write_text(json.dumps(doc))
    near = load_stdout_json(run_cli(["analyze", str(path)]))
    assert near["graph"]["adjacency"] == [[1], [0]]
    assert near["fragile_probability_count"] >= 1
    far = load_stdout_json(run_cli(["analyze", str(path), "--eps", "1e-7"]))
    assert far["graph"]["adjacency"] == [[], []]
    assert far["eps_support"] == 1e-7


def test_analyze_n_max_flag_extends_block_lengths(tmp_path):
    spec = write_spec(tmp_path / "id2.json", "identity-d2")
    report = load_stdout_json(run_cli(["analyze", spec, "--n-max", "3"]))
    entries = report["bounds"]["per_n"]
    assert [e["n"] for e in entries] == [1, 2, 3]
    assert [e["alpha"] for e in entries] == [2, 4, 8]
    assert report["ensemble"]["provenance"] == "searched"


ANALYZE_SOLVE_CASES = [
    *((name, "2") for name in (
        "pentagon",
        "identity-d3",
        "identity-d5",
        "depolarizing-p0.3",
        "dephasing-p0.5",
        "bitflip-p0.1",
    )),
    ("identity-d3", "3"),
    ("dephasing-p0.5", "3"),
]


@pytest.mark.parametrize("name, n_max", ANALYZE_SOLVE_CASES)
def test_analyze_solves_each_block_length_once(tmp_path, monkeypatch, name, n_max):
    # The report's code is the witness capacity_bounds found, so blockcode
    # builds no strong power and runs no exact solve of its own.
    monkeypatch.delenv("ZECAP_SEED", raising=False)
    calls = {}

    def counted(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            key = f"{module.__name__}.{attr}"
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    counted(blockcode, "strong_power")
    counted(blockcode, "independence_number")
    counted(capacity, "independence_number")
    spec = write_spec(tmp_path / f"{name}.json", name)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", spec, "--n-max", n_max, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    solved = [e for e in report["bounds"]["per_n"] if not e["skipped"]]
    assert calls == {"zecap.capacity.independence_number": len(solved)}
    assert report["code"]["certificate"]["passed"] is True


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_subcommand_reports_the_pair(tmp_path):
    spec = write_spec(tmp_path / "id2.json", "identity-d2")
    doc = load_stdout_json(run_cli(["search", spec, "--seed", "3"]))
    assert doc["pair_count"] == 1
    assert doc["alpha_1"] == 2
    assert doc["seed"] == 3
    assert doc["graph"]["adjacency"] == [[], []]
    assert len(doc["states"]) == 2 and len(doc["povm"]) == 2


def test_search_stdout_is_deterministic(tmp_path):
    # bitflip-p0.1 is searched to its S-start, the one draw from the seed.
    spec = write_spec(tmp_path / "bf.json", "bitflip-p0.1")
    args = ["search", spec, "--seed", "5"]
    first = run_cli(args).stdout
    assert load_stdout_json(run_cli(args))["pair_count"] == 1
    assert run_cli(args).stdout == first


def test_search_overcomplete_requires_the_flag(tmp_path):
    spec = write_spec(tmp_path / "id2.json", "identity-d2")
    proc = run_cli(["search", spec, "--M", "3"])
    assert proc.returncode == 1
    assert "allow_overcomplete" in proc.stderr
    doc = load_stdout_json(run_cli(["search", spec, "--M", "3", "--allow-overcomplete"]))
    assert doc["pair_count"] == 2


def test_the_general_povm_option_is_gone(tmp_path):
    # Both starts measure with a projective rank-one POVM of d outcomes, so
    # there is no measurement mode to choose.
    spec = write_spec(tmp_path / "id2.json", "identity-d2")
    proc = run_cli(["search", spec, "--general-povm"])
    assert proc.returncode == 2
    assert "unrecognized arguments: --general-povm" in proc.stderr
    assert "general_povm" not in load_stdout_json(run_cli(["search", spec]))


@pytest.mark.parametrize("option", ["--restarts", "--iters"])
def test_the_search_budget_options_are_gone(tmp_path, option):
    # The search scores two fixed starts; there is no budget to set.
    spec = write_spec(tmp_path / "id2.json", "identity-d2")
    proc = run_cli(["search", spec, option, "1"])
    assert proc.returncode == 2
    assert f"unrecognized arguments: {option} 1" in proc.stderr


@pytest.mark.parametrize(
    "args,message",
    [
        (["analyze", "--n-max", "0"], "n_max must be >= 1, got 0"),
        (["analyze", "--eps", "0"], "eps must be positive, got 0.0"),
        (["analyze", "--eps", "-1"], "eps must be positive, got -1.0"),
        (["analyze", "--eps", "nan"], "eps must be positive, got nan"),
        (["search", "--M", "1"], "num_states must be >= 2"),
    ],
)
def test_out_of_range_options_print_one_error_line(tmp_path, args, message):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    proc = run_cli([args[0], spec, *args[1:]])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# code
# ---------------------------------------------------------------------------


def test_code_subcommand_builds_the_pentagon_code(tmp_path):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    out = tmp_path / "code.json"
    proc = run_cli(["code", spec, "--n", "2", "--out", str(out)])
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["message_count"] == 5
    assert doc["codewords"] == [[0, 0], [1, 2], [2, 4], [3, 1], [4, 3]]
    assert doc["decoder"]["mapped_words"] == 20
    assert len(doc["decoder"]["table"]) == 20
    assert doc["certificate"]["passed"] is True


def test_code_subcommand_over_the_cap_exits_1(tmp_path):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    proc = run_cli(["code", spec, "--n", "3"])
    assert proc.returncode == 1
    assert "error" in proc.stderr


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_subcommand_on_a_graph_file(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(dumps_canonical(graph_to_json(cycle_graph(5))))
    doc = load_stdout_json(run_cli(["theta", str(path)]))
    # The report's view of a theta result, plus the bound in bits.
    assert sorted(doc) == sorted(
        ["value", "lower", "upper", "gap", "iterations", "converged", "theta_upper_bits"]
    )
    assert doc["value"] == pytest.approx(math.sqrt(5.0), abs=1e-5)
    assert doc["converged"] is True
    assert doc["gap"] <= 1e-6
    assert doc["theta_upper_bits"] == pytest.approx(math.log2(math.sqrt(5.0)), abs=1e-5)


def test_an_unconverged_theta_subcommand_prints_its_bracket_and_exits_0(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(zecap.theta, "_MAX_ITERATIONS", 2)
    path = tmp_path / "c5.json"
    path.write_text(dumps_canonical(graph_to_json(cycle_graph(5))))
    assert cli.main(["theta", str(path), "--tol", "1e-12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is False and doc["iterations"] <= 2
    assert doc["lower"] <= math.sqrt(5.0) <= doc["upper"]
    assert doc["gap"] == doc["upper"] - doc["lower"] > 1e-12
    assert doc["theta_upper_bits"] == math.log2(doc["upper"])


def test_theta_subcommand_rejects_asymmetric_adjacency(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertex_count": 2, "adjacency": [[1], []]}))
    proc = run_cli(["theta", str(path)])
    assert proc.returncode == 1
    assert "edge (0, 1) is not listed symmetrically" in proc.stderr


def test_theta_refuses_an_oversized_graph_file_before_building_its_matrix(tmp_path, capsys):
    # The 20,000 x 20,000 adjacency matrix would take 400 MB.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertex_count": 20_000, "adjacency": [[]] * 20_000}))
    tracemalloc.start()
    try:
        code = cli.main(["theta", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "20000 vertices exceeds the limit of 100" in capsys.readouterr().err
    assert peak < 50 * 2**20


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertex_count": 2, "adjacency": [[True], [False]]}, "invalid neighbor True"),
        ({"vertex_count": True, "adjacency": [[]]}, '"vertex_count" must be a positive integer'),
    ],
    ids=["boolean-neighbor", "boolean-vertex-count"],
)
def test_theta_subcommand_rejects_json_booleans_as_integers(tmp_path, doc, message):
    # The schema's "integer" excludes true and false, though Python's bool is an int.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["theta", str(path)])
    assert proc.returncode == 1
    assert message in proc.stderr


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"name": "bool-kraus", "kraus": [[[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
            "kraus[0]: entry (0, 0) is not an [re, im] pair",
        ),
        (
            {"name": "bool-classical", "classical_matrix": [[True, 0], [0, 1]]},
            "classical_matrix: entries must be real numbers",
        ),
    ],
    ids=["kraus", "classical-matrix"],
)
def test_validate_rejects_json_booleans_as_numbers(tmp_path, doc, message):
    # The schema's "number" excludes true and false, though Python's bool is an int.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 1
    assert message in proc.stderr


@pytest.mark.parametrize(
    "dim", ["x", None, True, 2.7], ids=["string", "null", "boolean", "fraction"]
)
def test_validate_rejects_a_dim_that_is_not_a_positive_integer(tmp_path, dim):
    # int() would crash on "x" and null, read true as 1, and read 2.7 as 2,
    # which would pass this qubit spec.
    doc = {"name": "bad-dim", "dim": dim, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(["validate", str(path)])
    assert proc.returncode == 1
    assert f'spec "dim" must be a positive integer, got {dim!r}' in proc.stderr


@pytest.mark.parametrize(
    "dim, message",
    [
        ("bogus", "spec \"dim\" must be a positive integer, got 'bogus'"),
        (2, 'spec "dim" = 2 but the channel is 3-dimensional'),
    ],
    ids=["string", "wrong-size"],
)
def test_validate_checks_the_dim_of_a_classical_spec(tmp_path, capsys, dim, message):
    # A classical spec embeds into max(inputs, outputs) = 3 dimensions here.
    doc = {"name": "x", "dim": dim, "classical_matrix": [[1, 0, 0], [0, 0.5, 0.5]]}
    path = tmp_path / "classical.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    doc["dim"] = 3
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith("OK: x: dim 3,")
