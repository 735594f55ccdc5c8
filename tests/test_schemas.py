"""The JSON schemas in ``schemas/`` against real CLI and library output."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
referencing = pytest.importorskip("referencing")
from referencing.jsonschema import DRAFT202012

import zecap.capacity
from zecap import cli, cycle_graph
from zecap.blockcode import ZeroErrorReport
from zecap.capacity import CapacityBounds, RateEntry
from zecap.theta import ThetaResult
from zecap.formats import graph_to_json

from cliutil import load_stdout_json, run_cli, write_spec

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


# The schemas have no $id and refer to each other by file name, so each one
# is registered under its file name.
REGISTRY = referencing.Registry().with_resources(
    (path.name, DRAFT202012.create_resource(json.loads(path.read_text())))
    for path in sorted(SCHEMA_DIR.glob("*.schema.json"))
)


def validate(doc, schema_file: str) -> None:
    validator = jsonschema.Draft202012Validator({"$ref": schema_file}, registry=REGISTRY)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    assert not errors, "\n".join(f"{list(e.absolute_path)}: {e.message}" for e in errors)


def test_every_schema_is_a_valid_draft_2020_12_schema():
    paths = sorted(SCHEMA_DIR.glob("*.schema.json"))
    assert [p.name for p in paths] == [
        "channel_spec.schema.json",
        "code.schema.json",
        "graph.schema.json",
        "report.schema.json",
    ]
    for path in paths:
        jsonschema.Draft202012Validator.check_schema(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "name, provenance", [("pentagon", "classical-embedding"), ("depolarizing-p0.3", "searched")]
)
def test_analyze_reports_match_the_report_schema(tmp_path, name, provenance):
    spec = write_spec(tmp_path / f"{name}.json", name)
    report = load_stdout_json(run_cli(["analyze", spec]))
    assert report["ensemble"]["provenance"] == provenance
    assert (report["search"] is None) == (provenance != "searched")
    validate(report, "report.schema.json")


def test_code_output_matches_the_code_schema(tmp_path):
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    doc = load_stdout_json(run_cli(["code", spec, "--n", "2"]))
    assert doc["message_count"] == 5
    validate(doc, "code.schema.json")


def test_a_search_document_matches_the_search_schema(tmp_path):
    spec = write_spec(tmp_path / "id2.json", "identity-d2")
    doc = load_stdout_json(run_cli(["search", spec]))
    assert doc["pair_count"] == 1
    validate(doc, "report.schema.json#/$defs/search")


def test_builtin_spec_matches_the_channel_spec_schema():
    validate(load_stdout_json(run_cli(["builtin", "pentagon"])), "channel_spec.schema.json")


def test_graph_json_matches_the_graph_schema():
    validate(graph_to_json(cycle_graph(5)), "graph.schema.json")


@pytest.mark.parametrize(
    "cls, schema_file, pointer",
    [
        (RateEntry, "report.schema.json", "$defs/rateEntry"),
        (CapacityBounds, "report.schema.json", "properties/bounds"),
        (ThetaResult, "report.schema.json", "$defs/theta"),
        (ZeroErrorReport, "code.schema.json", "$defs/certificate"),
    ],
    ids=["rateEntry", "bounds", "theta", "certificate"],
)
def test_each_report_block_documents_exactly_the_fields_of_its_dataclass(cls, schema_file, pointer):
    # These blocks are written with dataclasses.asdict, so a new field reaches
    # every report: it has to be documented (and required) here too.
    block = json.loads((SCHEMA_DIR / schema_file).read_text())
    for key in pointer.split("/"):
        block = block[key]
    fields = sorted(f.name for f in dataclasses.fields(cls))
    assert sorted(block["properties"]) == fields
    assert sorted(block["required"]) == fields


def test_schema_violations_are_reported():
    doc = graph_to_json(cycle_graph(5))
    doc["vertex_count"] = 0
    with pytest.raises(AssertionError, match="vertex_count"):
        validate(doc, "graph.schema.json")


def test_an_unconverged_theta_still_reports_its_certified_upper_bound(tmp_path, monkeypatch):
    solve = zecap.capacity.lovasz_theta
    results = []

    def recorded(g):
        results.append(solve(g))
        return results[-1]

    monkeypatch.setattr(zecap.theta, "_MAX_ITERATIONS", 2)
    monkeypatch.setattr(zecap.capacity, "lovasz_theta", recorded)
    spec = write_spec(tmp_path / "pent.json", "pentagon")
    out = tmp_path / "report.json"
    assert cli.main(["analyze", spec, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    bounds = report["bounds"]
    [theta] = results
    assert theta.converged is False
    assert bounds["theta"]["converged"] is False
    assert bounds["theta"]["upper"] == theta.upper
    assert bounds["theta_failure"] is None
    assert bounds["theta_upper"] == math.log2(theta.upper) >= math.log2(math.sqrt(5.0))
    validate(report, "report.schema.json")
