"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from prodform import (
    Family,
    Relation,
    analyze,
    cli,
    higher_level,
    random_rates,
    stationary,
)

from util import reference_cut_residual, reference_relation_residual

# ---- helpers ----


def _generate(tmp_path, family: str, *flags: str) -> str:
    path = str(tmp_path / f"{family}.json")
    assert cli.main(["generate", family, *flags, "--out", path]) == cli.EXIT_OK
    return path


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _analyze(tmp_path, doc_path: str, *flags: str) -> dict:
    out = str(tmp_path / "report.json")
    assert cli.main(["analyze", doc_path, *flags, "--out", out]) == cli.EXIT_OK
    return _read_json(out)


# ---- document schema ----


def test_parse_rejects_malformed_json_with_position():
    with pytest.raises(cli.InvalidArgumentError, match=r"line 2 column 13"):
        cli.parse_document('{\n  "nodes": [}')


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[]", "JSON object"),
        ('{"kind": "mc", "nodes": [], "edges": []}', "ctmc"),
        ('{"nodes": "ab", "edges": []}', "list of label"),
        ('{"nodes": ["a"], "edges": {}}', "list of objects"),
        ('{"nodes": ["a", "b"], "edges": [{"from": "a"}]}', "malformed edge"),
        (
            '{"nodes": ["a", "b"], "edges": [{"from": ["a"], "to": "b"}, {"from": "b", "to": "a"}]}',
            "endpoints must be label strings",
        ),
        (
            '{"nodes": ["a", "b"], "edges": [{"from": "a", "to": "b", "rate": "x"}]}',
            "must be a number",
        ),
        (
            '{"nodes": ["a", "b"], "edges": '
            '[{"from": "a", "to": "b", "rate": 1.0}, {"from": "b", "to": "a"}]}',
            "every edge carries a rate or none",
        ),
        pytest.param(
            '{"nodes": ["a", "b"], "edges": [{"from": "a", "to": "b", "rate": 1'
            + "0" * 400
            + '}, {"from": "b", "to": "a", "rate": 1}]}',
            "rate of edge a->b overflows a float",
            id="rate-too-large-for-a-float",
        ),
        pytest.param(
            '{"nodes": ["a"], "edges": [], "size": ' + "9" * 5000 + "}",
            "parse error",
            id="integer-over-the-digit-limit",
        ),
    ],
)
def test_parse_rejects_invalid_documents(doc: str, message: str):
    with pytest.raises(cli.InvalidArgumentError, match=message):
        cli.parse_document(doc)


def test_round_trip_normalizes_node_order():
    doc = cli.parse_document(
        json.dumps(
            {
                "name": "loop",
                "kind": "ctmc",
                "nodes": ["c", "a", "b"],
                "edges": [
                    {"from": "c", "to": "a"},
                    {"from": "a", "to": "b"},
                    {"from": "b", "to": "c"},
                ],
            }
        )
    )
    chain, _ = cli.document_to_chain(doc)
    emitted = cli.emit_document(chain, doc.name)
    assert emitted.nodes == ("a", "b", "c")
    assert emitted.edges == (("a", "b"), ("b", "c"), ("c", "a"))
    chain2, _ = cli.document_to_chain(emitted)
    assert cli.emit_document(chain2, doc.name) == emitted


def test_round_trip_fixed_point_for_generated_documents(tmp_path):
    path = _generate(tmp_path, "msj")
    doc = cli.parse_document(Path(path).read_text(encoding="utf-8"))
    chain, _ = cli.document_to_chain(doc)
    assert cli.emit_document(chain, doc.name) == doc


# ---- exit codes ----


def test_exit_code_for_unparsable_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli.main(["analyze", str(bad)]) == cli.EXIT_INPUT
    assert "line 1 column 1" in capsys.readouterr().err


def test_exit_code_for_missing_file():
    assert cli.main(["analyze", "/nonexistent/chain.json"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("command", ["analyze", "verify", "oracle", "export"])
@pytest.mark.parametrize(
    ("content", "message"),
    [(b'\xff\xfe{"nodes": []}', "is not UTF-8 text"), (b"[" * 200_000, "nests too deeply")],
    ids=["not-utf8", "deeply-nested"],
)
def test_undecodable_or_deeply_nested_input_is_an_input_error(tmp_path, capsys, command, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    capsys.readouterr()
    assert cli.main([command, str(path)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


_EDGE = {"from": "a", "to": "b"}
_LONG = "x" * 100_000


@pytest.mark.parametrize(
    ("doc", "code"),
    [
        ({"nodes": ["a", "b"], "edges": [{"from": "x" * 500_000}]}, cli.EXIT_INPUT),
        ({"nodes": ["a", "b"], "edges": [{"from": ["a"] * 20_000, "to": "b"}]}, cli.EXIT_INPUT),
        ({"nodes": ["a", "b"], "edges": [{**_EDGE, "rate": "9" * 500_000}]}, cli.EXIT_INPUT),
        ({"kind": "k" * 500_000, "nodes": ["a", "b"], "edges": [_EDGE]}, cli.EXIT_INPUT),
        ({"nodes": ["a", "b"], "edges": [{"from": "a", "to": _LONG}]}, cli.EXIT_INPUT),
        ({"nodes": ["a", _LONG], "edges": [{"from": "a", "to": _LONG}] * 2}, cli.EXIT_INPUT),
        ({"nodes": ["a", _LONG], "edges": [{"from": "a", "to": _LONG}]}, cli.EXIT_STRUCTURE),
        (
            {"nodes": ["a", _LONG], "edges": [{"from": "a", "to": _LONG, "rate": 10**400}]},
            cli.EXIT_INPUT,
        ),
        (
            {
                "kind": "dtmc",
                "nodes": ["a", _LONG],
                "edges": [{"from": "a", "to": _LONG, "rate": 1}, {"from": _LONG, "to": "a", "rate": 2}],
            },
            cli.EXIT_INPUT,
        ),
    ],
    ids=[
        "malformed-edge",
        "endpoint",
        "rate",
        "kind",
        "undeclared-label",
        "parallel-edge-label",
        "unreachable-label",
        "overflowing-rate-label",
        "dtmc-row-label",
    ],
)
def test_a_long_bad_value_gives_a_short_error_line(tmp_path, capsys, doc, code):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["analyze", str(path)]) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and len(line) < 200


def test_exit_code_for_disconnected_chain(tmp_path, capsys):
    doc = tmp_path / "notsc.json"
    doc.write_text(
        json.dumps(
            {"name": "x", "kind": "ctmc", "nodes": ["a", "b"], "edges": [{"from": "a", "to": "b"}]}
        )
    )
    assert cli.main(["analyze", str(doc)]) == cli.EXIT_STRUCTURE
    err = capsys.readouterr().err
    assert "'a'" in err and "'b'" in err


def test_exit_code_for_budget(tmp_path):
    path = _generate(tmp_path, "msj")  # 21 nodes, beyond the exhaustive-cut budget
    assert cli.main(["oracle", path, "--mode", "cuts"]) == cli.EXIT_BUDGET


def test_oracle_random_cuts_refuses_nodes_over_the_budget_before_drawing(monkeypatch, capsys):
    def drawn(rng, n):
        raise AssertionError(f"a {n}-node chain was drawn")

    monkeypatch.setattr(cli, "_random_chain", drawn)
    capsys.readouterr()
    argv = ["oracle", "random", "--mode", "cuts", "--samples", "1", "--nodes"]
    assert cli.main([*argv, "21"]) == cli.EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the exhaustive cut enumeration budget of 20" in captured.err
    # The budget itself is admitted, and broad mode still draws and reports what it skips.
    for mode, nodes in (("cuts", "20"), ("broad", "21")):
        with pytest.raises(AssertionError, match=f"a {nodes}-node chain was drawn"):
            cli.main(["oracle", "random", "--mode", mode, "--samples", "1", "--nodes", nodes])


def test_exit_code_for_invalid_parameters(tmp_path):
    assert cli.main(["generate", "bd", "--n", "1"]) == cli.EXIT_INPUT
    assert cli.main(["generate", "ladder", "--truncate", "3"]) == cli.EXIT_INPUT


def test_unknown_family_is_an_input_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["generate", "nosuch"])
    assert info.value.code == cli.EXIT_INPUT


# ---- analyze ----


def test_analyze_reports_first_level_edges(tmp_path):
    report = _analyze(tmp_path, _generate(tmp_path, "ladder"), "--max-level", "1")
    assert ["1", "4"] in report["first_level"]["edges"]
    assert len(report["first_level"]["edges"]) == 5
    assert len(report["first_level"]["relations"]) == 5
    assert report["first_level"]["components"] == [["0", "1", "4"], ["2", "5"], ["3", "6"]]
    assert report["levels"] == []


def test_analyze_empty_cut_graph(tmp_path):
    report = _analyze(tmp_path, _generate(tmp_path, "twoway", "--n", "5"))
    assert report["first_level"]["edges"] == []
    assert report["first_level"]["relations"] == []


def test_analyze_reports_deeper_levels(tmp_path):
    path = _generate(tmp_path, "batchv2", "--truncate", "6")
    report = _analyze(tmp_path, path, "--max-level", "3")
    assert [lv["level"] for lv in report["levels"]] == [2, 3]
    second, third = report["levels"]
    assert [(h["source_i"], h["source_j"]) for h in second["hyperedges"]] == [
        (["bar1", "bar2"], ["2"])
    ]
    assert [(h["source_i"], h["source_j"]) for h in third["hyperedges"]] == [
        (["bar2", "bar3"], ["3"])
    ]
    assert len(second["relations"]) == 1
    assert second["relations"][0]["level"] == "SPS"


def test_analyze_writes_to_stdout_by_default(tmp_path, capsys):
    path = _generate(tmp_path, "bd", "--n", "3")
    assert cli.main(["analyze", path]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["name"] == "bd"
    assert report["edge_count"] == 4


def test_analyze_output_is_deterministic(tmp_path):
    path = _generate(tmp_path, "msj")
    first = str(tmp_path / "r1.json")
    second = str(tmp_path / "r2.json")
    assert cli.main(["analyze", path, "--max-level", "2", "--out", first]) == cli.EXIT_OK
    assert cli.main(["analyze", path, "--max-level", "2", "--out", second]) == cli.EXIT_OK
    assert Path(first).read_bytes() == Path(second).read_bytes()


# ---- verify ----


def test_verify_accepts_a_product_form_chain(tmp_path):
    path = _generate(tmp_path, "msj")
    out = str(tmp_path / "verify.json")
    code = cli.main(["verify", path, "--seeds", "20", "--tol", "1e-9", "--out", out])
    assert code == cli.EXIT_OK
    report = _read_json(out)
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-9
    assert len(report["relations"]) == 23
    assert all(r["worst_residual"] <= 1e-9 for r in report["relations"])
    assert len(report["assignments"]) == 20


def test_verify_rejects_zero_tolerance(tmp_path):
    path = _generate(tmp_path, "ladder")
    assert cli.main(["verify", path, "--seeds", "1", "--tol", "0"]) == cli.EXIT_FAILURE


def test_verify_fault_injection_is_detected(tmp_path):
    path = _generate(tmp_path, "ladder")
    out = str(tmp_path / "fault.json")
    code = cli.main(["verify", path, "--seeds", "3", "--fault", "--out", out])
    assert code == cli.EXIT_FAILURE
    report = _read_json(out)
    assert report["fault"] == "0~1"
    assert report["pass"] is False
    assert report["max_residual"] > 1e-3


@pytest.mark.parametrize("k", [0, 1, 17, 65])
def test_verify_fault_flags_only_the_faulted_relation_when_factors_are_shared(tmp_path, k: int):
    # On a one-way cycle every relation shares both its factors with other relations.
    path = _generate(tmp_path, "oneway", "--n", "12")
    out = str(tmp_path / "fault.json")
    code = cli.main(["verify", path, "--seeds", "3", "--fault", str(k), "--out", out])
    assert code == cli.EXIT_FAILURE
    report = _read_json(out)
    residuals = [r["worst_residual"] for r in report["relations"]]
    assert len(residuals) == 66
    assert report["fault"] == f"{report['relations'][k]['lhs']}~{report['relations'][k]['rhs']}"
    assert residuals[k] > report["tolerance"]
    assert all(r <= report["tolerance"] for j, r in enumerate(residuals) if j != k)


def test_verify_fault_passes_when_the_swapped_factors_are_equal(tmp_path):
    # With every rate 1.0 the faulted relation pi0*q(1,0) = pi1*q(0,1) still holds.
    doc = tmp_path / "uniform.json"
    doc.write_text(
        json.dumps(
            {
                "nodes": ["0", "1", "2"],
                "edges": [
                    {"from": a, "to": b, "rate": 1.0}
                    for a, b in (("0", "1"), ("1", "0"), ("1", "2"), ("2", "1"))
                ],
            }
        ),
        encoding="utf-8",
    )
    out = str(tmp_path / "fault.json")
    assert cli.main(["verify", str(doc), "--seeds", "0", "--fault", "--out", out]) == cli.EXIT_OK
    report = _read_json(out)
    assert report["fault"] == "0~1"
    assert report["max_residual"] == 0.0
    assert report["pass"] is True


def test_verify_uses_document_rates_when_present(tmp_path):
    doc = tmp_path / "cycle.json"
    doc.write_text(
        json.dumps(
            {
                "name": "cycle",
                "kind": "ctmc",
                "nodes": ["a", "b", "c"],
                "edges": [
                    {"from": "a", "to": "b", "rate": 1.5},
                    {"from": "b", "to": "c", "rate": 0.5},
                    {"from": "c", "to": "a", "rate": 2.0},
                ],
            }
        )
    )
    out = str(tmp_path / "verify.json")
    assert cli.main(["verify", str(doc), "--seeds", "2", "--out", out]) == cli.EXIT_OK
    report = _read_json(out)
    assert report["assignments"] == ["document", "seed 0", "seed 1"]
    assert cli.main(["verify", str(doc), "--seeds", "0", "--out", out]) == cli.EXIT_OK
    assert _read_json(out)["assignments"] == ["document"]
    assert cli.main(["verify", str(doc), "--seeds", "-1"]) == cli.EXIT_INPUT


def test_verify_reports_an_underflowed_flow_as_one_error_line(tmp_path, capsys):
    # A valid document whose relation flows underflow to 0.0 under its own rates.
    doc = tmp_path / "subnormal.json"
    edges = [{"from": a, "to": b, "rate": 5e-324} for a, b in (("a", "b"), ("b", "a"))]
    doc.write_text(json.dumps({"nodes": ["a", "b"], "edges": edges}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", str(doc), "--seeds", "0"]) == cli.EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: relation 0 has flow 0.0; its balance is undefined\n"


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_refuses_to_check_nothing(tmp_path, capsys, seeds: str):
    path = _generate(tmp_path, "bd", "--n", "5")  # no rates in the document
    capsys.readouterr()
    assert cli.main(["verify", path, "--seeds", seeds]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seeds" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
def test_verify_rejects_a_negative_or_nonfinite_tolerance(tmp_path, capsys, tol: str):
    path = _generate(tmp_path, "bd", "--n", "5")
    capsys.readouterr()
    assert cli.main(["verify", path, "--seeds", "1", f"--tol={tol}"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


@pytest.mark.parametrize("level", ["0", "-3"])
def test_analyze_rejects_a_max_level_below_one(tmp_path, capsys, level: str):
    path = _generate(tmp_path, "bd", "--n", "5")
    capsys.readouterr()
    assert cli.main(["analyze", path, f"--max-level={level}"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_level must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "random", "--samples", "-2"], "--samples must be at least 1, got -2"),
        (["oracle", "random", "--nodes", "0", "--samples", "3"], "--nodes must be at least 2, got 0"),
        (["oracle", "random", "--nodes", "1", "--samples", "3"], "--nodes must be at least 2, got 1"),
        (["export", "DOC", "--annotate", "-1"], "--annotate must be nonnegative, got -1"),
    ],
    ids=["oracle-samples", "oracle-nodes", "oracle-one-node", "export-annotate"],
)
def test_flags_that_would_check_or_draw_nothing_are_rejected(tmp_path, capsys, argv, message):
    path = _generate(tmp_path, "bd", "--n", "5")
    capsys.readouterr()
    assert cli.main([path if arg == "DOC" else arg for arg in argv]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_covers_second_level_cuts(tmp_path):
    path = _generate(tmp_path, "batchv1", "--multiple", "3", "--truncate", "8")
    out = str(tmp_path / "verify.json")
    assert cli.main(["verify", path, "--seeds", "5", "--out", out]) == cli.EXIT_OK
    report = _read_json(out)
    levels = {r["level"] for r in report["relations"]}
    assert levels == {"S", "SPS"}
    assert len(report["relations"]) == 14 + 5
    # The 14 level-1 cuts are checked as their relations, so only the 5 level-2 cuts get rows,
    # each named by its level and sources as analyze names the hyperedge.
    assert len(report["cuts"]) == 5
    analyzed = str(tmp_path / "analyze.json")
    assert cli.main(["analyze", path, "--max-level", "2", "--out", analyzed]) == cli.EXIT_OK
    (level2,) = _read_json(analyzed)["levels"]
    assert [{k: row[k] for k in ("level", "source_i", "source_j")} for row in report["cuts"]] == [
        {"level": 2, "source_i": h["source_i"], "source_j": h["source_j"]} for h in level2["hyperedges"]
    ]


@pytest.mark.parametrize("family", sorted(f.value for f in Family))
def test_verify_report_residuals_equal_the_reference_loop(tmp_path, family: str):
    path = _generate(tmp_path, family)
    _, c, _ = cli._load(path)
    found = analyze(c, max_level=2)
    # Level-1 cuts are checked as their relations; the cut rows are levels 2 and up.
    cuts = [h.cut for lv in found.higher for h in lv.hyperedges]
    out = str(tmp_path / "verify.json")
    for seeds, fault in ((2, False), (1, True)):
        flags = ["--seeds", str(seeds)] + (["--fault"] if fault else [])
        code = cli.main(["verify", path, *flags, "--out", out])
        relations = list(found.relations)
        if fault and not relations:
            assert code == cli.EXIT_INPUT
            continue
        report = _read_json(out)
        if fault:
            r = relations[0]
            relations[0] = Relation(r.lhs_node, r.rhs_node, r.rhs_factor, r.lhs_factor, r.level)
        relation_worst = [0.0] * len(relations)
        cut_worst = [0.0] * len(cuts)
        for seed in range(seeds):
            rates = random_rates(c, seed)
            pi = stationary(c, rates)
            for k, r in enumerate(relations):
                relation_worst[k] = max(relation_worst[k], reference_relation_residual(pi, rates, r))
            for k, cut in enumerate(cuts):
                cut_worst[k] = max(cut_worst[k], reference_cut_residual(pi, rates, cut))
        assert [entry["worst_residual"] for entry in report["relations"]] == relation_worst
        assert [entry["worst_residual"] for entry in report["cuts"]] == cut_worst
        assert report["max_residual"] == max(relation_worst + cut_worst, default=0.0)
        assert code == (cli.EXIT_FAILURE if fault else cli.EXIT_OK)


# Report bytes per row: a relation row names two nodes, a cut row its two source sets.
# A row that listed a cut side would take about n labels, over 400 bytes on both chains.
ROW_BYTES = 200


@pytest.mark.parametrize(
    "flags", [("oneway", "--n", "120"), ("batchv1", "--truncate", "40")], ids=["oneway-120", "batchv1-40"]
)
def test_verify_report_bytes_grow_with_its_rows(tmp_path, flags):
    path = _generate(tmp_path, *flags)
    out, analyzed = str(tmp_path / "verify.json"), str(tmp_path / "analyze.json")
    assert cli.main(["verify", path, "--seeds", "3", "--out", out]) == cli.EXIT_OK
    report = _read_json(out)
    rows = len(report["relations"]) + len(report["cuts"])
    assert os.path.getsize(out) < ROW_BYTES * rows
    assert all(set(row) == {"lhs", "rhs", "level", "worst_residual"} for row in report["relations"])
    # Each cut row lists its two sources, never the whole side either lies in.
    assert cli.main(["analyze", path, "--max-level", "2", "--out", analyzed]) == cli.EXIT_OK
    analysis = _read_json(analyzed)
    hyperedges = [h for lv in analysis["levels"] for h in lv["hyperedges"]]
    assert len(report["cuts"]) == len(hyperedges)
    for row, h in zip(report["cuts"], hyperedges):
        assert set(row) == {"level", "source_i", "source_j", "worst_residual"}
        assert (row["source_i"], row["source_j"]) == (h["source_i"], h["source_j"])
        # Side B is every node outside side A.
        side_b = len(analysis["nodes"]) - len(h["cut_a"])
        assert len(row["source_i"]) < len(h["cut_a"]) and len(row["source_j"]) < side_b


# Analyze report bytes per relation row, hyperedge and factor-table entry. Rows that
# wrote their factors in place took 572 bytes per item on oneway-120 and 616 on batchv1-40.
ANALYZE_ITEM_BYTES = 500


@pytest.mark.parametrize(
    "flags", [("oneway", "--n", "120"), ("batchv1", "--truncate", "40")], ids=["oneway-120", "batchv1-40"]
)
def test_analyze_report_bytes_grow_with_its_rows_and_factors(tmp_path, flags):
    path = _generate(tmp_path, *flags)
    out = str(tmp_path / "analyze.json")
    assert cli.main(["analyze", path, "--max-level", "2", "--out", out]) == cli.EXIT_OK
    report = _read_json(out)
    levels = report["levels"]
    rows = report["first_level"]["relations"] + [r for lv in levels for r in lv.get("relations", [])]
    hyperedges = [h for lv in levels for h in lv["hyperedges"]]
    assert os.path.getsize(out) < ANALYZE_ITEM_BYTES * (len(rows) + len(hyperedges) + len(report["factors"]))
    # A row names its factors by their index in the table.
    assert all(type(row[side]) is int for row in rows for side in ("lhs_factor", "rhs_factor"))


# ---- generate ----


def test_generate_default_multiserver_size(tmp_path):
    doc = _read_json(_generate(tmp_path, "msj"))
    assert doc["kind"] == "ctmc"
    assert len(doc["nodes"]) == 21
    assert len(doc["edges"]) == 37


def test_generate_batch_instance(tmp_path):
    doc = _read_json(_generate(tmp_path, "batchv1", "--multiple", "3", "--truncate", "8"))
    assert len(doc["nodes"]) == 17
    assert len(doc["edges"]) == 29


def test_generate_cycle(tmp_path):
    doc = _read_json(_generate(tmp_path, "oneway", "--n", "5"))
    assert doc["nodes"] == ["1", "2", "3", "4", "5"]
    assert len(doc["edges"]) == 5


def test_generate_nodes_are_sorted(tmp_path):
    doc = _read_json(_generate(tmp_path, "msj"))
    assert doc["nodes"] == sorted(doc["nodes"])


# ---- oracle ----


def test_oracle_cuts_agree_with_the_scan(tmp_path):
    path = _generate(tmp_path, "ladder")
    out = str(tmp_path / "oracle.json")
    assert cli.main(["oracle", path, "--mode", "cuts", "--out", out]) == cli.EXIT_OK
    report = _read_json(out)
    assert report["match"] is True
    assert report["diff"] == {"missing": [], "extra": []}
    assert [c["pair"] for c in report["cuts"]] == [
        ["0", "1"],
        ["0", "4"],
        ["1", "4"],
        ["2", "5"],
        ["3", "6"],
    ]


def test_oracle_cut_rows_write_side_a_only(tmp_path):
    path = _generate(tmp_path, "ladder")
    out = str(tmp_path / "oracle.json")
    assert cli.main(["oracle", path, "--mode", "cuts", "--out", out]) == cli.EXIT_OK
    nodes = set(_read_json(path)["nodes"])
    for row in _read_json(out)["cuts"]:
        # Side B is the rest of the nodes.
        assert list(row) == ["pair", "side_a"]
        assert row["side_a"] == sorted(row["side_a"]) and set(row["side_a"]) < nodes


def test_oracle_cuts_fail_when_the_scan_disagrees(tmp_path, monkeypatch):
    path = _generate(tmp_path, "ladder")
    out = str(tmp_path / "oracle.json")
    monkeypatch.setattr(cli, "_free_crossings", lambda g: iter(()))
    assert cli.main(["oracle", path, "--mode", "cuts", "--out", out]) == cli.EXIT_FAILURE
    report = _read_json(out)
    assert report["match"] is False
    assert len(report["diff"]["missing"]) == 5
    args = ["oracle", "random", "--nodes", "5", "--samples", "3", "--mode", "cuts", "--out", out]
    assert cli.main(args) == cli.EXIT_FAILURE
    report = _read_json(out)
    assert report["summary"] == "3 mismatches"
    assert len(report["mismatches"]) == 3


def test_oracle_cuts_name_a_wrong_side_in_both_lists(tmp_path, monkeypatch):
    path = _generate(tmp_path, "ladder")
    out = str(tmp_path / "oracle.json")
    assert cli.main(["oracle", path, "--mode", "cuts", "--out", out]) == cli.EXIT_OK
    right = _read_json(out)
    scan = cli._free_crossings

    def one_wrong_crossing(g):
        # A wrong side shows as a wrong crossing: the first pair's i crosses into its other out-neighbours.
        (i, j, across_i, across_j), *rest = scan(g)
        return iter([(i, j, g.out_mask[i] ^ across_i, across_j), *rest])

    monkeypatch.setattr(cli, "_free_crossings", one_wrong_crossing)
    assert cli.main(["oracle", path, "--mode", "cuts", "--out", out]) == cli.EXIT_FAILURE
    report = _read_json(out)
    assert report["match"] is False
    assert report["diff"] == {"missing": [["0", "1"]], "extra": [["0", "1"]]}
    assert report["cuts"] == right["cuts"]


def test_oracle_cuts_build_no_relation(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the cuts oracle reads no analysis")

    path = _generate(tmp_path, "ladder")
    out = str(tmp_path / "oracle.json")
    monkeypatch.setattr(cli, "analyze", refuse)
    monkeypatch.setattr(higher_level, "_shared_sum", refuse)
    assert cli.main(["oracle", path, "--mode", "cuts", "--out", out]) == cli.EXIT_OK
    assert _read_json(out)["match"] is True
    args = ["oracle", "random", "--nodes", "6", "--samples", "20", "--mode", "cuts", "--out", out]
    assert cli.main(args) == cli.EXIT_OK


def test_oracle_broad_lists_pinned_member(tmp_path):
    path = _generate(tmp_path, "batchv2", "--truncate", "6")
    out = str(tmp_path / "broad.json")
    assert cli.main(["oracle", path, "--mode", "broad", "--out", out]) == cli.EXIT_OK
    report = _read_json(out)
    members = [m for pair in report["pairs"] for m in pair["members"]]
    assert [["1", "bar1"], ["2"]] in members
    assert "no Conjecture 1 counterexample" in report["summary"]
    assert "no Conjecture 2 counterexample" in report["summary"]
    assert report["skipped"] == []


def test_oracle_broad_reports_the_pairs_over_budget(tmp_path, capsys):
    # A 6-node and a 24-node one-way cycle joined by two two-way links: the
    # components have 3, 3, 12 and 12 nodes, so only the 3 + 3 pair fits.
    nodes = [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(24)]
    edges = [(f"a{i}", f"a{(i + 1) % 6}") for i in range(6)]
    edges += [(f"b{i}", f"b{(i + 1) % 24}") for i in range(24)]
    edges += [("a0", "b0"), ("b0", "a0"), ("a3", "b12"), ("b12", "a3")]
    path = tmp_path / "joined.json"
    path.write_text(
        json.dumps({"nodes": nodes, "edges": [{"from": a, "to": b} for a, b in edges]}),
        encoding="utf-8",
    )
    out = str(tmp_path / "broad.json")
    assert cli.main(["oracle", str(path), "--mode", "broad", "--out", out]) == cli.EXIT_BUDGET
    report = _read_json(out)
    sizes = sorted(len(p["comp_i"]) + len(p["comp_j"]) for p in report["skipped"])
    assert sizes == [15, 15, 15, 15, 24]
    assert "5 component pairs over the subset-search budget skipped" in report["summary"]
    assert "the report lists them as skipped" in capsys.readouterr().err


def test_oracle_random_scan(tmp_path):
    out = str(tmp_path / "random.json")
    code = cli.main(
        ["oracle", "random", "--nodes", "6", "--samples", "200", "--mode", "broad", "--out", out]
    )
    assert code == cli.EXIT_OK
    report = _read_json(out)
    assert "no Conjecture 1 counterexample" in report["summary"]
    assert report["samples"] == 200
    assert report["pairs_with_members"] > 0
    assert report["pairs_skipped"] == 0


def test_oracle_random_cuts_agree_with_the_scan(tmp_path):
    out = str(tmp_path / "random.json")
    args = ["oracle", "random", "--nodes", "6", "--samples", "100", "--mode", "cuts", "--out", out]
    assert cli.main(args) == cli.EXIT_OK
    report = _read_json(out)
    assert list(report) == ["mode", "samples", "nodes", "seed", "mismatches", "summary"]
    assert report["mismatches"] == []
    assert report["summary"] == "no sourced-cut mismatch"


def test_oracle_random_is_deterministic(tmp_path):
    first = str(tmp_path / "r1.json")
    second = str(tmp_path / "r2.json")
    for mode in ("cuts", "broad"):
        args = ["oracle", "random", "--nodes", "5", "--samples", "20", "--mode", mode]
        assert cli.main([*args, "--out", first]) == cli.EXIT_OK
        assert cli.main([*args, "--out", second]) == cli.EXIT_OK
        assert Path(first).read_bytes() == Path(second).read_bytes()


# ---- export ----


def _dot_lines(tmp_path, family: str, annotate: int, *flags: str) -> list[str]:
    path = _generate(tmp_path, family, *flags)
    dot = str(tmp_path / f"{family}.dot")
    args = ["export", path, "--dot", dot]
    if annotate:
        args += ["--annotate", str(annotate)]
    assert cli.main(args) == cli.EXIT_OK
    return Path(dot).read_text(encoding="utf-8").splitlines()


def test_export_plain_digraph(tmp_path):
    lines = _dot_lines(tmp_path, "bd", 0, "--n", "6")
    directed = [ln for ln in lines if " -> " in ln and "dir=none" not in ln]
    assert len(directed) == 10
    assert lines[0] == 'digraph "bd" {'
    assert lines[-1] == "}"


def test_export_overlay_edges(tmp_path):
    lines = _dot_lines(tmp_path, "msj", 1)
    overlay = [ln for ln in lines if "style=dashed, constraint=false" in ln]
    assert len(overlay) == 23
    clusters = [ln for ln in lines if ln.lstrip().startswith("subgraph cluster_")]
    assert len(clusters) == 1


def test_export_junction_nodes(tmp_path):
    lines = _dot_lines(tmp_path, "batchv1", 2, "--multiple", "3", "--truncate", "8")
    junctions = [ln for ln in lines if "shape=point" in ln]
    assert len(junctions) == 5
    spokes = [ln for ln in lines if "style=dotted" in ln]
    assert len(spokes) == 5 * 3  # two sources on one side, one on the other


def test_export_renders_overbarred_labels(tmp_path):
    lines = _dot_lines(tmp_path, "batchv1", 0, "--multiple", "3", "--truncate", "8")
    assert '  "bar1" [label=<<O>1</O>>];' in lines


def test_export_escapes_overbarred_label_text(tmp_path):
    # Text inside an HTML-like label must not carry a bare "<", ">" or "&".
    nodes = ["bar<1>", "bar&2", "x"]
    edges = [{"from": a, "to": b} for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"name": "esc", "nodes": nodes, "edges": edges}))
    dot = tmp_path / "doc.dot"
    assert cli.main(["export", str(path), "--dot", str(dot)]) == cli.EXIT_OK
    lines = dot.read_text(encoding="utf-8").splitlines()
    assert '  "bar<1>" [label=<<O>&lt;1&gt;</O>>];' in lines
    assert '  "bar&2" [label=<<O>&amp;2</O>>];' in lines


def test_export_is_deterministic(tmp_path):
    path = _generate(tmp_path, "msj")
    first = str(tmp_path / "a.dot")
    second = str(tmp_path / "b.dot")
    assert cli.main(["export", path, "--annotate", "1", "--dot", first]) == cli.EXIT_OK
    assert cli.main(["export", path, "--annotate", "1", "--dot", second]) == cli.EXIT_OK
    assert Path(first).read_bytes() == Path(second).read_bytes()


# ---- argument parsing ----


_ARGV_CASES = [
    [],
    ["-h"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["bogus"],
    *([name] for name in cli._COMMANDS),
    ["analyze", "x", "--bogus"],
    ["verify", "x", "--seeds", "abc"],
    ["generate", "nosuch"],
    ["analyze", "x", "--max-level", "2", "--out", "r.json"],
    ["verify", "x", "--seeds", "3", "--tol", "1e-6", "--fault"],
    ["generate", "qbd", "--blocks", "4", "--out", "d.json"],
    ["oracle", "random", "--mode", "broad", "--nodes", "5", "--samples", "9", "--seed", "2"],
    ["export", "x", "--annotate", "2", "--dot", "g.dot"],
]


def _parse_outcome(parse, argv: list[str], capsys) -> tuple:
    """What ``parse(argv)`` prints, its exit code when it exits, and what it returns."""
    try:
        result, code = parse(argv), None
    except SystemExit as stop:
        result, code = None, stop.code
    out, err = capsys.readouterr()
    return out, err, code, result


@pytest.mark.parametrize("argv", _ARGV_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_parser_with_every_command(argv, monkeypatch, capsys):
    # Comparing with the full parser in this interpreter keeps the test free of
    # version-specific help text, such as 3.10's "optional arguments:".
    monkeypatch.setenv("COLUMNS", "80")
    for name in cli._COMMANDS:
        # Each stub returns the parsed Namespace, so main returns it.
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: args)
    full = _parse_outcome(cli._build_parser([]).parse_args, argv, capsys)
    assert _parse_outcome(cli.main, argv, capsys) == full


def test_a_named_command_builds_only_its_own_parser(tmp_path, monkeypatch):
    path = _generate(tmp_path, "bd")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["analyze", path, "--out", str(tmp_path / "report.json")]) == cli.EXIT_OK
    assert len(built) <= 2
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    assert len(built) == 6


def test_main_runs_the_cmd_the_module_holds_at_call_time(tmp_path, monkeypatch):
    path = _generate(tmp_path, "bd")
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.input) or 7)
    assert cli.main(["verify", path]) == 7
    assert seen == [path]


# ---- dependencies ----

# Runs in a child interpreter, so blocking numpy cannot leak into other tests.
_NO_NUMPY_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["numpy"] = None  # any "import numpy" now raises ImportError
    from prodform import cli

    doc, out = sys.argv[1], sys.argv[2]
    runs = [
        ["generate", "ladder", "--out", doc],
        ["analyze", doc, "--out", out],
        ["verify", doc, "--seeds", "2", "--out", out],
        ["oracle", doc, "--mode", "cuts", "--out", out],
        ["export", doc, "--dot", out],
    ]
    print([cli.main(argv) for argv in runs])
    """
)


def test_every_command_runs_without_numpy(tmp_path):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(tmp_path / "doc.json"), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0, 0, 0]"
