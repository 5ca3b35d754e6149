"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
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
                    {"from": "c", "to": "a", "rate": 3.0},
                    {"from": "a", "to": "b", "rate": 1.0},
                    {"from": "b", "to": "c", "rate": 2.0},
                ],
            }
        )
    )
    chain, rates = cli.document_to_chain(doc)
    emitted = cli.emit_document(chain, doc.name, rates)
    assert emitted.nodes == ("a", "b", "c")
    chain2, rates2 = cli.document_to_chain(emitted)
    assert cli.emit_document(chain2, doc.name, rates2) == emitted


def test_round_trip_fixed_point_for_generated_documents(tmp_path):
    path = _generate(tmp_path, "msj")
    doc = cli.parse_document(Path(path).read_text(encoding="utf-8"))
    chain, rates = cli.document_to_chain(doc)
    assert cli.emit_document(chain, doc.name, rates) == doc


# ---- exit codes ----


def test_exit_code_for_unparsable_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli.main(["analyze", str(bad)]) == cli.EXIT_INPUT
    assert "line 1 column 1" in capsys.readouterr().err


def test_exit_code_for_missing_file():
    assert cli.main(["analyze", "/nonexistent/chain.json"]) == cli.EXIT_INPUT


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
    assert len(report["cuts"]) == 14 + 5


@pytest.mark.parametrize("family", sorted(f.value for f in Family))
def test_verify_report_residuals_equal_the_reference_loop(tmp_path, family: str):
    path = _generate(tmp_path, family)
    _, c, _ = cli._load(path)
    found = analyze(c, max_level=2)
    cuts = [h.cut for lv in found.levels for h in lv.hyperedges]
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


def test_generate_with_fixtures(tmp_path):
    path = _generate(tmp_path, "batchv2", "--truncate", "6", "--with-fixtures")
    fixtures = _read_json(path + ".fixtures.json")
    assert fixtures["pinned"] is True
    assert ["1", "bar1"] in fixtures["c1_edges"]
    assert fixtures["level2_sources"] == [[["bar1", "bar2"], ["2"]]]
    assert fixtures["broad_query"][1] == ["2", "bar3"]


def test_generate_fixtures_for_unpinned_config(tmp_path):
    path = _generate(tmp_path, "tree", "--n", "7", "--with-fixtures")
    assert _read_json(path + ".fixtures.json") == {"pinned": False}


def test_generate_fixtures_require_out():
    assert cli.main(["generate", "ladder", "--with-fixtures"]) == cli.EXIT_INPUT


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


def test_oracle_cuts_fail_when_the_scan_disagrees(tmp_path, monkeypatch):
    path = _generate(tmp_path, "ladder")
    out = str(tmp_path / "oracle.json")
    monkeypatch.setattr(cli, "_first_level", lambda c: ())
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
    scan = cli._first_level

    def one_wrong_side(c):
        h, *rest = scan(c)
        return (replace(h, cut=replace(h.cut, side_a=h.cut.side_b)), *rest)

    monkeypatch.setattr(cli, "_first_level", one_wrong_side)
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
