import ast
import enum
import errno
import io
import itertools
import json
import math
import os
import random
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hullcover import cli, ramsey
from hullcover.core import Fields, InputError


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


def load(path):
    return json.loads(path.read_text())


@pytest.fixture
def vec_spec(tmp_path):
    return write_json(tmp_path / "vec.json", {"kind": "vector_fp", "p": 2, "dim": 2})


@pytest.fixture
def intsub_spec(tmp_path):
    return write_json(tmp_path / "intsub.json", {"kind": "integer_subgroup", "window": 5})


# --- partition -----------------------------------------------------------------


def test_partition_vector_fp(tmp_path, vec_spec):
    out = tmp_path / "part.json"
    assert run(["partition", vec_spec, "--out", out]) == 0
    doc = load(out)
    assert doc["manifest"]["subcommand"] == "partition"
    classes = doc["partition"]["classes"]
    assert [c["labels"] for c in classes] == [["(0,1)", "(1,0)"], ["(1,1)"]]
    assert doc["partition"]["verification"]["ok"]
    assert all(c["independent"] for c in classes)


def test_partition_complete_graph(tmp_path):
    spec = write_json(tmp_path / "k4.json", {"kind": "graphic", "complete": 4})
    out = tmp_path / "part.json"
    assert run(["partition", spec, "--out", out]) == 0
    doc = load(out)
    assert [len(c["elements"]) for c in doc["partition"]["classes"]] == [3, 2, 1]


def test_partition_subgroup_window_reflects_verification(tmp_path, intsub_spec):
    out = tmp_path / "part.json"
    # default greedy basis gives singleton classes, which all certify
    assert run(["partition", intsub_spec, "--out", out]) == 0
    # a spanning but dependent-class-producing basis fails certification
    out2 = tmp_path / "part2.json"
    assert run(["partition", intsub_spec, "--basis", "3,5", "--out", out2]) == 3
    doc = load(out2)
    assert not doc["partition"]["verification"]["ok"]
    assert not doc["manifest"]["verdicts"]["all_certificates_pass"]


def test_partition_rejects_dependent_basis(tmp_path):
    spec = write_json(tmp_path / "k3.json", {"kind": "graphic", "complete": 3})
    assert run(["partition", spec, "--basis", "0,1,2", "--out", tmp_path / "x.json"]) == 2


# --- check-axioms ----------------------------------------------------------------


def test_check_axioms_reports_exchange_witness(tmp_path, intsub_spec):
    out = tmp_path / "ax.json"
    assert run(["check-axioms", intsub_spec, "--out", out]) == 3
    doc = load(out)
    by_axiom = {r["axiom"]: r for r in doc["axioms"]["reports"]}
    assert by_axiom["hull-operator"]["verdict"] == "holds-on-budget"
    assert by_axiom["idempotent"]["verdict"] == "holds-on-budget"
    exchange = by_axiom["exchange"]
    assert exchange["verdict"] == "violated"
    assert exchange["witness"]["A"] == []
    assert exchange["witness"]["x_label"] == "2"
    assert exchange["witness"]["y_label"] == "1"
    assert exchange["witness_reverified"] is True


def test_check_axioms_passes_on_matroids(tmp_path, vec_spec):
    out = tmp_path / "ax.json"
    assert run(["check-axioms", vec_spec, "--budget", "exhaustive:2", "--out", out]) == 0
    assert load(out)["axioms"]["all_hold"]


def test_check_axioms_sampled_budget(tmp_path, vec_spec):
    out = tmp_path / "ax.json"
    assert run(
        ["check-axioms", vec_spec, "--budget", "sampled:50", "--seed", "9", "--out", out]
    ) == 0
    doc = load(out)
    assert doc["manifest"]["parameters"]["budget"]["seed"] == 9
    assert "sampled(seed=9" in doc["axioms"]["reports"][0]["budget"]
    # the budget seed agrees with the top-level one, so the rerun goes through
    again = tmp_path / "again.json"
    assert run(["rerun", out, "--out", again]) == 0
    assert again.read_bytes() == out.read_bytes()


# --- rectangle ----------------------------------------------------------------------


def test_rectangle_from_formula(tmp_path):
    coloring = write_json(
        tmp_path / "col.json", {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"}
    )
    out = tmp_path / "rect.json"
    assert run(["rectangle", coloring, "--size", "2", "--out", out]) == 0
    doc = load(out)
    assert doc["rectangle"]["A"] == [0, 2]
    assert doc["rectangle"]["Z"] == [0, 2, 4]
    assert doc["rectangle"]["verified"]


def test_rectangle_from_table(tmp_path):
    coloring = write_json(
        tmp_path / "col.json", {"colors": 2, "table": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]}
    )
    out = tmp_path / "rect.json"
    assert run(["rectangle", coloring, "--size", "2", "--out", out]) == 0
    doc = load(out)
    assert doc["rectangle"]["A"] == [0, 1]
    assert doc["rectangle"]["Z"] == [0, 1]


def test_a_failed_rectangle_verification_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "verify_rectangle", lambda coloring, rect: False)
    coloring = write_json(
        tmp_path / "col.json", {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"}
    )
    out = tmp_path / "rect.json"
    assert run(["rectangle", coloring, "--size", "2", "--out", out]) == 3
    doc = load(out)
    assert doc["rectangle"]["verified"] is False
    assert doc["manifest"]["verdicts"] == {"verified": False}


def test_an_internal_inconsistency_exits_3_with_one_line_and_no_document(tmp_path, capsys, monkeypatch):
    # monochrome_rectangle re-verifies what it built, so the run stops before any document
    monkeypatch.setattr(ramsey, "verify_rectangle", lambda coloring, rect: False)
    coloring = write_json(
        tmp_path / "col.json", {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"}
    )
    out = tmp_path / "rect.json"
    assert run(["rectangle", coloring, "--size", "2", "--out", out]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "hullcover: internal inconsistency: constructed rectangle failed re-verification"
    ]
    assert not out.exists() and not list(tmp_path.glob(".*.tmp"))


def test_rectangle_premise_error_exits_2(tmp_path):
    coloring = write_json(
        tmp_path / "col.json", {"x_size": 2, "y_size": 5, "colors": 2, "formula": "constant"}
    )
    assert run(["rectangle", coloring, "--size", "2", "--out", tmp_path / "x.json"]) == 2


# --- quad ---------------------------------------------------------------------------


def test_quad_constant_on_z101(tmp_path):
    group = write_json(tmp_path / "g.json", {"cyclic": 101})
    out = tmp_path / "quad.json"
    assert run(["quad", group, "--colors", "1", "--out", out]) == 0
    doc = load(out)
    assert doc["quad"]["element_labels"] == ["4", "5", "6", "7"]
    assert doc["quad"]["relation_verified"]


def test_quad_seeded_on_tuple_group(tmp_path):
    group = write_json(tmp_path / "g.json", {"orders": [3, 11]})
    out = tmp_path / "quad.json"
    assert (
        run(["quad", group, "--colors", "2", "--formula", "seeded-uniform", "--seed", "4", "--out", out])
        == 0
    )
    doc = load(out)
    assert doc["manifest"]["parameters"]["coloring"]["seed"] == 4
    assert doc["quad"]["distinct"] and doc["quad"]["monochrome"]


def test_quad_premise_error_exits_2(tmp_path):
    group = write_json(tmp_path / "g.json", {"cyclic": 8})
    assert run(["quad", group, "--colors", "1", "--out", tmp_path / "x.json"]) == 2


def test_quad_on_a_table_that_is_not_a_group_exits_2_with_one_line(tmp_path, capsys):
    # L5 x Z_2 for a non-associative loop L5 of order 5: latin, with an
    # identity, so only associativity refuses it
    L5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    L10 = [[((i // 5 + j // 5) % 2) * 5 + L5[i % 5][j % 5] for j in range(10)] for i in range(10)]
    group = write_json(tmp_path / "L10.json", {"table": L10})
    assert run(["quad", group, "--colors", "1", "--out", tmp_path / "x.json"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("hullcover: error: "), errors
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "group",
    [{"cyclic": 10}, {"orders": [2, 5]}, {"table": [[(a + b) % 10 for b in range(10)] for a in range(10)]}],
    ids=["cyclic", "orders", "table"],
)
def test_quad_document_names_its_group_as_its_manifest_read_it(tmp_path, group):
    out = tmp_path / "quad.json"
    assert run(["quad", write_json(tmp_path / "g.json", group), "--colors", "1", "--out", out]) == 0
    doc = load(out)
    assert doc["quad"]["group"] == doc["manifest"]["parameters"]["group"] == group
    assert doc["quad"]["relation_verified"]


# --- prefix-color and group -----------------------------------------------------------


def test_prefix_color_with_verification(tmp_path):
    out = tmp_path / "pc.json"
    assert run(["prefix-color", 2, "--verify", "--out", out]) == 0
    doc = load(out)
    assert doc["prefix_coloring"]["vertices"] == 4
    assert doc["prefix_coloring"]["colors"] == 2
    assert doc["prefix_coloring"]["odd_cycle_check"]["ok"]
    assert len(doc["prefix_coloring"]["edges"]) == 6


def test_group_torsion(tmp_path):
    out = tmp_path / "t.json"
    assert run(["group", "torsion", "--orders", "2,4", "--n", "2", "--out", out]) == 0
    assert load(out)["torsion"]["elements"] == [[0, 0], [0, 2], [1, 0], [1, 2]]


def test_group_decompose(tmp_path):
    out = tmp_path / "d.json"
    assert run(["group", "decompose", "--orders", "6", "--out", out]) == 0
    doc = load(out)
    assert doc["decomposition"]["direct_sum_verified"]
    assert doc["decomposition"]["sizes"] == {"2": 2, "3": 3}


def test_group_independence(tmp_path):
    out = tmp_path / "i.json"
    assert run(["group", "independence", "--orders", "4", "--elements", "1;3", "--out", out]) == 0
    doc = load(out)
    assert doc["independence"]["independent"] is False
    assert doc["independence"]["hull_route_agrees"]

    out2 = tmp_path / "i2.json"
    assert (
        run(["group", "independence", "--orders", "2,3", "--elements", "1,0;0,1", "--out", out2])
        == 0
    )
    assert load(out2)["independence"]["independent"] is True


def test_group_argument_validation(tmp_path, capsys):
    assert run(["group", "torsion", "--orders", "4", "--out", tmp_path / "x.json"]) == 2
    assert run(["group", "independence", "--orders", "4", "--out", tmp_path / "x.json"]) == 2
    assert run(["group", "torsion", "--orders", "2,x", "--n", "2", "--out", tmp_path / "x.json"]) == 2
    elements = ["--elements", "1;y"]
    assert run(["group", "independence", "--orders", "4", *elements, "--out", tmp_path / "x.json"]) == 2
    # sizes past the listing bound are refused before anything is listed
    units = ";".join(",".join(str(int(i == j)) for j in range(6)) for i in range(6))
    for args in (
        ["torsion", "--orders", "1000000000", "--n", "1000000000"],
        ["decompose", "--orders", "1000000000"],
        ["decompose", "--orders", "65536,59049"],
        ["independence", "--orders", "16,16,16,16,16,16", "--elements", units],
    ):
        capsys.readouterr()
        assert run(["group", *args, "--out", tmp_path / "x.json"]) == 2, args
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("hullcover: error: "), (args, errors)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "orders,elements,repeated",
    [("4", [[1], [1]], "(1,)"), ("4", [[1], [2], [1]], "(1,)"), ("2,2", [[1, 0], [0, 1], [1, 0]], "(1, 0)")],
)
def test_group_independence_refuses_a_repeated_element(tmp_path, capsys, orders, elements, repeated):
    # 1*a - 1*a = 0, so a list with a repeat is dependent, whatever the set of its elements is
    text = ";".join(",".join(map(str, e)) for e in elements)
    parameters = {"op": "independence", "orders": orders.split(","), "elements": elements}
    manifest = write_json(tmp_path / "manifest.json", {"subcommand": "group", "parameters": parameters})
    for argv in (["group", "independence", "--orders", orders, "--elements", text], ["rerun", manifest]):
        capsys.readouterr()
        assert run([*argv, "--out", tmp_path / "x.json"]) == 2, argv
        assert capsys.readouterr().err.splitlines() == [
            f"hullcover: error: group independence: element {repeated} is repeated"
        ], argv
    assert not (tmp_path / "x.json").exists()


# each file is written as raw text: json.dumps renders neither a 5,000-digit int nor deep nesting
UNDECODABLE = {
    "5000-digit-int": ("partition", '{"kind": "graphic", "complete": ' + "1" * 5000 + "}"),
    "edges-3000-deep": ("partition", '{"kind": "graphic", "edges": ' + "[" * 3000 + "]" * 3000 + "}"),
    "rerun-100000-deep": ("rerun", "[" * 100_000 + "]" * 100_000),
}


@pytest.mark.parametrize("subcommand,text", UNDECODABLE.values(), ids=UNDECODABLE)
def test_an_undecodable_file_exits_2_with_one_line(tmp_path, capsys, subcommand, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run([subcommand, path, "--out", tmp_path / "x.json"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"hullcover: error: {path}: "), errors
    assert not (tmp_path / "x.json").exists()


TWOS = ",".join(["2"] * 20_000)
OVERSIZED = {
    "prefix-color-8000": (["prefix-color", "8000"], "limit 12"),
    "partition-2^20000": (["partition", {"kind": "abelian", "orders": [2] * 20_000}], "1048576"),
    "torsion-2^20000": (["group", "torsion", "--orders", TWOS, "--n", "2"], "1048576"),
    "decompose-2^20000": (["group", "decompose", "--orders", TWOS], "1048576"),
    "independence-2^20000": (
        ["group", "independence", "--orders", TWOS, "--elements", "1" + ",0" * 19_999], "1048576"
    ),
}


@pytest.mark.parametrize("argv,bound", OVERSIZED.values(), ids=OVERSIZED)
def test_a_size_refusal_names_the_bound_not_the_oversized_count(tmp_path, capsys, argv, bound):
    argv = [write_json(tmp_path / "spec.json", a) if isinstance(a, dict) else a for a in argv]
    assert run([*argv, "--out", tmp_path / "x.json"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("hullcover: error: ") and bound in errors[0], errors


ECHOING = {
    "order-1-before-20000-twos": (["torsion", "--orders", "1," + TWOS, "--n", "2"], "cyclic order 1 at position 0"),
    "20000-residues-on-rank-2": (["independence", "--orders", "2,2", "--elements", "1" + ",1" * 19_999], "rank 20000"),
    "residue-out-of-range": (["independence", "--orders", "2,2", "--elements", "1,5"], "residue 5 at position 1"),
}


@pytest.mark.parametrize("argv,named", ECHOING.values(), ids=ECHOING)
def test_a_group_refusal_names_the_bad_entry_not_the_whole_input(tmp_path, capsys, argv, named):
    started = time.perf_counter()
    assert run(["group", *argv, "--out", tmp_path / "x.json"]) == 2
    assert time.perf_counter() - started < 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("hullcover: error: ") and named in line and len(line.encode()) < 200, line


LONG = "x" * 50_000
# a 4,000-digit integer casts, and printed whole it would fill a 4 KB line
HUGE = int("9" * 4_000)
BOUNDED = {
    "matroid-kind": (["partition", {"kind": LONG}], "unknown matroid kind"),
    "rational": (["partition", {"kind": "vector_q", "vectors": [["1" * 50_000]]}], "bad rational"),
    "edge": (["partition", {"kind": "graphic", "vertices": 3, "edges": [list(range(20_002))]}], "edge"),
    "field-size": (["check-axioms", {"kind": "vector_fp", "p": LONG, "dim": 1}], "p: expected an integer"),
    "cyclic-order": (["group", "torsion", "--orders", LONG, "--n", "2"], "orders: expected an integer"),
    "group-op": (["group", LONG, "--orders", "2"], "unknown group operation"),
    "quad-formula": (["quad", {"cyclic": 5}, "--colors", "2", "--formula", LONG], "unknown coloring formula"),
    "rectangle-formula": (
        ["rectangle", {"x_size": 2, "y_size": 2, "formula": LONG}, "--size", "2"], "unknown coloring formula"
    ),
    "budget": (["check-axioms", {"kind": "graphic", "complete": 3}, "--budget", LONG], "budget"),
    "subcommand": (["rerun", {"manifest": {"subcommand": LONG, "parameters": {}}}], "unknown subcommand"),
    "huge-edge-endpoint": (["partition", {"kind": "graphic", "vertices": 3, "edges": [[HUGE, 1]]}], "edge"),
    "huge-window": (["partition", {"kind": "integer_linear", "window": HUGE}], "window must be in"),
    "huge-vertices": (["partition", {"kind": "graphic", "vertices": HUGE, "edges": []}], "vertex count"),
    "huge-complete": (["partition", {"kind": "graphic", "complete": HUGE}], "vertex count"),
    "huge-dim": (["partition", {"kind": "vector_fp", "p": 2, "dim": HUGE}], "dim must be in"),
    "huge-is-prime": (["partition", {"kind": "vector_fp", "p": HUGE, "dim": 1}], "tested for primality"),
    "huge-field-size": (["partition", {"kind": "vector_fp", "p": -HUGE, "dim": 1}], "field size"),
    "huge-cyclic-order": (["partition", {"kind": "abelian", "orders": [HUGE]}], "cyclic order"),
    "huge-torsion-index": (["group", "torsion", "--orders", "4", "--n", -HUGE], "torsion index"),
    "huge-torsion-size": (["group", "torsion", "--orders", TWOS, "--n", HUGE + 1], "1048576"),
    "huge-unused-n": (["group", "decompose", "--orders", "4", "--n", HUGE], "takes no n"),
    "huge-residue": (["group", "independence", "--orders", "4", "--elements", HUGE], "residue"),
    "huge-table-color": (["rectangle", {"table": [[HUGE]], "colors": 2}, "--size", "1"], "color"),
    "huge-constant-color": (["rectangle", {"x_size": 2, "y_size": 2, "value": HUGE}, "--size", "1"], "constant color"),
    "huge-coloring-size": (["rectangle", {"x_size": HUGE, "y_size": 2}, "--size", "1"], "coloring has more"),
    "huge-lam": (["rectangle", {"x_size": 2, "y_size": 2}, "--size", -HUGE], "lam must be"),
    "huge-coloring-seed": (
        ["rectangle", {"x_size": 2, "y_size": 2, "formula": "seeded-uniform", "seed": HUGE}, "--size", 1, "--seed", 1],
        "contradicts",
    ),
    "huge-quad-order": (["quad", {"cyclic": HUGE}, "--colors", "2"], "cyclic order"),
    "huge-quad-colors": (["quad", {"cyclic": 5}, "--colors", -HUGE], "color count"),
    "huge-prefix-k": (["prefix-color", HUGE], "exceeds the limit"),
    "huge-prefix-limit": (["prefix-color", "2", "--limit", HUGE], "limit must be"),
    # computed values: a threshold or a count past the interpreter's int-to-str limit
    "huge-pigeonhole": (
        ["rectangle", {"formula": "constant", "x_size": 2, "y_size": 2, "colors": HUGE}, "--size", HUGE],
        "pigeonhole premise failed",
    ),
    "huge-quad-thresholds": (
        ["quad", {"cyclic": 101}, "--colors", 10**1500, "--formula", "seeded-uniform", "--seed", 1],
        "group too small",
    ),
    "huge-sampled-count": (
        ["check-axioms", {"kind": "graphic", "complete": 4}, "--budget", f"sampled:{HUGE}", "--seed", 1],
        "exceeds the cap",
    ),
}


@pytest.mark.parametrize("argv,named", BOUNDED.values(), ids=BOUNDED)
def test_a_refusal_echoes_a_bounded_repr_of_the_bad_value(tmp_path, capsys, argv, named):
    argv = [write_json(tmp_path / "input.json", a) if isinstance(a, dict) else a for a in argv]
    assert run([*argv, "--out", tmp_path / "x.json"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("hullcover: error: ") and named in line and len(line.encode()) < 400, line[:500]


# the sets are counted size by size, stopping past the listing bound: K_175 with K = 100,000 once
# summed 15,226 binomials to a 15,252-bit estimate that str could not print
@pytest.mark.parametrize("complete,k", [(175, "100000"), (14, "1" + "0" * 600)], ids=["K175", "K14-huge-K"])
def test_an_exhaustive_budget_refusal_is_bounded_in_time_and_length(tmp_path, capsys, complete, k):
    spec = write_json(tmp_path / "spec.json", {"kind": "graphic", "complete": complete})
    started = time.perf_counter()
    assert run(["check-axioms", spec, "--budget", f"exhaustive:{k}", "--out", tmp_path / "x.json"]) == 2
    assert time.perf_counter() - started < 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("hullcover: error: exhaustive hull-operator sweep over ") and len(line.encode()) <= 400
    assert " needs more than " in line and "(cap 2000000)" in line, line


@pytest.mark.parametrize("k", [8, 9])
def test_a_prefix_coloring_document_holds_no_list_per_edge(k):
    # each edge is the (u, v, color) tuple the coloring yields, with no list copied from it
    tracemalloc.start()
    try:
        result = cli._run_prefix_color(Fields({"k": k, "verify": True}, "parameters"), None)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / math.comb(2**k, 2) < sys.getsizeof((0, 0, 0)) + 20
    assert result[1]["edges"][0] == (0, 1, k - 1)


# --- manifests and determinism ----------------------------------------------------------


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["partition", bad, "--out", tmp_path / "x.json"]) == 2
    unknown = write_json(tmp_path / "unknown.json", {"kind": "banana"})
    assert run(["partition", unknown, "--out", tmp_path / "y.json"]) == 2
    missing = write_json(tmp_path / "missing.json", {"kind": "vector_fp"})
    assert run(["partition", missing, "--out", tmp_path / "z.json"]) == 2
    bad_specs = [
        {"kind": "vector_fp", "p": 2, "vectors": [[1, "x"]]},
        {"kind": "vector_fp", "p": 2, "vectors": [1, 0]},
        {"kind": "vector_q", "vectors": [[None]]},
        # a rational is an int or a "p/q" string, never a float or a boolean
        {"kind": "vector_q", "vectors": [[0.1, 1], [1, 0]]},
        {"kind": "vector_q", "vectors": [[True, 0], [1, 1]]},
        # nor an exponent, which would expand past the digits a label may print
        {"kind": "vector_q", "vectors": [["1e5000", 1], [1, 0]]},
        {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [2]]},
        {"kind": "graphic", "vertices": 3, "edges": [[0, "y"]]},
        {"kind": "graphic", "vertices": 3, "edges": [4]},
        {"kind": "abelian", "orders": [2, "z"]},
        {"kind": "vector_fp", "p": 2, "dim": -1},
        # an integer is never a boolean
        {"kind": "graphic", "complete": True},
        {"kind": "vector_fp", "p": 2, "vectors": [[True, False], [False, True]]},
        # non-integral numbers are refused, not truncated
        {"kind": "graphic", "complete": 3.7},
        {"kind": "vector_fp", "p": 2.9, "dim": 2},
        {"kind": "integer_linear", "window": 5.5},
        {"kind": "graphic", "vertices": 3, "edges": [[0, 1.5], [1, 2]]},
        # sizes no index can hold are refused, not left to overflow
        {"kind": "graphic", "complete": 10**30},
        {"kind": "vector_fp", "p": 2, "dim": 10**30},
        {"kind": "abelian", "orders": [10**30]},
        {"kind": "integer_linear", "window": 10**30},
        {"kind": "integer_subgroup", "window": 10**30},
        # sizes an index holds but memory does not are refused before anything is listed
        {"kind": "integer_linear", "window": 10**18},
        {"kind": "graphic", "complete": 10**5},
        {"kind": "graphic", "vertices": 10**18, "edges": [[0, 1]]},
        {"kind": "vector_fp", "p": 2, "dim": 64},
        {"kind": "vector_fp", "p": 3, "dim": 13},
        {"kind": "abelian", "orders": [10**9, 10**9]},
        {"kind": "abelian", "orders": [1000003]},
        # a field size past 2^40 is refused before trial division could test it
        {"kind": "vector_fp", "p": 1000000000000000003, "vectors": [[1]]},
    ]
    for i, spec in enumerate(bad_specs):
        path = write_json(tmp_path / f"spec{i}.json", spec)
        assert run(["partition", path, "--out", tmp_path / "s.json"]) == 2, spec
    k4 = write_json(tmp_path / "k4.json", {"kind": "graphic", "complete": 4})
    for budget in ("sampled:abc", "exhaustive:x", "sampled:-5", "sampled:0", "exhaustive:-1",
                   "sampled:5:-1"):
        assert run(["check-axioms", k4, "--budget", budget, "--out", tmp_path / "b.json"]) == 2
    array = write_json(tmp_path / "array.json", [1, 2, 3])
    assert run(["rerun", array, "--out", tmp_path / "r.json"]) == 2
    # a manifest that bypasses Budget.parse meets the same bounds
    assert run(["check-axioms", k4, "--budget", "sampled:5", "--out", tmp_path / "ok.json"]) == 0
    document = load(tmp_path / "ok.json")
    document["manifest"]["parameters"]["budget"]["count"] = -5
    edited = write_json(tmp_path / "edited.json", document)
    assert run(["rerun", edited, "--out", tmp_path / "r.json"]) == 2
    # missing or mistyped parameters in a rerun manifest
    manifest = document["manifest"]
    budget = {**manifest["parameters"]["budget"], "count": 5}
    mod_coloring = {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"}
    manifests = [
        {"subcommand": "partition", "parameters": {"basis": None}},
        {"subcommand": "partition", "parameters": [1, 2]},
        {"subcommand": "group", "parameters": {"op": "torsion", "orders": [4], "n": None}},
        {"subcommand": "quad", "parameters": {"group": {"cyclic": 5}, "coloring": {}}},
        {"subcommand": "prefix-color", "parameters": {"k": "x"}},
        {"subcommand": "prefix-color", "parameters": {"k": 2, "limit": [1]}},
        # verify is JSON true or false, never a string or number read as truthy
        {"subcommand": "prefix-color", "parameters": {"k": 2, "verify": "false"}},
        {"subcommand": "prefix-color", "parameters": {"k": 2, "verify": 1}},
        # an integer is never a boolean
        {"subcommand": "prefix-color", "parameters": {"k": True}, "seed": False},
        {"subcommand": "prefix-color", "parameters": {"k": True}},
        {"subcommand": "rectangle", "parameters": {"coloring": {"x_size": 3, "y_size": 6}, "size": "z"}},
        {"subcommand": "rectangle", "parameters": {"coloring": mod_coloring, "size": 2.5}},
        {"subcommand": "quad", "parameters": {"group": {"cyclic": 5}, "coloring": {"colors": "c"}}},
        {"subcommand": "group", "parameters": {"op": "torsion", "orders": [4], "n": "q"}},
        {"subcommand": "group", "parameters": {"op": "decompose", "orders": "4x"}},
        {"subcommand": "group", "parameters": {"op": "decompose", "orders": 5}},
        {"subcommand": "group", "parameters": {"op": "independence", "orders": [4], "elements": [["a"]]}},
        {"subcommand": "group", "parameters": {"op": "independence", "orders": [4], "elements": [1]}},
        {"subcommand": "partition", "parameters": {"spec": {"kind": "graphic", "complete": 3}, "basis": 5}},
        {"subcommand": ["partition"], "parameters": {}},
    ] + [
        # coloring seeds that are not integers
        {"subcommand": "quad", "parameters": {
            "group": {"cyclic": 5}, "coloring": {"formula": "seeded-uniform", "colors": 1, "seed": seed}}}
        for seed in ([1], {"a": 1}, 1.5)
    ] + [
        {**manifest, "parameters": {**manifest["parameters"], "budget": bad}}
        for bad in (
            {k: v for k, v in budget.items() if k != "mode"},
            {k: v for k, v in budget.items() if k != "max_subset_size"},
            "sampled:5",
            None,
        )
    ] + [
        # a budget seed may not contradict the top-level seed
        {**manifest, "seed": 7, "parameters": {**manifest["parameters"], "budget": budget}},
    ]
    for i, bad in enumerate(manifests):
        path = write_json(tmp_path / f"manifest{i}.json", {"manifest": bad})
        assert run(["rerun", path, "--out", tmp_path / "r.json"]) == 2, bad
    # coloring files without sizes, not an object, or with mistyped values
    colorings = [
        {"y_size": 10, "colors": 2, "formula": "mod"},
        {"x_size": 3},
        [[0, 1]],
        {"x_size": "a", "y_size": 6, "colors": 2, "formula": "mod"},
        {"x_size": 3, "y_size": 6, "colors": "two", "formula": "mod"},
        {"x_size": 3, "y_size": 6, "formula": "constant", "value": "v"},
        {"colors": 2, "table": [[0, 1], [1, "a"]]},
    ] + [
        {"x_size": 3, "y_size": 6, "colors": 2, "formula": "seeded-uniform", "seed": seed}
        for seed in ([1], {"a": 1}, 1.5)
    ]
    for coloring in colorings:
        path = write_json(tmp_path / "coloring.json", coloring)
        assert run(["rectangle", path, "--size", "2", "--out", tmp_path / "c.json"]) == 2, coloring
    # a coloring file's seed may not contradict --seed
    seeded = write_json(tmp_path / "seeded.json", {**colorings[-1], "seed": 3})
    assert run(["rectangle", seeded, "--size", "2", "--seed", "9", "--out", tmp_path / "c.json"]) == 2
    groups = [5, {"cyclic": "q"}, {"orders": [2, "z"]}, {"table": [[0, 1], [1, "a"]]},
              {"cyclic": 10**30}, {"orders": [10**30]}, {"cyclic": 10**18}, {"orders": [10**9, 10**9]}]
    for group in groups:
        path = write_json(tmp_path / "group.json", group)
        assert run(["quad", path, "--colors", "1", "--out", tmp_path / "q.json"]) == 2, group
    # an --out that cannot be written: a missing directory, or a directory itself
    (tmp_path / "outdir").mkdir()
    for out in (tmp_path / "missing" / "x.json", tmp_path / "outdir", "."):
        assert run(["prefix-color", "2", "--out", out]) == 2, out
    assert not list(tmp_path.glob(".*.tmp"))
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    expected = 3 + len(bad_specs) + 6 + 2 + len(manifests) + len(colorings) + 1 + len(groups) + 3
    assert len(errors) == expected
    assert all(line.startswith("hullcover: error: ") for line in errors)
    assert "hullcover: error: coloring seed 3 contradicts --seed 9" in errors
    assert "hullcover: error: budget seed 0 contradicts --seed 7" in errors
    # command-line errors, a limit past 12 and a coloring past the listing bound
    # return 2 with one line, raising no SystemExit
    mod = write_json(tmp_path / "mod.json", {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"})
    huge = write_json(tmp_path / "huge.json", {"x_size": 3, "y_size": 10**18, "formula": "constant", "colors": 2})
    for args in (
        ["rectangle", mod, "--size", "x"],
        ["rectangle", mod],
        ["prefix-color", "x"],
        ["prefix-color", "2", "--bogus"],
        ["banana"],
        [],
        ["group", "sum", "--orders", "4"],
        ["prefix-color", "16", "--limit", "16"],
        ["prefix-color", "2", "--limit", "13"],
        ["rectangle", huge, "--size", "2"],
        # a budget with more numbers than its form, and a sampled sweep that evaluates nothing:
        # the one drawn set spans K_4, so no exchange pair lies outside its closure
        ["check-axioms", k4, "--budget", "exhaustive:2:9"],
        ["check-axioms", k4, "--budget", "sampled:5:2:77"],
        ["check-axioms", k4, "--budget", "sampled:1:6", "--seed", "0"],
    ):
        assert run([*args, "--out", tmp_path / "c.json"] if args else args) == 2, args
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("hullcover: error: "), (args, errors)
    assert not (tmp_path / "c.json").exists()
    for command in ([], *([name] for name in [*cli._SUBCOMMANDS, "rerun"])):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--help"])
        assert exc.value.code == 0, command


def test_a_bad_value_gets_one_message_on_the_command_line_and_in_a_rerun(tmp_path, capsys):
    mod_coloring = {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"}
    mod = write_json(tmp_path / "mod.json", mod_coloring)
    k4_spec = {"kind": "graphic", "complete": 4}
    k4 = write_json(tmp_path / "k4.json", k4_spec)
    z5 = write_json(tmp_path / "z5.json", {"cyclic": 5})
    exhaustive = {"mode": "exhaustive", "max_subset_size": 3}
    cases = [
        (["rectangle", mod, "--size", "x"], "rectangle", {"coloring": mod_coloring, "size": "x"}, None,
         "size: expected an integer, got 'x'"),
        (["prefix-color", "x"], "prefix-color", {"k": "x"}, None, "k: expected an integer, got 'x'"),
        (["prefix-color", "2", "--limit", "q"], "prefix-color", {"k": "2", "limit": "q"}, None,
         "limit: expected an integer, got 'q'"),
        (["quad", z5, "--colors", "two"], "quad", {"group": {"cyclic": 5}, "coloring": {"colors": "two"}},
         None, "colors: expected an integer, got 'two'"),
        (["group", "torsion", "--orders", "4", "--n", "z"], "group", {"op": "torsion", "orders": ["4"], "n": "z"},
         None, "n: expected an integer, got 'z'"),
        (["rectangle", mod, "--size", "2", "--seed", "s"], "rectangle", {"coloring": mod_coloring, "size": "2"},
         "s", "seed: expected an integer, got 's'"),
        (["check-axioms", k4, "--seed", "s"], "check-axioms", {"spec": k4_spec, "budget": exhaustive}, "s",
         "seed: expected an integer, got 's'"),
        (["check-axioms", k4, "--budget", "sampled:x"], "check-axioms",
         {"spec": k4_spec, "budget": {**exhaustive, "mode": "sampled", "count": "x"}}, None,
         "count: expected an integer, got 'x'"),
        (["quad", z5, "--colors", "1", "--formula", "bogus"], "quad",
         {"group": {"cyclic": 5}, "coloring": {"colors": "1", "formula": "bogus"}}, None,
         "unknown coloring formula 'bogus'"),
        (["group", "sum", "--orders", "4"], "group", {"op": "sum", "orders": ["4"]}, None,
         "unknown group operation 'sum'"),
        # a parameter the operation does not use is refused, not recorded
        (["group", "decompose", "--orders", "4", "--n", "-1"], "group", {"op": "decompose", "orders": ["4"], "n": "-1"},
         None, "group decompose takes no n, got -1"),
        (["group", "decompose", "--orders", "4", "--elements", "1;2"], "group",
         {"op": "decompose", "orders": ["4"], "elements": [["1"], ["2"]]}, None,
         "group decompose takes no elements, got [[1], [2]]"),
        (["group", "torsion", "--orders", "4", "--n", "2", "--elements", "1"], "group",
         {"op": "torsion", "orders": ["4"], "n": "2", "elements": [["1"]]}, None,
         "group torsion takes no elements, got [[1]]"),
        (["group", "independence", "--orders", "4", "--elements", "1", "--n", "3"], "group",
         {"op": "independence", "orders": ["4"], "elements": [["1"]], "n": "3"}, None,
         "group independence takes no n, got 3"),
        (["group", "sum", "--orders", "4", "--n", "3"], "group", {"op": "sum", "orders": ["4"], "n": "3"}, None,
         "unknown group operation 'sum'"),
    ]
    out = tmp_path / "out.json"
    for argv, subcommand, parameters, seed, message in cases:
        manifest = {"subcommand": subcommand, "parameters": parameters, "seed": seed}
        rerun = ["rerun", write_json(tmp_path / "manifest.json", {"manifest": manifest})]
        for args in (argv, rerun):
            capsys.readouterr()
            assert run([*args, "--out", out]) == 2, args
            assert capsys.readouterr().err.splitlines() == [f"hullcover: error: {message}"], args
    assert not out.exists()


def test_the_parser_casts_and_chooses_nothing():
    # Fields is the one reader that casts, defaults or refuses a value
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
    ]
    assert len(calls) >= 20
    for call in calls:
        assert not {kw.arg for kw in call.keywords} & {"type", "choices"}, ast.unparse(call)


def test_the_parser_is_built_once_and_keeps_no_state_between_runs(tmp_path, vec_spec, capsys):
    assert cli._build_parser() is cli._build_parser()
    out = tmp_path / "out.json"

    def parameters(*argv, code=0):
        assert run([*argv, "--out", out]) == code, argv
        return load(out)["manifest"]

    assert parameters("check-axioms", vec_spec, "--seed", "5")["seed"] == 5
    assert parameters("check-axioms", vec_spec)["seed"] is None
    assert parameters("prefix-color", "2", "--verify")["parameters"]["verify"] is True
    assert parameters("prefix-color", "2")["parameters"]["verify"] is False
    assert parameters("partition", vec_spec, "--basis", "1,2")["parameters"]["basis"] == [1, 2]
    assert parameters("partition", vec_spec)["parameters"]["basis"] is None
    rectangle = write_json(tmp_path / "coloring.json", {"x_size": 3, "y_size": 3})
    assert run(["rectangle", rectangle, "--out", out]) == 2
    assert "--size" in capsys.readouterr().err
    assert run(["rectangle", rectangle, "--size", "2", "--out", out]) == 0


def test_integer_string_seeds_are_recorded_as_integers(tmp_path):
    coloring = {"x_size": 3, "y_size": 9, "colors": 2, "formula": "seeded-uniform"}
    outputs = []
    for i, seed in enumerate(("1", 1)):
        path = write_json(tmp_path / f"coloring{i}.json", {**coloring, "seed": seed})
        outputs.append(tmp_path / f"out{i}.json")
        assert run(["rectangle", path, "--size", "2", "--out", outputs[-1]]) == 0
    assert load(outputs[0])["manifest"]["parameters"]["coloring"]["seed"] == 1
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


GOLDEN_RUNS = [
    (["partition", "SPEC:vector"], {"kind": "vector_fp", "p": 2, "dim": 2}),
    (["check-axioms", "SPEC:intsub"], {"kind": "integer_subgroup", "window": 5}),
    (["rectangle", "SPEC:mod", "--size", "2"], {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"}),
    (["quad", "SPEC:group", "--colors", "1"], {"cyclic": 101}),
    (["prefix-color", "2", "--verify"], None),
    (["group", "independence", "--orders", "4", "--elements", "1;3"], None),
]


@pytest.mark.parametrize("template,spec", GOLDEN_RUNS, ids=lambda t: t[0] if isinstance(t, list) else "")
def test_golden_outputs_are_reproducible(tmp_path, template, spec):
    args = list(template)
    if spec is not None:
        args[1] = write_json(tmp_path / "input.json", spec)
    first, second, third = (tmp_path / n for n in ("a.json", "b.json", "c.json"))

    code = run(args + ["--out", first])
    assert code in (0, 3)
    assert run(args + ["--out", second]) == code
    assert first.read_bytes() == second.read_bytes()

    # re-running the embedded manifest reproduces the document byte for byte
    assert run(["rerun", first, "--out", third]) == code
    assert first.read_bytes() == third.read_bytes()


GOLDEN = Path(__file__).resolve().parent / "golden"
EXTRA_MANIFESTS = {
    "vector_q": {
        "subcommand": "partition",
        "parameters": {
            "spec": {"kind": "vector_q", "vectors": [["1/2", 0, 1], [1, "3", 0], [0, 0, "-2/3"], [1, 3, "0"]]},
            "basis": [0, 1, 2],
        },
        "seed": None,
    },
    "graphic-edges": {
        "subcommand": "check-axioms",
        "parameters": {
            "spec": {"kind": "graphic", "vertices": 5, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 2]]},
            "budget": {"mode": "sampled", "max_subset_size": 3, "seed": 4, "count": 30},
        },
        "seed": 4,
    },
}
MANIFESTS = sorted(p.name for p in GOLDEN.glob("*.json")) + sorted(EXTRA_MANIFESTS)


def _non_canonical(value, rng, forms):
    """``value`` with each integer an integer string or an integral float, and
    keys shuffled; a vector_q spec keeps its entries as written."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        keep = {"vectors"} if value.get("kind") == "vector_q" else set()
        return {k: value[k] if k in keep else _non_canonical(value[k], rng, forms) for k in keys}
    if isinstance(value, list):
        return [_non_canonical(v, rng, forms) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return next(forms)(value)
    return value


def _rerun(tmp_path, name, manifest):
    out = tmp_path / f"{name}.out.json"
    code = run(["rerun", write_json(tmp_path / f"{name}.json", {"manifest": manifest}), "--out", out])
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("name", MANIFESTS)
def test_rerun_of_a_rewritten_manifest_is_byte_identical(tmp_path, name):
    if name in EXTRA_MANIFESTS:
        manifest = EXTRA_MANIFESTS[name]
    else:
        manifest = load(GOLDEN / name)["manifest"]
    manifest = {k: manifest[k] for k in ("subcommand", "parameters", "seed")}
    forms = itertools.cycle((str, float))
    rewritten = _non_canonical(manifest, random.Random(name), forms)
    assert json.dumps(rewritten, sort_keys=True) != json.dumps(manifest, sort_keys=True)

    code, plain = _rerun(tmp_path, "plain", manifest)
    assert code in (0, 3)
    assert _rerun(tmp_path, "rewritten", rewritten) == (code, plain)


def test_reruns_record_parameters_as_read(tmp_path):
    # a coloring seed written as a string reruns as the integer seed
    seeded = {"formula": "seeded-uniform", "colors": 2}
    as_text, as_int = (
        _rerun(tmp_path, f"quad{i}", {"subcommand": "quad", "parameters": {
            "group": {"cyclic": 31}, "coloring": {**seeded, "seed": seed}}})
        for i, seed in enumerate(("1", 1))
    )
    assert as_text == as_int and as_text[0] == 0
    assert json.loads(as_text[1])["manifest"]["parameters"]["coloring"]["seed"] == 1

    # a spec field written as a string is recorded as the integer, as a fresh run has it
    fresh = tmp_path / "fresh.json"
    k4 = write_json(tmp_path / "k4.json", {"kind": "graphic", "complete": 4})
    assert run(["check-axioms", k4, "--out", fresh]) == 0
    budget = {"mode": "exhaustive", "max_subset_size": 3}
    manifest = {"subcommand": "check-axioms", "parameters": {
        "spec": {"kind": "graphic", "complete": "4"}, "budget": budget}}
    assert _rerun(tmp_path, "k4", manifest) == (0, fresh.read_bytes())

    # defaults are filled in: {"k": "2"} is what prefix-color 2 records
    assert run(["prefix-color", "2", "--out", fresh]) == 0
    manifest = {"subcommand": "prefix-color", "parameters": {"k": "2"}}
    assert _rerun(tmp_path, "k2", manifest) == (0, fresh.read_bytes())


def test_an_exhaustive_budget_refuses_a_seed_or_count_in_a_rerun(tmp_path, capsys):
    # the command line cannot give an exhaustive budget either; a rerun manifest can
    manifest = load(GOLDEN / "02-check-axioms.json")["manifest"]
    for key, value, shown in (("count", -1, "COUNT, got -1"), ("seed", 5, "seed, got 5"),
                              ("count", 2**3000, "COUNT, got <int of 3001 bits>")):
        budget = {**manifest["parameters"]["budget"], key: value}
        edited = {**manifest, "parameters": {**manifest["parameters"], "budget": budget}}
        capsys.readouterr()
        assert _rerun(tmp_path, "edited", edited) == (2, None)
        assert capsys.readouterr().err.splitlines() == [f"hullcover: error: exhaustive budget takes no {shown}"]


def test_a_sampled_budget_reads_its_seed_as_a_coloring_does(tmp_path, capsys):
    k4_spec = {"kind": "graphic", "complete": 4}
    k4 = write_json(tmp_path / "k4.json", k4_spec)
    for seed in (None, "7"):
        fresh = tmp_path / "fresh.json"
        assert run(["check-axioms", k4, "--budget", "sampled:5", *(["--seed", seed] if seed else []),
                    "--out", fresh]) == 0
        # a null budget seed takes the top-level seed, or 0, as the fresh run did
        budget = {"mode": "sampled", "count": 5, "max_subset_size": 3, "seed": None}
        manifest = {"subcommand": "check-axioms", "parameters": {"spec": k4_spec, "budget": budget}, "seed": seed}
        code, first = _rerun(tmp_path, "null-seed", manifest)
        assert (code, first) == (0, fresh.read_bytes())
        assert run(["rerun", tmp_path / "null-seed.out.json", "--out", fresh]) == 0
        assert fresh.read_bytes() == first
    budget = {"mode": "sampled", "count": 5, "max_subset_size": 3, "seed": 5}
    manifest = {"subcommand": "check-axioms", "parameters": {"spec": k4_spec, "budget": budget}, "seed": 11}
    capsys.readouterr()
    assert _rerun(tmp_path, "contradiction", manifest) == (2, None)
    assert capsys.readouterr().err.splitlines() == ["hullcover: error: budget seed 5 contradicts --seed 11"]


def test_rerun_rejects_foreign_documents(tmp_path):
    bad = write_json(tmp_path / "m.json", {"manifest": {"subcommand": "nope", "parameters": {}}})
    assert run(["rerun", bad, "--out", tmp_path / "x.json"]) == 2
    empty = write_json(tmp_path / "n.json", {"some": "thing"})
    assert run(["rerun", empty, "--out", tmp_path / "y.json"]) == 2


def test_stdout_output_when_no_out_given(capsys, tmp_path):
    spec = write_json(tmp_path / "vec.json", {"kind": "vector_fp", "p": 2, "dim": 2})
    assert run(["partition", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "manifest" in payload and "partition" in payload


def test_closed_stdout_exits_2_with_one_line():
    # the pipe's read end is closed before the run starts, so every write fails
    reader, writer = os.pipe()
    os.close(reader)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hullcover.cli", "prefix-color", "3"],
            stdout=writer, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(writer)
    assert proc.returncode == 2
    (line,) = proc.stderr.decode().splitlines()
    assert line.startswith("hullcover: error: cannot write stdout: "), line


# --- the document writer ------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 3


# the values a document holds that json.dumps treats with care: huge and
# negative ints, bools among ints, escapes, non-ASCII text, empty containers,
# tuples and nesting
DOCUMENT = {
    "rows": [[0, 1, 2], [], [3, True, -4], (5, -2**70)],
    "text": ["", "caf\u00e9 \u2192 \U0001f600", "tab\tquote\"back\\slash\n\x00\x1f\u2028"],
    "keys": [{"b": "str", "": None, "\u00e9": False}, {"null": None}],
    "empty": [{}, [], ()],
    "nested": {"b": [{"z": 2**70, "a": [False]}], "a": ()},
}


def test_writer_matches_json_dumps_byte_for_byte(tmp_path, capsys):
    out = tmp_path / "doc.json"
    expected = (json.dumps(DOCUMENT, indent=2, sort_keys=True) + "\n").encode()
    assert cli._write_document(DOCUMENT, out) == len(expected)
    assert out.read_bytes() == expected
    assert cli._write_document(DOCUMENT, None) == len(expected)
    assert capsys.readouterr().out.encode() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_writer_keeps_an_existing_files_mode_and_owner(tmp_path):
    out = tmp_path / "doc.json"
    out.write_text("the previous document\n")
    out.chmod(0o640)
    owner = (4242, 4343) if os.geteuid() == 0 else (os.getuid(), os.getgid())
    os.chown(out, *owner)
    assert run(["prefix-color", "2", "--out", out]) == 0
    st = out.stat()
    assert (stat.S_IMODE(st.st_mode), st.st_uid, st.st_gid) == (0o640, *owner)
    assert json.loads(out.read_text())["manifest"]["subcommand"] == "prefix-color"


def test_writer_writes_through_a_symlink(tmp_path):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "doc.json"
    target.write_text("the previous document\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run(["prefix-color", "2", "--out", link]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["manifest"]["subcommand"] == "prefix-color"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["doc.json", "link.json", "real"]


def test_writer_writes_into_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "doc.fifo"
    os.mkfifo(fifo)
    # the read end is open before the writer opens the write end; the document
    # fits in the pipe's buffer, so writing it does not wait for the reader
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(["prefix-color", "2", "--out", fifo]) == 0
        text = b""
        while chunk := os.read(reader, 1 << 16):
            text += chunk
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    document = json.loads(text)
    assert text == (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()
    assert [p.name for p in tmp_path.iterdir()] == ["doc.fifo"]


def test_writer_replaces_a_stale_temporary_file_of_its_own_pid(tmp_path):
    out = tmp_path / "x.json"
    stale = tmp_path / f".x.json.{os.getpid()}.tmp"
    stale.write_text("left by a killed run")
    assert run(["prefix-color", "2", "--out", out]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", 1j, [[1, 2], [3, object()]], {"a": 1, 2: 3}, {(1,): 2}])
def test_writer_refuses_what_json_dumps_refuses(tmp_path, value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._write_document(value, tmp_path / "doc.json")
    assert list(tmp_path.iterdir()) == []


# what no document holds and json.dumps would write: floats, int and str
# subclasses, and non-str keys, each put where the writer takes each path
class Text(str):
    pass


PLACES = {
    "top": lambda v: v,
    "ints": lambda v: [1, v, 2],
    "rows": lambda v: [[1, 2], [3, v]],
    "nested": lambda v: {"a": [{"b": v}]},
}


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize(
    "document",
    [0.5, -0.0, math.nan, math.inf, Level.LOW, Text("a"), {3: "int"}, {None: "null"}, {True: "bool"}],
    ids=["float", "negative-zero", "nan", "inf", "int-enum", "str-subclass", "int-key", "none-key", "bool-key"],
)
def test_writer_refuses_what_no_document_holds(tmp_path, place, document):
    document = PLACES[place](document)
    with pytest.raises(TypeError):
        cli._write_text(document, io.StringIO())
    with pytest.raises(TypeError):
        cli._write_document(document, tmp_path / "doc.json")
    assert list(tmp_path.iterdir()) == []


class Record(dict):
    pass


class Row(list):
    pass


# scalars grouped by exact type, so a list drawn from one group is flat
SCALARS = {
    "int": [0, 1, -7, 2**70],
    "str": ["", "a", "caf\u00e9 \u2192 \U0001f600", "tab\tquote\"back\\slash\n\x00\x1f\u2028"],
    "bool": [True, False],
    "none": [None],
}
# bools and None among ints and text: not flat, so they take the recursive path
SCALARS["mixed"] = [*SCALARS["int"], True, False, None, "a"]
# str keys only, as every document has them
KEYS = [["b", "a", "\u00e9", "z\u2028", ""], ["key", "Key", "k\x00"]]


def _random_document(rng, depth):
    shape = rng.choice(["scalar", "flat", "mixed", "rows", "nested", "dict"] if depth else ["scalar", "flat"])
    if shape == "scalar":
        return rng.choice(rng.choice(list(SCALARS.values())))
    sequence = rng.choice([list, tuple, Row])
    if shape in ("flat", "mixed"):
        pool = SCALARS["mixed" if shape == "mixed" else rng.choice(list(SCALARS))]
        return sequence(rng.choice(pool) for _ in range(rng.randrange(4)))
    if shape == "rows":
        pool = rng.choice(list(SCALARS.values()))
        return sequence(
            rng.choice([list, tuple])(rng.choice(pool) for _ in range(rng.choice([0, 1, 3, 3])))
            for _ in range(rng.randrange(5))
        )
    if shape == "nested":
        return sequence(_random_document(rng, depth - 1) for _ in range(rng.randrange(4)))
    mapping = rng.choice([dict, Record])
    group = rng.choice(KEYS)
    keys = rng.sample(group, rng.randrange(len(group) + 1))
    return mapping((key, _random_document(rng, depth - 1)) for key in keys)


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(13)
    for i in range(400):
        document = _random_document(rng, rng.randrange(6))
        expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
        out = io.StringIO()
        assert cli._write_text(document, out) == len(expected), document
        assert out.getvalue() == expected, document
        # a value or a key json.dumps refuses, put anywhere in the document, is refused
        for refused in ({"x": {1, 2}}, {(1,): 2}):
            spoiled = [document, refused] if i % 2 else {"a": document, "b": [refused]}
            with pytest.raises(TypeError):
                json.dumps(spoiled, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                cli._write_text(spoiled, io.StringIO())


class _FillingDisk:
    """The writer's temporary file, failing with ENOSPC once ``room`` write calls are spent."""

    def __init__(self, real, room, calls):
        self.real, self.room, self.calls = real, room, calls

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.real.close()

    def fileno(self):
        return self.real.fileno()

    def write(self, text):
        if len(self.calls) == self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.calls.append(len(text))
        return self.real.write(text)


ROWS = [[i, -i] for i in range(2 * cli._CHUNKS_PER_WRITE)]


@pytest.mark.parametrize("document,room,error,calls", [
    ({"x": {1, 2}}, None, TypeError, 0),
    # the rows fill two write calls before the set is reached
    ({"a": ROWS, "x": {1, 2}}, None, TypeError, 2),
    ({"a": ROWS}, 1, InputError, 1),
], ids=["unencodable", "unencodable-mid-stream", "disk-full-mid-stream"])
def test_a_failed_write_leaves_the_output_untouched(tmp_path, monkeypatch, document, room, error, calls):
    written = []
    monkeypatch.setattr(cli, "open", lambda *a, **k: _FillingDisk(open(*a, **k), room, written), raising=False)
    out = tmp_path / "doc.json"
    out.write_text("the previous document\n")
    with pytest.raises(error):
        cli._write_document(document, out)
    assert len(written) == calls
    assert out.read_bytes() == b"the previous document\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def _patched_runner(monkeypatch, subcommand, result):
    _, parse = cli._SUBCOMMANDS[subcommand]
    monkeypatch.setitem(cli._SUBCOMMANDS, subcommand, (lambda params, seed: result, parse))


def test_unencodable_payload_leaves_the_output_untouched(tmp_path, monkeypatch):
    _patched_runner(monkeypatch, "prefix-color", ("unencodable", object(), {}, 0))
    out = tmp_path / "doc.json"
    out.write_text("the previous document\n")
    with pytest.raises(TypeError):
        run(["prefix-color", "2", "--out", out])
    assert out.read_bytes() == b"the previous document\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_writing_a_document_holds_less_than_its_text(tmp_path, monkeypatch):
    # the document is built before tracing starts, so the peak is the writer's own
    result = cli._run_prefix_color(Fields({"k": 8}, "parameters"), None)
    _patched_runner(monkeypatch, "prefix-color", result)
    out = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        assert run(["prefix-color", "8", "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size
    # written in many batches of chunks, the text is still json.dumps's
    key, payload = result[:2]
    document = json.loads(out.read_text())
    assert document[key] == json.loads(json.dumps(payload))
    assert out.read_text() == json.dumps(document, indent=2, sort_keys=True) + "\n"
