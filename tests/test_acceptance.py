"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 1 is expected to FAIL on its idempotence clause: the division
hull on abelian groups provably is not idempotent outside elementary
abelian and cyclic prime-power groups (in Z_6 the hull of {2} contains 1
because 2*1 = 2, and re-hulling through 1 reaches 3).  The other three
axioms pass everywhere.  See the test body; the failure message pins the
witnesses.
"""

import itertools
import json
import time
from math import comb
from pathlib import Path

from hullcover import cli
from hullcover.core import (
    Budget,
    check_exchange,
    check_hull_axioms,
    check_idempotent,
    is_independent,
    reverify_witness,
)
from hullcover.groups import (
    FiniteAbelianGroup,
    dependent_coset_pair,
    invariant_factor_groups,
    is_linearly_independent,
    primary_decomposition,
)
from hullcover.partition import layered_partition, verify_partition
from hullcover.ramsey import (
    ProductColoring,
    Rectangle,
    cyclic_group,
    even_cycle,
    fiber_bound,
    group_coloring,
    monochrome_bipartite,
    monochrome_rectangle,
    prefix_coloring,
    row_threshold,
    dependent_monochrome_quad,
    quad_thresholds,
    verify_no_monochrome_odd_cycle,
    verify_rectangle,
)
from hullcover.zoo import (
    GraphSpec,
    IntegerHullSpec,
    VectorMatroidSpec,
    build_abelian_linear_matroid,
    build_graphic_matroid,
    build_integer_hull,
    build_vector_matroid,
)

SEED_COUNT = 100


def _report(number, name, problems, extra=""):
    status = "PASS" if not problems else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")
    assert not problems, f"criterion {number} ({name}): " + "; ".join(
        str(p) for p in problems[:6]
    )


def criterion_suite():
    """Criterion 1's instance suite, reused by criterion 3."""
    suite = [build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=d)) for d in (1, 2, 3)]
    suite += [build_graphic_matroid(GraphSpec(n)) for n in (2, 3, 4, 5)]
    suite += [
        (build_abelian_linear_matroid(G), G.orders) for G in invariant_factor_groups(16)
    ]
    out = []
    for entry in suite:
        if isinstance(entry, tuple):
            out.append((entry[0], f"abelian{entry[1]}"))
        else:
            out.append((entry, entry.oracle.kind))
    return out


def test_criterion_1_matroid_axioms():
    budget = Budget.exhaustive(3)
    started = time.monotonic()
    problems = []
    for M, name in criterion_suite():
        for check in (check_hull_axioms, check_idempotent, check_exchange):
            report = check(M, budget)
            if not report.holds:
                assert reverify_witness(M, report)
                problems.append(f"{name}: {report.axiom} violated, witness {report.witness}")
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    _report(1, "matroid axioms", problems, f"{elapsed:.1f}s")


def test_criterion_2_counterexample_fidelity():
    problems = []
    sub = build_integer_hull(IntegerHullSpec(10, "subgroup"))
    lin = build_integer_hull(IntegerHullSpec(10, "linear"))
    if not is_independent(sub, {sub.index_of(2), sub.index_of(3)}):
        problems.append("{2,3} not independent under the subgroup hull")
    if is_independent(lin, {lin.index_of(2), lin.index_of(3)}):
        problems.append("{2,3} not dependent under the division hull")
    report = check_exchange(sub, Budget.exhaustive(3))
    if report.holds:
        problems.append("subgroup hull passed exchange")
    else:
        witness = report.witness
        got = (witness["A"], sub.label(witness["x"]), sub.label(witness["y"]))
        if got != ([], "2", "1"):
            problems.append(f"exchange witness {got} is not (empty, 2, 1)")
        if not reverify_witness(sub, report):
            problems.append("exchange witness did not re-verify")
    _report(2, "counterexample fidelity", problems)


def test_criterion_3_layered_partitions():
    problems = []
    for M, name in criterion_suite():
        P = layered_partition(M)
        report = verify_partition(M, P)
        if not report.ok:
            problems.append(f"{name}: {report.detail}")
        if not P.all_certified:
            problems.append(f"{name}: a class certificate failed")
        if len(P.classes) != P.decomposition.max_layer_size:
            problems.append(f"{name}: class count != max layer size")

    f2 = build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=2))
    got = [tuple(f2.labels_of(c)) for c in layered_partition(f2).classes]
    if got != [("(0,1)", "(1,0)"), ("(1,1)",)]:
        problems.append(f"F_2 d=2 classes {got}")

    k4 = build_graphic_matroid(GraphSpec(4))
    star = tuple(k4.index_of((0, v)) for v in (1, 2, 3))
    P = layered_partition(k4, star)
    if [len(c) for c in P.classes] != [3, 2, 1]:
        problems.append(f"K_4 star class sizes {[len(c) for c in P.classes]}")
    for cls in P.classes:
        if not is_independent(k4, cls):
            problems.append("K_4 star class is not a forest")
    _report(3, "layered partitions", problems)


def test_criterion_4_monochrome_rectangles():
    problems = []
    runs = 0
    for ncolors in (2, 3):
        for lam in (2, 3):
            nx = ncolors * (lam - 1) + 1
            ny = 3 * comb(nx, lam) * ncolors + 1
            assert nx == row_threshold(ncolors, lam)
            for seed in range(SEED_COUNT):
                C = ProductColoring.seeded_uniform(nx, ny, ncolors, seed)
                rect = monochrome_rectangle(C, lam)
                runs += 1
                if len(rect.A) != lam:
                    problems.append(f"c={ncolors} lam={lam} seed={seed}: |A| != lam")
                if not verify_rectangle(C, rect):
                    problems.append(f"c={ncolors} lam={lam} seed={seed}: cell check failed")
                if len(rect.Z) < fiber_bound(C, lam):
                    problems.append(f"c={ncolors} lam={lam} seed={seed}: fiber below bound")
    _report(4, "monochrome rectangles", problems, f"{runs} colorings")


def _subgroup_generated(group, generators):
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                for cand in (group.mul(e, g), group.mul(e, group.inv(g))):
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return seen


def _oracle_finds_monochrome_dependent_quad(group, chi):
    by_color = {}
    for g in range(group.order):
        if g != group.identity:
            by_color.setdefault(chi(g), []).append(g)
    for members in by_color.values():
        for quad in itertools.combinations(members, 4):
            for leave_out in quad:
                rest = [g for g in quad if g != leave_out]
                if leave_out in _subgroup_generated(group, rest):
                    return True
    return False


def test_criterion_5_dependent_monochrome_quadruples():
    problems = []
    runs = 0
    for ncolors in (1, 2):
        smallest = quad_thresholds(ncolors)["min_non_identity"] + 1
        group = cyclic_group(smallest)
        for seed in range(SEED_COUNT):
            chi = group_coloring(
                group, {"formula": "seeded-uniform", "colors": ncolors, "seed": seed}
            )
            cert = dependent_monochrome_quad(group, chi, ncolors)
            runs += 1
            if len(set(cert.elements)) != 4:
                problems.append(f"c={ncolors} seed={seed}: elements not distinct")
            if len({chi(g) for g in cert.elements}) != 1:
                problems.append(f"c={ncolors} seed={seed}: not monochrome")
            ax, bx, ay, by = cert.elements
            if group.mul(group.mul(ay, group.inv(by)), bx) != ax:
                problems.append(f"c={ncolors} seed={seed}: relation failed")
            if not _oracle_finds_monochrome_dependent_quad(group, chi):
                problems.append(f"c={ncolors} seed={seed}: oracle found no dependent 4-set")
    _report(5, "dependent monochrome quadruples", problems, f"{runs} colorings")


def test_criterion_6_prefix_colorings():
    problems = []
    for k in (1, 2, 3, 4):
        E = prefix_coloring(k)
        used = {c for _, _, c in E.edges()}
        if used != set(range(k)):
            problems.append(f"k={k}: colors used {sorted(used)}")
        if not verify_no_monochrome_odd_cycle(E).ok:
            problems.append(f"k={k}: monochrome odd cycle found")
        if k < 2:
            continue
        if k >= 3:
            rect = monochrome_bipartite(E, 2)
        else:
            # halves of K_4 are below the bipartite pigeonhole threshold for
            # 2 colors, so take the candidate pair straight off the halves
            half = E.n // 2
            rect = Rectangle(A=(0, 1), Z=(half, half + 1), color=0)
        for a in rect.A[:2]:
            for z in rect.Z[:2]:
                if E.color_of(a, z) != rect.color:
                    problems.append(f"k={k}: rectangle cell ({a},{z}) off-color")
        if rect.color != 0:
            problems.append(f"k={k}: rectangle color {rect.color} is not 0")
        cycle = even_cycle(Rectangle(rect.A[:2], rect.Z[:2], rect.color), 2)
        if len(cycle) != 4 or len(set(cycle)) != 4:
            problems.append(f"k={k}: bad 4-cycle {cycle}")
        for i, u in enumerate(cycle):
            if E.color_of(u, cycle[(i + 1) % 4]) != 0:
                problems.append(f"k={k}: cycle edge off color 0")
    _report(6, "first-differing-bit colorings", problems)


def test_criterion_7_abelian_equivalence():
    problems = []
    pairs_checked = 0
    for G in invariant_factor_groups(12):
        M = build_abelian_linear_matroid(G)
        for size in range(min(3, G.order) + 1):
            for A in itertools.combinations(G.elements, size):
                direct = is_linearly_independent(G, A)
                hull = is_independent(M, [M.index_of(e) for e in A])
                pairs_checked += 1
                if direct != hull:
                    problems.append(f"{G.orders}: disagreement on {A}")
        if not primary_decomposition(G).direct_sum_verified:
            problems.append(f"{G.orders}: primary decomposition failed to verify")

    z4 = FiniteAbelianGroup((4,))
    cert = dependent_coset_pair(z4, 2, 1, 1, 0, 2)
    if is_linearly_independent(z4, cert.pair) or cert.common_image == z4.zero:
        problems.append("Z_4 coset pair certificate invalid")
    z2z4 = FiniteAbelianGroup((2, 4))
    cert = dependent_coset_pair(z2z4, 2, 1, (0, 1), (0, 0), (1, 2))
    if is_linearly_independent(z2z4, cert.pair) or cert.common_image == z2z4.zero:
        problems.append("Z_2+Z_4 coset pair certificate invalid")
    _report(7, "abelian equivalence", problems, f"{pairs_checked} subsets")


GOLDEN = [
    (["partition"], {"kind": "vector_fp", "p": 2, "dim": 2}),
    (["partition", "--basis", "0,1,2"], {"kind": "graphic", "complete": 4}),
    (["check-axioms", "--budget", "exhaustive:3"], {"kind": "integer_subgroup", "window": 5}),
    (["check-axioms", "--budget", "sampled:40", "--seed", "11"], {"kind": "abelian", "orders": [2, 4]}),
    (["rectangle", "--size", "2"], {"x_size": 3, "y_size": 6, "colors": 2, "formula": "mod"}),
    (["rectangle", "--size", "2", "--seed", "5"], {"x_size": 3, "y_size": 19, "colors": 2, "formula": "seeded-uniform"}),
    (["quad", "--colors", "1"], {"cyclic": 101}),
    (["quad", "--colors", "2", "--formula", "seeded-uniform", "--seed", "7"], {"cyclic": 26}),
    (["prefix-color", "3", "--verify"], None),
    (["group", "torsion", "--orders", "2,4", "--n", "2"], None),
    (["group", "decompose", "--orders", "6"], None),
    (["group", "independence", "--orders", "4", "--elements", "1;3"], None),
]


GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_argv(tmp_path, i):
    template, spec = GOLDEN[i]
    args = list(template)
    if spec is not None:
        spec_path = tmp_path / f"spec{i}.json"
        spec_path.write_text(json.dumps(spec))
        args.insert(1, str(spec_path))
    return args


def test_criterion_8_cli_determinism(tmp_path):
    problems = []
    for i, (template, spec) in enumerate(GOLDEN):
        args = golden_argv(tmp_path, i)
        first, second, rerun = (tmp_path / f"{i}{n}.json" for n in "abc")
        code = cli.main(args + ["--out", str(first)])
        if code not in (0, 3):
            problems.append(f"golden {template}: exit {code}")
            continue
        cli.main(args + ["--out", str(second)])
        if first.read_bytes() != second.read_bytes():
            problems.append(f"golden {template}: re-run differs")
        cli.main(["rerun", str(first), "--out", str(rerun)])
        if first.read_bytes() != rerun.read_bytes():
            problems.append(f"golden {template}: manifest re-run differs")
    _report(8, "CLI determinism", problems, f"{len(GOLDEN)} golden runs")


def golden_path(i):
    return GOLDEN_DIR / f"{i:02d}-{GOLDEN[i][0][0]}.json"


def golden_document(tmp_path, i):
    """The document of ``GOLDEN[i]`` without ``manifest.versions``, serialized as the CLI does."""
    out = tmp_path / f"golden{i}.json"
    cli.main(golden_argv(tmp_path, i) + ["--out", str(out)])
    document = json.loads(out.read_text())
    del document["manifest"]["versions"]
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_golden_documents_match(tmp_path):
    """Every ``GOLDEN`` invocation reproduces its committed document in ``tests/golden/``.

    ``manifest.versions`` is dropped on both sides, since it names the
    interpreter's version.  After an intended output change, regenerate the
    files from the repository root with

        PYTHONPATH=src:tests python -c "import pathlib, tempfile, test_acceptance as t; \\
            [t.golden_path(i).write_text(t.golden_document(pathlib.Path(tempfile.mkdtemp()), i)) \\
             for i in range(len(t.GOLDEN))]"
    """
    for i, (template, _) in enumerate(GOLDEN):
        assert golden_document(tmp_path, i) == golden_path(i).read_text(), template
