"""Command-line interface.

Every subcommand writes one JSON document containing the result plus a
manifest (subcommand, fully resolved parameters, seed, versions, verdicts).
Documents are serialized with sorted keys, so identical inputs produce
byte-identical files, and ``hullcover rerun OUTPUT`` re-executes the
manifest embedded in an output file.  Timing is reported on stderr only, to
keep the files reproducible.

Exit codes: 0 success with all certificates passing, 2 premise or parse
error, 3 certificate or verification failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from . import __version__
from .core import (
    Budget,
    BudgetError,
    InputError,
    InternalInconsistencyError,
    PremiseError,
    check_exchange,
    check_hull_axioms,
    check_idempotent,
    is_independent,
    reverify_witness,
)
from .groups import FiniteAbelianGroup, is_linearly_independent, n_torsion, primary_decomposition
from .partition import layered_partition, verify_partition
from .ramsey import (
    ProductColoring,
    cyclic_group,
    fiber_bound,
    group_coloring,
    group_from_abelian,
    monochrome_rectangle,
    prefix_coloring,
    table_group,
    dependent_monochrome_quad,
    quad_thresholds,
    verify_no_monochrome_odd_cycle,
    verify_rectangle,
)
from .zoo import build_abelian_linear_matroid, matroid_from_spec

EXIT_OK = 0
EXIT_PREMISE = 2
EXIT_CERTIFICATE = 3


def _load_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _decorate_witness(M, witness):
    if witness is None:
        return None
    out = dict(witness)
    for key in ("A", "B"):
        if key in out:
            out[f"{key}_labels"] = list(M.labels_of(out[key]))
    for key in ("x", "y"):
        if key in out:
            out[f"{key}_label"] = M.label(out[key])
    return out


def _require(mapping, keys, what):
    """Return ``mapping``; raise InputError unless it is an object holding every key."""
    if not isinstance(mapping, dict):
        raise InputError(f"{what} must be a JSON object, got {type(mapping).__name__}")
    missing = [key for key in keys if key not in mapping]
    if missing:
        raise InputError(f"{what} is missing {', '.join(map(repr, missing))}")
    return mapping


def _resolve_coloring(mapping, seed):
    resolved = dict(_require(mapping, (), "coloring"))
    if "table" in resolved:
        resolved.setdefault("formula", "table")
        return resolved
    if resolved.get("formula") == "seeded-uniform" and "seed" not in resolved:
        resolved["seed"] = 0 if seed is None else seed
    return resolved


def _coloring_from_dict(mapping):
    _require(mapping, (), "coloring")
    ncolors = int(mapping.get("colors", 1))
    if "table" in mapping:
        return ProductColoring.from_table(mapping["table"], ncolors)
    _require(mapping, ("x_size", "y_size"), "coloring without a table")
    nx, ny = int(mapping["x_size"]), int(mapping["y_size"])
    formula = mapping.get("formula", "constant")
    if formula == "constant":
        return ProductColoring.constant(nx, ny, ncolors, int(mapping.get("value", 0)))
    if formula == "mod":
        return ProductColoring.mod(nx, ny, ncolors)
    if formula == "seeded-uniform":
        return ProductColoring.seeded_uniform(nx, ny, ncolors, mapping.get("seed", 0))
    raise InputError(f"unknown coloring formula {formula!r}")


def _group_from_dict(mapping):
    if "cyclic" in _require(mapping, (), "group"):
        return cyclic_group(int(mapping["cyclic"]))
    if "orders" in mapping:
        return group_from_abelian(FiniteAbelianGroup(tuple(mapping["orders"])))
    if "table" in mapping:
        return table_group(mapping["table"])
    raise InputError("group descriptor needs one of: cyclic, orders, table")


# ---------------------------------------------------------------------------
# runners: params dict in, (payload key, payload, verdicts, exit code) out


def _run_partition(params):
    M = matroid_from_spec(params["spec"])
    P = layered_partition(M, params.get("basis"))
    report = verify_partition(M, P)
    dec = P.decomposition
    payload = {
        "kind": M.oracle.kind,
        "labels": list(M.ground.labels),
        "loops": list(dec.loops),
        "basis": list(dec.basis),
        "basis_labels": list(M.labels_of(dec.basis)),
        "layers": [
            {"elements": list(layer), "labels": list(M.labels_of(layer)), "size": len(layer)}
            for layer in dec.layers
        ],
        "classes": [
            {
                "elements": list(cls),
                "labels": list(M.labels_of(cls)),
                "independent": cert.independent,
                "circuit": list(cert.circuit) if cert.circuit else None,
            }
            for cls, cert in zip(P.classes, P.certificates)
        ],
        "class_of": list(P.class_of),
        "class_count": len(P.classes),
        "max_layer_size": dec.max_layer_size,
        "verification": {
            "ok": report.ok,
            "disjoint": report.disjoint,
            "covers": report.covers,
            "all_independent": report.all_independent,
            "failing_class": report.failing_class,
            "circuit": list(report.circuit) if report.circuit else None,
            "detail": report.detail,
        },
    }
    verdicts = {"all_certificates_pass": P.all_certified, "partition_valid": report.ok}
    code = EXIT_OK if P.all_certified and report.ok else EXIT_CERTIFICATE
    return "partition", payload, verdicts, code


def _run_check_axioms(params):
    M = matroid_from_spec(params["spec"])
    b = _require(params["budget"], ("mode", "max_subset_size"), "budget")
    budget = Budget(
        mode=b["mode"],
        max_subset_size=b["max_subset_size"],
        seed=b.get("seed"),
        count=b.get("count"),
    )
    reports = [check_hull_axioms(M, budget), check_idempotent(M, budget), check_exchange(M, budget)]
    entries = []
    verdicts = {}
    for report in reports:
        entries.append(
            {
                "axiom": report.axiom,
                "verdict": report.verdict,
                "witness": _decorate_witness(M, report.witness),
                "budget": report.budget,
                "witness_reverified": reverify_witness(M, report) if not report.holds else None,
            }
        )
        verdicts[report.axiom] = report.verdict
    all_hold = all(r.holds for r in reports)
    payload = {"kind": M.oracle.kind, "labels": list(M.ground.labels), "reports": entries, "all_hold": all_hold}
    return "axioms", payload, verdicts, EXIT_OK if all_hold else EXIT_CERTIFICATE


def _run_rectangle(params):
    coloring = _coloring_from_dict(params["coloring"])
    lam = int(params["size"])
    rect = monochrome_rectangle(coloring, lam)
    payload = {
        "x_size": coloring.nx,
        "y_size": coloring.ny,
        "colors": coloring.ncolors,
        "size": lam,
        "A": list(rect.A),
        "Z": list(rect.Z),
        "color": rect.color,
        "fiber_bound": fiber_bound(coloring, lam),
        "verified": verify_rectangle(coloring, rect),
    }
    return "rectangle", payload, {"verified": payload["verified"]}, EXIT_OK


def _run_quad(params):
    group = _group_from_dict(params["group"])
    descriptor = _require(params["coloring"], ("colors",), "coloring")
    chi = group_coloring(group, descriptor)
    cert = dependent_monochrome_quad(group, chi, int(descriptor["colors"]))
    payload = {
        "group": group.descriptor,
        "colors": int(descriptor["colors"]),
        "thresholds": quad_thresholds(int(descriptor["colors"])),
        "a": cert.a,
        "b": cert.b,
        "x": cert.x,
        "y": cert.y,
        "parameter_labels": {
            "a": group.labels[cert.a],
            "b": group.labels[cert.b],
            "x": group.labels[cert.x],
            "y": group.labels[cert.y],
        },
        "elements": list(cert.elements),
        "element_labels": list(cert.labels),
        "color": cert.color,
        "relation_verified": cert.relation_holds,
        "distinct": len(set(cert.elements)) == 4,
        "monochrome": len({chi(g) for g in cert.elements}) == 1,
    }
    ok = payload["relation_verified"] and payload["distinct"] and payload["monochrome"]
    return "quad", payload, {"certificate_valid": ok}, EXIT_OK if ok else EXIT_CERTIFICATE


def _run_prefix_color(params):
    coloring = prefix_coloring(int(params["k"]), int(params.get("limit", 12)))
    payload = {
        "k": int(params["k"]),
        "vertices": coloring.n,
        "colors": coloring.ncolors,
        "edges": [[u, v, c] for u, v, c in coloring.edges()],
    }
    code = EXIT_OK
    verdicts = {}
    if params.get("verify"):
        report = verify_no_monochrome_odd_cycle(coloring)
        payload["odd_cycle_check"] = {
            "ok": report.ok,
            "failures": [{"color": c, "cycle": list(cycle)} for c, cycle in report.odd_cycles],
        }
        verdicts["no_monochrome_odd_cycle"] = report.ok
        if not report.ok:
            code = EXIT_CERTIFICATE
    else:
        payload["odd_cycle_check"] = None
    return "prefix_coloring", payload, verdicts, code


def _run_group(params):
    G = FiniteAbelianGroup(tuple(params["orders"]))
    op = params["op"]
    if op == "torsion":
        if params.get("n") is None:
            raise InputError("group torsion needs --n")
        n = int(params["n"])
        elems = sorted(n_torsion(G, n))
        payload = {"orders": list(G.orders), "n": n, "elements": [list(e) for e in elems]}
        return "torsion", payload, {"subgroup_size": len(elems)}, EXIT_OK
    if op == "decompose":
        report = primary_decomposition(G)
        payload = {
            "orders": list(G.orders),
            "components": {str(p): [list(e) for e in comp] for p, comp in report.components.items()},
            "sizes": {str(p): len(comp) for p, comp in report.components.items()},
            "direct_sum_verified": report.direct_sum_verified,
        }
        code = EXIT_OK if report.direct_sum_verified else EXIT_CERTIFICATE
        return "decomposition", payload, {"direct_sum_verified": report.direct_sum_verified}, code
    if op == "independence":
        if not params.get("elements"):
            raise InputError("group independence needs --elements")
        elems = [G.element(tuple(e)) for e in params["elements"]]
        independent = is_linearly_independent(G, elems)
        M = build_abelian_linear_matroid(G)
        hull_independent = is_independent(M, [M.index_of(e) for e in elems])
        payload = {
            "orders": list(G.orders),
            "elements": [list(e) for e in elems],
            "independent": independent,
            "hull_route_agrees": independent == hull_independent,
        }
        code = EXIT_OK if payload["hull_route_agrees"] else EXIT_CERTIFICATE
        return "independence", payload, {"independent": independent}, code
    raise InputError(f"unknown group operation {op!r}")


_RUNNERS = {
    "partition": _run_partition,
    "check-axioms": _run_check_axioms,
    "rectangle": _run_rectangle,
    "quad": _run_quad,
    "prefix-color": _run_prefix_color,
    "group": _run_group,
}


# the parameters each runner reads without a default; the objects among them
# (budget, coloring) are checked where their runner reads them
_REQUIRED = {
    "partition": ("spec",),
    "check-axioms": ("spec", "budget"),
    "rectangle": ("coloring", "size"),
    "quad": ("group", "coloring"),
    "prefix-color": ("k",),
    "group": ("op", "orders"),
}


def _execute(subcommand, params, seed, out_path):
    _require(params, _REQUIRED[subcommand], "parameters")
    started = time.perf_counter()
    key, payload, verdicts, code = _RUNNERS[subcommand](params)
    elapsed = time.perf_counter() - started
    manifest = {
        "subcommand": subcommand,
        "parameters": params,
        "seed": seed,
        "versions": {"hullcover": __version__, "python": platform.python_version()},
        "verdicts": verdicts,
    }
    document = {"manifest": manifest, key: payload}
    data = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(data)
    else:
        sys.stdout.write(data)
    print(f"hullcover {subcommand}: exit {code} in {elapsed:.3f}s", file=sys.stderr)
    return code


def _parse_int_list(text):
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


def _parse_elements(text):
    return [_parse_int_list(chunk) for chunk in str(text).split(";") if chunk.strip()]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hullcover",
        description="Independent-class partitions, monochrome structure search, "
        "and finite abelian group reports, with reproducible JSON outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a ground set into independent classes")
    p.add_argument("spec", help="matroid spec file (JSON)")
    p.add_argument("--basis", help="comma-separated element indices to use as the basis")
    p.add_argument("--out")

    p = sub.add_parser("check-axioms", help="sweep hull, idempotence and exchange axioms")
    p.add_argument("spec", help="matroid spec file (JSON)")
    p.add_argument("--budget", default="exhaustive:3", help="exhaustive[:K] or sampled:COUNT[:K]")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("rectangle", help="monochrome rectangle in a product coloring")
    p.add_argument("coloring", help="coloring file (JSON table or generator)")
    p.add_argument("--size", type=int, required=True, help="requested |A|")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("quad", help="dependent monochrome 4-set in a finite group")
    p.add_argument("group", help="group file (JSON: cyclic, orders, or table)")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--formula", default="constant", choices=["constant", "mod", "seeded-uniform"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("prefix-color", help="first-differing-bit edge coloring of K_{2^k}")
    p.add_argument("k", type=int)
    p.add_argument("--verify", action="store_true", help="also run the odd-cycle check")
    p.add_argument("--limit", type=int, default=12)
    p.add_argument("--out")

    p = sub.add_parser("group", help="finite abelian group reports")
    p.add_argument("op", choices=["torsion", "decompose", "independence"])
    p.add_argument("--orders", required=True, help="comma-separated cyclic orders")
    p.add_argument("--n", type=int, help="torsion index (torsion op)")
    p.add_argument("--elements", help="semicolon-separated residue tuples, e.g. 1,0;0,1")
    p.add_argument("--out")

    p = sub.add_parser("rerun", help="re-execute the manifest inside an output file")
    p.add_argument("source", help="output document or bare manifest (JSON)")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "partition":
            params = {
                "spec": _load_json(args.spec),
                "basis": _parse_int_list(args.basis) if args.basis else None,
            }
            return _execute("partition", params, None, args.out)
        if args.command == "check-axioms":
            budget = Budget.parse(args.budget, seed=args.seed)
            params = {
                "spec": _load_json(args.spec),
                "budget": {
                    "mode": budget.mode,
                    "max_subset_size": budget.max_subset_size,
                    "seed": budget.seed,
                    "count": budget.count,
                },
            }
            return _execute("check-axioms", params, args.seed, args.out)
        if args.command == "rectangle":
            params = {
                "coloring": _resolve_coloring(_load_json(args.coloring), args.seed),
                "size": args.size,
            }
            return _execute("rectangle", params, args.seed, args.out)
        if args.command == "quad":
            descriptor = _resolve_coloring(
                {"formula": args.formula, "colors": args.colors}, args.seed
            )
            params = {"group": _load_json(args.group), "coloring": descriptor}
            return _execute("quad", params, args.seed, args.out)
        if args.command == "prefix-color":
            params = {"k": args.k, "verify": bool(args.verify), "limit": args.limit}
            return _execute("prefix-color", params, None, args.out)
        if args.command == "group":
            params = {
                "op": args.op,
                "orders": _parse_int_list(args.orders),
                "n": args.n,
                "elements": _parse_elements(args.elements) if args.elements else None,
            }
            return _execute("group", params, None, args.out)
        if args.command == "rerun":
            document = _load_json(args.source)
            manifest = document.get("manifest", document) if isinstance(document, dict) else None
            if not isinstance(manifest, dict):
                raise InputError(f"{args.source}: expected a JSON object holding a manifest")
            for field in ("subcommand", "parameters"):
                if field not in manifest:
                    raise InputError(f"manifest is missing {field!r}")
            if manifest["subcommand"] not in _RUNNERS:
                raise InputError(f"manifest names unknown subcommand {manifest['subcommand']!r}")
            return _execute(
                manifest["subcommand"], manifest["parameters"], manifest.get("seed"), args.out
            )
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, PremiseError, BudgetError) as exc:
        print(f"hullcover: error: {exc}", file=sys.stderr)
        return EXIT_PREMISE
    except InternalInconsistencyError as exc:
        print(f"hullcover: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
