"""Command-line interface.

Every subcommand writes one JSON document containing the result plus a
manifest (subcommand, fully resolved parameters, seed, versions, verdicts).
Documents are serialized with sorted keys, so identical inputs produce
byte-identical files, and ``hullcover rerun OUTPUT`` re-executes the
manifest embedded in an output file.  ``_write_document`` streams each one
and replaces ``--out`` only once the file is complete.  Timing is reported
on stderr only, to keep the files reproducible.

Exit codes: 0 success with all certificates passing, 2 premise or parse
error, 3 certificate or verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import stat
import sys
import time
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .core import (
    Budget,
    BudgetError,
    Fields,
    InputError,
    InternalInconsistencyError,
    PremiseError,
    _MAX_LISTED,
    _bool,
    _int,
    _int_rows,
    _ints,
    _shown,
    check_exchange,
    check_hull_axioms,
    check_idempotent,
    is_independent,
    reverify_witness,
)
from .groups import FiniteAbelianGroup, is_linearly_independent, n_torsion, primary_decomposition
from .partition import layered_partition, verify_partition
from .ramsey import (
    _MAX_PREFIX_K,
    ProductColoring,
    cyclic_group,
    fiber_bound,
    group_coloring,
    group_from_abelian,
    monochrome_rectangle,
    prefix_coloring,
    table_group,
    dependent_monochrome_quad,
    quad_checks,
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
    except (ValueError, RecursionError) as exc:  # an int past str's digit limit, deep nesting
        raise InputError(f"{path}: {exc}") from None


def _decorate_witness(M, witness):
    if witness is None:
        return None
    out = dict(witness)
    for key in ("A", "B"):
        if key in out:
            out[f"{key}_labels"] = M.labels_of(out[key])
    for key in ("x", "y"):
        if key in out:
            out[f"{key}_label"] = M.label(out[key])
    return out


def _product_coloring(c, seed):
    ncolors = c("colors", _int, 1)
    formula = c("formula", None, "table" if "table" in c else "constant")
    if formula == "table":
        return ProductColoring.from_table(c("table", _int_rows), ncolors)
    nx, ny = c("x_size", _int), c("y_size", _int)
    if nx * ny > _MAX_LISTED:
        raise InputError(
            f"a {_shown(nx)} x {_shown(ny)} coloring has more than the {_MAX_LISTED} cells one run may list"
        )
    if formula == "constant":
        return ProductColoring.constant(nx, ny, ncolors, c("value", _int, 0))
    if formula == "mod":
        return ProductColoring.mod(nx, ny, ncolors)
    if formula == "seeded-uniform":
        return ProductColoring.seeded_uniform(nx, ny, ncolors, c.seed(seed))
    raise InputError(f"unknown coloring formula {_shown(formula)}")


def _group(g):
    if "cyclic" in g:
        return cyclic_group(g("cyclic", _int))
    if "orders" in g:
        return group_from_abelian(FiniteAbelianGroup(tuple(g("orders", _ints))))
    if "table" in g:
        return table_group(g("table", _int_rows))
    raise InputError("group descriptor needs one of: cyclic, orders, table")


# ---------------------------------------------------------------------------
# runners: a Fields reader over the parameters and the top-level seed in,
# (payload key, payload, verdicts, exit code) out


def _run_partition(f, seed):
    M = matroid_from_spec(f("spec", Fields))
    P = layered_partition(M, f("basis", _ints, None))
    report = verify_partition(M, P)
    dec = P.decomposition
    payload = {
        "kind": M.oracle.kind,
        "labels": M.labels,
        "loops": sorted(M.loops),
        "basis": dec.basis,
        "basis_labels": M.labels_of(dec.basis),
        "layers": [
            {"elements": layer, "labels": M.labels_of(layer), "size": len(layer)}
            for layer in dec.layers
        ],
        "classes": [
            {
                "elements": cls,
                "labels": M.labels_of(cls),
                "independent": circuit is None,
                "circuit": circuit,
            }
            for cls, circuit in zip(P.classes, P.circuits)
        ],
        "class_of": P.class_of,
        "class_count": len(P.classes),
        "max_layer_size": dec.max_layer_size,
        "verification": vars(report),
    }
    verdicts = {"all_certificates_pass": P.all_certified, "partition_valid": report.ok}
    code = EXIT_OK if P.all_certified and report.ok else EXIT_CERTIFICATE
    return "partition", payload, verdicts, code


def _run_check_axioms(f, seed):
    M = matroid_from_spec(f("spec", Fields))
    b = f("budget", Fields)
    budget = Budget(
        b("mode"), b("max_subset_size", _int), b("seed", _int, None), b("count", _int, None)
    )
    if seed is not None and budget.seed not in (None, seed):
        raise InputError(f"budget seed {_shown(budget.seed)} contradicts --seed {_shown(seed)}")
    reports = [check_hull_axioms(M, budget), check_idempotent(M, budget), check_exchange(M, budget)]
    entries = []
    verdicts = {}
    for report in reports:
        entries.append(
            {
                **vars(report),
                "witness": _decorate_witness(M, report.witness),
                "witness_reverified": reverify_witness(M, report) if not report.holds else None,
            }
        )
        verdicts[report.axiom] = report.verdict
    all_hold = all(r.holds for r in reports)
    payload = {"kind": M.oracle.kind, "labels": M.labels, "reports": entries, "all_hold": all_hold}
    return "axioms", payload, verdicts, EXIT_OK if all_hold else EXIT_CERTIFICATE


def _run_rectangle(f, seed):
    coloring = _product_coloring(f("coloring", Fields), seed)
    lam = f("size", _int)
    rect = monochrome_rectangle(coloring, lam)
    verified = verify_rectangle(coloring, rect)
    payload = {
        "x_size": coloring.nx,
        "y_size": coloring.ny,
        "colors": coloring.ncolors,
        "size": lam,
        **vars(rect),
        "fiber_bound": fiber_bound(coloring, lam),
        "verified": verified,
    }
    return "rectangle", payload, {"verified": verified}, EXIT_OK if verified else EXIT_CERTIFICATE


def _run_quad(f, seed):
    read = f("group", Fields)
    group = _group(read)
    descriptor = f("coloring", Fields)
    ncolors = descriptor("colors", _int)
    chi = group_coloring(group, descriptor, seed)
    cert = dependent_monochrome_quad(group, chi, ncolors)
    checks = quad_checks(group, chi, cert)
    payload = {
        "group": read.record,  # as read: the manifest's parameters.group
        "colors": ncolors,
        "thresholds": quad_thresholds(ncolors),
        **vars(cert),
        "parameter_labels": {key: group.labels[getattr(cert, key)] for key in "abxy"},
        "element_labels": [group.labels[g] for g in cert.elements],
        **checks,
    }
    ok = all(checks.values())
    return "quad", payload, {"certificate_valid": ok}, EXIT_OK if ok else EXIT_CERTIFICATE


def _run_prefix_color(f, seed):
    k = f("k", _int)
    coloring = prefix_coloring(k, f("limit", _int, _MAX_PREFIX_K))
    payload = {
        "k": k,
        "vertices": coloring.n,
        "colors": coloring.ncolors,
        "edges": list(coloring.edges()),
    }
    code = EXIT_OK
    verdicts = {}
    if f("verify", _bool, False):
        report = verify_no_monochrome_odd_cycle(coloring)
        payload["odd_cycle_check"] = {
            "ok": report.ok,
            "failures": [{"color": c, "cycle": cycle} for c, cycle in report.cycles],
        }
        verdicts["no_monochrome_odd_cycle"] = report.ok
        if not report.ok:
            code = EXIT_CERTIFICATE
    else:
        payload["odd_cycle_check"] = None
    return "prefix_coloring", payload, verdicts, code


def _run_group(f, seed):
    op, n, elements = f("op"), f("n", _int, None), f("elements", _int_rows, None)
    G = FiniteAbelianGroup(tuple(f("orders", _ints)))
    if op == "torsion":
        if n is None:
            raise InputError("group torsion needs --n")
        elems = sorted(n_torsion(G, n))
        payload = {"orders": G.orders, "n": n, "elements": elems}
        return "torsion", payload, {"subgroup_size": len(elems)}, EXIT_OK
    if op == "decompose":
        report = primary_decomposition(G)
        payload = {
            "orders": G.orders,
            "components": {str(p): comp for p, comp in report.components.items()},
            "sizes": {str(p): len(comp) for p, comp in report.components.items()},
            "direct_sum_verified": report.direct_sum_verified,
        }
        code = EXIT_OK if report.direct_sum_verified else EXIT_CERTIFICATE
        return "decomposition", payload, {"direct_sum_verified": report.direct_sum_verified}, code
    if op == "independence":
        if not elements:
            raise InputError("group independence needs --elements")
        elems = [G.element(tuple(e)) for e in elements]
        independent = is_linearly_independent(G, elems)
        M = build_abelian_linear_matroid(G)
        hull_independent = is_independent(M, [M.index_of(e) for e in elems])
        payload = {
            "orders": G.orders,
            "elements": elems,
            "independent": independent,
            "hull_route_agrees": independent == hull_independent,
        }
        code = EXIT_OK if payload["hull_route_agrees"] else EXIT_CERTIFICATE
        return "independence", payload, {"independent": independent}, code
    raise InputError(f"unknown group operation {_shown(op)}")


# ---------------------------------------------------------------------------
# the document writer


# the text of a scalar of each type a document holds, spelled as json.encoder
# spells it (on an int, repr is int.__repr__, and the faster call)
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _shared_text(kinds):
    """The text function of the one scalar type that is all of ``kinds``, else None."""
    return _SCALAR_TEXT.get(*kinds) if len(kinds) == 1 else None


def _chunks(o, pad=""):
    """Yield the text of ``json.dumps(o, indent=2, sort_keys=True)``, nested ``pad`` deep.

    ``o`` holds what documents hold: dicts with str keys, lists and tuples,
    and str, int, bool and None scalars, each of exactly that type.  Anything
    else, a float or an ``IntEnum`` member among them, raises ``TypeError``.
    A list or tuple whose items share one scalar type is one chunk, joined at
    once; a list of such lists is one chunk per item.  Everything else recurses.
    """
    text = _SCALAR_TEXT.get(type(o))
    if text is not None:
        yield text(o)
    elif isinstance(o, (list, tuple)):
        if not o:
            yield "[]"
            return
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, o))
        if text := _shared_text(kinds):
            yield f"[\n{inner}{sep.join(map(text, o))}\n{pad}]"
            return
        head = "[\n" + inner
        if kinds <= {list, tuple} and all(o) and (text := _shared_text(set(map(type, chain.from_iterable(o))))):
            deeper = inner + "  "
            start, item_sep, end = "[\n" + deeper, ",\n" + deeper, f"\n{inner}]"
            for row in o:
                yield f"{head}{start}{item_sep.join(map(text, row))}{end}"
                head = sep
        else:
            for item in o:
                yield head
                yield from _chunks(item, inner)
                head = sep
        yield f"\n{pad}]"
    elif isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = pad + "  "
        head = "{\n" + inner
        for key, value in sorted(o.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield f"{head}{encode_basestring_ascii(key)}: "
            yield from _chunks(value, inner)
            head = ",\n" + inner
        yield f"\n{pad}}}"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# a chunk is a scalar, a flat list or one item of a list of flat lists; joined
# this many to a write call, the calls cost less than the rendering, and the
# text held stays small
_CHUNKS_PER_WRITE = 4096


def _write_text(document, out):
    """Write ``document``'s text and a final newline to ``out``; return its length."""
    chunks = chain(_chunks(document), "\n")
    size = 0
    while batch := "".join(islice(chunks, _CHUNKS_PER_WRITE)):
        size += out.write(batch)
    return size


def _write_document(document, out_path):
    """Write ``document`` to ``out_path`` (stdout when empty); return the bytes written.

    The text is that of ``json.dumps(document, indent=2, sort_keys=True)`` and
    a final newline, written as ``_chunks`` renders it, so it is never held
    whole.  A new or regular file is written whole: into a temporary file
    beside the resolved target, which takes the target's mode (and owner,
    where allowed) and replaces it only once complete; any other existing
    node (a device, a FIFO) is written in place.
    """
    if not out_path:
        try:
            size = _write_text(document, sys.stdout)
            sys.stdout.flush()
            return size
        except OSError as exc:
            # what stays buffered would fail again at exit: let devnull take it
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise InputError(f"cannot write stdout: {exc.strerror or exc}") from None
    try:
        path = Path(out_path).resolve()
        if path.exists() and not path.is_file():
            with open(path, "w", encoding="utf-8", newline="") as out:
                return _write_text(document, out)
        # a file left by a killed run of this pid has no live writer: remove it
        partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        partial.unlink(missing_ok=True)
        out = open(partial, "x", encoding="utf-8", newline="")
        try:
            with out:
                if path.exists():
                    _keep_mode_and_owner(out.fileno(), path.stat())
                size = _write_text(document, out)
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    return size


def _keep_mode_and_owner(fd, target):
    os.chmod(fd, stat.S_IMODE(target.st_mode))
    own = os.fstat(fd)
    if (own.st_uid, own.st_gid) != (target.st_uid, target.st_gid):
        # only a privileged writer may give a file away; others keep their own
        with contextlib.suppress(PermissionError):
            os.chown(fd, target.st_uid, target.st_gid)


def _execute(manifest, out_path):
    """Run a manifest's subcommand on its parameters and seed; write its document."""
    m = Fields(manifest, "manifest")
    subcommand = m("subcommand")
    if not isinstance(subcommand, str) or subcommand not in _SUBCOMMANDS:
        raise InputError(f"manifest names unknown subcommand {_shown(subcommand)}")
    params, seed = m("parameters", Fields), m("seed", _int, None)
    started = time.perf_counter()
    key, payload, verdicts, code = _SUBCOMMANDS[subcommand][0](params, seed)
    elapsed = time.perf_counter() - started
    # m's record holds the subcommand, seed and parameters as read
    versions = {"hullcover": __version__, "python": platform.python_version()}
    document = {"manifest": {**m.record, "versions": versions, "verdicts": verdicts}, key: payload}
    started = time.perf_counter()
    size = _write_document(document, out_path)
    written = time.perf_counter() - started
    print(
        f"hullcover {subcommand}: exit {code} in {elapsed:.3f}s, wrote {size} bytes in {written:.3f}s",
        file=sys.stderr,
    )
    return code


# the command-line helpers only split text; the runners cast what they read
def _split_list(text):
    return [part for part in text.split(",") if part.strip()]


def _split_elements(text):
    return [_split_list(chunk) for chunk in text.split(";") if chunk.strip()]


# subcommand: (runner, parsed arguments -> parameters); a fresh run's
# parameters go into a manifest, so fresh runs and reruns alike reach the
# runner through one Fields reader, whose record the manifest keeps: a key no
# runner reads (a budget's max_evaluations) is neither used nor recorded
_SUBCOMMANDS = {
    "partition": (_run_partition, lambda a: {
        "spec": _load_json(a.spec),
        "basis": _split_list(a.basis) if a.basis else None,
    }),
    "check-axioms": (_run_check_axioms, lambda a: {
        "spec": _load_json(a.spec),
        "budget": vars(Budget.parse(a.budget, seed=a.seed)),
    }),
    "rectangle": (_run_rectangle, lambda a: {"coloring": _load_json(a.coloring), "size": a.size}),
    "quad": (_run_quad, lambda a: {
        "group": _load_json(a.group),
        "coloring": {"formula": a.formula, "colors": a.colors},
    }),
    "prefix-color": (_run_prefix_color, lambda a: {"k": a.k, "verify": a.verify, "limit": a.limit}),
    "group": (_run_group, lambda a: {
        "op": a.op,
        "orders": _split_list(a.orders),
        "n": a.n,
        "elements": _split_elements(a.elements) if a.elements else None,
    }),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, in subparsers too: they share the class
        raise InputError(message)


# built on the first call, not at import; each parse_args fills a fresh Namespace
@functools.cache
def _build_parser():
    parser = _Parser(
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
    p.add_argument("--seed")
    p.add_argument("--out")

    p = sub.add_parser("rectangle", help="monochrome rectangle in a product coloring")
    p.add_argument("coloring", help="coloring file (JSON table or generator)")
    p.add_argument("--size", required=True, help="requested |A|")
    p.add_argument("--seed")
    p.add_argument("--out")

    p = sub.add_parser("quad", help="dependent monochrome 4-set in a finite group")
    p.add_argument("group", help="group file (JSON: cyclic, orders, or table)")
    p.add_argument("--colors", required=True)
    p.add_argument("--formula", help="constant (the default), mod or seeded-uniform")
    p.add_argument("--seed")
    p.add_argument("--out")

    p = sub.add_parser("prefix-color", help="first-differing-bit edge coloring of K_{2^k}")
    p.add_argument("k")
    p.add_argument("--verify", action="store_true", help="also run the odd-cycle check")
    p.add_argument("--limit", help=f"largest k allowed (default and most: {_MAX_PREFIX_K})")
    p.add_argument("--out")

    p = sub.add_parser("group", help="finite abelian group reports")
    p.add_argument("op", help="torsion, decompose or independence")
    p.add_argument("--orders", required=True, help="comma-separated cyclic orders")
    p.add_argument("--n", help="torsion index (torsion op)")
    p.add_argument("--elements", help="semicolon-separated residue tuples, e.g. 1,0;0,1")
    p.add_argument("--out")

    p = sub.add_parser("rerun", help="re-execute the manifest inside an output file")
    p.add_argument("source", help="output document or bare manifest (JSON)")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "rerun":
            document = _load_json(args.source)
            manifest = document.get("manifest", document) if isinstance(document, dict) else document
        else:
            manifest = {
                "subcommand": args.command,
                "parameters": _SUBCOMMANDS[args.command][1](args),
                "seed": getattr(args, "seed", None),
            }
        return _execute(manifest, args.out)
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
