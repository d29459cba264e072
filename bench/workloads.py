"""Seeded job pools for the benchmark workloads.

A pool is the list of hullcover CLI jobs that one pass of a workload runs.
It is generated from the workload seed alone: instance sizes are fixed per
slot, so costs barely move between seeds, while the seed picks the random
content (graph edges, vectors, colorings, per-job sweep seeds).  Expected
exit codes come from the mathematics of each instance, not from running
the program:

* check-axioms exits 3 exactly on the non-matroid instances: the integer
  subgroup hull (exchange fails) and the division hull on the ten groups of
  order <= 16 that are neither elementary abelian nor cyclic of prime-power
  order (idempotence fails).  Sampled sweeps only run on matroids.
* partition exits 0 with the greedy basis or a supplied spanning basis, and
  2 when the supplied basis holds a circuit.
* every malformed job should exit 2 with a one-line message.

This module does not import hullcover, so the inputs do not depend on the
code under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sweep", "partition", "coloring")

EXIT_OK, EXIT_PREMISE, EXIT_CERTIFICATE = 0, 2, 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` names input files by their keys in ``files``."""

    name: str
    argv: tuple
    expect: int
    files: dict = field(default_factory=dict)
    malformed: bool = False


def generate(workload: str, seed: int) -> list:
    """The pool of one pass of ``workload``, identical for identical seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"hullcover-bench:{workload}:{seed}")
    jobs = {"sweep": _sweep, "partition": _partition, "coloring": _coloring}[workload](rng)
    jobs += MALFORMED[workload]
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in the {workload} pool")
    return jobs


# ---------------------------------------------------------------------------
# arithmetic facts the expected exit codes rest on


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def _division_hull_idempotent(orders):
    """Elementary abelian groups and cyclic groups of prime-power order."""
    if not orders:
        return True
    if len(orders) == 1:
        return _is_prime_power(orders[0])
    return _is_prime(orders[0]) and len(set(orders)) == 1


def _abelian_groups(max_order):
    """Every abelian group of order <= max_order once, as invariant factors n_1 | n_2 | ..."""

    def chains(m, cap):
        if m == 1:
            yield ()
            return
        for d in range(2, m + 1):
            if m % d == 0 and (cap is None or cap % d == 0):
                for rest in chains(m // d, d):
                    yield rest + (d,)

    return [list(seq) for m in range(1, max_order + 1) for seq in sorted(chains(m, None))]


# ---------------------------------------------------------------------------
# instance generators


def _random_edges(rng, n, m):
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def _spanning_tree(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)]


def _connected_graph(rng, n, extra):
    """Edges of a random connected graph; the first n-1 listed form a spanning tree."""
    tree = _spanning_tree(rng, n)
    others = [e for e in itertools.combinations(range(n), 2) if e not in set(tree)]
    return tree + rng.sample(others, extra)


def _rational(rng):
    return str(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def _with_unit_vectors(rng, dim, count, entry):
    """``count`` vectors including the unit vectors and e_0 + e_1, shuffled.

    Returns the vectors and the positions of e_0, ..., e_{dim-1} and then of
    e_0 + e_1.
    """
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    pair_sum = [int(j < 2) for j in range(dim)]
    rest = [[entry(rng) for _ in range(dim)] for _ in range(count - dim - 1)]
    vectors = units + [pair_sum] + rest
    order = list(range(len(vectors)))
    rng.shuffle(order)
    shuffled = [vectors[i] for i in order]
    return shuffled, [order.index(i) for i in range(dim + 1)]


def _spec_job(name, command, spec, expect, *extra):
    return Job(name, (command, f"{name}.json", *extra), expect, {f"{name}.json": spec})


# ---------------------------------------------------------------------------
# workloads


def _sweep(rng):
    """check-axioms: about half exhaustive:3 within the default cap, half sampled."""
    exhaustive = [
        ("f2dim4", {"kind": "vector_fp", "p": 2, "dim": 4}, EXIT_OK),
        ("k6", {"kind": "graphic", "complete": 6}, EXIT_OK),
    ]
    for i, m in enumerate((9, 11, 13)):
        edges = _random_edges(rng, 7, m)
        spec = {"kind": "graphic", "vertices": 7, "edges": edges}
        exhaustive.append((f"graph7-{i}", spec, EXIT_OK))
    for i in range(3):
        vectors = [[rng.randrange(3) for _ in range(3)] for _ in range(12)]
        spec = {"kind": "vector_fp", "p": 3, "vectors": vectors}
        exhaustive.append((f"f3set-{i}", spec, EXIT_OK))
    for i in range(2):
        vectors = [[_rational(rng) for _ in range(3)] for _ in range(7)]
        exhaustive.append((f"qset-{i}", {"kind": "vector_q", "vectors": vectors}, EXIT_OK))
    for orders in _abelian_groups(16):
        expect = EXIT_OK if _division_hull_idempotent(orders) else EXIT_CERTIFICATE
        label = "x".join(map(str, orders)) or "1"
        exhaustive.append((f"abelian-{label}", {"kind": "abelian", "orders": orders}, expect))
    exhaustive.append(
        ("intsub", {"kind": "integer_subgroup", "window": rng.randint(6, 10)}, EXIT_CERTIFICATE)
    )
    exhaustive.append(("intlin", {"kind": "integer_linear", "window": rng.randint(6, 10)}, EXIT_OK))
    jobs = [
        _spec_job(f"ex3-{name}", "check-axioms", spec, expect, "--budget", "exhaustive:3")
        for name, spec, expect in exhaustive
    ]

    qvectors = [[_rational(rng) for _ in range(4)] for _ in range(20)]
    f3dim4 = {"kind": "vector_fp", "p": 3, "dim": 4}
    # name, instance, samples per job, jobs; the six long sweeps cost about
    # what Z_2^4 costs and come next after F_2^4, so the tail falls among them
    sampled = [
        ("f3dim4", f3dim4, 16, 8),
        ("k12", {"kind": "graphic", "complete": 12}, 200, 8),
        ("z2pow6", {"kind": "abelian", "orders": [2] * 6}, 70, 8),
        ("q20", {"kind": "vector_q", "vectors": qvectors}, 16, 8),
        ("f3dim4-long", f3dim4, 250, 6),
    ]
    for name, spec, count, copies in sampled:
        for i in range(copies):
            jobs.append(
                _spec_job(
                    f"sampled-{name}-{i}", "check-axioms", spec, EXIT_OK,
                    "--budget", f"sampled:{count}", "--seed", str(rng.randrange(10**6)),
                )
            )
    return jobs


def _partition(rng):
    """partition: graphs up to rank 13, vector sets, abelian groups, integer windows."""
    # K_14 is the heaviest instance: two scans of 2^13 subsets (certificate,
    # verification), three with a supplied spanning tree (the basis check
    # too).  Six K_14 jobs per pass put the tail among them.
    jobs = [
        _spec_job(f"complete{n}", "partition", {"kind": "graphic", "complete": n}, EXIT_OK)
        for n in (10, 12, 13, 14)
    ]
    trees = {
        "complete13-path": (13, [(i, i + 1) for i in range(12)]),
        "complete14-path": (14, [(i, i + 1) for i in range(13)]),
        "complete14-star": (14, [(0, i) for i in range(1, 14)]),
    }
    for i in range(3):
        trees[f"complete14-tree{i}"] = (14, _spanning_tree(rng, 14))
    for name, (n, tree) in trees.items():
        edges = list(itertools.combinations(range(n), 2))
        basis = _ints(sorted(edges.index(e) for e in tree))
        spec = {"kind": "graphic", "complete": n}
        jobs.append(_spec_job(name, "partition", spec, EXIT_OK, "--basis", basis))
    for i, n in enumerate((10, 11, 12, 12, 13, 13)):
        edges = _connected_graph(rng, n, n)
        order = list(range(len(edges)))
        rng.shuffle(order)
        spec = {"kind": "graphic", "vertices": n, "edges": [list(edges[j]) for j in order]}
        tree = sorted(order.index(j) for j in range(n - 1))
        name = f"graph{n}-{i}"
        if i % 3 == 1:
            jobs.append(_spec_job(name, "partition", spec, EXIT_OK, "--basis", _ints(tree)))
        elif i % 3 == 2:
            # the tree plus its first extra edge holds a cycle
            cycle_basis = _ints(sorted(tree + [order.index(n - 1)]))
            jobs.append(_spec_job(name, "partition", spec, EXIT_PREMISE, "--basis", cycle_basis))
        else:
            jobs.append(_spec_job(name, "partition", spec, EXIT_OK))
    vector_sets = [
        ("f2", 2, 5, 24), ("f2", 2, 6, 40), ("f2", 2, 7, 56),
        ("f3", 3, 4, 24), ("f3", 3, 5, 30), ("q", 0, 3, 10), ("q", 0, 4, 12),
    ]
    for i, (field_name, p, dim, count) in enumerate(vector_sets):
        entry = _rational if p == 0 else (lambda r, p=p: r.randrange(p))
        vectors, positions = _with_unit_vectors(rng, dim, count, entry)
        spec = (
            {"kind": "vector_q", "vectors": vectors}
            if p == 0
            else {"kind": "vector_fp", "p": p, "vectors": vectors}
        )
        name = f"{field_name}dim{dim}-{i}"
        if i % 3 == 1:
            basis = _ints(sorted(positions[:dim]))
            jobs.append(_spec_job(name, "partition", spec, EXIT_OK, "--basis", basis))
        elif i % 3 == 2:
            # e_0 + e_1 replaces e_{dim-1}: the circuit {e_0, e_1, e_0 + e_1}
            dependent = _ints(sorted(positions[: dim - 1] + [positions[dim]]))
            jobs.append(_spec_job(name, "partition", spec, EXIT_PREMISE, "--basis", dependent))
        else:
            jobs.append(_spec_job(name, "partition", spec, EXIT_OK))
    # matroid-flagged groups: fixed instances of a few milliseconds each, so
    # the median job sits among them and does not move with the seed
    small_primes = [[p] for p in (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)]
    for orders in [[2, 2], [2, 2, 2], [2, 2, 2, 2], [2] * 5, [3, 3], [3, 3, 3], [5, 5], [7, 7],
                   [4], [8], [9], [16], [25], [27], [32], [49]] + small_primes:
        label = "x".join(map(str, orders))
        spec = {"kind": "abelian", "orders": orders}
        jobs.append(_spec_job(f"abelian-{label}", "partition", spec, EXIT_OK))
    for kind in ("integer_subgroup", "integer_linear"):
        spec = {"kind": kind, "window": rng.randint(10, 40)}
        jobs.append(_spec_job(kind, "partition", spec, EXIT_OK))
    return jobs


def _coloring(rng):
    """prefix-color with --verify, rectangles, quads and the three group operations."""
    jobs = [Job(f"prefix{k}", ("prefix-color", str(k), "--verify"), EXIT_OK) for k in (8, 9, 10)]
    # four rectangles of similar cost, next after prefix-color 10: the tail
    # falls among them
    shapes = ((9, 40000, 4, 2), (9, 40000, 2, 4), (9, 40000, 3, 3), (8, 45000, 3, 2))
    for x_size, y_size, colors, size in shapes:
        name = f"rect{x_size}x{y_size}-{colors}colors"
        coloring = {
            "x_size": x_size, "y_size": y_size, "colors": colors,
            "formula": "seeded-uniform", "seed": rng.randrange(10**6),
        }
        argv = ("rectangle", f"{name}.json", "--size", str(size))
        jobs.append(Job(name, argv, EXIT_OK, {f"{name}.json": coloring}))
    # many small quad and group jobs of fixed size, so the median job does
    # not move with the seed
    groups = [({"cyclic": 1009}, 2), ({"cyclic": 2048}, 3), ({"cyclic": 5000}, 4),
              ({"cyclic": 3001}, 2), ({"cyclic": 4096}, 3), ({"cyclic": 7919}, 4),
              ({"orders": [4, 4, 16]}, 4), ({"orders": [2] * 8}, 3), ({"orders": [3, 9, 9]}, 2),
              ({"orders": [2, 4, 8, 8]}, 4), ({"orders": [5, 5, 5]}, 3), ({"orders": [7, 7, 7]}, 2)]
    for i, (group, colors) in enumerate(groups):
        name = f"quad-{i}"
        argv = ("quad", f"{name}.json", "--colors", str(colors),
                "--formula", "seeded-uniform", "--seed", str(rng.randrange(10**6)))
        jobs.append(Job(name, argv, EXIT_OK, {f"{name}.json": group}))
    for i, orders in enumerate(([4, 8, 16], [2, 6, 12], [3, 9, 27])):
        argv = ("group", "torsion", "--orders", _ints(orders), "--n", str(rng.randint(2, 12)))
        jobs.append(Job(f"torsion-{i}", argv, EXIT_OK))
    for i, orders in enumerate(([6, 10, 12], [3, 15, 15], [2, 10, 20])):
        argv = ("group", "decompose", "--orders", _ints(orders))
        jobs.append(Job(f"decompose-{i}", argv, EXIT_OK))
    for i, orders in enumerate(([4, 8], [6, 6])):
        elements = itertools.product(*(range(n) for n in orders))
        picked = rng.sample([e for e in elements if any(e)], 2)
        elements = ";".join(_ints(e) for e in picked)
        argv = ("group", "independence", "--orders", _ints(orders), "--elements", elements)
        jobs.append(Job(f"independence-{i}", argv, EXIT_OK))
    return jobs


def _ints(values):
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# malformed inputs, each in the workload of its subcommand; each should end
# with exit 2 and a one-line message


def _malformed(name, argv, content=None):
    files = {} if content is None else {f"{name}.json": content}
    argv = tuple(f"{name}.json" if a == "FILE" else a for a in argv)
    return Job(name, argv, EXIT_PREMISE, files, malformed=True)


_K4 = {"kind": "graphic", "complete": 4}
MALFORMED = {
    "sweep": (
        _malformed("bad-vector-entry", ("check-axioms", "FILE"),
                   {"kind": "vector_fp", "p": 2, "vectors": [[1, "x"]]}),
        _malformed("bad-budget-count", ("check-axioms", "FILE", "--budget", "sampled:abc"), _K4),
        _malformed("bad-budget-size", ("check-axioms", "FILE", "--budget", "exhaustive:x"), _K4),
        _malformed("negative-count", ("check-axioms", "FILE", "--budget", "sampled:-5"), _K4),
    ),
    "partition": (
        _malformed("one-element-edge", ("partition", "FILE"),
                   {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [2]]}),
        # a rerun belongs to the subcommand its manifest names; an array names none
        _malformed("rerun-without-spec", ("rerun", "FILE"),
                   {"manifest": {"subcommand": "partition", "parameters": {"basis": None}}}),
        _malformed("rerun-of-array", ("rerun", "FILE"), [1, 2, 3]),
    ),
    "coloring": (
        _malformed("coloring-without-x-size", ("rectangle", "FILE", "--size", "2"),
                   {"y_size": 10, "colors": 2, "formula": "seeded-uniform", "seed": 1}),
        _malformed("bad-orders", ("group", "torsion", "--orders", "2,x", "--n", "2")),
    ),
}
