"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and asserts
the same condition, so the suite doubles as a checklist.  Stated wall-clock
budgets are enforced with a monotonic timer.
"""

import random
import time
from fractions import Fraction

import pytest

from unilie.algebra import SignedPermWitness, check_witness, from_graph, to_graph
from unilie.linear import GeneralLinearWitness, j_map
from unilie.analysis import (
    ad_rank,
    center_dim,
    commutator_dim,
    is_heisenberg_type,
    j_gram,
)
from unilie.exact import IntMatrix, nullspace
from unilie.constructions import (
    cayley,
    dihedral_bipartite,
    elementary_abelian_group,
    symmetric_group,
)
from unilie.families import (
    cyclic,
    free_two_step,
    heisenberg,
    kneser,
    quaternionic,
    ring_algebra,
)
from unilie.graphs import ColoredDigraph, disjoint_union, relabel, validate_uniform
from unilie.graphs import ColorPermAutomorphism
from unilie.algebra import sign_class_report
from unilie.classification import (
    classify,
    known_presentations,
    near_factorization_sign_witness,
    ring_sum_witness,
)
from unilie.enumeration import regular_graphs, uniform_colorings
from unilie.factorizations import near_one_factorizations, one_factorizations
from unilie.serialize import from_data, parse_any, write_text

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_five_generator_classification():
    t0 = time.monotonic()
    rows = classify(5)
    elapsed = time.monotonic() - t0

    ok = len(rows) == 12
    type_multiset = sorted(t for r in rows for t in r.types)
    # 13 presentation types fold into 12 classes via the merged pair
    ok = ok and type_multiset == [
        (1, 2, 1), (1, 4, 2), (2, 4, 1), (2, 4, 2), (2, 4, 2), (3, 3, 1),
        (3, 4, 2), (3, 4, 2), (4, 4, 1), (5, 5, 1), (5, 5, 2), (6, 4, 1),
        (10, 5, 1),
    ]
    merged = [r for r in rows if r.merged == 2]
    ok = ok and len(merged) == 1 and merged[0].types == ((2, 4, 1), (2, 4, 2))
    named = {f for r in rows for f in r.family}
    ok = ok and all(r.family for r in rows)
    ok = ok and named == {k.name for k in known_presentations()}
    ok = ok and elapsed < 300
    report(1, ok, f"12 classes with <= 5 generators, all named ({elapsed:.1f}s)")


def test_criterion_02_coloring_count_table():
    t0 = time.monotonic()
    expected = {
        (2, 1): (1, [1]),
        (3, 2): (1, [3]),
        (4, 1): (2, [1, 2]),
        (4, 2): (2, [2, 4]),
        (4, 3): (2, [3, 6]),
        (5, 2): (1, [5]),
        (5, 4): (2, [5, 10]),
    }
    got = {}
    for g in regular_graphs(5):
        cols = uniform_colorings(g)
        got[(g.q, g.degrees()[0])] = (
            len(cols),
            sorted(validate_uniform(c).p for c in cols),
        )
    elapsed = time.monotonic() - t0
    ok = got == expected and elapsed < 60
    report(2, ok, f"coloring counts per regular graph, q <= 5 ({elapsed:.1f}s)")


def _structural_instances():
    insts = []
    insts += [heisenberg(n) for n in range(1, 6)]
    insts += [free_two_step(n) for n in range(2, 6)]
    insts += [cyclic(q) for q in range(3, 9)]
    for r in range(2, 6):
        insts.append(ring_algebra(r))
        insts.append(ring_algebra(r, primed=True))
    insts.append(kneser(5, 2))
    insts.append(quaternionic())
    insts.append(quaternionic(associate=True))
    klein = elementary_abelian_group(2)
    insts.append(cayley(klein, klein.involutions()))
    s3 = symmetric_group(3)
    insts.append(cayley(s3, s3.involutions()))
    insts.append(dihedral_bipartite(3))
    insts.append(dihedral_bipartite(5))
    insts += list(one_factorizations(4).classes)
    insts += list(near_one_factorizations(5).classes)
    insts += list(one_factorizations(6).classes)
    return insts


def test_criterion_03_structural_invariants():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for g in _structural_instances():
        rep = validate_uniform(g)
        ok = ok and rep.is_uniform and g.q <= 12
        t = from_graph(g)
        p, q, r, s = rep.p, rep.q, rep.r, rep.s
        ok = ok and center_dim(t) == p
        ok = ok and commutator_dim(t) == p
        js = [j_map(t, [int(c == k) for c in range(p)]) for k in range(p)]
        # centralizer of v_i: the z-span plus the kernel of the dense
        # ad_{v_i}, whose entry (k, j) is entry (j, i) of J_{z_k}
        ok = ok and all(
            p + len(nullspace([[js[k][j, i] for j in range(q)] for k in range(p)],
                              ncols=q)) == p + q - s
            for i in range(q)
        )
        ok = ok and all(ad_rank(t, i) == s for i in range(1, q + 1))
        ok = ok and all(js[k].rank() == 2 * r for k in range(p))
        # j_gram is the Gram diagonal; the dense J maps give the rest, zero
        ok = ok and j_gram(t) == (2 * r,) * p
        ok = ok and all(
            sum(x * y for ra, rb in zip(js[a].rows, js[b].rows) for x, y in zip(ra, rb))
            == (2 * r if a == b else 0)
            for a in range(p)
            for b in range(p)
        )
        checked += 1
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and checked >= 30 and elapsed < 60
    report(3, ok, f"structural invariants on {checked} instances ({elapsed:.1f}s)")


def test_criterion_04_square_norm_identity():
    ok = all(is_heisenberg_type(from_graph(heisenberg(n))) for n in range(1, 6))
    ok = ok and is_heisenberg_type(from_graph(quaternionic()))
    ok = ok and not is_heisenberg_type(from_graph(quaternionic(associate=True)))
    rep = sign_class_report(quaternionic())
    ok = ok and len(rep.classes) == 2
    flags = sorted((len(c.members), c.heisenberg) for c in rep.classes)
    ok = ok and flags == [(1, True), (3, False)]
    report(4, ok, "square-norm identity and the two 4-vertex sign classes")


def test_criterion_05_sign_orbit_merging():
    t0 = time.monotonic()
    rep4 = sign_class_report(quaternionic())
    ok = len(rep4.orbit_representatives) == 4 and len(rep4.classes) == 2
    n2, _, _ = near_factorization_sign_witness()
    rep5 = sign_class_report(n2)
    ok = ok and len(rep5.orbit_representatives) == 2 and len(rep5.classes) == 1
    for n in range(1, 4):
        repm = sign_class_report(heisenberg(n))
        ok = ok and len(repm.orbit_representatives) == 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    report(5, ok, f"sign orbits merge 4->2 and 2->1 ({elapsed:.1f}s)")


def _gl_perturbations(w: GeneralLinearWitness):
    rows = [list(r) for r in w.matrix.rows]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x != 0:
                out = [list(r) for r in rows]
                out[i][j] = -x
                yield GeneralLinearWitness(IntMatrix.from_rows(out), w.q, w.p)


def _sp_perturbations(w: SignedPermWitness):
    for i in range(len(w.vertex_signs)):
        vs = list(w.vertex_signs)
        vs[i] = -vs[i]
        yield SignedPermWitness(
            w.vertex_images, w.color_images, tuple(vs), w.color_signs
        )
    for k in range(len(w.color_signs)):
        cs = list(w.color_signs)
        cs[k] = -cs[k]
        yield SignedPermWitness(
            w.vertex_images, w.color_images, w.vertex_signs, tuple(cs)
        )


def test_criterion_06_stored_witnesses_and_rigidity():
    t1, t2, glw = ring_sum_witness()
    ok = check_witness(t1, t2, glw).ok
    for bad in _gl_perturbations(glw):
        try:
            ok = ok and not check_witness(t1, t2, bad).ok
        except ValueError:
            pass  # singular perturbation: counts as failing
    n2, n1, spw = near_factorization_sign_witness()
    ok = ok and check_witness(n2, n1, spw).ok
    for bad in _sp_perturbations(spw):
        ok = ok and not check_witness(n2, n1, bad).ok
    report(6, ok, "stored witnesses verify and break under any single sign flip")


def test_criterion_07_factorization_counts():
    ok = True
    for fn, n, labeled, classes in [
        (one_factorizations, 4, 1, 1),
        (near_one_factorizations, 5, 6, 1),
        (one_factorizations, 6, 6, 1),
    ]:
        rep = fn(n)
        ok = ok and rep.labeled_count == labeled and len(rep.classes) == classes
    report(7, ok, "factorization counts 1/1, 6/1, 6/1 for 4, 5, 6 vertices")


def _random_colored_digraph(rng):
    q = rng.randint(2, 8)
    p = rng.randint(1, 6)
    pairs = [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)]
    rng.shuffle(pairs)
    arcs = []
    for i, j in pairs[: rng.randint(1, len(pairs))]:
        if rng.random() < 0.5:
            i, j = j, i
        arcs.append((i, j, rng.randint(1, p)))
    return ColoredDigraph.from_arcs(q, p, arcs)


def test_criterion_08_serialization_round_trip():
    t0 = time.monotonic()
    rng = random.Random(8128)
    pool = [
        heisenberg(2), quaternionic(), ring_algebra(3), cyclic(4),
        free_two_step(3), kneser(4, 1),
    ]
    ok = True
    uniform_seen = 0
    for trial in range(1000):
        if trial % 10 == 0:
            base = pool[trial // 10 % len(pool)]
            vp = list(range(1, base.q + 1))
            cp = list(range(1, base.p + 1))
            rng.shuffle(vp)
            rng.shuffle(cp)
            g = relabel(base, ColorPermAutomorphism(tuple(vp), tuple(cp), False))
        else:
            g = _random_colored_digraph(rng)
        ok = ok and parse_any(write_text(g)) == g
        ok = ok and from_data(g.to_data()) == g
        rep = validate_uniform(g)
        if rep.is_uniform:
            uniform_seen += 1
            ok = ok and 2 * rep.r * rep.p == rep.s * rep.q
            ok = ok and 1 <= rep.s <= rep.q - 1
            ok = ok and rep.s <= rep.p
            ok = ok and rep.r >= 1
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and uniform_seen >= 100 and elapsed < 60
    report(
        8,
        ok,
        f"1000 round trips, {uniform_seen} uniform with the counting identity "
        f"({elapsed:.1f}s)",
    )


def test_criterion_09_union_uniformity_law():
    rng = random.Random(28)
    pool = [
        heisenberg(1), heisenberg(2), heisenberg(3),
        free_two_step(2), free_two_step(3), free_two_step(4),
        ring_algebra(2), ring_algebra(2, primed=True), ring_algebra(3),
        quaternionic(), quaternionic(associate=True),
        cyclic(3), cyclic(4), cyclic(5),
        kneser(3, 1), kneser(4, 1),
    ]
    stats = {(m, v): 0 for m in ("disjoint", "shared") for v in (False, True)}
    ok = True
    for _ in range(200):
        g1, g2 = rng.choice(pool), rng.choice(pool)
        r1, r2 = validate_uniform(g1), validate_uniform(g2)

        u = disjoint_union(g1, g2, color_mode="disjoint")
        ru = validate_uniform(u)
        expect = r1.s == r2.s and r1.r == r2.r
        ok = ok and ru.is_uniform == expect
        stats[("disjoint", expect)] += 1
        if expect:
            ok = ok and (ru.p, ru.q, ru.r, ru.s) == (
                r1.p + r2.p, r1.q + r2.q, r1.r, r1.s,
            )

        if r1.p == r2.p:
            u = disjoint_union(g1, g2, color_mode="shared")
            ru = validate_uniform(u)
            expect = r1.s == r2.s
            ok = ok and ru.is_uniform == expect
            stats[("shared", expect)] += 1
            if expect:
                ok = ok and (ru.p, ru.q, ru.r, ru.s) == (
                    r1.p, r1.q + r2.q, r1.r + r2.r, r1.s,
                )
        if not ok:
            break
    # both outcomes of both modes must actually occur in the sample
    ok = ok and all(v > 0 for v in stats.values())
    report(9, ok, f"union uniformity law over 200 random pairs {dict(stats)}")
