"""ring_queries: notebook-style use of the engine, one library query per op
against one loaded table and quotient.

Each period of 20 ops holds 8 `product` queries (`quantum_product` of two
homogeneous elements with small integer and q-power coefficients), 4 `gw`
(`gw_invariant` of a triple whose degrees match), 5 `expand` (alternately
`expand_in_schubert` and `normal_form` of a polynomial in Q[s1, s2, q] of
degree 0-16, so degrees repeat) and 3 `charpoly` (`multiplication_matrix`
of s1 at a seeded rational q, then `exactmath.charpoly`).  The seed draws
every input.  With this mix `op_p50_ms` falls inside the cheap kinds and
`op_tail_ms` inside `charpoly`, both away from a kind boundary.
`verify_table`, `intersection` and `pipeline` are never called by an op.

Every answer is checked by the independent oracle, outside op timing.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from cgquantum.exactmath import MultiPolynomial, QPolynomial, charpoly
from cgquantum.presentation import expand_in_schubert
from cgquantum.schubert import (DEGREES, LABELS, SchubertElement,
                                gw_invariant, quantum_product)
from cgquantum.spectral import multiplication_matrix

from harness import ENGINE_PROBE, TABLE_PATH, load_engine, schedule
from oracle import Oracle

SETUP_PROBE = ENGINE_PROBE
RSS_OF = "self"
TRACE_PAIRS_PER_S = 350

PERIOD = schedule({"product": 8, "gw": 4, "expand": 5, "charpoly": 3})
COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Query:
    kind: str
    args: tuple      # engine inputs
    plain: tuple     # the same inputs for the oracle
    degree: int = -1  # graded degree of a product or expand query


def setup(tracer, clock):
    return load_engine(tracer), Oracle(TABLE_PATH)


def _element(rng, degree):
    """Homogeneous element of one degree: up to three classes, each with a
    small integer coefficient and the q-power the degree implies."""
    slots = [(label, (degree - d) // 4) for label, d in DEGREES.items()
             if d <= degree and (degree - d) % 4 == 0]
    picked = rng.sample(slots, rng.randint(1, min(3, len(slots))))
    plain = {(label, e): rng.choice(COEFFS) for label, e in picked}
    elem = SchubertElement({label: QPolynomial.monomial(e, c)
                            for (label, e), c in plain.items()})
    return elem, plain


def ops(state, seed):
    engine, _ = state
    ring = engine.quotient.ring
    rng = random.Random(seed)
    s1 = SchubertElement.basis("s1")
    triples = [(d, a, b, c) for d in range(5) for a in LABELS
               for b in LABELS for c in LABELS
               if DEGREES[a] + DEGREES[b] + DEGREES[c] == 8 + 4 * d]
    expands = itertools.cycle(("expand_in_schubert", "normal_form"))
    for kind in itertools.cycle(PERIOD):
        if kind == "product":
            dx, dy = rng.randint(0, 8), rng.randint(0, 8)
            x, px = _element(rng, dx)
            y, py = _element(rng, dy)
            yield Query(kind, (x, y), (px, py), dx + dy)
        elif kind == "gw":
            triple = rng.choice(triples)
            yield Query(kind, triple, triple)
        elif kind == "expand":
            degree = rng.randint(0, 16)
            monos = ring.monomials(degree)
            picked = rng.sample(monos, rng.randint(1, min(3, len(monos))))
            terms = {m: Fraction(rng.choice(COEFFS), rng.randint(1, 3))
                     for m in picked}
            yield Query(kind, (next(expands), MultiPolynomial(ring, terms)),
                        (terms,), degree)
        else:
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            yield Query(kind, (s1, q), (q,))


def run(state, query, tr):
    engine, _ = state
    if query.kind == "product":
        return tr.call("schubert.quantum_product", quantum_product,
                       engine.table, *query.args)
    if query.kind == "gw":
        return tr.call("schubert.gw_invariant", gw_invariant, engine.table,
                       *query.args)
    if query.kind == "expand":
        method, poly = query.args
        if method == "normal_form":
            return tr.call("presentation.normal_form",
                           engine.quotient.normal_form, poly)
        return tr.call("presentation.expand_in_schubert", expand_in_schubert,
                       engine.quotient, engine.giambelli, poly)
    matrix = tr.call("spectral.multiplication_matrix", multiplication_matrix,
                     engine.table, *query.args)
    return tr.call("exactmath.charpoly", charpoly, matrix)


run_traced = run


def _plain_element(elem) -> dict:
    return {(label, e): c for label, poly in elem.coeffs.items()
            for e, c in poly.coeffs.items()}


def check(state, query, answer):
    _, oracle = state
    kind = query.kind
    if kind == "product":
        ok = _plain_element(answer) == oracle.product(*query.plain)
    elif kind == "gw":
        ok = answer == oracle.gw(*query.plain)
    elif kind == "expand":
        (poly,) = query.plain
        if query.args[0] == "normal_form":
            ok = oracle.is_normal_form(poly, answer.terms, query.degree)
        else:
            ok = _plain_element(answer) == oracle.evaluate(poly)
    else:
        ok = answer.coeffs == oracle.hyperplane_charpoly(*query.plain)
    counts = {f"ops.{kind}": 1}
    if query.degree >= 0:
        counts[f"ops.degree.{query.degree}"] = 1
    return ok, counts, None if ok else f"{kind} {query.plain}: got {answer}"
