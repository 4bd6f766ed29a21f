"""SchubertElement arithmetic and the plain `cgq product` output, pinned in
golden/elements.json: for seeded random elements (int and Fraction
coefficients, up to four classes, q^0 to q^3) the printed forms, the terms
with their types, the coeffs view, equality, the ring operations and the
products and pairing against the next element; and `cgq product a b` for
all 225 ordered pairs of classes.

Regenerate the golden file (only where a change of output is intended):
    PYTHONPATH=src python tests/test_elements.py > tests/golden/elements.json
"""
import contextlib
import io
import json
import os
import random
from fractions import Fraction

from cgquantum.cli import main
from cgquantum.exactmath import QPolynomial
from cgquantum.schubert import (LABELS, SchubertElement, classical_product,
                                load_default_table, poincare_pairing,
                                quantum_product)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "elements.json")

# small values, so that sums cancel often; 0 drops out, and 6/3 is an
# integral Fraction
COEFFS = (1, -1, 2, -2, 3, 0, Fraction(1, 2), Fraction(-1, 2),
          Fraction(2, 3), Fraction(6, 3))


def _element(rng):
    """Up to four classes, from the first six in half the draws so that
    classes recur, each with one or two of the powers q^0 to q^3; built
    through the label constructor or from terms."""
    pool = LABELS[:6] if rng.random() < 0.5 else LABELS
    coeffs = {label: {e: rng.choice(COEFFS)
                      for e in rng.sample(range(4), rng.randint(1, 2))}
              for label in rng.sample(pool, rng.randint(1, 4))}
    if rng.random() < 0.5:
        return SchubertElement({label: QPolynomial(p)
                                for label, p in coeffs.items()})
    return SchubertElement.from_terms({(LABELS.index(label), e): c
                                       for label, p in coeffs.items()
                                       for e, c in p.items()})


def _typed(items):
    return [[*key, type(c).__name__, str(c)] for key, c in items]


def _describe(elem):
    return {"str": str(elem), "terms": _typed(elem.terms().items())}


def _poly(p):
    return {"str": str(p),
            "coeffs": _typed(((e,), c) for e, c in p.coeffs.items())}


def seeded_elements(count=100, seed=2024):
    rng = random.Random(seed)
    elems = []
    for i in range(count):
        if i % 10 == 9:
            # equal to the element before, its terms reversed
            elems.append(SchubertElement.from_terms(
                dict(reversed(elems[-1].terms().items()))))
        else:
            elems.append(SchubertElement.zero() if i % 25 == 0
                         else _element(rng))
    return elems


def element_observations(table):
    elems = seeded_elements()
    out = []
    for i, x in enumerate(elems):
        y = elems[(i + 1) % len(elems)]
        rebuilt = SchubertElement.from_terms(x.terms())
        pairing = poincare_pairing(table, x, y)
        out.append({
            "str": str(x),
            "repr": repr(x),
            "terms": _typed(x.terms().items()),
            "coeffs": sorted([label, _poly(p)]
                             for label, p in x.coeffs.items()),
            "eq": [x == y, x == rebuilt, hash(x) == hash(rebuilt),
                   x == str(x)],
            "add": _describe(x + y),
            "sub": _describe(x - y),
            "neg": _describe(-x),
            "scale": _describe(x.scale(Fraction(2, 3))),
            "drop_quantum": _describe(x.drop_quantum()),
            "coeff_s8": _poly(x.coeff("s8")),
            "quantum_product": _describe(quantum_product(table, x, y)),
            "classical_product": _describe(classical_product(table, x, y)),
            "poincare_pairing": [type(pairing).__name__, str(pairing)],
        })
    return out


def product_outputs():
    """`cgq product a b`, exit code and stdout, for every ordered pair."""
    out = {}
    for a in LABELS:
        for b in LABELS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["product", a, b])
            out[f"{a} {b}"] = [code, buf.getvalue()]
    return out


def observations():
    return {"elements": element_observations(load_default_table()),
            "product": product_outputs()}


def test_element_behaviour_is_pinned():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(observations()))
    assert got["product"] == golden["product"]
    assert len(got["elements"]) == len(golden["elements"])
    for i, (g, w) in enumerate(zip(got["elements"], golden["elements"])):
        assert g == w, i


def test_sum_and_difference_keep_the_from_terms_order():
    # a sum is normalised as every element is, so equal elements iterate
    # alike however they were built
    elems = seeded_elements()
    for i, x in enumerate(elems):
        y = elems[(i + 1) % len(elems)]
        for got, sign in ((x + y, 1), (x - y, -1)):
            summed = dict(x.terms())
            for key, c in y.terms().items():
                summed[key] = summed.get(key, 0) + sign * c
            want = SchubertElement.from_terms(summed)
            assert list(got.terms().items()) == \
                list(want.terms().items()), (i, sign)
            assert list(got.coeffs) == list(want.coeffs), (i, sign)


def _dump(obs):
    """One element or product per line."""
    elements = ",\n".join("  " + json.dumps(e) for e in obs["elements"])
    products = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in obs["product"].items())
    return (f'{{\n "elements": [\n{elements}\n ],\n'
            f' "product": {{\n{products}\n }}\n}}')


if __name__ == "__main__":
    print(_dump(observations()))
