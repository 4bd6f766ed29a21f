"""Answer oracle for ring_queries, independent of cgquantum.

It reads `cg_table.json` with the json module and computes every answer
from the raw structure constants: products and Gromov-Witten invariants
directly, expansions and normal forms by evaluating polynomials in
Q[s1, s2, q] through the constants, and the hyperplane characteristic
polynomial from its closed form.  Elements are dicts
{(label, q exponent): coefficient}.
"""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

Q_DEGREE = 4   # degree of the quantum parameter (the Fano index)


class Oracle:
    def __init__(self, table_path: str):
        with open(table_path) as fh:
            raw = json.load(fh)
        self.degrees = {rec["name"]: rec["degree"] for rec in raw["labels"]}
        self.dim = max(self.degrees.values())
        self.unit = min(self.degrees, key=self.degrees.get)
        top = max(self.degrees, key=self.degrees.get)
        self.consts: dict[tuple[str, str], dict] = {}
        for rec in raw["products"]:
            terms = {(t["label"], t["q"]): Fraction(t["coeff"])
                     for t in rec["terms"]}
            self.consts[rec["a"], rec["b"]] = terms
            self.consts[rec["b"], rec["a"]] = terms
        # Poincare dual: the class pairing to 1 with a in the classical part
        self.dual = {a: b for (a, b), terms in self.consts.items()
                     if self.degrees[a] + self.degrees[b] == self.dim
                     and terms.get((top, 0)) == 1}
        self.betti = Counter(self.degrees.values())
        self._monomials: dict[tuple[int, int, int], dict] = {
            (0, 0, 0): {(self.unit, 0): Fraction(1)}}

    def product(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for (la, ea), ca in x.items():
            for (lb, eb), cb in y.items():
                for (lk, ek), ck in self.consts[la, lb].items():
                    key = (lk, ea + eb + ek)
                    out[key] = out.get(key, 0) + ca * cb * ck
        return {k: c for k, c in out.items() if c}

    def gw(self, d: int, a: str, b: str, c: str) -> Fraction:
        if (self.degrees[a] + self.degrees[b] + self.degrees[c]
                != self.dim + Q_DEGREE * d):
            return Fraction(0)
        return self.consts[a, b].get((self.dual[c], d), Fraction(0))

    def _monomial(self, exps: tuple[int, int, int]) -> dict:
        """s1^e1 * s2^e2 * q^eq as an element, built one factor at a time."""
        if exps not in self._monomials:
            e1, e2, eq = exps
            if eq:
                lower = self._monomial((e1, e2, eq - 1))
                value = {(l, e + 1): c for (l, e), c in lower.items()}
            elif e2:
                value = self.product(self._monomial((e1, e2 - 1, 0)),
                                     {("s2", 0): Fraction(1)})
            else:
                value = self.product(self._monomial((e1 - 1, 0, 0)),
                                     {("s1", 0): Fraction(1)})
            self._monomials[exps] = value
        return self._monomials[exps]

    def evaluate(self, poly: dict) -> dict:
        """Image of {(e1, e2, eq): coefficient} in the Schubert basis."""
        out: dict = {}
        for exps, c in poly.items():
            for key, v in self._monomial(exps).items():
                out[key] = out.get(key, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def dimension(self, degree: int) -> int:
        """Dimension of a graded slice: the ring is free over Q[q]."""
        return sum(self.betti[d] for d in range(degree, -1, -Q_DEGREE))

    def is_normal_form(self, poly: dict, nf: dict, degree: int) -> bool:
        """nf represents the class of poly, has its degree, and is reduced
        to at most the slice dimension in monomials."""
        return (self.evaluate(nf) == self.evaluate(poly)
                and all(e1 + 2 * e2 + Q_DEGREE * eq == degree
                        for e1, e2, eq in nf)
                and len(nf) <= self.dimension(degree))

    @staticmethod
    def hyperplane_charpoly(q: Fraction) -> dict:
        """t^15 - 102q t^11 + 317q^2 t^7 - 2048q^3 t^3, as {exponent: c}."""
        return {15: Fraction(1), 11: -102 * q, 7: 317 * q ** 2,
                3: -2048 * q ** 3}
