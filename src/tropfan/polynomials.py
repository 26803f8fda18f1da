"""Multivariate polynomials over Q with named variables.

Exponent vectors are plain integer tuples positioned against an ordered
variable list, so homogenization can prepend its fresh variable at index 0 and
later slicing can drop that same fixed index. Includes the text parser used by
the CLI, homogenization, Newton polytopes (one double description pass over
the homogenized support, whose rays are the vertices), and initial forms.
IdealSpec is a named tuple, so it also equals the plain tuple of its fields.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import (
    DimMismatchError,
    PolynomialParseError,
    ZeroPolynomialError,
)
from .fans import Cone, cone_from_generators

VAR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# The parser refuses, before multiplying, a product whose operands' term
# counts multiply past this: (x+1)^2000 would take seconds to expand, and
# (x+1)^99999999 would not end.
MAX_TERM_PAIRS = 10_000


def check_convention(convention) -> None:
    if convention not in ("min", "max"):
        raise ValueError("convention must be 'min' or 'max'")


def _grade_key(exps):
    return (sum(exps), exps)


class Polynomial:
    """A polynomial over Q: a map from exponent tuples to nonzero Fractions.

    Instances are immutable in practice; all arithmetic returns new objects.
    Term iteration is deterministic (graded lexicographic, descending).
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        object.__setattr__(self, "variables", tuple(variables))
        clean = {}
        nv = len(self.variables)
        for exps, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv:
                raise DimMismatchError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_terms(cls, variables, terms) -> "Polynomial":
        """The polynomial with these terms, neither checked nor copied: the
        engine's term dicts have int-tuple keys of the ring's length and
        nonzero Fraction values already."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "Polynomial":
        nv = len(tuple(variables))
        return cls(variables, {(0,) * nv: Fraction(value)})

    @classmethod
    def variable(cls, variables, name) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def support(self) -> list:
        return sorted(self.terms, key=_grade_key, reverse=True)

    def items(self):
        for exps in self.support():
            yield exps, self.terms[exps]

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def _check_same_ring(self, other):
        if self.variables != other.variables:
            raise DimMismatchError("polynomials from different rings")

    def __add__(self, other) -> "Polynomial":
        self._check_same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial._from_terms(
            self.variables, {e: c for e, c in terms.items() if c})

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms(
            self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        self._check_same_ring(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Polynomial._from_terms(
            self.variables, {e: c for e, c in terms.items() if c})

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.variables, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        """By squaring and multiplying, as the parser's factor does: the
        base is squared only while bits of k remain, and the first factor
        taken is not multiplied by one."""
        if k < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.constant(self.variables, 1) if result is None \
            else result

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.items():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={self.variables})"


class IdealSpec(namedtuple("IdealSpec", "variables generators")):
    """A finite list of generators in a fixed polynomial ring."""

    __slots__ = ()

    def __new__(cls, variables, generators):
        if not generators:
            raise ValueError("an ideal spec needs at least one generator")
        for g in generators:
            if g.variables != variables:
                raise DimMismatchError("generator from a different ring")
        return super().__new__(cls, variables, generators)

    @classmethod
    def _make(cls, iterable):
        """Through the constructor, which namedtuple's _make and _replace
        skip."""
        return cls(*iterable)


def ideal(variables, generators) -> IdealSpec:
    return IdealSpec(tuple(variables), tuple(generators))


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise PolynomialParseError(f"unexpected character {rest[0]!r}", pos + 1)
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), m.start(1) + 1))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2) + 1))
        else:
            tokens.append(("op", m.group(3), m.start(3) + 1))
        pos = m.end()
    tokens.append(("end", None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, variables):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise PolynomialParseError("unexpected trailing input", pos)
        return p

    def expr(self) -> Polynomial:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def product(self, p: Polynomial, q: Polynomial, pos: int) -> Polynomial:
        """p * q, refused past MAX_TERM_PAIRS at the operator's position."""
        if p.num_terms() * q.num_terms() > MAX_TERM_PAIRS:
            raise PolynomialParseError(
                f"product of {p.num_terms()} and {q.num_terms()} terms is too "
                f"large to expand (more than {MAX_TERM_PAIRS} term pairs)", pos)
        return p * q

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                p = self.product(p, self.factor(), pos)
            elif kind == "op" and val == "/":
                self.advance()
                kind2, val2, pos2 = self.peek()
                if kind2 != "num":
                    raise PolynomialParseError(
                        "division is only allowed by an integer literal", pos2)
                self.advance()
                if val2 == 0:
                    raise PolynomialParseError("division by zero", pos2)
                p = p.scale(Fraction(1, val2))
            elif kind == "name":
                # implicit product only after a numeric literal, e.g. 3x
                if self.tokens[self.i - 1][0] == "num":
                    p = self.product(p, self.factor(), pos)
                else:
                    raise PolynomialParseError(
                        "missing '*' between factors", pos)
            else:
                return p

    def factor(self) -> Polynomial:
        """An atom, or an atom raised to a power by squaring and
        multiplying, each product checked."""
        p = self.atom()
        kind, val, pos = self.peek()
        if kind != "op" or val != "^":
            return p
        self.advance()
        kind2, k, pos2 = self.peek()
        if kind2 != "num":
            raise PolynomialParseError(
                "exponent must be a nonnegative integer literal", pos2)
        self.advance()
        result = Polynomial.constant(self.variables, 1)
        while k:
            if k & 1:
                result = self.product(result, p, pos)
            k >>= 1
            if k:
                p = self.product(p, p, pos)
        return result

    def atom(self) -> Polynomial:
        kind, val, pos = self.advance()
        if kind == "num":
            return Polynomial.constant(self.variables, val)
        if kind == "name":
            if val not in self.variables:
                raise PolynomialParseError(f"unknown variable {val!r}", pos)
            return Polynomial.variable(self.variables, val)
        if kind == "op" and val == "(":
            p = self.expr()
            kind2, val2, pos2 = self.peek()
            if kind2 != "op" or val2 != ")":
                raise PolynomialParseError("expected ')'", pos2)
            self.advance()
            return p
        if kind == "op" and val == "-":
            return -self.atom()
        if kind == "op" and val == "+":
            return self.atom()
        raise PolynomialParseError("expected a term", pos)


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse a polynomial in expanded normal form from text.

    Grammar: integer and rational coefficients (3, 3/2), + - * ^ and
    parentheses. '*' is optional between a numeric coefficient and a variable
    but required between variables; '/' only by a nonzero integer literal;
    exponents are nonnegative integer literals.
    """
    variables = tuple(variables)
    if not variables:
        raise ValueError("variable list must be nonempty")
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")
    for v in variables:
        if not VAR_NAME.match(v):
            raise ValueError(f"invalid variable name {v!r}")
    return _Parser(text, variables).parse()


def fresh_variable(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def homogenize(spec: IdealSpec) -> IdealSpec:
    """Homogenize each generator with a fresh variable prepended at index 0."""
    hname = fresh_variable("h", spec.variables)
    new_vars = (hname,) + spec.variables
    gens = []
    for g in spec.generators:
        if g.is_zero():
            gens.append(Polynomial.zero(new_vars))
            continue
        d = g.total_degree()
        terms = {}
        for e, c in g.terms.items():
            terms[(d - sum(e),) + e] = c
        gens.append(Polynomial(new_vars, terms))
    return IdealSpec(new_vars, tuple(gens))


def newton_cone(f: Polynomial) -> Cone:
    """The cone over the Newton polytope of f, generated by the homogenized
    support points (q, 1), from one double description pass.

    The cone is pointed and every (q, 1) is primitive, so its rays are
    exactly the points (v, 1) of the vertices v. Its facet rows, the rays of
    the pass, are the rows (a, b) with a.q + b >= 0 on the polytope that
    cut out its facets.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no Newton polytope")
    return cone_from_generators([q + (1,) for q in f.support()], [],
                                len(f.variables) + 1)


def newton_polytope(f: Polynomial) -> list:
    """Vertices of the convex hull of the support of f, in descending
    graded lexicographic order: the rays of newton_cone, no linear program
    run."""
    return sorted((r[:-1] for r in newton_cone(f).rays.columns()),
                  key=_grade_key, reverse=True)


def initial_form(f: Polynomial, w, convention: str = "min") -> Polynomial:
    """Sum of the terms of f whose weight w.u is optimal."""
    check_convention(convention)
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no initial form")
    if len(w) != len(f.variables):
        raise DimMismatchError("weight vector length mismatch")
    weights = {e: sum(wi * ei for wi, ei in zip(w, e)) for e in f.terms}
    opt = min(weights.values()) if convention == "min" else max(weights.values())
    return Polynomial._from_terms(
        f.variables, {e: c for e, c in f.terms.items() if weights[e] == opt})


def edge_lattice_length(u, v) -> int:
    """Number of lattice points on the segment [u, v] minus one."""
    g = 0
    for a, b in zip(u, v):
        g = gcd(g, abs(a - b))
    return g
