"""Exact polynomial arithmetic over Q in the ring of the paper.

The ring is Q[x_1..x_n, y_1..y_n, z_1..z_n] under grevlex, with
x_1 > ... > x_n > y_1 > ... > z_n: the x block first, and within each
block the smaller index is the larger variable. The eliminations of
`idealops` add their variable t only inside the packed kernel
(`groebner._Packing`). Coefficients are exact rationals throughout;
nothing is ever rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add as _add
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]


class Monomial:
    """Exponent vector with cached total degree and grevlex key; immutable
    and hashable."""

    __slots__ = ("exps", "deg", "_hash", "_key")

    def __init__(self, exps: Iterable[int], deg: Optional[int] = None):
        exps = exps if isinstance(exps, tuple) else tuple(exps)
        self.exps = exps
        self.deg = sum(exps) if deg is None else deg
        self._hash = hash(exps)
        self._key = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial{self.exps}"

    @property
    def key(self) -> tuple:
        """Grevlex sort key, cached: a.key > b.key iff a > b. Higher total
        degree wins; ties go to the monomial whose exponent difference has
        its last nonzero entry negative."""
        k = self._key
        if k is None:
            k = self._key = (self.deg, tuple(-e for e in reversed(self.exps)))
        return k

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(_add, self.exps, other.exps)),
                        self.deg + other.deg)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)


class Term(NamedTuple):
    coeff: Fraction
    mono: Monomial


class Ring:
    """The ring of width n >= 2: variables x_1..x_n, y_1..y_n, z_1..z_n at
    exponent positions 0..3n - 1, under grevlex (`Monomial.key`).

    Builds, normalizes, parses and prints polynomials. Two rings compare
    equal iff they share the width, so values may cross independently
    constructed but identical rings.
    """

    __slots__ = ("n", "nvars", "names", "_pos_by_name", "zero", "one")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("matrix width n must be >= 2")
        self.n = n
        self.nvars = 3 * n
        self.names = tuple(f"{block}{i}" for block in "xyz" for i in range(1, n + 1))
        self._pos_by_name = {name: p for p, name in enumerate(self.names)}
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, (Term(Fraction(1), self.monomial({})),))

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    def __repr__(self) -> str:
        return f"Ring(n={self.n})"

    def pos(self, block: str, i: int) -> int:
        """Position of block variable i (1-based) in the exponent vector."""
        if block not in ("x", "y", "z"):
            raise ValueError(f"unknown block {block!r}")
        if not 1 <= i <= self.n:
            raise ValueError(f"no variable {block}{i} for n={self.n}")
        return "xyz".index(block) * self.n + (i - 1)

    def monomial(self, exps: Mapping[int, int] | Iterable[int]) -> Monomial:
        """Monomial from a position->exponent mapping or a full exponent vector."""
        if isinstance(exps, Mapping):
            vec = [0] * self.nvars
            for pos, e in exps.items():
                if e < 0:
                    raise ValueError("negative exponent")
                vec[pos] += e
            return Monomial(tuple(vec))
        vec = tuple(exps)
        if len(vec) != self.nvars or any(e < 0 for e in vec):
            raise ValueError("bad exponent vector")
        return Monomial(vec)

    def poly(self, coeffs: Mapping[Monomial, Scalar]) -> Polynomial:
        """Canonical polynomial from a monomial->coefficient mapping."""
        d = {}
        for m, c in coeffs.items():
            if len(m.exps) != self.nvars:
                raise ValueError("monomial does not fit this ring")
            c = Fraction(c)
            if c:
                d[m] = d.get(m, Fraction(0)) + c
        return self._from_dict(d)

    def _from_dict(self, d: dict) -> Polynomial:
        items = sorted(((m, c) for m, c in d.items() if c),
                       key=lambda mc: mc[0].key, reverse=True)
        return Polynomial(self, tuple(Term(c, m) for m, c in items))

    def const(self, c: Scalar) -> Polynomial:
        c = Fraction(c)
        if not c:
            return self.zero
        return Polynomial(self, (Term(c, self.monomial({})),))

    def var(self, name: str) -> Polynomial:
        pos = self._pos_by_name.get(name)
        if pos is None:
            raise ValueError(f"unknown variable {name!r} in {self!r}")
        return Polynomial(self, (Term(Fraction(1), self.monomial({pos: 1})),))

    def x(self, i: int) -> Polynomial:
        return self.var(f"x{i}")

    def y(self, i: int) -> Polynomial:
        return self.var(f"y{i}")

    def z(self, i: int) -> Polynomial:
        return self.var(f"z{i}")

    def from_monomial(self, m: Monomial, coeff: Scalar = 1) -> Polynomial:
        return self.poly({m: coeff})

    # -- text format ----------------------------------------------------
    # Signed `coeff*var^e*...` terms joined by +/-; coefficient omitted
    # when +-1 (unless constant), exponent omitted when 1. Variables print
    # in x, y, z order with ascending index.

    def format_monomial(self, exps: Sequence[int]) -> str:
        """The monomial with exponent vector exps as `format` writes its
        factors, e.g. "x1^2*y3"; "" for 1."""
        return "*".join(name if exp == 1 else f"{name}^{exp}"
                        for name, exp in zip(self.names, exps) if exp)

    def format(self, f: Polynomial) -> str:
        if not f.terms:
            return "0"
        parts = []
        for coeff, mono in f.terms:
            factors = self.format_monomial(mono.exps)
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = str(mag) + "*" + factors
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    _TOKEN = re.compile(r"^(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[xyz]\d+)(?:\^(?P<exp>\d+))?)$")

    def parse(self, text: str) -> Polynomial:
        """Inverse of format(); also accepts unnormalized term lists."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return self.zero
        chunks = re.findall(r"[+-]?[^+-]+", s)
        if "".join(chunks) != s:
            raise ValueError(f"cannot parse {text!r}")
        acc: dict[Monomial, Fraction] = {}
        for chunk in chunks:
            sign = Fraction(1)
            if chunk[0] in "+-":
                sign = Fraction(-1) if chunk[0] == "-" else Fraction(1)
                chunk = chunk[1:]
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            coeff = sign
            vec = [0] * self.nvars
            for factor in chunk.split("*"):
                m = self._TOKEN.match(factor)
                if m is None:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                if m.group("num") is not None:
                    try:
                        coeff *= Fraction(m.group("num"))
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {text!r}") from None
                else:
                    pos = self._pos_by_name.get(m.group("var"))
                    if pos is None:
                        raise ValueError(f"unknown variable {m.group('var')!r}")
                    vec[pos] += int(m.group("exp") or 1)
            mono = Monomial(tuple(vec))
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        return self._from_dict(acc)


class Polynomial:
    """Terms strictly descending under the ring's order; () represents 0.

    A polynomial is immutable: nothing writes `terms` after `__init__`, so
    its hash is computed on first use and kept in `_hash`. One built from a
    packed prim by `groebner` keeps that prim in `_prim`."""

    __slots__ = ("ring", "terms", "_hash", "_prim")

    def __init__(self, ring: Ring, terms: tuple[Term, ...]):
        self.ring = ring
        self.terms = terms

    # -- basic structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("leading term of zero")
        return self.terms[0]

    def leading_coeff(self) -> Fraction:
        return self.leading_term().coeff

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max((t.mono.deg for t in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({t.mono.deg for t in self.terms}) <= 1

    def monic(self) -> "Polynomial":
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return Polynomial(self.ring,
                          tuple(Term(c / lc, m) for c, m in self.terms))

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def _check_ring(self, ring: Ring) -> None:
        if self.ring is not ring and self.ring != ring:
            raise ValueError(f"polynomial from {self.ring!r}, expected {ring!r}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other.ring)
        d = {m: c for c, m in self.terms}
        for c, m in other.terms:
            nc = d.get(m, 0) + c
            if nc:
                d[m] = nc
            elif m in d:
                del d[m]
        return self.ring._from_dict(d)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, tuple(Term(-c, m) for c, m in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.ring.zero
            return Polynomial(self.ring,
                              tuple(Term(cc * c, m) for cc, m in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other.ring)
        d: dict[Monomial, Fraction] = {}
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                m = m1.mul(m2)
                nc = d.get(m, 0) + c1 * c2
                if nc:
                    d[m] = nc
                elif m in d:
                    del d[m]
        return self.ring._from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparisons and display ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.ring, self.terms))
            return self._hash

    def __str__(self) -> str:
        return self.ring.format(self)

    def __repr__(self) -> str:
        return f"<{self.ring.format(self)}>"

