"""Exact polynomial arithmetic over Q in blocked variable spaces.

The base ring is Q[x_1..x_n, y_1..y_n, z_1..z_n]; an extended ring adds
elimination variables t_1..t_e that rank above every x, y, z. Within each
block the smaller index is the larger variable. Coefficients are exact
rationals throughout; nothing is ever rounded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add, le as _le, sub as _sub
from typing import Iterable, Mapping, NamedTuple, Optional, Union

GREVLEX = "grevlex"
ELIM_BLOCK = "elim-block"

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class VarSpace:
    """Variable layout t_1..t_e > x_1..x_n > y_1..y_n > z_1..z_n."""

    n: int
    elim_count: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("matrix width n must be >= 2")
        if self.elim_count < 0:
            raise ValueError("elim_count must be >= 0")

    @property
    def nvars(self) -> int:
        return 3 * self.n + self.elim_count

    def pos(self, block: str, i: int) -> int:
        """Position of block variable i (1-based) in the exponent vector."""
        n, e = self.n, self.elim_count
        if block == "t":
            if not 1 <= i <= e:
                raise ValueError(f"no variable t{i} (elim_count={e})")
            return i - 1
        if block not in ("x", "y", "z"):
            raise ValueError(f"unknown block {block!r}")
        if not 1 <= i <= n:
            raise ValueError(f"no variable {block}{i} for n={n}")
        return e + "xyz".index(block) * n + (i - 1)

    def var_name(self, pos: int) -> str:
        n, e = self.n, self.elim_count
        if not 0 <= pos < self.nvars:
            raise ValueError(f"position {pos} out of range")
        if pos < e:
            return f"t{pos + 1}"
        pos -= e
        return f"{'xyz'[pos // n]}{pos % n + 1}"


class Monomial:
    """Exponent vector with cached total degree; immutable and hashable."""

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

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(_add, self.exps, other.exps)),
                        self.deg + other.deg)

    def divides(self, other: "Monomial") -> bool:
        if self.deg > other.deg:
            return False
        return all(map(_le, self.exps, other.exps))

    def div(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; raises if not divisible."""
        out = tuple(map(_sub, self.exps, other.exps))
        if any(e < 0 for e in out):
            raise ValueError(f"{other!r} does not divide {self!r}")
        return Monomial(out, self.deg - other.deg)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(min, self.exps, other.exps)))

    def is_coprime(self, other: "Monomial") -> bool:
        return not any(map(min, self.exps, other.exps))

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exps) if e)


class Term(NamedTuple):
    coeff: Fraction
    mono: Monomial


class MonomialOrder:
    """Total, multiplicative, well-founded monomial order.

    grevlex: higher total degree first; ties broken so that the monomial
    whose exponent difference has its last nonzero entry negative wins.
    elim-block: the elimination sub-vector is compared first (by grevlex),
    then the main block; any monomial containing an elimination variable
    exceeds every monomial free of them.
    """

    __slots__ = ("space", "kind", "_e")

    def __init__(self, space: VarSpace, kind: str = GREVLEX):
        if kind not in (GREVLEX, ELIM_BLOCK):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == ELIM_BLOCK and space.elim_count == 0:
            raise ValueError("elim-block order needs elim_count >= 1")
        self.space = space
        self.kind = kind
        self._e = space.elim_count

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonomialOrder)
                and self.space == other.space and self.kind == other.kind)

    def __hash__(self) -> int:
        return hash((self.space, self.kind))

    def __repr__(self) -> str:
        return f"MonomialOrder({self.space}, {self.kind!r})"

    def key(self, m: Monomial) -> tuple:
        """Sort key: key(a) > key(b) iff a > b in this order."""
        cached = m._key
        if cached is not None and cached[0] is self:
            return cached[1]
        exps = m.exps
        if self.kind == GREVLEX:
            k = (m.deg, tuple(-e for e in reversed(exps)))
        else:
            head, tail = exps[:self._e], exps[self._e:]
            k = (sum(head), tuple(-e for e in reversed(head)),
                 sum(tail), tuple(-e for e in reversed(tail)))
        m._key = (self, k)
        return k

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


class Ring:
    """A VarSpace together with its active monomial order.

    Builds, normalizes, parses and prints polynomials. Two rings compare
    equal iff they share the space and order kind, so values may cross
    independently constructed but identical rings.
    """

    __slots__ = ("space", "order", "names", "_pos_by_name", "zero", "one")

    def __init__(self, n: int, elim_count: int = 0, kind: str = GREVLEX):
        self.space = VarSpace(n, elim_count)
        self.order = MonomialOrder(self.space, kind)
        self.names = tuple(self.space.var_name(p) for p in range(self.space.nvars))
        self._pos_by_name = {name: p for p, name in enumerate(self.names)}
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, (Term(Fraction(1), self.monomial({})),))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ring) and self.space == other.space
                and self.order.kind == other.order.kind)

    def __hash__(self) -> int:
        return hash((self.space, self.order.kind))

    def __repr__(self) -> str:
        return f"Ring(n={self.space.n}, elim_count={self.space.elim_count}, kind={self.order.kind!r})"

    @property
    def n(self) -> int:
        return self.space.n

    def monomial(self, exps: Mapping[int, int] | Iterable[int]) -> Monomial:
        """Monomial from a position->exponent mapping or a full exponent vector."""
        if isinstance(exps, Mapping):
            vec = [0] * self.space.nvars
            for pos, e in exps.items():
                if e < 0:
                    raise ValueError("negative exponent")
                vec[pos] += e
            return Monomial(tuple(vec))
        vec = tuple(exps)
        if len(vec) != self.space.nvars or any(e < 0 for e in vec):
            raise ValueError("bad exponent vector")
        return Monomial(vec)

    def poly(self, coeffs: Mapping[Monomial, Scalar]) -> Polynomial:
        """Canonical polynomial from a monomial->coefficient mapping."""
        d = {}
        for m, c in coeffs.items():
            if len(m.exps) != self.space.nvars:
                raise ValueError("monomial does not fit this ring")
            c = Fraction(c)
            if c:
                d[m] = d.get(m, Fraction(0)) + c
        return self._from_dict(d)

    def _from_dict(self, d: dict) -> Polynomial:
        key = self.order.key
        items = sorted(((m, c) for m, c in d.items() if c),
                       key=lambda mc: key(mc[0]), reverse=True)
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

    def t(self, i: int = 1) -> Polynomial:
        return self.var(f"t{i}")

    def from_monomial(self, m: Monomial, coeff: Scalar = 1) -> Polynomial:
        return self.poly({m: coeff})

    # -- text format ----------------------------------------------------
    # Signed `coeff*var^e*...` terms joined by +/-; coefficient omitted
    # when +-1 (unless constant), exponent omitted when 1. Variables print
    # in x, y, z, t order with ascending index.

    def format(self, f: Polynomial) -> str:
        if not f.terms:
            return "0"
        e, n = self.space.elim_count, self.space.n
        display = list(range(e, 3 * n + e)) + list(range(e))
        parts = []
        for coeff, mono in f.terms:
            factors = []
            for pos in display:
                exp = mono.exps[pos]
                if exp:
                    factors.append(self.names[pos] if exp == 1
                                   else f"{self.names[pos]}^{exp}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    _TOKEN = re.compile(r"^(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[txyz]\d+)(?:\^(?P<exp>\d+))?)$")

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
            vec = [0] * self.space.nvars
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
    """Terms strictly descending under the ring's order; () represents 0."""

    __slots__ = ("ring", "terms")

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

    def as_dict(self) -> dict[Monomial, Fraction]:
        return {m: c for c, m in self.terms}

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

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
        return hash((self.ring, self.terms))

    def __str__(self) -> str:
        return self.ring.format(self)

    def __repr__(self) -> str:
        return f"<{self.ring.format(self)}>"


def multidegree(f: Polynomial):
    """Common (deg_x, deg_y, deg_z) of all terms.

    Returns the triple when f is multihomogeneous, the string "zero" for
    the zero polynomial, and None when the terms disagree.
    """
    if not f.terms:
        return "zero"
    space = f.ring.space
    e, n = space.elim_count, space.n
    seen = None
    for _, m in f.terms:
        exps = m.exps
        d = (sum(exps[e:e + n]), sum(exps[e + n:e + 2 * n]), sum(exps[e + 2 * n:]))
        if seen is None:
            seen = d
        elif seen != d:
            return None
    return seen


def substitute(f: Polynomial,
               images: Mapping[str, Union[Polynomial, Scalar]]) -> Polynomial:
    """Ring-homomorphism image of f under a variable name -> value map.

    Every variable occurring in f must be mapped; values may live in a
    different ring (the target ring is that of the first polynomial image,
    else f's own ring).
    """
    target = next((v.ring for v in images.values() if isinstance(v, Polynomial)),
                  f.ring)
    coerced: dict[str, Polynomial] = {}
    for name, v in images.items():
        p = v if isinstance(v, Polynomial) else target.const(v)
        if p.ring != target:
            raise ValueError("substitution images live in different rings")
        coerced[name] = p

    names = f.ring.names
    out = target.zero
    for c, m in f.terms:
        part = target.const(c)
        for pos, exp in enumerate(m.exps):
            if not exp:
                continue
            img = coerced.get(names[pos])
            if img is None:
                raise ValueError(f"variable {names[pos]!r} occurs in f but is not mapped")
            part = part * img ** exp
        out = out + part
    return out
