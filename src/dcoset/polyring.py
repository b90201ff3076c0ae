"""Sparse multivariate polynomials over the rationals.

A polynomial is a dict from exponent tuples to nonzero exact rational
coefficients, attached to a `RingCtx` that fixes the variable names and a
monomial order.  All arithmetic is exact; nothing in this module ever touches
floating point.

Each ring carries one order, the only one its polynomials are compared
under; `lift` moves a polynomial into a ring with another.  An order is a
partition of the variables into blocks, and the ring builds its `Packing`
from it: an exponent vector packed into one int with a fixed-width field
per variable, and the order as a linear image of it packed into a second
int.  The packing is the one place monomials are ordered:
`Polynomial.packed` lists the terms by it, leading term first, and
printing and the Groebner engine both read that list.  Exponents must
stay below `EXPONENT_LIMIT`; packing a larger one raises `ValueError`.
Three kinds of order are provided: `LEX`, `GREVLEX`, and block orders
built with `block_order` for elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "RingMismatchError",
    "MonomialOrder",
    "LEX",
    "GREVLEX",
    "block_order",
    "Packing",
    "EXPONENT_LIMIT",
    "RingCtx",
    "Polynomial",
    "as_point",
    "as_rational",
    "substitute",
    "evaluate",
    "extend_ring",
    "lift",
    "format_poly",
]

Scalar = Union[int, Fraction]
Monomial = tuple  # exponent tuple, one slot per ring variable

_ZERO = 0
_ONE = 1


class RingMismatchError(ValueError):
    """Operands live in rings with different variable tuples."""


def as_rational(value) -> Scalar:
    """An int or Fraction as an int when integral, else as a Fraction; a
    float or any other type raises TypeError.  Arithmetic may still yield
    an integral Fraction, which equals, hashes and prints like its int."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# packed exponent vectors

# Every exponent must stay below EXPONENT_LIMIT.  A field is wide enough for
# the degree of a whole block, arity * (EXPONENT_LIMIT - 1), so a sum of
# exponents never carries into the next field.
_EXP_BITS = 32
EXPONENT_LIMIT = 1 << _EXP_BITS
_FIELD = EXPONENT_LIMIT - 1


class Packing:
    """Exponent vectors of one arity as ints, ordered by one monomial order.

    Each variable owns a field of `width` bits.  The order is a sequence of
    blocks of variable indices, most significant first, each compared
    grevlex; `key` maps a packed vector to an int whose natural order is
    the monomial order.  Within a block the fields hold the variables in
    ring order from the bottom up, so the block's grevlex image (deg,
    deg - x_n, deg - x_n - x_(n-1), ...) is the prefix sums of its fields,
    one multiplication away.  LEX is n one-variable blocks: its key is the
    packed vector itself, x_1 in the top field.

    The key is linear, so the key of a product is the sum of the keys.
    The top bit of each field is a guard bit, clear in every valid vector:
    a divides b iff ``(b - a) & guard == 0``, and `lcm` selects fields by
    the guard bits of ``(a | guard) - b`` (Monagan and Pearce, J. Symb.
    Comp. 46, 2011).  A sum of two valid vectors fits its fields, and
    ``& over`` tells whether it is still valid.
    """

    __slots__ = ("shifts", "width", "guard", "over", "_images")

    def __init__(self, blocks, arity: int):
        if sorted(i for block in blocks for i in block) != list(range(arity)):
            raise ValueError(f"order blocks {blocks} do not partition {arity} variables")
        width = _EXP_BITS + arity.bit_length()
        pos = [0] * arity
        images = []
        lo = 0
        for block in reversed(blocks):
            for j, i in enumerate(block):
                pos[i] = lo + j
            if len(block) > 1:
                mask = ((1 << (width * len(block))) - 1) << (width * lo)
                ones = sum(1 << (width * j) for j in range(len(block)))
                images.append((mask, ones))
            lo += len(block)
        fields = sum(1 << (width * j) for j in range(arity))
        self.shifts = tuple(width * p for p in pos)
        self.width = width
        self.guard = fields << (width - 1)
        self.over = fields * (((1 << width) - 1) ^ _FIELD)
        self._images = tuple(images)

    def pack(self, exps: Monomial) -> int:
        """Pack an exponent tuple; an exponent must lie in [0, EXPONENT_LIMIT)."""
        e = 0
        for x, shift in zip(exps, self.shifts):
            if x:
                if not 0 < x < EXPONENT_LIMIT:
                    raise ValueError(
                        f"exponent {x} is outside the packable range [0, 2^{_EXP_BITS})"
                    )
                e |= x << shift
        return e

    def unpack(self, e: int) -> Monomial:
        return tuple((e >> shift) & _FIELD for shift in self.shifts)

    def key(self, e: int) -> int:
        """Order key of a packed vector: replace each block by its prefix sums."""
        k = e
        for mask, ones in self._images:
            part = e & mask
            k += (part * ones & mask) - part
        return k

    def lcm(self, a: int, b: int) -> int:
        guard = self.guard
        t = ((a | guard) - b) & guard  # guard bit kept where a's field >= b's
        return b ^ ((a ^ b) & (t - (t >> (self.width - 1))))


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total order on monomials: blocks of variable indices, most significant
    first, each compared grevlex.  The ring's `Packing` is the only thing
    that compares monomials under it."""

    def __init__(self, name: str, blocks, tag=None):
        self.name = name
        self.blocks = blocks  # arity -> tuple of blocks of variable indices
        self._tag = name if tag is None else tag
        self._packings = {}

    def packing(self, arity: int) -> Packing:
        """The packing of this order on `arity` variables, built once."""
        p = self._packings.get(arity)
        if p is None:
            p = self._packings[arity] = Packing(self.blocks(arity), arity)
        return p

    def tag(self):
        """Hashable identity used for caching Groebner bases per order."""
        return self._tag

    def __repr__(self):
        return self.name


LEX = MonomialOrder("lex", lambda arity: tuple((i,) for i in range(arity)))
GREVLEX = MonomialOrder("grevlex", lambda arity: (tuple(range(arity)),))


def block_order(ring: "RingCtx", eliminated: Iterable[str]) -> MonomialOrder:
    """The elimination order on `ring` that drops `eliminated` first.

    Exponents are split into an eliminated block and a kept block by
    variable index; blocks are compared grevlex, eliminated block first.
    Any polynomial whose leading monomial avoids the eliminated block lies
    entirely in the kept subring, which is what makes elimination work.
    """
    elim = set(eliminated)
    unknown = elim - set(ring.vars)
    if unknown:
        raise ValueError(f"variables not in ring: {sorted(unknown)}")
    elim_idx = tuple(i for i, v in enumerate(ring.vars) if v in elim)
    kept_idx = tuple(i for i, v in enumerate(ring.vars) if v not in elim)
    blocks = tuple(b for b in (elim_idx, kept_idx) if b)
    name = "block({} ; {})".format(
        ",".join(ring.vars[i] for i in elim_idx), ",".join(ring.vars[i] for i in kept_idx)
    )
    return MonomialOrder(name, lambda arity: blocks, ("block", elim_idx, kept_idx))


# ---------------------------------------------------------------------------
# rings


class RingCtx:
    """Polynomial ring context: ordered variable names plus a monomial order.

    >>> R = RingCtx(("x", "y"))
    >>> x, y = R.gens()
    >>> str((x + y) ** 2)
    'x^2 + 2*x*y + y^2'
    """

    __slots__ = ("vars", "order", "packing", "_index")

    def __init__(self, variables: Iterable[str], order: MonomialOrder = GREVLEX):
        names = tuple(variables)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if any(not isinstance(v, str) or not v for v in names):
            raise ValueError("variable names must be nonempty strings")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        # the packing refuses an order whose blocks do not partition the variables
        self.packing = order.packing(len(names))
        self.vars = names
        self.order = order
        self._index = {v: i for i, v in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r} in ring {self!r}") from None

    def has_var(self, name: str) -> bool:
        return name in self._index

    def zero(self) -> "Polynomial":
        return Polynomial._new(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value: Scalar) -> "Polynomial":
        c = as_rational(value)
        return Polynomial._new(self, {(0,) * self.arity: c} if c else {})

    def gen(self, name: str) -> "Polynomial":
        i = self.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.arity))
        return Polynomial._new(self, {exps: _ONE})

    def gens(self) -> tuple:
        return tuple(self.gen(v) for v in self.vars)

    def monomial(self, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        exps = self._exponents(tuple(exps))
        c = as_rational(coeff)
        return Polynomial._new(self, {exps: c} if c else {})

    def _exponents(self, exps: Monomial) -> Monomial:
        """``exps`` unchanged if it is a tuple of ``arity`` nonnegative ints."""
        if type(exps) is not tuple or any(type(e) is not int for e in exps):
            raise TypeError(f"exponents must be a tuple of ints, got {exps!r}")
        if len(exps) != self.arity:
            raise ValueError(f"exponent tuple {exps} has the wrong arity for {self!r}")
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be nonnegative, got {exps}")
        return exps

    def __eq__(self, other):
        return (
            isinstance(other, RingCtx)
            and self.vars == other.vars
            and self.order.tag() == other.order.tag()
        )

    def __hash__(self):
        return hash((self.vars, self.order.tag()))

    def __repr__(self):
        return f"RingCtx({','.join(self.vars)}; {self.order!r})"


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms", "_packed")

    def __init__(self, ring: RingCtx, terms: Mapping[Monomial, Scalar]):
        """Keys must be tuples of ``ring.arity`` nonnegative ints; values are
        coerced by `as_rational`, and zero terms are dropped."""
        self.ring = ring
        self.terms = {}
        for m, c in terms.items():
            m, c = ring._exponents(m), as_rational(c)
            if c:
                self.terms[m] = c
        self._packed = None

    @classmethod
    def _new(cls, ring, terms, packed=None):
        p = cls.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._packed = packed
        return p

    @classmethod
    def from_packed(cls, ring: RingCtx, terms: list) -> "Polynomial":
        """The polynomial of a leading-first list of (key, exp, coeff)
        triples over the ring's packing; `packed()` returns that list."""
        unpack = ring.packing.unpack
        return cls._new(ring, {unpack(e): c for _, e, c in terms}, terms)

    # -- predicates and accessors

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.ring.arity}

    def constant_value(self) -> Scalar:
        if not self.terms:
            return _ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variables_used(self) -> tuple:
        """Names of variables with a nonzero exponent somewhere, in ring order."""
        seen = [False] * self.ring.arity
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    seen[i] = True
        return tuple(v for v, s in zip(self.ring.vars, seen) if s)

    def packed(self) -> list:
        """The terms as (key, exp, coeff) triples over the ring's packing,
        leading term first, computed once; the list must not be changed."""
        terms = self._packed
        if terms is None:
            pk = self.ring.packing
            pack, key = pk.pack, pk.key
            terms = []
            for m, c in self.terms.items():
                e = pack(m)
                terms.append((key(e), e, c))
            terms.sort(reverse=True)  # keys are distinct, so only keys are compared
            self._packed = terms
        return terms

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs, leading term first."""
        unpack = self.ring.packing.unpack
        return [(unpack(e), c) for _, e, c in self.packed()]

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring.vars != self.ring.vars:
                raise RingMismatchError(
                    f"ring mismatch: {self.ring!r} vs {other.ring!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in q.terms.items():
            v = terms.get(m, _ZERO) + c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Polynomial._new(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._new(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in q.terms.items():
            v = terms.get(m, _ZERO) - c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Polynomial._new(self.ring, terms)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q - self

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not self.terms or not q.terms:
            return Polynomial._new(self.ring, {})
        # multiply the shorter poly on the outside
        a, b = (self.terms, q.terms) if len(self.terms) <= len(q.terms) else (q.terms, self.terms)
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = out.get(m, _ZERO) + ca * cb
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial._new(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.vars == other.ring.vars and self.terms == other.terms

    def __hash__(self):
        # constants compare equal to numbers, so they must hash like them
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.ring.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


# ---------------------------------------------------------------------------
# points


def as_point(ring: RingCtx, value) -> tuple:
    """A point of ``ring``'s affine space as a tuple of exact coordinates,
    each normalized by `as_rational`; the wrong number of coordinates
    raises ValueError."""
    pt = tuple(as_rational(c) for c in value)
    if len(pt) != ring.arity:
        raise ValueError(
            f"point has {len(pt)} coordinates, ring {ring!r} has arity {ring.arity}"
        )
    return pt


# ---------------------------------------------------------------------------
# substitution and evaluation


def evaluate(p: Polynomial, point) -> Scalar:
    """Value of p at a rational point, computed exactly."""
    pt = as_point(p.ring, point)
    total = _ZERO
    for m, c in p.terms.items():
        v = c
        for x, e in zip(pt, m):
            if e:
                v *= x**e
        total += v
    return as_rational(total)


def substitute(p: Polynomial, assignment: Mapping[str, object], into: RingCtx) -> Polynomial:
    """Substitute rationals or polynomials for some variables of p.

    `assignment` maps variable names to scalars or to polynomials in the
    target ring `into`.  Variables left out must exist in the target ring.
    """
    for name, v in assignment.items():
        if not p.ring.has_var(name):
            raise ValueError(f"unknown variable {name!r} in substitution")
        if isinstance(v, Polynomial) and v.ring.vars != into.vars:
            raise RingMismatchError(
                f"substitution value for {name!r} lives in {v.ring!r}, expected {into!r}"
            )
    for name in p.ring.vars:
        if name not in assignment and not into.has_var(name):
            raise ValueError(
                f"variable {name!r} is not substituted and missing from the target ring"
            )

    result = into.zero()
    for m, c in p.terms.items():
        acc = into.const(c)
        for i, e in enumerate(m):
            if not e:
                continue
            name = p.ring.vars[i]
            if name in assignment:
                v = assignment[name]
                if isinstance(v, Polynomial):
                    acc = acc * v**e
                else:
                    acc = acc * into.const(as_rational(v) ** e)
            else:
                acc = acc * into.gen(name) ** e
            if acc.is_zero():
                break
        result = result + acc
    return result


# ---------------------------------------------------------------------------
# moving polynomials between rings


def extend_ring(ring: RingCtx, new_vars: Iterable[str]) -> RingCtx:
    """Grevlex ring with `new_vars` appended after the existing variables."""
    extra = tuple(new_vars)
    clash = set(extra) & set(ring.vars)
    if clash:
        raise ValueError(f"variables already present: {sorted(clash)}")
    return RingCtx(ring.vars + extra)


def lift(p: Polynomial, ring: RingCtx) -> Polynomial:
    """Reinterpret p inside `ring`, mapping variables by name; the target
    must have every variable p uses and may carry another order."""
    if p.ring is ring:
        return p
    if p.ring.vars == ring.vars:
        return Polynomial._new(ring, p.terms)
    pos = [ring._index.get(v) for v in p.ring.vars]
    terms = {}
    for m, c in p.terms.items():
        vec = [0] * ring.arity
        for j, e in enumerate(m):
            if not e:
                continue
            i = pos[j]
            if i is None:
                raise ValueError(
                    f"{p.ring.vars[j]!r} appears in the polynomial but not in {ring!r}"
                )
            vec[i] = e
        terms[tuple(vec)] = c
    return Polynomial._new(ring, terms)


# ---------------------------------------------------------------------------
# printing


def _format_monomial(ring: RingCtx, m: Monomial) -> str:
    parts = []
    for v, e in zip(ring.vars, m):
        if e == 0:
            continue
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def format_poly(p: Polynomial) -> str:
    """Render in the CLI grammar; parsing the result gives p back."""
    if not p.terms:
        return "0"
    chunks = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        mono = _format_monomial(p.ring, m)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(chunks)
