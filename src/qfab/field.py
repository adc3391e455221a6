"""Exact scalar fields: the rationals (arbitrary precision) and prime fields.

Scalars are plain values supporting +, -, *, ==, hash.  A rational is a
Python ``int`` whenever it is integral, and a ``fractions.Fraction`` only
when a division leaves a remainder.  Most entries in this package are 0 or
+-1, and an ``int`` operation costs a small fraction of a ``Fraction`` one.
``int`` and ``Fraction`` mix freely under +, -, * and ==, and a ``Fraction``
is in lowest terms with a positive denominator.  Prime-field elements are
small wrapper objects around a residue.

Scalars are never divided with ``/`` outside this module, because
``int / int`` is a float.  Each field has one method ``div(a, b)``, the only
place ``/`` is applied to scalars.  Over Q it returns ``a * b`` when b is
+-1, and otherwise divides as a ``Fraction`` and returns an integral
quotient as an ``int``.  ``QQ(n, d)`` and ``QQ.coerce`` likewise return an
``int`` for an integral value, so the values they and ``div`` make are
canonical: an ``int`` exactly when integral.  Sums and products of a
``Fraction`` are not brought back to ``int``, so an integral ``Fraction``
can still occur; it equals and hashes like the ``int``.

Every scalar is falsy exactly when it is zero, so the rest of the package
tests ``if x`` instead of comparing with ``field.zero`` (an ``__eq__`` call on
every entry).  ``zero`` and ``one`` are stored constants of each field.
"""

from __future__ import annotations

from fractions import Fraction


def _canonical(q):
    """A rational value as an ``int`` when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The field Q."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def __call__(self, num, den=1):
        return _canonical(Fraction(num, den))

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, str):
            if "/" in x:
                n, d = x.split("/")
                return self(int(n), int(d))
            return int(x)
        return _canonical(Fraction(x))

    def div(self, a, b):
        """a / b; canonical when a and b are."""
        if b == 1 or b == -1:
            return a * b
        return _canonical(Fraction(a, b))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class FpElement:
    """A residue modulo p with operator arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.v + _residue(other, self.p), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return FpElement(self.v - _residue(other, self.p), self.p)

    def __rsub__(self, other):
        return FpElement(_residue(other, self.p) - self.v, self.p)

    def __mul__(self, other):
        return FpElement(self.v * _residue(other, self.p), self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ov = _residue(other, self.p)
        if ov == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.v * pow(ov, -1, self.p), self.p)

    def __rtruediv__(self, other):
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(_residue(other, self.p) * pow(self.v, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}"


def _residue(x, p):
    if isinstance(x, FpElement):
        if x.p != p:
            raise ValueError("mixed prime fields")
        return x.v
    return int(x) % p


# A strong probable prime to each of these bases that lies below
# PRIME_BOUND is prime (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Deterministic Miller-Rabin on the prime bases 2 ... 41; exact for
    n < ``PRIME_BOUND``."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p below ``PRIME_BOUND``, where primality is
    decided exactly."""

    characteristic: int

    def __init__(self, p):
        if p >= PRIME_BOUND:
            raise ValueError(f"{p} is too large: prime fields need "
                             f"p < {PRIME_BOUND}, below which primality is exact")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def __call__(self, num, den=1):
        val = FpElement(num, self.p)
        if den != 1:
            val = val / FpElement(den, self.p)
        return val

    def coerce(self, x):
        if isinstance(x, FpElement):
            return x
        if isinstance(x, str):
            if "/" in x:
                n, d = x.split("/")
                return self(int(n), int(d))
            return FpElement(int(x), self.p)
        if hasattr(x, "numerator") and hasattr(x, "denominator"):
            return self(int(x.numerator), int(x.denominator))
        return FpElement(int(x), self.p)

    def div(self, a, b):
        """a / b."""
        return a / b

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def field_by_name(name):
    """Parse a field spec: "Q", or "F5" / "Fp:5" style names."""
    name = name.strip()
    if name in ("Q", "QQ", "q"):
        return QQ
    if name.lower().startswith("f"):
        digits = name[1:].lstrip("p:_ ")
        if digits.isdigit():
            return PrimeField(int(digits))
    raise ValueError(f"unknown field {name!r}")
