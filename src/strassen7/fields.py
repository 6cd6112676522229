"""Scalar arithmetic backends: arbitrary-precision rationals and prime
fields GF(p).

A :class:`Field` instance is both the descriptor (its class, plus the
modulus for GF(p)) and the arithmetic backend operating on canonical raw
values (``Fraction`` or ``int`` residue in ``[0, p)``).  A
:class:`FieldElement` ties a raw value to its field; it adds and
compares, and the rest of the arithmetic runs on raw values.  Elements are
immutable; everything here is safe to share between threads.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, mul
from typing import Any


class InputError(ValueError):
    """Input that the library rejects, from a file, a flag or a caller.
    Every error class for bad input subclasses it; the CLI exits 2 on it
    and 3 on any other exception."""


class FieldMismatchError(InputError):
    """Operands belong to different fields."""


def require_same_field(a: Field, b: Field) -> None:
    """Raise FieldMismatchError unless ``a`` and ``b`` are the same field."""
    if a != b:
        raise FieldMismatchError(f"mixed fields: {a.name} and {b.name}")


class ScalarFormatError(InputError):
    """A scalar's textual form violates the canonical syntax for its field."""


class ModulusError(InputError):
    """The modulus of gf(p) is not prime, or too large to decide."""


class UnknownFieldError(InputError):
    """The field descriptor is neither ``rational`` nor ``gf(p)``."""


# Miller-Rabin with the first 13 prime bases is exact below the least
# strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 2017).
# The first 12 bases alone stop being exact at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < ``MAX_MODULUS``.

    Raises ModulusError above that bound, where the fixed bases no longer
    decide primality.
    """
    if n >= MAX_MODULUS:
        raise ModulusError(f"modulus {n} is too large: primality is decided below {MAX_MODULUS}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_DIGITS = re.compile(r"[0-9]+")


def _decimal(digits: str, error: type) -> int:
    """The int of ASCII decimal ``digits``; ``error`` if too long to convert."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"{len(digits)}-digit integer is too long to convert") from None


def _texts(values) -> list:
    """The canonical texts (their strs) of raw values: the one writer.  Like
    ``_decimal`` on reading, ScalarFormatError for an int with more digits
    than Python converts (``sys.get_int_max_str_digits``)."""
    try:
        return list(map(str, values))
    except ValueError:
        raise ScalarFormatError(f"an integer of more than {sys.get_int_max_str_digits()} "
                                "digits is too long to write") from None


class Field:
    """A scalar field: descriptor plus arithmetic on raw values.

    Subclasses implement the raw operations; instances compare equal iff
    they describe the same field, so an element carries its descriptor by
    holding a reference to its field.
    """

    # raw-value arithmetic -------------------------------------------------

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def from_int(self, n: int):
        """Image of a plain integer under the canonical map Z -> F."""
        raise NotImplementedError

    def is_zero(self, n: int) -> bool:
        """Whether a plain integer maps to zero under Z -> F, building no
        raw value: the zero test on the integers of ``clear``."""
        raise NotImplementedError

    def dot(self, xs, ys):
        """Inner product of two raw-value sequences of equal length."""
        raise NotImplementedError

    def clear(self, values):
        """(ints, d) with d >= 1 and ints[i] / d == values[i] in the field,
        for a sequence of raw values: exact linear algebra over the field
        can then run on Python ints."""
        raise NotImplementedError

    def ratio(self, n: int, d: int):
        """The raw value n / d for Python ints n and d: the way back from
        ``clear``.  ZeroDivisionError if d is zero in the field."""
        raise NotImplementedError

    def coerce(self, value):
        """Canonical raw value from an int, a raw value, or a FieldElement."""
        raise NotImplementedError

    # scalar text syntax (a raw value's str is its canonical text) ---------

    def parse_values(self, texts) -> list:
        """The raw values of scalar texts, in order: the field's one scalar
        grammar.  The first text it refuses raises ScalarFormatError."""
        raise NotImplementedError

    def parse_scalar(self, text: str) -> "FieldElement":
        return FieldElement(self, self.parse_values((text,))[0])

    # element construction -------------------------------------------------

    def __call__(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce(value))

    # the field's descriptor, e.g. "rational" or "gf(5)"; fixed per instance
    name: str

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: Any) -> bool:
        return self is other or (isinstance(other, Field) and self.name == other.name)

    def __hash__(self) -> int:
        return hash(self.name)


_ZERO = Fraction(0)


class Rationals(Field):
    """The field of rationals, backed by arbitrary-precision Fraction."""

    name = "rational"

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def from_int(self, n: int):
        return Fraction(n)

    def is_zero(self, n: int) -> bool:
        return not n

    def dot(self, xs, ys):
        # start from the first product: adding it to 0 would cost a Fraction addition
        products = map(mul, xs, ys)
        return reduce(add, products, next(products, _ZERO))

    def clear(self, values):
        """The numerators scaled to the lcm d of the denominators, and d."""
        pairs = [v.as_integer_ratio() for v in values]
        d = lcm(*(q for _, q in pairs))
        return [n * (d // q) for n, q in pairs], d

    def ratio(self, n, d):
        return Fraction(n, d)

    def coerce(self, value):
        # a Fraction is immutable and already normalized: keep the object
        if type(value) is Fraction:
            return value
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"expected {self.name}, got {value.field.name}")
            return value.value
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    _SCALAR_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

    def parse_values(self, texts) -> list:
        """Each text is "p/q" with q > 0 and gcd(p, q) = 1, or a bare integer:
        one gcd each, as Fraction(p, q) reduces and keeps q only if reduced."""
        values = []
        for text in texts:
            match = self._SCALAR_RE.fullmatch(text)
            if not match:
                raise ScalarFormatError(f"bad rational scalar {text!r}")
            num = _decimal(match[1], ScalarFormatError)
            den = 1 if match[2] is None else _decimal(match[2], ScalarFormatError)
            if not den:
                raise ScalarFormatError(f"zero denominator in {text!r}")
            value = Fraction(num, den)
            if value.denominator != den:
                raise ScalarFormatError(f"unreduced rational {text!r}")
            values.append(value)
        return values


class PrimeField(Field):
    """GF(p) for a prime modulus p; raw values are residues in [0, p)."""

    def __init__(self, modulus: int):
        if not is_prime(modulus):
            raise ModulusError(f"modulus {modulus} is not prime")
        self.modulus = modulus
        self.name = f"gf({modulus})"

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def from_int(self, n: int):
        return n % self.modulus

    def is_zero(self, n: int) -> bool:
        return not n % self.modulus

    def dot(self, xs, ys):
        # residues are small: accumulate in plain ints, reduce once
        return sum(x * y for x, y in zip(xs, ys)) % self.modulus

    def clear(self, values):
        """The residues themselves, and d = 1."""
        return list(values), 1

    def ratio(self, n, d):
        # pow would raise ValueError for a d that is a multiple of p
        if not d % self.modulus:
            raise ZeroDivisionError(f"division by {d}, zero in {self.name}")
        return n * pow(d, -1, self.modulus) % self.modulus

    def coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"expected {self.name}, got {value.field.name}")
            return value.value
        if isinstance(value, int):
            return value % self.modulus
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def sample(self, rng):
        """A uniform random residue (``MatN.random``, which draws rational
        entries itself)."""
        return rng.randrange(self.modulus)

    def parse_values(self, texts) -> list:
        """Each text is a decimal residue, already in [0, p)."""
        values = []
        for text in texts:
            if not _DIGITS.fullmatch(text):
                raise ScalarFormatError(f"bad {self.name} scalar {text!r}")
            value = _decimal(text, ScalarFormatError)
            if value >= self.modulus:
                raise ScalarFormatError(f"residue {value} out of range [0, {self.modulus})")
            values.append(value)
        return values


class FieldElement:
    """A scalar bound to its field.  Elements add (to an element of the
    same field, or to a plain int coerced through Z -> F) and compare;
    every other operation runs on raw values through the field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def __add__(self, other):
        if isinstance(other, FieldElement):
            require_same_field(self.field, other.field)
            raw = other.value
        elif isinstance(other, int):
            raw = self.field.from_int(other)
        else:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.value, raw))

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == self.field.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return _texts((self.value,))[0]


RATIONAL = Rationals()

_FIELD_RE = re.compile(r"gf\(([0-9]+)\)")


def parse_field(text: str) -> Field:
    """Resolve the textual descriptor: ``rational`` or ``gf(p)``."""
    if text == "rational":
        return RATIONAL
    match = _FIELD_RE.fullmatch(text)
    if match:
        return PrimeField(_decimal(match.group(1), ModulusError))
    raise UnknownFieldError(f"unknown field descriptor {text!r}")

