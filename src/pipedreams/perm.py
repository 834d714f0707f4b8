"""Permutations of S_m in one-line notation, with 1-indexed positions."""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable


class NotAPermutationError(ValueError):
    """The word is not a rearrangement of 1..m."""


class Value:
    """Base of the immutable value classes: equality, hash and repr read the
    fields, the slots not named with a leading underscore, as a frozen
    dataclass's do; plain records are NamedTuples.

    An instance is made by one of two paths.  A validating ``__init__``
    checks its arguments and sets the slots with ``object.__setattr__``.
    ``_trusted``, built once per class from the slots' own setters, which
    the raising ``__setattr__`` does not guard, skips the checks for a
    value its caller's code makes valid: ``_trusted(a)`` sets the one slot
    of a one-slot class, ``_trusted(a, b=None)`` both of a two-slot class.
    A private second slot holds None where its value is not known.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        slots = cls.__slots__
        if not 1 <= len(slots) <= 2:
            raise TypeError(f"{cls.__name__} has {len(slots)} slots, not 1 or 2")
        cls._fields = fields = tuple(s for s in slots if s[0] != "_")
        cls._key = attrgetter(*fields)  # one field's value, or a tuple of them
        new = object.__new__
        set_a = getattr(cls, slots[0]).__set__
        if len(slots) == 1:
            def _trusted(a):
                out = new(cls)
                set_a(out, a)
                return out
        else:
            set_b = getattr(cls, slots[1]).__set__

            def _trusted(a, b=None):
                out = new(cls)
                set_a(out, a)
                set_b(out, b)
                return out

        cls._trusted = staticmethod(_trusted)

    def _values(self) -> tuple:
        return (self._key(self),) if len(self._fields) == 1 else self._key(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = (f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({', '.join(args)})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{self.__class__.__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Permutation(Value):
    """A permutation w of {1, ..., m} in one-line notation.

    ``word[i - 1]`` is w(i).  Instances are immutable and hashable, so they
    are safe to share freely and to use as dictionary keys.
    """

    # _length: unset by __init__, None by _trusted, set on the first read
    __slots__ = ("word", "_length")

    def __init__(self, word: tuple[int, ...]) -> None:
        object.__setattr__(self, "word", word)
        if not self.word:
            raise NotAPermutationError("empty word")
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise NotAPermutationError(
                f"{list(self.word)} is not a rearrangement of 1..{len(self.word)}"
            )

    @property
    def size(self) -> int:
        """The m of the ambient symmetric group S_m."""
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Image of i, 1-indexed."""
        return self.word[i - 1]

    @property
    def length(self) -> int:
        """Inversion count #{(i, j) : i < j, w(i) > w(j)}, counted once."""
        length = getattr(self, "_length", None)
        if length is None:
            w = self.word
            n = len(w)
            length = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
            object.__setattr__(self, "_length", length)
        return length

    def inverse(self) -> Permutation:
        # a rearrangement of 1..m already, so __init__'s check is skipped
        return Permutation._trusted(_inverse_word(self.word))

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition under the convention (u * w)(i) = u(w(i))."""
        if self.size != other.size:
            raise ValueError(
                f"size mismatch: cannot compose S_{self.size} with S_{other.size}"
            )
        return Permutation(tuple(self.word[v - 1] for v in other.word))

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.word)

    @classmethod
    def from_string(cls, text: str) -> Permutation:
        """Parse comma-separated one-line notation, e.g. ``"1,4,3,2"``."""
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise NotAPermutationError(
                f"cannot parse permutation from {text!r}"
            ) from None
        return cls(values)


def _inverse_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line word of the inverse of a word known to rearrange 1..m."""
    inv = [0] * len(word)
    for i, v in enumerate(word, start=1):
        inv[v - 1] = i
    return tuple(inv)


def make_perm(word: Iterable[int]) -> Permutation:
    """Validate a word and wrap it as a Permutation."""
    return Permutation(tuple(word))


def longest_element(m: int) -> Permutation:
    """The permutation m, m-1, ..., 1."""
    return Permutation(tuple(range(m, 0, -1)))


def zigzag(n: int) -> Permutation:
    """The permutation 1, n+1, n, ..., 2 of S_{n+1}; it is its own inverse.

    n = 0 is accepted (the identity of S_1) so recursive decompositions
    have a base case.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Permutation((1,) + tuple(range(n + 1, 1, -1)))


def dominant_singular(n: int) -> Permutation:
    """The permutation n+2, 2, 3, ..., n+1, 1 of S_{n+2}."""
    if n < 1:
        raise ValueError("n must be positive")
    return Permutation((n + 2,) + tuple(range(2, n + 2)) + (1,))


def local_equations_condition(w: Permutation) -> bool:
    """Whether every cell (i, j) with i + j > m, where m is the group size,
    satisfies (w0*w)^{-1}(i) <= j or (w0*w)(j) <= i, w0 the longest element.

    Both i and j range over 1..m.
    """
    m = w.size
    v = longest_element(m) * w
    vinv = v.inverse()
    for i in range(1, m + 1):
        for j in range(max(1, m + 1 - i), m + 1):
            if vinv(i) > j and v(j) > i:
                return False
    return True
