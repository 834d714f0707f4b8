"""Permutations of S_m in one-line notation, with 1-indexed positions."""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable


class NotAPermutationError(ValueError):
    """The word is not a rearrangement of 1..m."""


class Value:
    """Base of the immutable value classes: equality, hash and repr read the
    fields, the slots not named with a leading underscore, as a frozen
    dataclass's do.  Constructors set the slots with object.__setattr__ or,
    in RcGraph and Tableau, the slots' own setters; plain records are NamedTuples."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(s for s in cls.__slots__ if s[0] != "_")
        cls._key = attrgetter(*fields)  # one field's value, or a tuple of them

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

    __slots__ = ("word", "_length")  # _length is set on the first read

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
        try:
            return self._length
        except AttributeError:
            pass
        w = self.word
        n = len(w)
        length = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        object.__setattr__(self, "_length", length)
        return length

    def inverse(self) -> Permutation:
        # a rearrangement of 1..m already, so __init__'s check is skipped
        out = object.__new__(Permutation)
        object.__setattr__(out, "word", _inverse_word(self.word))
        return out

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
