"""Tracked values for the Python frontend.

A :class:`SecretInt` wraps a concrete unsigned integer together with its
shadow secrecy mask and flow-graph provenance.  Operator overloading
keeps ordinary Python code working unchanged while reporting every
operation to the session's tracker:

* arithmetic/bitwise operators apply the Section 2.3 transfer functions
  and create graph nodes;
* ``__bool__`` fires when a secret value is used as a branch condition
  (``if``, ``while``, ``and``/``or``, ``sorted`` comparisons...) and
  records a 1-bit implicit flow -- the Section 2.2 branch rule;
* ``__index__`` fires when a secret value indexes a list or bytes and
  records an implicit flow of ``popcount(mask)`` bits -- the pointer
  rule.

Results whose mask becomes fully public are returned as plain ``int``,
so untainted computation continues at plain-Python speed.
"""

from __future__ import annotations

from ..shadow import transfer
from ..shadow.bitmask import popcount, width_mask


class SecretInt:
    """An unsigned integer with shadow secrecy state.

    Do not construct directly; use :meth:`Session.secret_int` (for
    inputs) -- operations produce further instances automatically.
    """

    __slots__ = ("value", "width", "mask", "prov", "session")

    def __init__(self, session, value, width, mask, prov):
        self.session = session
        w = (1 << width) - 1
        self.value = value & w
        self.width = width
        self.mask = mask & w
        self.prov = prov

    # ------------------------------------------------------------------
    # Introspection

    @property
    def secret_bits(self):
        """Number of possibly-secret bits."""
        return popcount(self.mask)

    def concrete(self):
        """The concrete value, *without* any flow accounting.

        Deliberately named (not ``__int__``) so that accidental
        unwrapping is visible in code review; prefer
        :meth:`~repro.pytrace.session.Session.declassify` when the
        unwrapping is a real policy decision.
        """
        return self.value

    def __repr__(self):
        return "SecretInt(width=%d, secret_bits=%d)" % (
            self.width, self.secret_bits)

    # ------------------------------------------------------------------
    # Implicit-flow surfaces

    def __bool__(self):
        """Using a secret as a truth value is a 1-bit implicit flow."""
        self.session.branch_on(self)
        return self.value != 0

    def __index__(self):
        """Using a secret as an index is a pointer-style implicit flow."""
        self.session.index_on(self)
        return self.value

    def __hash__(self):
        # Hash-based container lookups probe by value: treat like an
        # indexed access revealing up to all secret bits.
        self.session.index_on(self)
        return hash(self.value)

    # ------------------------------------------------------------------
    # Arithmetic operators

    def _binary(self, other, op, reflected=False):
        return self.session.binary_op(op, self, other, reflected=reflected)

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", reflected=True)

    def __sub__(self, other):
        return self._binary(other, "sub")

    def __rsub__(self, other):
        return self._binary(other, "sub", reflected=True)

    def __mul__(self, other):
        return self._binary(other, "mul")

    def __rmul__(self, other):
        return self._binary(other, "mul", reflected=True)

    def __floordiv__(self, other):
        return self._binary(other, "div")

    def __rfloordiv__(self, other):
        return self._binary(other, "div", reflected=True)

    def __mod__(self, other):
        return self._binary(other, "mod")

    def __rmod__(self, other):
        return self._binary(other, "mod", reflected=True)

    def __and__(self, other):
        return self._binary(other, "and")

    def __rand__(self, other):
        return self._binary(other, "and", reflected=True)

    def __or__(self, other):
        return self._binary(other, "or")

    def __ror__(self, other):
        return self._binary(other, "or", reflected=True)

    def __xor__(self, other):
        return self._binary(other, "xor")

    def __rxor__(self, other):
        return self._binary(other, "xor", reflected=True)

    def __lshift__(self, other):
        return self._binary(other, "shl")

    def __rlshift__(self, other):
        return self._binary(other, "shl", reflected=True)

    def __rshift__(self, other):
        return self._binary(other, "shr")

    def __rrshift__(self, other):
        return self._binary(other, "shr", reflected=True)

    def __neg__(self):
        return self.session.unary_op("neg", self)

    def __invert__(self):
        return self.session.unary_op("not", self)

    # ------------------------------------------------------------------
    # Comparisons (1-bit results; stay tracked so that branching on the
    # outcome records the implicit flow)

    def __eq__(self, other):
        return self._binary(other, "eq")

    def __ne__(self, other):
        return self._binary(other, "ne")

    def __lt__(self, other):
        return self._binary(other, "ult")

    def __le__(self, other):
        return self._binary(other, "ule")

    def __gt__(self, other):
        return self._binary(other, "ugt")

    def __ge__(self, other):
        return self._binary(other, "uge")

    # ------------------------------------------------------------------
    # Text and serialization.  A secret's text reveals every secret bit,
    # so formatting is charged like an index; ``__repr__`` shows only
    # the width and the secret-bit count, which depend on public values
    # alone (docs/semantics.md).

    def __str__(self):
        self.session.index_on(self)
        return str(self.value)

    def __format__(self, spec):
        self.session.index_on(self)
        return format(self.value, spec)

    def __reduce_ex__(self, protocol):
        # Pickling or copying would carry the value out untracked.
        raise TypeError("a SecretInt cannot be pickled or copied")


def _tracked(session, value, width, mask, prov):
    """``SecretInt(session, value, width, mask, prov)`` for a ``value``
    and ``mask`` that ``width`` already bounds: the same object without
    ``__init__``'s re-masking (for the session's fast paths)."""
    result = object.__new__(SecretInt)
    result.session = session
    result.value = value
    result.width = width
    result.mask = mask
    result.prov = prov
    return result


def concrete_of(value):
    """The plain int behind either a SecretInt or an int."""
    if isinstance(value, SecretInt):
        return value.value
    return int(value)


def mask_of(value):
    """The secrecy mask of either a SecretInt or a (public) int."""
    if isinstance(value, SecretInt):
        return value.mask
    return 0


class _WidthInt(int):
    """A plain (public) int carrying an explicit width.

    Produced by :meth:`Session.widen` on public values so that a later
    mixed operation adopts the wider result width.  Arithmetic on it
    degrades to plain ``int`` (width travels through tracked operands).
    """

    width = 0

    def __new__(cls, value, width):
        self = super().__new__(cls, value)
        self.width = width
        return self


def width_of(value, default=0):
    """The width of a tracked/widened value, or a plain int's bit length."""
    explicit = getattr(value, "width", None)
    if explicit is not None:
        return explicit
    return max(int(value).bit_length(), default, 1)


# Re-exported for sessions; keeps `transfer` a private detail of values.
TRANSFER = transfer
