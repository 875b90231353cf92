"""Turning a secret into text or bytes must be charged or refused.

A ``SecretInt`` that formats as its value hands every secret bit to
public code at 0 bits: ``session.output_str(str(x))`` then prints 256
distinct strings over an 8-bit secret while the bound says nothing
leaked.  ``__str__`` and ``__format__`` charge what ``__index__``
charges, ``__repr__`` shows only public facts, and pickling refuses.
The audit walks every dunder of ``int`` so that the next escape hatch
is caught when it appears.
"""

import copy
import math
import operator
import pickle
import sys

import pytest

from repro.pytrace import Session
from repro.shadow import BACKENDS

#: The five ways to turn a value into text; each fed to ``output_str``.
FORMS = {
    "str": str,
    "%s": lambda x: "%s" % (x,),
    "%r": lambda x: "%r" % (x,),
    "f-string": lambda x: f"{x}",
    "format": lambda x: format(x, ""),
}

#: The forms whose text is the value, so they must be charged in full.
REVEALING = ("str", "%s", "f-string", "format")


def measure_form(form, secret, backend):
    session = Session(backend=backend)
    x = session.secret_int(secret, 8) ^ 0x5A
    text = FORMS[form](x)
    session.output_str(text)
    return text, session.measure().bits


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("form", sorted(FORMS))
def test_formatting_a_secret_is_charged(form, backend):
    texts, bits = set(), []
    for secret in range(256):
        text, run_bits = measure_form(form, secret, backend)
        texts.add(text)
        bits.append(run_bits)
    # §3: the observed outputs must fit in the reported capacity.
    assert len(texts) <= 2 ** max(bits), (form, len(texts), max(bits))
    if form in REVEALING:
        assert min(bits) >= 8, (form, min(bits))


def test_repr_shows_only_public_facts():
    # Widths and masks are functions of public values and masks, so the
    # repr of each derived value is the same for every secret.
    reprs = set()
    for secret in range(256):
        session = Session()
        x = session.secret_int(secret, 8)
        y = session.secret_int(255 - secret, 8)
        derived = ((x & 0x0F) ^ 0x5A, x & y, x | y, (x + y) >> 2, x < y)
        reprs.add(tuple(repr(value) for value in derived))
    assert len(reprs) == 1, reprs


# ----------------------------------------------------------------------
# The audit

#: ``object`` machinery on ``int``: none of it reads the value.
OBJECT_MACHINERY = {
    "__class__", "__delattr__", "__dir__", "__doc__", "__getattribute__",
    "__init__", "__init_subclass__", "__new__", "__setattr__",
    "__subclasshook__",
}

#: int dunder -> the protocol operation that reaches it from a value.
PROTOCOL = {
    "__abs__": abs,
    "__add__": lambda x: x + 3,
    "__and__": lambda x: x & 3,
    "__bool__": bool,
    "__ceil__": math.ceil,
    "__divmod__": lambda x: divmod(x, 3),
    "__eq__": lambda x: x == 3,
    "__float__": float,
    "__floor__": math.floor,
    "__floordiv__": lambda x: x // 3,
    "__format__": lambda x: format(x, "d"),
    "__ge__": lambda x: x >= 3,
    "__getnewargs__": pickle.dumps,
    "__getstate__": copy.copy,
    "__gt__": lambda x: x > 3,
    "__hash__": hash,
    "__index__": operator.index,
    "__int__": int,
    "__invert__": operator.invert,
    "__le__": lambda x: x <= 3,
    "__lshift__": lambda x: x << 3,
    "__lt__": lambda x: x < 3,
    "__mod__": lambda x: x % 3,
    "__mul__": lambda x: x * 3,
    "__ne__": lambda x: x != 3,
    "__neg__": operator.neg,
    "__or__": lambda x: x | 3,
    "__pos__": operator.pos,
    "__pow__": lambda x: x ** 3,
    "__radd__": lambda x: 3 + x,
    "__rand__": lambda x: 3 & x,
    "__rdivmod__": lambda x: divmod(3, x),
    "__reduce__": lambda x: pickle.dumps(x, protocol=0),
    "__reduce_ex__": copy.deepcopy,
    "__repr__": repr,
    "__rfloordiv__": lambda x: 300 // x,
    "__rlshift__": lambda x: 3 << x,
    "__rmod__": lambda x: 300 % x,
    "__rmul__": lambda x: 3 * x,
    "__ror__": lambda x: 3 | x,
    "__round__": round,
    "__rpow__": lambda x: 3 ** x,
    "__rrshift__": lambda x: 300 >> x,
    "__rshift__": lambda x: x >> 3,
    "__rsub__": lambda x: 300 - x,
    "__rtruediv__": lambda x: 3 / x,
    "__rxor__": lambda x: 3 ^ x,
    "__sizeof__": sys.getsizeof,
    "__str__": str,
    "__sub__": lambda x: x - 3,
    "__truediv__": lambda x: x / 3,
    "__trunc__": math.trunc,
    "__xor__": lambda x: x ^ 3,
}

#: Operations that may run unreported because their result is the same
#: for every secret.
VALUE_BLIND = {"__repr__", "__sizeof__"}


def reported(session):
    stats = session.tracker.stats
    return stats["operations"] + stats["implicit_flows"]


def int_dunders():
    return sorted(name for name in dir(int)
                  if name.startswith("__") and name.endswith("__")
                  and name not in OBJECT_MACHINERY)


def test_every_int_dunder_is_classified():
    assert set(int_dunders()) <= set(PROTOCOL)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", int_dunders())
def test_int_dunder_reports_or_raises(name, backend):
    operation = PROTOCOL[name]
    results = []
    for secret in (0x21, 0xC4):
        session = Session(backend=backend)
        x = session.secret_int(secret, 8)
        before = reported(session)
        try:
            result = operation(x)
        except TypeError:
            continue
        if name in VALUE_BLIND:
            results.append(result)
        else:
            assert reported(session) > before, name
    if name in VALUE_BLIND:
        assert len(set(results)) == 1, (name, results)
