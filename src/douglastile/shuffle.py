"""Symbol shuffling: the matching exponent read off the line symbols.

The paper's second proof places a region in a weighted Aztec diamond:
one 2 x 2 binary block per black line, stacked top to bottom, tiled
periodically.  One round of urban renewal (Propp, "Generalized
domino-shuffling", 2003) shrinks the diamond by one order and multiplies
the matching generating function by the product of the block factors.
On such a stack the renewed blocks are again binary blocks of a small
family, and a round acts on them as a shift of single-character codes:
every minus stays put and every plus moves one line up (`shift_code`).
The round contributes one factor of two per "0" symbol, so summing the
zeros of every round gives the region's matching exponent without ever
building a graph or a weight.

The exponent is computed two ways, round by round and by a closed-form
sum over the code, and the two must agree.  The weighted diamonds and
renewal rounds themselves live with the tests, which check the reduction
theorem and the symbol rounds against them.
"""

from __future__ import annotations

from . import regions
from .regions import MINUS, PLUS, ZERO, RegionSpec, _line_symbols

__all__ = [
    "ZERO",
    "PLUS",
    "MINUS",
    "BOTH",
    "FormulaProcedureMismatch",
    "region_code",
    "shift_code",
    "code_trace",
    "shuffle_exponent",
    "shuffle_count",
]

BOTH = "±"


class FormulaProcedureMismatch(AssertionError):
    """Closed-form exponent disagreed with the step-by-step reduction."""


def region_code(spec: RegionSpec) -> tuple[str, ...]:
    """Symbols of the black lines, top to bottom: the non-white line symbols."""
    return tuple(symbol for symbol in _line_symbols(spec.distances) if symbol)


def shift_code(code: tuple[str, ...]) -> tuple[str, ...]:
    """One renewal round on symbols: minus stays, plus moves one left."""
    q = len(code)
    out = []
    for j in range(q):
        minus_here = code[j] in (MINUS, BOTH)
        plus_incoming = code[(j + 1) % q] in (PLUS, BOTH)
        if minus_here and plus_incoming:
            out.append(BOTH)
        elif minus_here:
            out.append(MINUS)
        elif plus_incoming:
            out.append(PLUS)
        else:
            out.append(ZERO)
    return tuple(out)


def _rounds(code: tuple[str, ...]):
    """Each code of the symbol reduction, from `code` down to one symbol."""
    while code:
        yield code
        code = shift_code(code)[:-1]


def code_trace(spec: RegionSpec) -> list[dict]:
    """The full symbol reduction of a region, one record per round."""
    code = region_code(regions.check_spec(spec.side, spec.distances))
    return [
        {"step": step, "code": "".join(cur), "zeros": cur.count(ZERO)}
        for step, cur in enumerate(_rounds(code))
    ]


def _closed_form_exponent(code: tuple[str, ...]) -> int:
    """Sum, over the symbols that are not minus, of the symbols from there
    to the end that are not plus; one reverse pass with a running count."""
    total = plus = 0
    for left, symbol in enumerate(reversed(code), 1):
        if symbol == PLUS:
            plus += 1
        if symbol != MINUS:
            total += left - plus
    return total


def shuffle_exponent(spec: RegionSpec) -> int:
    """Matching exponent by symbol reduction, computed two ways.

    The step-by-step reduction and the closed-form sum must agree; a
    mismatch would mean the symbol bookkeeping itself is broken, so it is
    raised loudly instead of picking a side.
    """
    return _exponent(regions.check_spec(spec.side, spec.distances))


def _exponent(spec: RegionSpec) -> int:
    """`shuffle_exponent` of a spec already known to describe a region."""
    code = region_code(spec)
    procedural = sum(cur.count(ZERO) for cur in _rounds(code))
    closed = _closed_form_exponent(code)
    if procedural != closed:
        raise FormulaProcedureMismatch(
            f"procedure {procedural} vs formula {closed} on {''.join(code)}"
        )
    return procedural


def shuffle_count(spec: RegionSpec) -> int:
    return 2 ** shuffle_exponent(spec)
