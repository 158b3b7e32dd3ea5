"""Word grammar: `s<INT>` for atoms, `D` for the Garside element, optional
`^<INT>` exponents (negative allowed), whitespace separated; a bare `1`
stands for the identity."""

from __future__ import annotations

import re

from .element import GarsideElement, normalize
from .structure import GarsideStructure

_TOKEN = re.compile(r"(?:s(?P<atom>\d+)|(?P<delta>D))(?:\^(?P<exp>-?\d+))?\Z")


class WordSyntaxError(ValueError):
    """Unparsable word text; str() names the offending token and position."""


def parse_word(st: GarsideStructure, text: str) -> GarsideElement:
    """Parse a word and return the normalized element.  Empty text is allowed
    and denotes the identity."""
    word = []
    for pos, token in enumerate(text.split(), start=1):
        if token == "1":
            continue
        m = _TOKEN.match(token)
        if m is None:
            raise WordSyntaxError(f"bad token {token!r} at position {pos}")
        exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if m.group("delta"):
            word.append(("D", exp))
        else:
            idx = int(m.group("atom"))
            if not 1 <= idx <= st.rank:
                raise WordSyntaxError(
                    f"atom index {idx} at position {pos} out of range for {st.structure_id}")
            word.append((idx, exp))
    return normalize(st, word)


def delta_chunk(p: int) -> list:
    """The Delta power p as a list of at most one chunk: none for p = 0,
    `D` for p = 1, else `D^p`."""
    if p == 0:
        return []
    return ["D" if p == 1 else f"D^{p}"]


def format_simple(st: GarsideStructure, s) -> str:
    """A simple spelled in atoms, `s<i>` tokens separated by spaces."""
    return " ".join(f"s{i}" for i in st.simple_word(s))


def format_element(a: GarsideElement) -> str:
    """Canonical word for a: the Delta power, then each factor spelled in atoms.

    Output reparses (via parse_word) to an equal element.  The identity is
    formatted as `1`.
    """
    st = a.structure
    return " ".join(delta_chunk(a.power)
                    + [format_simple(st, f) for f in a.factors]) or "1"


def format_factors(a: GarsideElement) -> str:
    """Normal form display with factor boundaries: `D^p | s.. | s..`."""
    st = a.structure
    chunks = delta_chunk(a.power) + [format_simple(st, f) for f in a.factors]
    return " | ".join(chunks) if chunks else "1"


def one_line(st: GarsideStructure, s) -> str:
    """Permutation (or 0/1 vector) in one-line text form; commas past 9."""
    if st.n <= 9:
        return "".join(str(d) for d in s)
    return ",".join(str(d) for d in s)
