"""Canonical text form for exact elements, and its inverse parser.

Grammar (same as in the README):

    element  := "0" | [ "-" ] term ( " + " term | " - " term )*
    term     := [ magnitude " " ] monomial
    magnitude:= positive reduced "p" or "p/q"
    monomial := label ( "^" label )*        wedge, strictly increasing
              | label "·" label             symmetric product ("*" accepted on input)
    label    := ("a" | "b") handle-number

Terms are emitted in lexicographic basis-tuple order, so rendering is
deterministic and parse(render(x)) == x exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import Multivector, Sym2Element, SymplecticSpace, _check_degree_range

SYM_SEPARATOR = "·"  # middle dot


class ParseError(ValueError):
    """Input text does not match the canonical element grammar."""


def render_rational(x) -> str:
    if isinstance(x, float):
        raise TypeError("refusing to render a float")
    return str(Fraction(x))


def _render_terms(pieces: list[tuple[str, Fraction]]) -> str:
    """Join (monomial, coefficient) pieces already in canonical order."""
    if not pieces:
        return "0"
    chunks: list[str] = []
    for n, (monomial, coeff) in enumerate(pieces):
        mag = abs(coeff)
        body = monomial if mag == 1 else f"{mag} {monomial}"
        if n == 0:
            chunks.append(f"-{body}" if coeff < 0 else body)
        else:
            chunks.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(chunks)


def render_multivector(x: Multivector) -> str:
    label = x.space.label
    pieces = [("^".join(label(i) for i in key), c)
              for key, c in sorted(x.terms.items())]
    return _render_terms(pieces)


def render_sym2(s: Sym2Element) -> str:
    label = s.space.label
    pieces = [(f"{label(i)}{SYM_SEPARATOR}{label(j)}", c)
              for (i, j), c in sorted(s.terms.items())]
    return _render_terms(pieces)


def render_canonical(x) -> str:
    """Canonical text for Multivector, Sym2Element or a rational."""
    if isinstance(x, Multivector):
        return render_multivector(x)
    if isinstance(x, Sym2Element):
        return render_sym2(x)
    return render_rational(x)


def parse_rational(text: str) -> Fraction:
    """`p`, `p/q` or a decimal such as `0.5`; exponent notation is refused.

    Without an exponent the numerator and denominator have no more digits
    than the text, so the work is bounded by the text's length.
    """
    try:
        if "e" in text.lower():
            raise ValueError("exponent notation")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Break canonical text into (sign, body) pieces."""
    text = " ".join(text.split())
    if not text:
        raise ParseError("empty element text")
    pieces = text.replace(" - ", " + -").split(" + ")
    out = []
    for piece in pieces:
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:]
        if not piece:
            raise ParseError("dangling sign in element text")
        out.append((sign, piece))
    return out


def _parse_term(piece: str) -> tuple[Fraction, str]:
    tokens = piece.split(" ")
    if len(tokens) == 1:
        return Fraction(1), tokens[0]
    if len(tokens) == 2:
        try:
            return parse_rational(tokens[0]), tokens[1]
        except ParseError as exc:
            raise ParseError(f"bad coefficient {tokens[0]!r}") from exc
    raise ParseError(f"malformed term {piece!r}")


def parse_multivector(space: SymplecticSpace, text: str,
                      degree: int | None = None) -> Multivector:
    """Parse canonical wedge text; degree is inferred unless given."""
    text = text.strip()
    if text == "0":
        if degree is None:
            raise ParseError("cannot infer the degree of a bare 0")
        return Multivector.zero(space, _wedge_degree(degree))
    terms: dict[tuple[int, ...], Fraction] = {}
    for sign, piece in _split_terms(text):
        mag, monomial = _parse_term(piece)
        labels = monomial.split("^")
        try:
            key = tuple(space.index(lab) for lab in labels)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if degree is None:
            degree = len(key)
        if len(key) != degree:
            raise ParseError(f"mixed degrees: term {monomial!r} is not degree {degree}")
        terms[key] = terms.get(key, Fraction(0)) + sign * mag
    return Multivector(space, _wedge_degree(degree), terms)


def _wedge_degree(degree: int) -> int:
    try:
        return _check_degree_range(degree)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_sym2(space: SymplecticSpace, text: str) -> Sym2Element:
    text = text.strip()
    if text == "0":
        return Sym2Element.zero(space)
    terms: dict[tuple[int, int], Fraction] = {}
    for sign, piece in _split_terms(text):
        mag, monomial = _parse_term(piece)
        seps = [sep for sep in (SYM_SEPARATOR, "*") if sep in monomial]
        if not seps:
            raise ParseError(f"not a symmetric monomial: {monomial!r}")
        labels = monomial.split(seps[0])
        if len(labels) != 2:
            raise ParseError(f"not a symmetric monomial: {monomial!r}")
        try:
            i, j = (space.index(lab) for lab in labels)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        key = (i, j) if i <= j else (j, i)
        terms[key] = terms.get(key, Fraction(0)) + sign * mag
    return Sym2Element(space, terms)
