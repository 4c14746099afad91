"""Canonical text rendering and the inverse parser."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exterior import rand_mv, rand_vector
from test_h3model import rand_sym2
from torelli import (Multivector, ParseError, SymplecticSpace, parse_multivector,
                     parse_rational, parse_sym2, parse_vector, render_canonical,
                     render_multivector, render_rational, render_sym2,
                     render_vector, sym_product, wedge)


class TestRender:
    def test_rational(self):
        assert render_rational(Fraction(1, 2)) == "1/2"
        assert render_rational(-3) == "-3"
        assert render_rational(Fraction(4, 2)) == "2"
        with pytest.raises(TypeError):
            render_rational(0.5)

    def test_golden_johnson_string(self):
        sp = SymplecticSpace(3)
        x = (Fraction(1, 2) * wedge(sp.a(1), sp.a(2), sp.b(2))
             - Fraction(1, 2) * wedge(sp.a(1), sp.a(3), sp.b(3)))
        assert render_multivector(x) == "1/2 a1^a2^b2 - 1/2 a1^a3^b3"

    def test_unit_coefficients_omitted(self):
        sp = SymplecticSpace(3)
        assert render_multivector(wedge(sp.a(1), sp.b(2))) == "a1^b2"
        assert render_multivector(-1 * wedge(sp.a(1), sp.b(2))) == "-a1^b2"
        assert render_vector(2 * sp.a(1) - sp.b(3)) == "2 a1 - b3"

    def test_zero_renders_as_0(self):
        sp = SymplecticSpace(2)
        assert render_multivector(Multivector.zero(sp, 3)) == "0"
        assert render_vector(sp.zero_vector()) == "0"

    def test_terms_in_lexicographic_order(self):
        sp = SymplecticSpace(3)
        x = wedge(sp.b(3), sp.b(1)) + wedge(sp.a(1), sp.a(2)) + wedge(sp.a(1), sp.b(1))
        assert render_multivector(x) == "a1^a2 + a1^b1 - b1^b3"

    def test_normalization_sign_shows_in_text(self):
        sp = SymplecticSpace(3)
        # a2 ^ b1 ^ a3 sorts to a2 ^ a3 ^ b1 with one crossing
        assert render_multivector(wedge(sp.a(2), sp.b(1), sp.a(3))) == "-a2^a3^b1"

    def test_sym2_uses_middle_dot(self):
        sp = SymplecticSpace(3)
        s = sym_product(sp.a(2), sp.a(3))
        assert render_sym2(s) == "a2·a3"
        assert render_sym2(-2 * s) == "-2 a2·a3"

    def test_canonical_dispatch(self):
        sp = SymplecticSpace(2)
        assert render_canonical(Fraction(5, 3)) == "5/3"
        assert render_canonical(sp.a(2)) == "a2"
        assert render_canonical(wedge(sp.a(1), sp.b(1))) == "a1^b1"
        assert render_canonical(sym_product(sp.a(1), sp.a(1))) == "a1·a1"


class TestParse:
    def test_rational(self):
        assert parse_rational(" -7/3 ") == Fraction(-7, 3)
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational("x")

    def test_rational_refuses_exponent_notation(self):
        for text in ("1e5", "2E-3", "1.5e2"):
            with pytest.raises(ParseError, match="not a rational"):
                parse_rational(text)
        with pytest.raises(ParseError, match="bad coefficient '1e5'"):
            parse_multivector(SymplecticSpace(3), "1e5 a1^a2^a3")
        assert parse_rational("0.5") == Fraction(1, 2)
        assert parse_rational("-12") == Fraction(-12)

    def test_multivector_basics(self):
        sp = SymplecticSpace(3)
        x = parse_multivector(sp, "1/2 a1^a2^b2 - 1/2 a1^a3^b3")
        assert x == (Fraction(1, 2) * wedge(sp.a(1), sp.a(2), sp.b(2))
                     - Fraction(1, 2) * wedge(sp.a(1), sp.a(3), sp.b(3)))
        assert parse_multivector(sp, "-a2^a3^b1") == wedge(sp.a(2), sp.b(1), sp.a(3))

    def test_unsorted_monomial_accepted_with_sign(self):
        sp = SymplecticSpace(3)
        assert parse_multivector(sp, "b1^a1") == -1 * wedge(sp.a(1), sp.b(1))

    def test_zero_needs_degree(self):
        sp = SymplecticSpace(2)
        assert parse_multivector(sp, "0", degree=3).is_zero()
        with pytest.raises(ParseError, match="degree"):
            parse_multivector(sp, "0")
        assert parse_vector(sp, "0").is_zero()

    def test_degree_four_is_a_parse_error(self):
        sp = SymplecticSpace(3)
        for text, degree in (("a1^b1^a2^b2", None), ("a1^b1^a2^b2", 4), ("0", 4)):
            with pytest.raises(ParseError, match=r"^degree must be 1, 2 or 3, got 4$"):
                parse_multivector(sp, text, degree)

    def test_degree_conflicts_rejected(self):
        sp = SymplecticSpace(3)
        with pytest.raises(ParseError, match="mixed degrees"):
            parse_multivector(sp, "a1^a2 + b1")
        with pytest.raises(ParseError, match="not degree 3"):
            parse_multivector(sp, "a1^a2", degree=3)

    def test_bad_labels_and_shapes(self):
        sp = SymplecticSpace(2)
        with pytest.raises(ParseError):
            parse_multivector(sp, "a9")
        with pytest.raises(ParseError):
            parse_multivector(sp, "c1^a1")
        with pytest.raises(ParseError):
            parse_multivector(sp, "1/2 3 a1")
        with pytest.raises(ParseError):
            parse_multivector(sp, "a1 + ")
        with pytest.raises(ParseError):
            parse_multivector(sp, "")

    def test_sym2_accepts_both_separators(self):
        sp = SymplecticSpace(3)
        s = sym_product(sp.a(2), sp.a(3))
        assert parse_sym2(sp, "a2·a3") == s
        assert parse_sym2(sp, "a2*a3") == s
        assert parse_sym2(sp, "a3*a2") == s
        assert parse_sym2(sp, "0").is_zero()
        with pytest.raises(ParseError, match="symmetric"):
            parse_sym2(sp, "a2^a3")

    def test_whitespace_tolerated(self):
        sp = SymplecticSpace(2)
        assert parse_vector(sp, "  2 a1   -  b2 ") == 2 * sp.a(1) - sp.b(2)


class TestRoundTrip:
    def test_multivectors(self):
        rng = random.Random(60)
        for g in (2, 3, 4):
            sp = SymplecticSpace(g)
            for degree in (1, 2, 3):
                for _ in range(25):
                    x = rand_mv(sp, degree, rng)
                    assert parse_multivector(sp, render_multivector(x), degree) == x

    def test_vectors(self):
        rng = random.Random(61)
        for g in (2, 3):
            sp = SymplecticSpace(g)
            for _ in range(25):
                v = rand_vector(sp, rng)
                assert parse_vector(sp, render_vector(v)) == v

    def test_sym2(self):
        rng = random.Random(62)
        for g in (2, 3):
            sp = SymplecticSpace(g)
            for _ in range(25):
                s = rand_sym2(sp, rng)
                assert parse_sym2(sp, render_sym2(s)) == s

    def test_rationals(self):
        rng = random.Random(63)
        for _ in range(50):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            assert parse_rational(render_rational(x)) == x


# Element text from a token grammar: labels in and out of range at genus 3,
# wedge and symmetric separators, signs, rationals good and bad, blanks.
TOKENS = st.sampled_from([
    "a1", "b2", "a3", "b3", "a4", "b9", "c1", "a0", "a01",
    "^", ".", "·", "*", "+", "-", " + ", " - ", " ",
    "1/2", "-3/4", "2", "1/0", "1e5", "0", "0.5", ""])
ELEMENT_TEXT = st.lists(TOKENS, max_size=8).map("".join)


class TestFuzz:
    @given(ELEMENT_TEXT)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_parsers_return_or_raise_parse_error(self, text):
        """Every parser either returns or raises ParseError, never another error."""
        sp = SymplecticSpace(3)
        parsers = [parse_rational, lambda t: parse_vector(sp, t),
                   lambda t: parse_multivector(sp, t), lambda t: parse_sym2(sp, t)]
        parsers += [lambda t, k=k: parse_multivector(sp, t, k) for k in (0, 1, 2, 3, 4)]
        for parse in parsers:
            try:
                parse(text)
            except ParseError:
                pass
