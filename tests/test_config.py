"""Line-oriented job config: sections, name resolution, error reporting."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli import (ConfigError, config_from_fixture, johnson_bp,
                     parse_config, wedge)

GOOD = """
# a complete act job
genus = 3
command = act
seed = 11
kappa1 = 0
kappa2 = -1

[vector d]
expr = a1

[vector dprime]
coeffs = -1 0 0 0 0 0

[subsurface left]
boundary = d
pair = a2, b2

[subsurface right]
boundary = dprime
pair = a3, b3

[boundingpair bp]
side1 = left
side2 = right

[multivector top]
expr = a2^b1^a3

[args]
pair = bp
top = top
"""


class TestTopLevel:
    def test_full_document(self):
        cfg = parse_config(GOOD)
        sp = cfg.space
        assert (cfg.genus, cfg.command, cfg.seed) == (3, "act", 11)
        assert cfg.kappa1 == 0 and cfg.kappa2 == -1
        assert cfg.vectors["d"] == sp.a(1)
        assert cfg.vectors["dprime"] == -sp.a(1)
        assert cfg.multivectors["top"] == wedge(sp.a(2), sp.b(1), sp.a(3))
        assert cfg.subsurfaces["left"].genus == 1
        assert cfg.args == {"pair": "bp", "top": "top"}
        j = johnson_bp(cfg.pairs["bp"])
        assert j == johnson_bp(config_from_fixture("paper-figure-1").pairs["bp"])

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown top-level key"):
            parse_config("genus = 3\nflavor = mint\n")
        try:
            parse_config("genus = 3\nflavor = mint\n")
        except ConfigError as exc:
            assert exc.line == 2

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="genus must be an integer"):
            parse_config("genus = big")
        with pytest.raises(ConfigError, match="at least 2"):
            parse_config("genus = 1")
        with pytest.raises(ConfigError, match="seed must be an integer"):
            parse_config("genus = 3\nseed = 1/2")
        with pytest.raises(ConfigError, match="kappa2 must be a rational"):
            parse_config("genus = 3\nkappa2 = pi")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("genus 3")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# header\ngenus = 2   # trailing\n\n")
        assert cfg.genus == 2

    def test_sections_need_genus_first(self):
        with pytest.raises(ConfigError, match="no genus"):
            parse_config("[vector v]\nexpr = a1\n")


class TestVectorSections:
    def test_coeffs_and_expr_agree(self):
        cfg = parse_config("genus = 2\n[vector u]\ncoeffs = 1, 0, -1/2, 0\n"
                           "[vector w]\nexpr = a1 - 1/2 b1\n")
        assert cfg.vectors["u"] == cfg.vectors["w"]

    def test_wrong_count(self):
        with pytest.raises(ConfigError, match="needs 4 coefficients, got 3"):
            parse_config("genus = 2\n[vector u]\ncoeffs = 1 0 1\n")

    def test_exactly_one_of_coeffs_expr(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("genus = 2\n[vector u]\ncoeffs = 1 0 0 0\nexpr = a1\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("genus = 2\n[vector u]\n")

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown key 'color'"):
            parse_config("genus = 2\n[vector u]\ncolor = red\nexpr = a1\n")
        # every section kind names the first unknown key in sorted order,
        # at the line where it first appears
        cases = [
            ("[vector u]\nexpr = a1\ncolor = red\n", "vector", 4),
            ("[multivector m]\ndegree = 2\nexpr = a1^b1\ncolor = red\n",
             "multivector", 5),
            ("[subsurface s]\nboundary = a1\npair = a2, b2\ncolor = red\n",
             "subsurface", 5),
            ("[boundingpair bp]\nside1 = s\nzeta = 1\ncolor = red\n",
             "boundingpair", 5),
        ]
        for body, kind, line in cases:
            with pytest.raises(ConfigError) as info:
                parse_config("genus = 2\n" + body)
            assert str(info.value) == f"line {line}: unknown key 'color' in {kind} section"
            assert info.value.line == line

    def test_basis_label_shadowing_rejected(self):
        with pytest.raises(ConfigError, match="shadows a basis label"):
            parse_config("genus = 2\n[vector a1]\nexpr = b1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("genus = 2\n[vector u]\nexpr = a1\nexpr = b1\n")


class TestMultivectorSections:
    def test_expr_infers_degree(self):
        cfg = parse_config("genus = 3\n[multivector m]\nexpr = a1^b2 - 2 a2^b1\n")
        assert cfg.multivectors["m"].degree == 2

    def test_coeffs_need_degree_and_count(self):
        with pytest.raises(ConfigError, match="needs a degree"):
            parse_config("genus = 2\n[multivector m]\ncoeffs = 1 0 0 0\n")
        cfg = parse_config("genus = 2\n[multivector m]\ndegree = 2\n"
                           "coeffs = 1 0 0 0 0 0\n")
        sp = cfg.space
        assert cfg.multivectors["m"] == wedge(sp.a(1), sp.a(2))
        with pytest.raises(ConfigError, match="needs 6 coefficients"):
            parse_config("genus = 2\n[multivector m]\ndegree = 2\ncoeffs = 1 0\n")

    def test_degree_out_of_range(self):
        with pytest.raises(ConfigError, match="degree must be 1, 2 or 3"):
            parse_config("genus = 2\n[multivector m]\ndegree = 4\ncoeffs = 1\n")

    def test_expr_degree_mismatch(self):
        with pytest.raises(ConfigError, match="not degree 3"):
            parse_config("genus = 2\n[multivector m]\ndegree = 3\nexpr = a1^b1\n")


class TestSubsurfaceSections:
    def test_pair_lines_repeat(self):
        cfg = parse_config("genus = 4\n[subsurface s]\nboundary = a1\n"
                           "pair = a2, b2\npair = a3, b3\n")
        assert cfg.subsurfaces["s"].genus == 2

    def test_inline_vector_expressions(self):
        cfg = parse_config("genus = 3\n[subsurface s]\nboundary = 2 a1\n"
                           "pair = a2, b2 + 3 a1\n")
        assert cfg.subsurfaces["s"].genus == 1

    def test_malformed_pair(self):
        with pytest.raises(ConfigError, match="two comma-separated"):
            parse_config("genus = 3\n[subsurface s]\nboundary = a1\npair = a2 b2\n")

    def test_validation_failure_becomes_config_error(self):
        with pytest.raises(ConfigError, match="subsurface 's'.*expected 0"):
            parse_config("genus = 3\n[subsurface s]\nboundary = b2\npair = a2, b2\n")

    def test_missing_boundary(self):
        with pytest.raises(ConfigError, match="needs a boundary"):
            parse_config("genus = 3\n[subsurface s]\npair = a2, b2\n")

    def test_unresolvable_vector(self):
        with pytest.raises(ConfigError, match="cannot resolve vector 'dd'"):
            parse_config("genus = 3\n[subsurface s]\nboundary = dd\n")


class TestBoundingPairSections:
    def test_unknown_side(self):
        with pytest.raises(ConfigError, match="unknown subsurface 'right'"):
            parse_config("genus = 3\n[subsurface left]\nboundary = a1\npair = a2, b2\n"
                         "[boundingpair bp]\nside1 = left\nside2 = right\n")

    def test_validation_failure_becomes_config_error(self):
        text = ("genus = 3\n"
                "[subsurface left]\nboundary = a1\npair = a2, b2\n"
                "[subsurface wrong]\nboundary = a1\npair = a3, b3\n"
                "[boundingpair bp]\nside1 = left\nside2 = wrong\n")
        with pytest.raises(ConfigError, match="boundingpair 'bp'.*negative"):
            parse_config(text)


class TestNames:
    def test_cross_kind_reuse_rejected(self):
        with pytest.raises(ConfigError, match="already used for another kind"):
            parse_config("genus = 2\n[vector u]\nexpr = a1\n"
                         "[multivector u]\nexpr = a1^b1\n")

    def test_same_kind_override_allowed(self):
        cfg = parse_config("genus = 2\n[vector u]\nexpr = a1\n[vector u]\nexpr = b1\n")
        assert cfg.vectors["u"] == cfg.space.b(1)


class TestFixtureBase:
    def test_extends_fixture(self):
        base = config_from_fixture("paper-figure-1")
        cfg = parse_config("command = act\n[multivector other]\nexpr = a1^a2^a3\n"
                           "[args]\ntop = other\n", base=base)
        assert cfg.genus == 3
        assert cfg.command == "act"
        assert "top" in cfg.multivectors and "other" in cfg.multivectors
        assert cfg.args["top"] == "other"
        assert cfg.args["pair"] == "bp"

    def test_matching_genus_tolerated(self):
        base = config_from_fixture("paper-figure-1")
        assert parse_config("genus = 3\n", base=base).genus == 3

    def test_conflicting_genus_rejected(self):
        base = config_from_fixture("paper-figure-1")
        with pytest.raises(ConfigError, match="conflicts with already-set genus 3"):
            parse_config("genus = 4\n", base=base)

    def test_fixture_names_resolve_in_sections(self):
        base = config_from_fixture("genus4-split")
        cfg = parse_config("[subsurface s]\nboundary = d\npair = a2, b2\n", base=base)
        assert cfg.subsurfaces["s"].d == cfg.vectors["d"]


class TestHeaders:
    def test_bad_headers(self):
        with pytest.raises(ConfigError, match="unterminated section header"):
            parse_config("genus = 2\n[vector u\nexpr = a1\n")
        with pytest.raises(ConfigError, match="bad section header"):
            parse_config("genus = 2\n[gadget u]\nexpr = a1\n")
        with pytest.raises(ConfigError, match="bad section header"):
            parse_config("genus = 2\n[vector]\nexpr = a1\n")
        with pytest.raises(ConfigError, match="bad section header"):
            parse_config("genus = 2\n[args extra]\nrounds = 3\n")

    def test_fraction_values_survive(self):
        cfg = parse_config("genus = 2\nkappa1 = 2/3\n")
        assert cfg.kappa1 == Fraction(2, 3)


class TestArgsSection:
    """[args] keys are checked like the keys of every other section."""

    def test_unknown_key_names_its_line(self):
        with pytest.raises(ConfigError,
                           match=r"^line 3: unknown key 'round' in args section$"):
            parse_config("genus = 3\n[args]\nround = 1\n")

    def test_duplicate_key_names_its_line(self):
        with pytest.raises(ConfigError, match=r"^line 4: duplicate key 'rounds'$"):
            parse_config("genus = 3\n[args]\nrounds = 2\nrounds = 3\n")

    def test_duplicate_across_args_sections(self):
        with pytest.raises(ConfigError, match=r"^line 5: duplicate key 'top'$"):
            parse_config("genus = 3\n[args]\ntop = x\n[args]\ntop = y\n")

    def test_every_known_key_is_accepted(self):
        keys = ("input", "form", "left", "right", "pair", "subsurface", "top", "rounds")
        cfg = parse_config("genus = 3\n[args]\n" + "".join(f"{k} = v\n" for k in keys))
        assert cfg.args == dict.fromkeys(keys, "v")
        assert cfg.arg_lines == {k: n for n, k in enumerate(keys, start=3)}


class TestRationals:
    """Rationals come only from `p`, `p/q` or decimals; exponents are refused."""

    def test_exponent_notation_refused(self):
        with pytest.raises(ConfigError, match=r"^line 2: kappa1 must be a rational, got '1e5'$"):
            parse_config("genus = 3\nkappa1 = 1e5\n")
        with pytest.raises(ConfigError,
                           match=r"^line 3: coefficient must be a rational, got '2E-3'$"):
            parse_config("genus = 2\n[vector u]\ncoeffs = 1 2E-3 0 0\n")
        with pytest.raises(ConfigError, match=r"^line 3: bad coefficient '1e5'$"):
            parse_config("genus = 3\n[multivector m]\nexpr = 1e5 a1^a2^a3\n")

    def test_decimals_and_fractions_still_parse(self):
        cfg = parse_config("genus = 2\nkappa1 = 0.5\nkappa2 = -3/4\n"
                           "[vector u]\ncoeffs = 0.25 7 0 0\n[vector w]\nexpr = 1.5 a1\n")
        assert (cfg.kappa1, cfg.kappa2) == (Fraction(1, 2), Fraction(-3, 4))
        assert cfg.vectors["u"].coords == (Fraction(1, 4), Fraction(7), 0, 0)
        assert cfg.vectors["w"] == Fraction(3, 2) * cfg.space.a(1)


# A token grammar for config text: mostly well-formed sections, so that
# draws reach the section builders, with bad lines mixed in everywhere.
# Genus stays at 1-4 so that no draw builds a large space.
NAMES = st.sampled_from(["u", "m", "s", "s2", "bp", "top", "a1", "d", "side1", "side2"])
LABELS = st.sampled_from(["a1", "b1", "a2", "b2", "a3", "b3", "a4", "b5", "a0", "c1"])
NUMBERS = st.sampled_from(["0", "1", "-2", "3/4", "-5/7", "1/0", "0.5", "x", "1,"])
COEFF_LINES = st.one_of(
    st.lists(NUMBERS, max_size=8),
    st.sampled_from([4, 6, 15, 20]).flatmap(
        lambda n: st.lists(st.sampled_from(["0", "1", "-1/2"]), min_size=n, max_size=n)),
).map(lambda cs: "coeffs = " + " ".join(cs))
TERMS = st.builds(lambda c, labels: f"{c} {'^'.join(labels)}".strip(),
                  st.sampled_from(["", "", "2", "-1/2", "1/0", "0.5", "x"]),
                  st.lists(LABELS, min_size=1, max_size=3))
VECTORS = st.sampled_from(["a1", "b1", "a2", "b2", "a3", "b3", "-a1", "2 b2", "d"])
EXPRS = st.one_of(
    VECTORS,
    st.lists(TERMS, min_size=1, max_size=3).map(" + ".join),
    st.lists(LABELS, min_size=1, max_size=2).map(" - ".join),
    st.sampled_from(["0", "", "- a1", "a1 +", "a1 - - b1"]),
    NAMES)
BAD_LINES = st.sampled_from(["[args extra]", "[gadget u]", "[vector]", "[vector u", "[]",
                             "flavor = mint", "genus 3", "= 3", "# comment", ""])


def _mostly(good):
    """Draws of `good`, with one line in eight from BAD_LINES instead."""
    return st.tuples(st.integers(0, 7), good, BAD_LINES).map(
        lambda t: t[2] if t[0] == 0 else t[1])


GENUS_LINES = st.builds("genus = {}".format,
                        st.sampled_from(["2", "3", "3", "4", "4", "1", "x"]))
TOP_LINES = st.one_of(
    GENUS_LINES,
    st.builds("seed = {}".format, st.sampled_from(["0", "7", "-3", "1/2"])),
    st.builds("{} = {}".format, st.sampled_from(["kappa1", "kappa2"]), NUMBERS),
    st.builds("command = {}".format, st.sampled_from(["act", "paint", ""])))
BODY_LINES = {
    "vector": st.one_of(COEFF_LINES, EXPRS.map("expr = {}".format)),
    "multivector": st.one_of(
        COEFF_LINES,
        EXPRS.map("expr = {}".format),
        st.sampled_from(["0", "1", "2", "3", "3", "4", "x"]).map("degree = {}".format)),
    "subsurface": st.one_of(
        st.one_of(VECTORS, EXPRS).map("boundary = {}".format),
        st.builds("pair = {}, {}".format, VECTORS, VECTORS),
        st.builds("pair = {}, {}".format, EXPRS, EXPRS),
        EXPRS.map("pair = {}".format)),
    "boundingpair": st.builds("{} = {}".format, st.sampled_from(["side1", "side2"]), NAMES),
    "args": st.builds("{} = {}".format,
                      st.sampled_from(["top", "pair", "form", "rounds", "left", "input"]),
                      st.one_of(NAMES, NUMBERS)),
}


def _section(kind):
    header = st.just("[args]") if kind == "args" else NAMES.map(f"[{kind} {{}}]".format)
    body = st.lists(_mostly(BODY_LINES[kind]), max_size=4)
    return st.builds(lambda h, lines: [h, *lines], header, body)


CONFIG_TEXT = st.builds(
    lambda genus, top, sections: "\n".join(
        [genus, *top] + [line for sec in sections for line in sec]),
    _mostly(GENUS_LINES),
    st.lists(_mostly(TOP_LINES), max_size=2),
    st.lists(st.sampled_from(sorted(BODY_LINES)).flatmap(_section), max_size=4))


class TestFuzz:
    @given(CONFIG_TEXT)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_parse_returns_or_raises_config_error(self, text):
        """Any text either parses or raises ConfigError, with or without a base."""
        for base in (None, "paper-figure-1"):
            try:
                parse_config(text, base=config_from_fixture(base) if base else None)
            except ConfigError:
                pass
