import functools

import pytest
from hypothesis import given, settings, strategies as st

from gsl import Field, GslError
from gsl.action import (Coaction, extends_to_p1, laurent_invert,
                        standard_coaction)
from gsl.errors import NotInvertible, ParseError, VerifyError
from gsl.hopf import presentations_equal
from gsl.parse import (parse_coaction_expr, parse_presentation,
                       print_presentation, rho_str)
from gsl.zoo import alpha, zoo_parse

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)

_ROUND_TRIP = ["alpha(2)", "mu(2)", "D(2)", "D(2,B)", "H(1,2)", "witt2",
               "cocycle_ext(a=1,n=2)"]


@pytest.mark.parametrize("F,cid", (
    [(F, cid) for F in (F2, F3, F4) for cid in _ROUND_TRIP]
    + [(F, "semidirect(D(2),mu(1),w=[-1,1])") for F in (F2, F4)]),
    ids=lambda x: x.name if isinstance(x, Field) else x)
def test_print_parse_print_is_a_fixed_point(F, cid):
    # parse_presentation runs hopf_verify on what it reads
    H = zoo_parse(cid, F)
    text = print_presentation(H)
    K = parse_presentation(text)
    assert print_presentation(K) == text
    assert presentations_equal(H, K)


@pytest.mark.parametrize("F,n", [(F3, 1), (F2, 2)],
                         ids=lambda x: x.name if isinstance(x, Field) else x)
def test_aliases_survive_the_round_trip(F, n):
    H = zoo_parse("SL2_kerF(%d)" % n, F)
    text = print_presentation(H)
    assert "\naliases\n  u22 = " in text
    K = parse_presentation(text)
    assert print_presentation(K) == text
    assert presentations_equal(H, K)
    assert K.carrier.aliases == H.carrier.aliases
    assert K.carrier.var("u22").d == H.carrier.var("u22").d


def test_no_aliases_block_without_aliases():
    assert "aliases" not in print_presentation(zoo_parse("D(2)", F2))


@pytest.mark.parametrize("lines,message,where", [
    (["  S = T"], "alias 'S' names a generator", (20, 3)),
    (["  W = S", "  W = T"], "duplicate aliases entry for 'W'", (21, 3)),
    (["  2W = S"], "bad alias name '2W'", (20, 3)),
    (["  W S"], "want: NAME = expression", (20, 3)),
    (["  W = S'"], "unknown name", (20, 7)),
], ids=["generator", "repeated", "identifier", "no_equals", "tick"])
def test_bad_aliases_are_parse_errors(lines, message, where):
    text = print_presentation(zoo_parse("D(2)", F2))
    assert len(text.splitlines()) == 17
    with pytest.raises(ParseError) as exc:
        parse_presentation(text + "\naliases\n" + "\n".join(lines) + "\n")
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.col) == where


@pytest.mark.parametrize("block,rhs,col", [
    ("delta", "S + Q'", 11), ("epsilon", "Q", 7), ("antipode", "S*Q", 9)])
def test_a_bad_right_hand_side_names_its_column(block, rhs, col):
    # the column counts from the start of the line, not of the expression
    lines = print_presentation(zoo_parse("D(2)", F2)).splitlines()
    at = lines.index(block) + 1
    assert lines[at].startswith("  S = ")
    lines[at] = "  S = " + rhs
    with pytest.raises(ParseError) as exc:
        parse_presentation("\n".join(lines) + "\n")
    assert "unknown name" in str(exc.value) and "Q" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (at + 1, col)


def test_a_bad_rho_line_names_its_column():
    lines = print_presentation(standard_coaction(1, 0, True, F2)).splitlines()
    at = lines.index("action") + 1
    assert lines[at].startswith("  rho = ")
    lines[at] = "  rho = X + Q"
    with pytest.raises(ParseError) as exc:
        parse_presentation("\n".join(lines) + "\n")
    assert "unknown name" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (at + 1, 13)


_COACTIONS = ((1, 0, True), (2, 1, True), (2, 2, False), (0, 1, True))


@pytest.mark.parametrize("F,args", [(F, a) for F in (F2, F4) for a in _COACTIONS],
                         ids=lambda x: x.name if isinstance(x, Field) else str(x))
def test_coaction_print_parse_print_is_a_fixed_point(F, args):
    # the action block is read by parse_coaction_expr and verified
    c = standard_coaction(*args, field=F)
    chart2 = extends_to_p1(c)["chart2"]
    for obj in (c, chart2):
        text = print_presentation(obj)
        back = parse_presentation(text)
        assert print_presentation(back) == text
        assert rho_str(back) == rho_str(obj)


@pytest.mark.parametrize("F", (F2, F4), ids=lambda F: F.name)
def test_negative_degrees_go_through_the_grammar(F):
    # rho^-1 has only degrees <= 0 and is no coaction itself
    c = standard_coaction(2, 1, True, F)
    inv = Coaction(c.group, laurent_invert(c.group, c.rho))
    assert min(inv.rho) == -4 and max(inv.rho) == 0
    text = rho_str(inv)
    assert "X^-1" in text
    back = parse_coaction_expr(c.group, text, verify=False)
    assert back.rho == inv.rho and rho_str(back) == text
    with pytest.raises(VerifyError):
        parse_coaction_expr(c.group, text)


def test_negative_power_of_a_non_unit_is_not_invertible():
    with pytest.raises(NotInvertible):
        parse_coaction_expr(alpha(1), "(T*X)^-1")
    with pytest.raises(NotInvertible):
        parse_coaction_expr(alpha(1), "(1 + X)^-1")


_FUZZ_SEEDS = (("D(2)", F2), ("SL2_kerF(1)", F3), ("mu(2)", F2),
               ("H(1,2)", F3))


@functools.lru_cache(maxsize=None)
def _fuzz_text(k):
    cid, F = _FUZZ_SEEDS[k]
    return print_presentation(zoo_parse(cid, F))


def _mutate(text, edits):
    """Apply character deletions, character insertions and line swaps,
    each edit's positions taken modulo the current text."""
    for kind, i, j, ch in edits:
        if kind == "swap":
            lines = text.split("\n")
            i, j = i % len(lines), j % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        elif kind == "delete" and text:
            i %= len(text)
            text = text[:i] + text[i + 1:]
        elif kind == "insert":
            i %= len(text) + 1
            text = text[:i] + ch + text[i:]
    return text


_EDITS = st.lists(st.tuples(st.sampled_from(["delete", "insert", "swap"]),
                            st.integers(0, 10 ** 4), st.integers(0, 10 ** 4),
                            st.sampled_from("STUu12^*+-='()X0 \n#;,.aGF")),
                  min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, len(_FUZZ_SEEDS) - 1), edits=_EDITS)
def test_a_mutated_presentation_parses_or_names_its_place(k, edits):
    # a damaged file either still reads as a group, or raises a GslError;
    # a ParseError says where, by line and column
    text = _mutate(_fuzz_text(k), edits)
    try:
        parse_presentation(text)
    except ParseError as e:
        assert e.line is not None and e.col is not None, (text, e)
    except GslError:
        pass
