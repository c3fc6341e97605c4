import random

import pytest
from hypothesis import example, given, settings, strategies as st

from z3conn.seqcore import (Classification, DegreeSequence, Kind, Route,
                            SequenceError, SequenceSyntaxError, classify,
                            classify_shape, is_graphic, no_z3_realization,
                            parse_sequence, render_runs, residual,
                            residual_runs)
from z3conn.sweep import graphic_sequences

from helpers import (brute_force_graphic, erdos_gallai_reference, naive_render,
                     naive_residual, naive_runs, naive_shape)


def test_parse_basic_forms():
    assert parse_sequence("(6,5,4^4,3)").degrees == (6, 5, 4, 4, 4, 4, 3)
    assert parse_sequence("3,3,3,3").degrees == (3, 3, 3, 3)
    assert parse_sequence("(3^6)").degrees == (3,) * 6
    assert parse_sequence(" ( 5 , 3 ^ 5 ) ").degrees == (5, 3, 3, 3, 3, 3)
    # input order does not matter; output is canonical
    assert parse_sequence("(3,4,3,5)").degrees == (5, 4, 3, 3)


def test_parse_render_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        degs = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 12))),
                      reverse=True)
        seq = DegreeSequence(tuple(degs))
        assert parse_sequence(seq.render()) == seq


@st.composite
def runs(draw):
    """A sequence as (value, run length) pairs: distinct values in
    descending order, runs up to 3000 long."""
    values = draw(st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=8,
                           unique=True))
    counts = draw(st.lists(st.integers(1, 3000), min_size=len(values),
                           max_size=len(values)))
    return sorted(zip(values, counts), reverse=True)


@settings(max_examples=200, deadline=None)
@given(runs(), st.data())
def test_parse_render_roundtrip_with_long_runs(pairs, data):
    seq = DegreeSequence(tuple(v for v, c in pairs for _ in range(c)))
    text = seq.render()
    assert text.count("^") == sum(c > 1 for _, c in pairs)
    assert parse_sequence(text) == seq
    # exponent terms in any order, with or without "^1", parse the same
    terms = [f"{v}^{c}" if c > 1 or data.draw(st.booleans()) else str(v)
             for v, c in pairs]
    shuffled = data.draw(st.permutations(terms))
    assert parse_sequence("(" + ",".join(shuffled) + ")") == seq


def test_render_exponents():
    assert DegreeSequence((6, 5, 4, 4, 4, 4, 3)).render() == "(6,5,4^4,3)"
    assert DegreeSequence((3, 3)).render() == "(3^2)"
    assert DegreeSequence((4,)).render() == "(4)"


@pytest.mark.parametrize("bad", ["", "()", "(3,", "3,,4", "(3^0)", "(3^)",
                                 "a", "(3))", "3)", "((3)", "0,3", "-3",
                                 "(3^1000001)", "(4^500000,3^500001)",
                                 "3,4,", "(3,4,)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(SequenceError):
        parse_sequence(bad)
    if bad == "3,4,":
        with pytest.raises(SequenceSyntaxError, match="trailing comma"):
            parse_sequence(bad)


def test_syntax_error_carries_position():
    with pytest.raises(SequenceSyntaxError) as info:
        parse_sequence("(3,x)")
    assert info.value.position >= 0


def test_sequence_validation():
    with pytest.raises(SequenceError):
        DegreeSequence((3, 4))  # increasing
    with pytest.raises(SequenceError):
        DegreeSequence(())
    with pytest.raises(SequenceError):
        DegreeSequence((3, 0))


def test_is_graphic_known_cases():
    assert is_graphic(parse_sequence("(3^4)"))
    assert is_graphic(parse_sequence("(3^6)"))
    assert not is_graphic(parse_sequence("(3^5)"))  # odd sum
    assert not is_graphic(parse_sequence("(5,3)"))  # d1 too large
    assert is_graphic(parse_sequence("(6,5,4^4,3)"))
    assert not is_graphic(parse_sequence("(4^4,3^3)"))  # odd sum


def test_is_graphic_matches_erdos_gallai():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 10)
        degs = sorted((rng.randint(1, max(1, n - 1)) for _ in range(n)),
                      reverse=True)
        seq = DegreeSequence(tuple(degs))
        assert is_graphic(seq) == erdos_gallai_reference(degs), seq.render()


def test_is_graphic_matches_brute_force_small():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 5)
        degs = sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True)
        seq = DegreeSequence(tuple(degs))
        assert is_graphic(seq) == brute_force_graphic(degs), seq.render()


def test_residual_example():
    # delete the trailing 3, decrement the three largest entries
    assert residual(parse_sequence("(6,5,4^4,3)")) == DegreeSequence((5, 4, 4, 4, 4, 3))


def test_residual_ties_decrement_earliest():
    # three of the four tied 4s drop to 3; the untouched one leads
    assert residual(parse_sequence("(4,4,4,4,3)")) == DegreeSequence((4, 3, 3, 3))


def test_residual_preserves_graphicality_both_ways():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 9)
        degs = sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True)
        seq = DegreeSequence(tuple(degs))
        try:
            rest = residual(seq)
        except SequenceError:
            continue
        assert is_graphic(seq) == is_graphic(rest)


@st.composite
def long_run_sequences(draw):
    """A nonincreasing tuple of up to 8 runs, each up to 3000 long (short
    runs are drawn as often, to reach the family boundaries), with small
    values and, often, one or two leading entries at n-1..n-6 so that every
    route and exception family can occur; the sum is made even."""
    count = st.one_of(st.integers(1, 6), st.integers(1, 3000))
    tail = draw(st.lists(st.tuples(st.integers(1, 8), count),
                         min_size=1, max_size=6, unique_by=lambda r: r[0]))
    d = [v for v, c in sorted(tail, reverse=True) for _ in range(c)]
    heads = draw(st.integers(0, 2))
    gap = draw(st.integers(1, 6))
    d = [max(len(d) + heads - gap, d[0])] * heads + d
    if sum(d) % 2:
        d[-1] += 1 if d[-1] == 1 else -1
    return tuple(sorted(d, reverse=True))


@settings(max_examples=150, deadline=None)
@given(long_run_sequences())
@example((5, 5, 5, 2, 2))  # a partly lowered run splits
@example((5, 4, 4, 3, 3, 3))  # the lowered tail meets the next run
@example((5, 4, 4, 4, 2))  # the kept part meets the fully lowered run before
@example((5, 4, 4, 3, 2))  # both merges in one step
@example((4, 4, 4, 4, 3))  # the last run empties
@example((2999,) + (3,) * 2999)  # exception (k, 3^k)
@example((2999, 2999) + (3,) * 2998)  # exception (k, k, 3^(k-1))
@example((2997,) + (3,) * 2999)  # exception (n-3, 3^(n-1))
@example((3, 3, 2, 2))  # d1 = d2 = n-1 = 3, but not the (k, k, 3^(k-1)) family
@example((3, 3, 3, 3, 3, 1))  # d1 = n-3, but not the (n-3, 3^(n-1)) family
@example((5, 4, 4, 4, 4, 3, 3, 3, 3, 3))  # T15 with five 3s
def test_run_form_matches_tuple_reference(d):
    n = len(d)
    runs = naive_runs(d)
    assert DegreeSequence(d).runs() == runs
    assert render_runs(runs) == DegreeSequence(d).render() == naive_render(d)
    graphic = is_graphic(d)
    if graphic:
        kind, route, k = naive_shape(d)
        assert classify_shape(runs, n) == Classification(
            Kind(kind), route and Route(route), k)
    rest = naive_residual(d)
    if rest is None:
        with pytest.raises(SequenceError):
            residual_runs(list(runs))
        return
    lowered = residual_runs(runs)
    assert runs == naive_runs(rest)
    assert lowered == naive_runs([x - 1 for x in d[:d[-1]]])
    assert render_runs(runs) == naive_render(rest)
    assert residual(DegreeSequence(d)) == DegreeSequence(rest)
    if graphic:  # Kleitman-Wang: the residual stays graphic
        c = classify(DegreeSequence(rest))
        assert c.kind is not Kind.NOT_GRAPHIC
        assert classify_shape(runs, n - 1) == c


def test_residual_rejects_undefined():
    with pytest.raises(SequenceError):
        residual(DegreeSequence((3,)))


@pytest.mark.parametrize("text,kind,route,k", [
    ("(3^4)", Kind.EXCEPTION_ODD_K, None, 3),
    ("(5,3^5)", Kind.EXCEPTION_ODD_K, None, 5),
    ("(7,3^7)", Kind.EXCEPTION_ODD_K, None, 7),
    ("(5^2,3^4)", Kind.EXCEPTION_ODD_K_SQUARE, None, 5),
    ("(7^2,3^6)", Kind.EXCEPTION_ODD_K_SQUARE, None, 7),
    ("(3^6)", Kind.EXCEPTION_N3, None, None),
    ("(4,3^6)", Kind.EXCEPTION_N3, None, None),
    ("(5,3^7)", Kind.EXCEPTION_N3, None, None),
    ("(3^5)", Kind.NOT_GRAPHIC, None, None),
    ("(6,6,6,4)", Kind.NOT_GRAPHIC, None, None),
    ("(4,3^4)", Kind.COVERED, Route.T12, None),
    ("(6,5,4^4,3)", Kind.COVERED, Route.T12, None),
    ("(4^2,3^4)", Kind.COVERED, Route.L41, None),
    ("(6,6,3^6)", Kind.COVERED, Route.L41, None),
    ("(5^2,3^6)", Kind.COVERED, Route.T14, None),
    ("(4^3,3^4)", Kind.COVERED, Route.T14, None),
    ("(4^4,3^4)", Kind.COVERED, Route.T15, None),
    ("(6,4^5,3^4)", Kind.COVERED, Route.T15, None),
    ("(2,2,2)", Kind.OUT_OF_COVERAGE, None, None),
    ("(4,4,3,3,2)", Kind.OUT_OF_COVERAGE, None, None),
    ("(4,4,3^8)", Kind.OUT_OF_COVERAGE, None, None),  # d1 <= n-4, d_{n-5} = 3
])
def test_classify_cases(text, kind, route, k):
    c = classify(parse_sequence(text))
    assert c == Classification(kind, route, k)


def test_classify_even_k_star_is_covered():
    # (k, 3^k) with even k is not an exception
    c = classify(parse_sequence("(4,3^4)"))
    assert c.kind is Kind.COVERED


def test_classify_exceptions_require_min_degree_3_pattern():
    # exception tags only fire on the exact patterns
    assert classify(parse_sequence("(5,4,3^4)")).kind is Kind.NOT_GRAPHIC
    assert classify(parse_sequence("(5,4,3^5)")).kind is Kind.COVERED


def test_the_sequence_rule_never_fires_on_a_covered_sequence():
    # the paper realizes every covered sequence, so neither Lemma A nor the
    # degree-1 rule may reject one
    covered = 0
    for n in range(4, 11):
        for seq in graphic_sequences(n):
            if classify(seq).kind is Kind.COVERED:
                assert no_z3_realization(seq) is None, seq.render()
                covered += 1
    assert covered == 4340
