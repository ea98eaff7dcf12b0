from __future__ import annotations

import random
import sys
import threading

import pytest

from hornlog import (
    Atom,
    Int,
    ParseError,
    Struct,
    Var,
    deref,
    make_list,
    parse_program,
    parse_term,
    variant,
    write_term,
)
from hornlog.reader import MAX_NESTING
from hornlog.session import prelude_sources

from conftest import random_term


def test_parse_compound_with_list():
    t = parse_term("f(X,[1,2|T])")
    assert type(t) is Struct and t.name == "f" and len(t.args) == 2
    lst = deref(t.args[1])
    assert lst.name == "." and deref(lst.args[0]).value == 1


def test_parse_injected_clause_shape():
    t = parse_term("(S1=>S2 :- S2 is S1+2)")
    assert t.name == ":-" and len(t.args) == 2
    head, body = t.args
    assert head.name == "=>"
    assert body.name == "is"
    assert body.args[1].name == "+"


def test_parse_difference_pair():
    t = parse_term("Xs-Ys")
    assert t.name == "-" and len(t.args) == 2
    assert type(deref(t.args[0])) is Var


def test_same_name_same_var():
    t = parse_term("f(X,g(X),Y)")
    assert deref(t.args[0]) is deref(t.args[1]).args[0]
    assert deref(t.args[0]) is not deref(t.args[2])


def test_underscore_always_fresh():
    t = parse_term("f(_,_)")
    assert deref(t.args[0]) is not deref(t.args[1])


def test_bare_operator_as_argument():
    t = parse_term("best_of(X,>,member(X,[2,1,4,3]))")
    assert deref(t.args[1]) is Atom(">")
    t = parse_term("efoldl(E,+,0,R)")
    assert deref(t.args[1]) is Atom("+")


def test_negative_integers_fold():
    t = parse_term("f(-5)")
    assert type(t.args[0]) is Int and t.args[0].value == -5
    t = parse_term("1 - -2")
    assert t.name == "-" and t.args[1].value == -2


def test_quoted_atoms():
    t = parse_term("'hello world'")
    assert t is Atom("hello world")
    t = parse_term("'it''s'")
    assert t is Atom("it's")
    t = parse_term("'.'(1,'.'(2,[]))")
    assert write_term(t) == "[1,2]"


def test_comments_and_layout():
    cls = parse_program("a(1). % fact one\n% whole line\na(2).")
    assert len(cls) == 2


def test_parse_program_fact_and_rule():
    cls = parse_program("a(1). b(X):-a(X).")
    assert len(cls) == 2
    assert cls[0].body is Atom("true")
    assert cls[1].head.name == "b"
    assert cls[1].body.name == "a"


def test_parse_program_missing_period():
    with pytest.raises(ParseError):
        parse_program("a(1)")


def test_parse_error_location():
    with pytest.raises(ParseError) as e:
        parse_program("a(1).\nb(2.")
    assert e.value.line == 2


@pytest.mark.parametrize("opening, closing", [("f(", ")"), ("(", ")"), ("[", "]")])
def test_deep_nesting_is_a_parse_error(opening, closing):
    ok = opening * MAX_NESTING + "a" + closing * MAX_NESTING
    assert write_term(parse_term(ok)).startswith(opening.strip("("))
    with pytest.raises(ParseError) as e:
        parse_term(opening * 5000 + "a" + closing * 5000)
    assert e.value.line == 1 and "nested" in e.value.message
    with pytest.raises(ParseError):
        parse_program("p(" + opening * 5000 + "a" + closing * 5000 + ").")


@pytest.mark.parametrize("text", ["X = ²", "X = 1²", "f(2³)"])
def test_digits_that_are_not_decimal_are_a_parse_error(text):
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert "unexpected character" in e.value.message


def test_integer_literal_past_the_hosts_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    assert parse_term("1" * limit).value == int("1" * limit)
    with pytest.raises(ParseError) as e:
        parse_term("X = " + "1" * (limit + 1))
    assert "too long" in e.value.message and e.value.col == 5


def test_long_conjunction_reads_without_nesting():
    body = ",".join(f"g{i}" for i in range(5000))
    (cl,) = parse_program(f"p:-{body}.")
    t, n = cl.body, 0
    while type(t) is Struct and t.name == ",":
        assert deref(t.args[0]).name == f"g{n}"
        t, n = deref(t.args[1]), n + 1
    assert t.name == "g4999" and n == 4999
    assert write_term(parse_term("(a,b),c:-d,(e,f)")) == "(a,b),c:-d,e,f"


def test_directive_rejected():
    with pytest.raises(ParseError):
        parse_program(":- foo.")


def test_clause_head_must_be_callable():
    with pytest.raises(ParseError):
        parse_program("7.")
    with pytest.raises(ParseError):
        parse_program("X :- a.")


def test_prelude_files_parse():
    for name, src in prelude_sources():
        clauses = parse_program(src, name)
        assert clauses, name


def test_paper_listing_queue_server_clause_counts():
    src = next(src for name, src in prelude_sources() if name == "db.pl")
    by_pred: dict[tuple[str, int], int] = {}
    for cl in parse_program(src):
        h = cl.head
        key = (h.name, len(h.args)) if type(h) is Struct else (h.name, 0)
        by_pred[key] = by_pred.get(key, 0) + 1
    assert by_pred[("queue_server", 0)] == 1
    assert by_pred[("queue_server", 2)] == 1
    assert by_pred[("server_task", 6)] == 4
    assert by_pred[("server_task_remove", 3)] == 2
    assert by_pred[("server_task_delete", 4)] == 2
    assert by_pred[("select_nonvar", 3)] == 2


def test_write_the_yield_pair():
    t = parse_term("the(0 => 2)")
    assert write_term(t).replace(" ", "") == "the(0=>2)"


def test_write_list():
    assert write_term(parse_term("[1,2]")) == "[1,2]"
    assert write_term(parse_term("[1,2|T]")).startswith("[1,2|_G")


def test_write_shared_vars():
    t = parse_term("f(X,X)")
    s = write_term(t)
    inner = s[2:-1].split(",")
    assert len(inner) == 2 and inner[0] == inner[1] and inner[0].startswith("_G")


def test_write_operators_with_priorities():
    assert write_term(parse_term("a:-b,c")).replace(" ", "") == "a:-b,c"
    assert write_term(parse_term("(a,b)")).replace(" ", "") == "a,b"
    assert write_term(parse_term("f((a,b))")).replace(" ", "") == "f((a,b))"
    assert write_term(parse_term("1+2*3")) == "1+2*3"
    assert write_term(parse_term("(1+2)*3")) == "(1+2)*3"


def test_write_cyclic_term_is_depth_limited():
    from hornlog import Trail, unify

    x = Var()
    t = Trail()
    unify(x, Struct("f", (x,)), t)
    s = write_term(x)
    assert "..." in s
    assert len(s) < 1000


def test_roundtrip_random_terms():
    rng = random.Random(2024)
    for _ in range(300):
        t = random_term(rng, 4)
        back = parse_term(write_term(t))
        assert variant(back, t), write_term(t)


# names that need care: quoted, bare only alone, or operators
_AWKWARD = ["a", "!", ";", "[]", "|", "[", "{}", "x y", "", "-", ":-", ",", "mod"]


def _awkward_term(rng: random.Random, depth: int, pool: list):
    """Random term over awkward names, prefix and infix operators over
    compound operands, negative integers and shared variables."""
    roll = rng.random()
    if depth == 0 or roll < 0.30:
        kind = rng.random()
        if kind < 0.5:
            return Atom(rng.choice(_AWKWARD))
        if kind < 0.8:
            return Int(rng.randint(-9, 9))
        return rng.choice(pool)
    sub = [_awkward_term(rng, depth - 1, pool) for _ in range(rng.randint(1, 3))]
    if roll < 0.40:
        tail = rng.choice(pool) if rng.random() < 0.2 else Atom("[]")
        return make_list(sub, tail)
    if roll < 0.60:
        return Struct(rng.choice(["-", "+", "=", ":-", ",", "mod", "is"]), (sub[0], sub[-1]))
    if roll < 0.75:
        return Struct(rng.choice(["-", ":-"]), (sub[0],))
    return Struct(rng.choice(_AWKWARD), tuple(sub))


def test_roundtrip_random_awkward_terms():
    rng = random.Random(1009)
    for _ in range(3000):
        t = _awkward_term(rng, 4, [Var() for _ in range(3)])
        s = write_term(t)
        assert variant(parse_term(s), t), s


@pytest.mark.parametrize(
    "text",
    [
        "a- -1",
        "1 mod 2",
        "a= \\+",
        "- -a",
        "(-)-(-)",
        "-(3)",
        "1- -(1)",
        "f((a:-b))",
        ":-a,b",
        "-(a+b)",
        "-(-)",
        "- (a,b)",
        "- (:-a)",
        ":- (:-a)",
        ":- (a:-b),c",
        "'!'(a)",
        "';'(a)",
        "'[]'(a)",
        "f(!,;,[])",
    ],
)
def test_write_spacing_and_quoting_are_pinned(text):
    assert write_term(parse_term(text)) == text


def test_threads_writing_the_same_new_atoms_get_the_same_text():
    # the atom token caches are shared; these atoms were never written before
    text = "'w{0} x'('!'(w{0}), [';', 'w{0} x'|w{0}], - ('w{0} x',w{0}))"
    terms = [parse_term(text.format(i)) for i in range(300)]
    start = threading.Barrier(4)
    texts: list[list[str]] = [[] for _ in range(4)]

    def write_all(out):
        start.wait()
        out.extend(write_term(t) for t in terms)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write_all, args=(out,)) for out in texts]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(out == [write_term(t) for t in terms] for out in texts)
    assert texts[0][7] == "'w7 x'('!'(w7),[;,'w7 x'|w7],- ('w7 x',w7))"


def test_write_unary_minus_over_int_roundtrips():
    t = parse_term("-(3)")
    assert write_term(t) == "-(3)"
    assert variant(parse_term(write_term(t)), t)
    t = parse_term("1 - -2")
    assert variant(parse_term(write_term(t)), t)


@pytest.mark.parametrize("text", ["'.'", "a='.'", "'.'(a)", "..", "=."])
def test_dot_atoms_write_text_that_reparses(text):
    # a lone . followed by layout or the end of input reads as a clause end
    t = parse_term(text)
    s = write_term(t)
    assert variant(parse_term(s), t), s


def test_write_operator_atom_as_operand_is_parenthesized():
    t = Struct("-", (Atom("-"), Int(1)))
    s = write_term(t)
    assert variant(parse_term(s), t), s


def test_long_answer_list_prints_in_full_and_reparses(base):
    lst = base.first("L", "findall(X,between(1,100,X),L)")
    s = write_term(lst)
    assert s == "[" + ",".join(map(str, range(1, 101))) + "]"
    assert variant(parse_term(s), lst)


def test_very_long_list_writes_without_recursion():
    from hornlog import make_list

    n = 100_000
    s = write_term(make_list([Int(i) for i in range(n)], Var()))
    assert s.startswith("[0,1,2,") and f",{n - 1}|_G" in s


def test_cyclic_list_spine_prints_text_that_parses():
    from hornlog import Trail, make_list, unify

    x = Var()
    assert unify(x, make_list([Atom("a"), Atom("b")], x), Trail())
    s = write_term(x)
    assert s.endswith("|...]") and len(s) < 100
    back = parse_term(s)
    assert deref(back.args[0]) is Atom("a")


def test_element_nesting_is_still_depth_limited_inside_a_list():
    from hornlog import Trail, unify

    x = Var()
    assert unify(x, Struct(".", (x, Atom("[]"))), Trail())  # X = [X]
    s = write_term(x)
    assert "..." in s and len(s) < 1000
    parse_term(s)


def test_integers_past_the_hosts_digit_limit_write_in_full():
    from hornlog.writer import _long_int_text

    big = 10**5000
    assert write_term(Int(big)) == "1" + "0" * 5000
    assert write_term(Struct("f", (Int(-big - 7), Int(1)))) == "f(-1" + "0" * 4999 + "7,1)"
    assert write_term(make_list([Int(big)])) == "[1" + "0" * 5000 + "]"
    rng = random.Random(5)
    for digits in (1, 499, 500, 501, 1200, 4000):
        v = rng.randrange(10 ** (digits - 1), 10**digits)
        assert _long_int_text(v) == str(v) and _long_int_text(-v) == str(-v)
    assert _long_int_text(10**3000 + 1) == str(10**3000 + 1)  # zero padding inside


@pytest.mark.parametrize("functor", ["f", "="])
def test_cycle_through_two_arguments_writes_quickly_and_parses(functor):
    from hornlog import Trail, unify

    x = Var()
    assert unify(x, Struct(functor, (x, x)), Trail())  # X = f(X,X), X = (X=X)
    s = write_term(x)
    assert s.replace(" ", "") == ("f(...,...)" if functor == "f" else "...=...")
    back = parse_term(s)
    assert back.name == functor and back.args == (Atom("..."), Atom("..."))
    goal = Struct("g", (x, Struct("h", (x,))))  # X met again below another term
    assert write_term(goal).replace(" ", "").count("...") == 4
