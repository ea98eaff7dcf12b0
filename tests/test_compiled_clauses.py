"""Clauses compiled to Python functions on their first call."""

from __future__ import annotations

import ast
import re
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

import pytest

from hornlog import Atom, Int, Session, Struct, Var, deref, make_list, parse_term, write_term
from hornlog import machine
from hornlog.machine import Database

from conftest import answers_str, list_parts

NREV = """
nrev([],[]).
nrev([H|T],R):-nrev(T,RT),app(RT,[H],R).
app([],L,L).
app([H|T],L,[H|R]):-app(T,L,R).
"""


def clauses(s: Session, name: str, arity: int):
    return s.db.pred((Atom(name), arity)).clauses


def candidate_lists(s: Session):
    """Every Candidates lookup can return in s, with its record."""
    for p in s.db._preds.values():
        if p.clauses is not None:
            yield p, p.clauses
        if p.index is not None:
            yield from ((p, c) for c in p.index[0].values())
            yield p, p.index[1]


# -- compiled on the first call, named after the predicate ---------------------


def test_session_construction_compiles_no_clause():
    s = Session(text=NREV)
    assert answers_str(s, "R", "nrev([1,2,3],R)") == ["[3,2,1]"]
    # a clause has no code of its own
    assert not any(hasattr(cl, "run") for p in s.db._preds.values() for cl in p.clauses or ())
    # a choice point takes its call up again in the entry that made it,
    # from its cursor: member/2's second clause, the list's last
    e = s.new_engine("X", "member(X,[a,b])")
    assert write_term(e.get().value) == "a"
    (cp,) = e.cps
    entry, starts = cp.clauses.run, []

    def counted(m, args, rest, start=0):
        starts.append(start)
        return entry(m, args, rest, start)

    cp.clauses.run = counted
    assert write_term(e.get().value) == "b"
    assert starts == [1]


def test_session_construction_compiles_no_entry():
    s = Session(text=NREV)
    assert all(c.run is None for _, c in candidate_lists(s))
    assert answers_str(s, "R", "nrev([1,2,3],R)") == ["[3,2,1]"]
    # the lists of a bound first argument, [] or [_|_], of nrev/2 and app/3
    made = [(p, c) for p, c in candidate_lists(s) if c.run is not None]
    assert sorted((p.key[0].name, c.keyed, len(c)) for p, c in made) == [
        ("app", True, 1),
        ("app", True, 1),
        ("nrev", True, 1),
        ("nrev", True, 1),
    ]
    assert {c.run.__code__.co_filename for _, c in made} == {"<app/3 entry>", "<nrev/2 entry>"}


def test_generated_code_is_named_after_its_predicate():
    s = Session(text=NREV, prelude=False)
    assert answers_str(s, "R", "nrev([1,2],R)") == ["[2,1]"]
    p = s.db.pred((Atom("app"), 3))
    assert {c.run.__code__.co_filename for c in p.index[0].values()} == {"<app/3 entry>"}
    # a clause keeps where it was read
    assert [cl.origin for cl in p.clauses] == [("<text>", 4), ("<text>", 5)]
    db = Database()
    db.add(parse_term("late(1)"), parse_term("true"))  # no origin
    db.freeze()
    late = db.pred((Atom("late"), 1))
    assert late.clauses.compile(db).__code__.co_filename == "<late/1 entry>"


def test_traceback_names_the_entry():
    s = Session(text="p(X):-q(X).\nq(1).\n", prelude=False)
    run = clauses(s, "p", 1).compile(s.db)
    with pytest.raises(ValueError) as e:
        run(SimpleNamespace(trail=None), (), None, 0)  # a wrong argument count fails in the generated code
    assert traceback.extract_tb(e.value.__traceback__)[-1].filename == "<p/1 entry>"


# -- no term text reaches the generated source --------------------------------

BIG = "1234567890" * 10  # 100 digits
# names of the generated code's own temporaries, globals and statements
ODD_NAMES = ["k0", "'Var'", "unify", "'return False'", "'\\n'", "'\"'", "v0", "a1", "g", "rest", "'None'"]


@pytest.mark.parametrize("name", ODD_NAMES)
def test_odd_atom_and_functor_names_in_heads_and_bodies(name):
    s = Session(
        text=f"""
h({name}, {name}({name}, X), X, {BIG}).
b(X, Y) :- h({name}, {name}({name}, X), Y, {BIG}).
c(R) :- R = {name}({name}, {BIG}).
""",
    )
    got = s.first("X-Y", "b(X,Y)")
    x, y = got.args
    assert type(x) is Var and y is x
    assert answers_str(s, "R", "c(R)") == [write_term(parse_term(f"{name}({name},{BIG})"))]
    assert answers_str(s, "A", f"h(A,{name}({name},1),1,{BIG})") == [write_term(parse_term(name))]
    assert answers_str(s, "A", f"h({name},{name}(A,1),2,{BIG})") == []
    assert answers_str(s, "A", f"h({name},{name}({name},1),1,{BIG}0)") == []


def _arity_checks(tree) -> set[int]:
    """ids of the integer constants compared with len(...)."""
    ids = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "len"
        ):
            ids.update(id(c) for c in node.comparators if isinstance(c, ast.Constant) and type(c.value) is int)
    return ids


# names of the generated code besides its numbered temporaries and bound
# values: its functions and parameters, its locals, the goal chain, and globals
IDENTIFIERS = {
    "make", "run", "m", "args", "trail", "rest", "start", "g", "Var", "Struct", "Int", "new", "bind", "unify",
    "len", "type", "mark", "outer", "stamp", "next_stamp", "ClauseCP", "lookup", "candidates", "out", "cells",
    "_cons",
}  # fmt: skip


def _positions(tree) -> set[int]:
    """ids of the integer constants an entry compares start with, sets it
    to or gives it as its default, passes to ClauseCP as a cursor, or
    indexes a goal chain with."""

    def names_start(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "start"

    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            node = ast.Tuple(node.defaults)
        elif isinstance(node, ast.Subscript):
            node = node.slice
        elif isinstance(node, ast.Compare) and names_start(node.left):
            pass
        elif isinstance(node, ast.Assign) and names_start(node.targets[0]):
            pass
        elif not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ClauseCP"):
            continue
        ids.update(id(a) for a in ast.walk(node) if isinstance(a, ast.Constant) and type(a.value) is int)
    return ids


def assert_holds_no_term(text: str) -> None:
    """text names no term: its only integer constants are arity checks and
    list and goal-chain positions, and its only names its own."""
    tree = ast.parse(text)
    ints = _arity_checks(tree) | _positions(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            assert node.value is None or type(node.value) is bool or id(node) in ints, text
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.arg if isinstance(node, ast.arg) else None
        assert name is None or re.fullmatch(r"[kvab]\d+", name) or name in IDENTIFIERS, name


def chain(c, db) -> list[tuple[machine.Candidates, str]]:
    """c and each link of the chain its entry hands calls on to, with the
    source of each one's entry over db's records."""
    out = []
    while c is not None:
        text, values = c.source(db)
        out.append((c, text))
        c = link(c, values)
    return out


def ran(c) -> list[machine.Candidates]:
    """c and each link of the chain its compiled entry hands calls on to,
    as far as they are compiled."""
    out = []
    while c is not None and c.run is not None:
        out.append(c)
        c = link(c, c.run.__defaults__)
    return out


def link(c, values) -> machine.Candidates | None:
    """The link that c's entry hands calls on to, among the values it
    binds: a list of c's record that lookup cannot return. The lists its
    calls select are bound beside it."""
    p = c.pred
    table, unkeyed = p.index or ({}, None)
    selectable = [p.clauses, unkeyed, *table.values()]
    (c,) = [
        v
        for v in values
        if type(v) is machine.Candidates and v.pred is p and v is not c and not any(v is x for x in selectable)
    ] or [None]
    return c


def test_generated_source_of_every_prelude_entry_holds_no_term():
    s = Session()
    lists = clauses_run = 0
    for p, c in candidate_lists(s):
        ((_, text),) = chain(c, s.db)  # within the budget: every clause inline
        assert_holds_no_term(text)
        lists += 1
        clauses_run += len(c) if c is p.clauses else 0
    assert lists > 50
    # every prelude clause is inline in its predicate's full list
    assert clauses_run == sum(len(p.clauses or ()) for p in s.db._preds.values())


# -- long list literals in clauses ---------------------------------------------


def test_clause_with_a_ten_thousand_element_list_in_the_head():
    n = 10000
    xs = ",".join(f"X{i}" for i in range(n))
    s = Session(text=f"h([{xs}],X0).\n", prelude=False)
    items = make_list([Int(i) for i in range(7, n + 7)])
    out = Var()
    assert [v.value for v in s.answers(out, Struct("h", (items, out)))] == [7]
    lst = Var()
    (got,) = s.answers(lst, Struct("h", (lst, Int(5))))
    elems, tail = list_parts(got)
    assert len(elems) == n and deref(elems[0]).value == 5 and write_term(tail) == "[]"
    assert len({id(deref(e)) for e in elems[1:]}) == n - 1
    # the one clause is past the budget alone, and its entry holds it all
    ((p, entry),) = [(p, c) for p, c in candidate_lists(s) if c.run is not None]
    assert ran(entry) == [entry] and entry.run.__code__.co_filename == "<h/2 entry>"


def test_clause_with_a_ten_thousand_element_list_in_the_body():
    n = 10000
    xs = ",".join(f"X{i}" for i in range(n))
    s = Session(text=f"b(L):-q([{xs}],L).\nq(L,L).\n", prelude=False)
    lst = Var()
    (got,) = s.answers(lst, Struct("b", (lst,)))
    elems, tail = list_parts(got)
    assert len(elems) == n and write_term(tail) == "[]"
    assert len({id(deref(e)) for e in elems}) == n


def test_ten_thousand_facts_called_with_an_unbound_first_argument():
    n = 10000
    s = Session(text="".join(f"f({i}).\n" for i in range(n)), prelude=False)
    assert [v.value for v in s.answers("X", "f(X)")] == list(range(n))
    assert answers_str(s, "x", f"f({n - 1})") == ["x"]
    every = s.db.pred((Atom("f"), 1)).clauses
    # the enumeration ran through a chain of entries that together hold
    # every clause once, in order, n to a link, under one name; links of
    # the same shape share one code object
    links = ran(every)
    n = len(links[1])
    assert len(links) > 2 and all(len(c) == n for c in links[1:-1])
    assert [cl for c in links[1:] for cl in c] == every[n:]
    assert {c.run.__code__.co_filename for c in links} == {"<f/1 entry>"}
    assert len({c.run.__code__ for c in links}) == 2  # a full link's and the last's
    for c in (every, links[-1]):
        text = c.source(s.db)[0]
        assert len(text.splitlines()) <= machine._ENTRY_LINES
        assert_holds_no_term(text)


def test_no_entry_passes_the_line_budget():
    # g<n> has n facts: some fit inline, the rest are chained, one near the edge
    text = "".join(f"g{n}(k{i},{i}).\n" for n in range(1, 80) for i in range(n))
    s = Session(text=text, prelude=False)
    sizes = []
    for p, c in candidate_lists(s):
        links = chain(c, s.db)
        # the links hold the clauses the list's own entry does not, in order
        held = [cl for link, _ in links[1:] for cl in link]
        assert (len(held) < len(c) or not c) and c[len(c) - len(held) :] == held
        for _, text in links:
            assert len(text.splitlines()) <= machine._ENTRY_LINES
        sizes.append((len(links) == 1, len(links[0][1].splitlines())))
    assert max(size for inlined, size in sizes if inlined) > machine._ENTRY_LINES - 10
    assert not all(inlined for inlined, _ in sizes)
    # past the budget: each head binds the goal's first argument before its
    # second fails, and is undone, also where the call is handed on to the
    # next link of the chain
    g = s.db.pred((Atom("g79"), 2))
    assert len(chain(g.clauses, s.db)) > 1
    assert answers_str(s, "X", "g79(X,77)") == ["k77"]
    assert answers_str(s, "X-Y", "g79(X,Y)", limit=79)[-2:] == ["k77-77", "k78-78"]


# -- clause-try behaviour ------------------------------------------------------

TRIES = f"""
deep(f(g(h(X)),X,[X|T]),T).
big({BIG}).
gr(f(a,[1,2],g(b))).
sh(A,B) :- same(A,Z), same(Z,B).
same(X,X).
sh2(L) :- L = [Z,Z], Z = q.
c1(X) :- !, X = 1.
c1(2).
c2(X) :- member(X,[1,2,3]), !, X > 0.
c2(9).
c3(X) :- member(X,[1,2,3]), X > 1, !.
c3(9).
outer(X) :- member(Y,[a,b]), c3(Z), X = Y-Z.
g(1,a).
g(2,_).
g2(1,f(k,h(W),W)).
g2(2,_).
"""


@pytest.fixture(scope="module")
def tries() -> Session:
    return Session(text=TRIES)


def test_nested_head_compound_with_a_repeated_variable(tries):
    got = tries.first("A", "deep(A,t)")
    assert write_term(got).startswith("f(g(h(_G")
    f = deref(got)
    x = deref(deref(deref(f.args[0]).args[0]).args[0])
    assert type(x) is Var and deref(f.args[1]) is x
    lst = deref(f.args[2])
    assert deref(lst.args[0]) is x and write_term(lst.args[1]) == "t"
    (got,) = answers_str(tries, "Y-L", "deep(f(g(Y),5,L),T)")
    assert got.startswith("h(5)-[5|_G")
    assert answers_str(tries, "Y", "deep(f(g(Y),5,[5|t]),t)") == ["h(5)"]
    assert answers_str(tries, "L", "deep(f(g(h(1)),1,L),z)") == ["[1|z]"]
    assert answers_str(tries, "x", "deep(f(g(h(1)),2,_),_)") == []
    assert answers_str(tries, "x", "deep(f(g(h(1)),1,[2|_]),_)") == []
    assert answers_str(tries, "x", "deep(f(g(k(1)),1,_),_)") == []


def test_integer_head_argument(tries):
    assert answers_str(tries, "x", f"big({BIG})") == ["x"]
    assert answers_str(tries, "x", f"big({BIG}1)") == []
    assert answers_str(tries, "x", "big(a)") == []
    assert answers_str(tries, "X", "big(X)") == [BIG]


def test_ground_head_compound_against_a_partly_bound_goal(tries):
    assert answers_str(tries, "A-T-B", "gr(f(A,[1|T],g(B)))") == ["a-[2]-b"]
    assert answers_str(tries, "x", "gr(f(a,[2|_],_))") == []
    assert answers_str(tries, "x", "gr(f(_,_,h(b)))") == []


def test_body_only_variable_shared_by_two_body_goals(tries):
    assert answers_str(tries, "B", "sh(1,B)") == ["1"]
    assert answers_str(tries, "x", "(sh(A,B),A==B)") == ["x"]
    assert answers_str(tries, "L", "sh2(L)") == ["[q,q]"]


def test_cut_first_middle_and_last(tries):
    assert answers_str(tries, "X", "c1(X)") == ["1"]
    assert answers_str(tries, "X", "c2(X)") == ["1"]
    assert answers_str(tries, "X", "c3(X)") == ["2"]
    assert answers_str(tries, "X", "outer(X)") == ["a-2", "b-2"]


def test_head_bindings_are_undone_on_backtracking(tries):
    got = [write_term(t) for t in tries.answers("Y-X", "(member(Y,[1,2]),g(Y,X))")]
    assert got[0] == "1-a" and got[1].startswith("2-_G")
    got = [write_term(t) for t in tries.answers("Y-X", "(member(Y,[1,2]),g2(Y,X))")]
    assert got[0].startswith("1-f(k,h(_G") and got[1].startswith("2-_G")


# -- one walk per template: first occurrences, keyed integers, build order -----


@pytest.fixture
def unify_calls(monkeypatch) -> list:
    """The calls of unify that generated code and machine.py's builtins
    make; generated code reads it from the module's globals."""
    calls, unify = [], machine.unify

    def counted(a, b, trail):
        calls.append((a, b))
        return unify(a, b, trail)

    monkeypatch.setattr(machine, "unify", counted)
    return calls


def test_a_head_argument_is_first_before_its_subterms(unify_calls):
    # X is first as q/2's second argument, so [X|_] is built around the
    # goal's 5 itself, not around a new variable unified with it afterwards
    s = Session(text="q([X|_],X).", prelude=False)
    (got,) = answers_str(s, "L", "q(L,5)")
    assert got.startswith("[5|_G")
    assert unify_calls == []


def test_a_keyed_entry_skips_the_integer_test_lookup_made(unify_calls):
    s = Session(text="c(0,a).\nc(1,b).\n", prelude=False)
    assert answers_str(s, "Y", "c(0,Y)") == ["a"]
    assert unify_calls == []
    assert answers_str(s, "Y", "c(2,Y)") == []  # lookup selects no list
    assert answers_str(s, "X-Y", "c(X,Y)") == ["0-a", "1-b"]  # the unkeyed list binds X


def test_body_variables_are_made_left_to_right(monkeypatch):
    captured = []

    def capture(m, args, rest):
        captured.append(deref(args[0]))
        return True

    monkeypatch.setitem(machine.BUILTINS, (Atom("capture"), 1), capture)
    s = Session(text="p:-capture(f(A,g(B),C)).", prelude=False)
    assert answers_str(s, "x", "p") == ["x"]
    (f,) = captured
    a, g, c = (deref(x) for x in f.args)
    b = deref(g.args[0])
    assert all(type(v) is Var for v in (a, b, c))
    assert a.serial < b.serial < c.serial


# -- integer guards compiled inline ---------------------------------------------

ARITH = """
lt(X,Y):-X<Y.
gt(X,Y):-X>Y.
le(X,Y):-X=<Y.
ge(X,Y):-X>=Y.
eq(X,Y):-X=:=Y.
ne(X,Y):-X=\\=Y.
inc(X,Y):-Y is X+1.
sum(X,Y,Z):-Z is X+Y.
poly(X,Y,Z):-Z is -(X)*(X-Y)+3*Y.
zero(X):-0 is X*X-X.
lhs(X):-X+1 is 3.
neg(X):- -(X) is -2.
three:-1+2 is 3.
"""
# each guard's clause, a goal of it on integers, and what it answers
INTEGER_GOALS = [
    ("lt(1,2)", "x", ["x"]),
    ("lt(2,2)", "x", []),
    ("gt(-1,-2)", "x", ["x"]),
    ("gt(2,2)", "x", []),
    ("le(2,2)", "x", ["x"]),
    ("le(3,2)", "x", []),
    ("ge(2,2)", "x", ["x"]),
    ("ge(1,2)", "x", []),
    ("eq(4,4)", "x", ["x"]),
    ("eq(4,-4)", "x", []),
    ("ne(4,-4)", "x", ["x"]),
    ("ne(4,4)", "x", []),
    ("inc(-1,Y)", "Y", ["0"]),
    ("inc(1,3)", "x", []),
    ("sum(2,3,Z)", "Z", ["5"]),
    ("sum(2,3,5)", "x", ["x"]),
    ("sum(2,3,6)", "x", []),
    ("poly(3,5,Z)", "Z", ["21"]),
    ("poly(-2,1,Z)", "Z", ["-3"]),
    ("zero(1)", "x", ["x"]),
    ("zero(2)", "x", []),
]
# a goal of each guard's clause with one operand left to fill, and the
# guard as that goal runs it
GUARD_GOALS = [
    ("lt({},2)", "{} < 2"),
    ("gt(2,{})", "2 > {}"),
    ("le({},2)", "{} =< 2"),
    ("ge({},2)", "{} >= 2"),
    ("eq(3,{})", "3 =:= {}"),
    ("ne({},3)", "{} =\\= 3"),
    ("inc({},Y)", "Y is {}+1"),
    ("sum(1,{},Z)", "Z is 1+{}"),
    ("sum({},1,4)", "4 is {}+1"),
    ("poly({},1,Z)", "Z is -({})*({}-1)+3*1"),
    ("zero({})", "0 is {}*{}-{}"),
    ("lhs({})", "{}+1 is 3"),
]
# operands that are no integer, or an expression /, mod or sqrt take apart
OPERANDS = ["1+2", "_", "a", "f(1)", "[1]", "7/2", "-7 mod 2", "1/0", "integer(sqrt(10))"]


@pytest.fixture(scope="module")
def arith() -> Session:
    return Session(text=ARITH, prelude=False)


def test_an_integer_guard_calls_neither_eval_arith_nor_its_builtin(arith, monkeypatch):
    evaluated = []
    eval_arith = machine.eval_arith

    def counted(t):
        evaluated.append(t)
        return eval_arith(t)

    monkeypatch.setattr(machine, "eval_arith", counted)
    for goal, pattern, want in INTEGER_GOALS:
        assert answers_str(arith, pattern, goal) == want, goal
    assert evaluated == []
    # the same guards, called directly, evaluate through it
    assert answers_str(arith, "Z", "Z is -(3)*(3-5)+3*5") == ["21"]
    assert evaluated


def outcome(s: Session, pattern: str, goal: str):
    """The answers of goal and the kinds of the faults reported."""
    lines: list[str] = []
    s.on_error = lines.append
    try:
        return answers_str(s, pattern, goal), [line.split(": ")[1] for line in lines]
    finally:
        s.on_error = None


@pytest.mark.parametrize("operand", OPERANDS)
def test_a_guard_on_other_operands_answers_and_faults_as_its_call(arith, operand):
    operand = f"({operand})"
    for goal, guard in GUARD_GOALS:
        pattern = "Y" if "Y" in goal else "Z" if "Z" in goal else "x"
        got = outcome(arith, pattern, goal.format(operand))
        assert got == outcome(arith, pattern, f"call(({guard.format(*[operand] * 3)}))"), (goal, operand)


def test_an_integer_guard_at_every_position_of_an_expression(arith):
    # each leaf in turn is not an integer: the one test covers all of them
    assert outcome(arith, "Z", "poly(a,1,Z)") == ([], ["type_error"])
    assert outcome(arith, "Z", "poly(1,a,Z)") == ([], ["type_error"])
    assert outcome(arith, "Z", "poly(1,_,Z)") == ([], ["instantiation_error"])
    assert outcome(arith, "Z", "poly(1,1,Z)") == (["3"], [])


def test_is_with_a_compound_left_side_answers_as_its_call(arith):
    # unify fails on a compound and an integer, whatever the compound's value
    for goal, guard in [("lhs(2)", "2+1 is 3"), ("neg(2)", "-(2) is -2"), ("three", "1+2 is 3")]:
        assert outcome(arith, "x", goal) == outcome(arith, "x", f"call(({guard}))") == ([], []), goal


@pytest.mark.parametrize("name, arity", [("is", 2), ("<", 2), (">", 2), ("=<", 2), (">=", 2), ("=:=", 2), ("=\\=", 2)])
def test_a_builtin_replaced_before_the_session_is_called_once_per_guard(name, arity, monkeypatch):
    key = (Atom(name), arity)
    builtin, calls = machine.BUILTINS[key], []

    def counted(m, args, rest):
        calls.append(args)
        return builtin(m, args, rest)

    monkeypatch.setitem(machine.BUILTINS, key, counted)
    s = Session(text=ARITH, prelude=False)
    for goal, pattern, want in INTEGER_GOALS:
        assert answers_str(s, pattern, goal) == want, goal
    # one call for each goal above whose clause's guard is the builtin
    guard = {"<": "lt", ">": "gt", "=<": "le", ">=": "ge", "=:=": "eq", "=\\=": "ne"}
    clauses = guard[name] if name in guard else ("inc", "sum", "poly", "zero")
    assert len(calls) == sum(goal.startswith(clauses) for goal, _, _ in INTEGER_GOALS)


def test_the_arithmetic_of_the_prelude_generators_is_inline():
    # the is/2 and >/2 of these entries run as Python arithmetic: their
    # records' fn is called only where the guard's operands are no integers
    s = Session()
    fns = {s.db.pred((Atom(name), 2)).fn for name in ("is", ">")}
    keys = [("split_to_sum", 3), ("sum_choice", 4), ("positive_ints", 2), ("length_of", 2), ("+", 3)]
    for key in keys:
        p = s.db.pred((Atom(key[0]), key[1]))
        for q, c in candidate_lists(s):
            if q is not p:
                continue
            text, values = c.source(s.db)
            names = {f"k{i}" for i, v in enumerate(values) if any(v is fn for fn in fns)}
            tree = ast.parse(text)
            for node in ast.walk(tree):  # drop each fallback to the call
                if isinstance(node, ast.If) and "Int" in {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}:
                    node.orelse = []
            called = {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            assert names and not names & called, (key, text)


def test_a_slot_is_dereferenced_once_per_clause():
    # N>1,N1 is N-1 and N>0,M is N-1 read N's value through one temporary,
    # each guard keeping its own Int test, and the list of the call after
    # them is selected from N1's or M's value, dereferenced once
    s = Session()
    for name in ("positive_ints", "length_of"):
        p = s.db.pred((Atom(name), 2))
        assert len(p.index[1]) == 1  # the recursive clause alone
        text = p.index[1].source(s.db)[0]
        loops = re.findall(r"(a\d+) = v(\d+)\n\s*while type\(\1\) is Var:\n", text)
        assert sorted(int(v) for _, v in loops) == [0, 3 if name == "length_of" else 2], text
        n = loops[0][0]
        assert text.count(f"if type({n}) is Int:") == 2, text


# -- engine builtins at the neck ----------------------------------------------------

ENGINE_GUARDS = {"new_engine": 3, "to_engine": 2, "from_engine": 1}


@pytest.fixture
def engine_guard_callers(monkeypatch):
    """Each call of a new_engine, to_engine or from_engine record's fn,
    in call order, as (name, caller): a generated entry's code name, such
    as <if/3 entry>, or the calling function's name, such as _run."""
    calls = []
    for name, arity in ENGINE_GUARDS.items():
        key = (Atom(name), arity)

        def spy(m, args, rest, name=name, fn=machine.BUILTINS[key]):
            code = sys._getframe(1).f_code
            calls.append((name, code.co_filename if code.co_name == "run" else code.co_name))
            return fn(m, args, rest)

        monkeypatch.setitem(machine.BUILTINS, key, spy)
    return calls


@pytest.mark.parametrize(
    "pattern, goal, want, called",
    [
        ("x", "if(true,true,fail)", ["x"], [("new_engine", "<if/3 entry>")]),
        ("x", "not(fail)", ["x"], [("new_engine", "<if/3 entry>")]),
        ("x", "catch(true,_,fail)", ["x"], [("new_engine", "<catch/3 entry>")]),
        ("L", "findall(X,member(X,[a,b]),L)", ["[a,b]"], [("new_engine", "<findall/3 entry>")]),
        (
            "R",
            "(new_engine(_,sum_loop(0),E),ask_engine(E,(S1=>S2:-S2 is S1+2),R))",
            ["the(0=>2)"],
            [("new_engine", "_run"), ("to_engine", "<ask_engine/3 entry>"), ("from_engine", "<engine_yield/1 entry>")],
        ),
        (
            "x",
            "(new_edb(Db),edb_assertz(Db,(a:-true)))",
            ["x"],
            [
                ("new_engine", "<new_edb/1 entry>"),
                ("to_engine", "<ask_engine/3 entry>"),
                ("from_engine", "<queue_server/2 entry>"),
            ],
        ),
    ],
)
def test_engine_builtins_run_at_the_neck_once_per_goal(pattern, goal, want, called, engine_guard_callers):
    # each is one call of its record's fn, made inside the entry of the
    # clause it starts; only a goal of the query itself is run by _run
    s = Session()
    assert answers_str(s, pattern, goal) == want
    assert engine_guard_callers == called


NECK_ENGINES = """
spawn(E,a):-new_engine(x,true,E),fail.
spawn(E,b):-new_engine(y,true,E).
take(X,first):-from_engine(X),X==none.
take(X,second):-from_engine(X).
"""
# the same clauses, with each engine builtin past a call that is no guard
PAST_THE_NECK = NECK_ENGINES.replace(":-", ":-call(true),")


@pytest.mark.parametrize("program", [NECK_ENGINES, PAST_THE_NECK])
def test_an_engine_builtin_at_the_neck_of_a_failed_candidate_acts_as_past_it(program):
    # a candidate that fails after its engine builtin still booted an
    # engine or took a copy: ids and mailbox order are as a choice point
    # and a backtrack give them
    s = Session(text=program, prelude=False)
    e = s.new_engine("X-W-E-F-G-Y-V", "(take(X,W),spawn(E,F),get(E,G),take(Y,V))")
    for item in "abcde":
        e.to_engine(Atom(item))
    assert write_term(e.get().value) == f"b-second-'$engine'({e.id + 2})-b-the(y)-d-second"
    assert s.last_id == e.id + 2
    assert list(e.mailbox) == [Atom("e")]
    assert e.get() is machine.NO


# -- register loops and output lists built once -----------------------------------


def fused_lists(s: Session) -> list[tuple[str, int, object]]:
    """(name, arity, key) of each list of s whose entry builds its output
    list once: key is its index key, or "unkeyed" or "all"."""
    out = []
    for p, c in candidate_lists(s):
        if "cells.append(" in c.source(s.db)[0]:
            table, unkeyed = p.index or ({}, None)
            key = next((k for k, v in table.items() if v is c), "unkeyed" if c is unkeyed else "all")
            out.append((p.key[0].name, p.key[1], key))
    return sorted(out, key=repr)


def test_the_prelude_entries_that_fuse():
    s = Session()
    assert fused_lists(s) == [
        ("append", 3, (Atom("."), 2)),
        ("length_of", 2, "unkeyed"),
        ("positive_ints", 2, "unkeyed"),
    ]


@pytest.mark.parametrize("form", ["inline", "lookup"])
def test_no_entry_compares_a_selection_with_the_same_constant(form, monkeypatch):
    # a loop whose call always selects its own list goes round with no
    # test, as member/2's and select_nonvar/3's do
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    if form == "lookup":
        monkeypatch.setattr(Database, "lookup", lambda db, pred, args: machine._LOOKUP(db, pred, args))
    same = re.compile(r"candidates = (k\d+)\n *if candidates is not \1:")
    texts = [None, *(w.program for w in workloads.Workload.__subclasses__())]
    found = set()
    for text in texts:
        s = Session(text=text)
        for p, c in candidate_lists(s):
            if same.search(c.source(s.db)[0]):
                found.add(f"{p.key[0].name}/{p.key[1]}")
    assert not found


def test_app_over_a_hundred_thousand_elements_makes_a_constant_number_of_variables():
    n = 100_000
    s = Session(text=NREV, prelude=False)
    out = Var()
    goal = Struct("app", (make_list([Int(i) for i in range(n)]), make_list([Int(n)]), out))
    before = machine.next_stamp()
    (got,) = s.answers(out, goal)
    assert machine.next_stamp() - before < 100  # one per round before
    elems, tail = list_parts(got)
    assert [deref(e).value for e in elems] == list(range(n + 1)) and write_term(tail) == "[]"


def test_length_of_a_hundred_thousand_makes_a_variable_per_element_only():
    n = 100_000
    s = Session()
    before = machine.next_stamp()
    (got,) = s.answers("L", f"length(L,{n})")
    # each element is a variable, made once in the loop and once by the
    # answer's copy; the loop made a second, for the list's tail, per round
    assert machine.next_stamp() - before - 2 * n < 100
    elems, tail = list_parts(got)
    assert len({id(deref(e)) for e in elems}) == n and all(type(deref(e)) is Var for e in elems)
    assert write_term(tail) == "[]"


def test_positive_ints_makes_a_constant_number_of_variables():
    s = Session()
    before = machine.next_stamp()
    (got,) = s.answers("L", "positive_ints(2000,L)")
    assert machine.next_stamp() - before < 100
    elems, tail = list_parts(got)
    assert [deref(e).value for e in elems] == list(range(2000, 0, -1)) and write_term(tail) == "[]"


FUSED = NREV + """
pos([],[]).
pos([X|Xs],[X|Ys]):-X>0,pos(Xs,Ys).
q([],[]).
q([X|Xs],[a|Ys]):-X>0,q(Xs,Ys).
"""
# (pattern, goal, its first three answers, its faults) as the entries
# before fused loops gave them, with variables renamed _0, _1, ... in order:
# output lists bound or partly bound, open input lists that end a loop
# mid-list, an output variable that is also an element of the input
# (checked with ==, as the list is cyclic), and guard operands that leave
# the integer path mid-loop, with the list built so far in the culprit
FUSED_GOALS = [
    ("x", "app([a,b],[c],[a,b,c])", ["x"], []),
    ("x", "app([a,b],[c],[a,b,d])", [], []),
    ("T", "app([a,b],[c],[a|T])", ["[b,c]"], []),
    ("X-Y-T", "app([a,b],[c],[X,Y|T])", ["a-b-[c]"], []),
    ("x", "positive_ints(3,[3,2,1])", ["x"], []),
    ("X-T", "positive_ints(3,[3,X|T])", ["2-[1]"], []),
    ("x", "positive_ints(3,[3,1|_])", [], []),
    ("L", "length(L,3)", ["[_0,_1,_2]"], []),
    ("x", "length([a,b,c],3)", ["x"], []),
    ("x", "length([a,b],3)", [], []),
    ("L", "length([a|L],3)", ["[_0,_1]"], []),
    ("R-T", "app([a,b|T],[c],R)", ["[a,b,c]-[]", "[a,b,_0,c]-[_0]", "[a,b,_1,_2,c]-[_1,_2]"], []),
    ("R-T", "append([a,b|T],[c],R)", ["[a,b,c]-[]", "[a,b,_0,c]-[_0]", "[a,b,_1,_2,c]-[_1,_2]"], []),
    ("A-C", "app([a,R],[c],R),R=[A,B,C],B==R", ["a-c"], []),
    ("A-C", "append([a,R],[c],R),R=[A,B,C],B==R", ["a-c"], []),
    ("A-B", "app([a,b,R,d],[e],R),R=[A,B,X|_],X==R", ["a-b"], []),
    ("L", "pos([1,2,a,3],L)", [], ["type_error: a"]),
    ("L", "q([1,2,f(L),3],L)", [], ["type_error: f([a,a,a|_0])"]),
    ("L", "q([1,2,3],L)", ["[a,a,a]"], []),
    ("L", "pos([1,2,_,3],L)", [], ["instantiation_error: _0"]),
    ("L", "positive_ints(a,L)", [], ["type_error: a"]),
    ("L", "length(L,a)", [], ["type_error: a"]),
]


def renamed_vars(text: str, names: dict) -> str:
    return re.sub(r"_G\d+", lambda m: names.setdefault(m.group(), f"_{len(names)}"), text)


def test_fused_loops_answer_and_fault_as_before():
    s = Session(text=FUSED)
    assert ("pos", 2, (Atom("."), 2)) in fused_lists(s) and ("q", 2, (Atom("."), 2)) in fused_lists(s)
    for pattern, goal, answers, faults in FUSED_GOALS:
        lines: list[str] = []
        s.on_error = lines.append
        names: dict = {}
        got = [renamed_vars(write_term(v), names) for v in s.answers(pattern, goal, limit=3)]
        assert (got, [renamed_vars(line.split(": ", 1)[1], names) for line in lines]) == (answers, faults), goal


# -- first-call compilation under threads -----------------------------------------

STRESS = NREV + """
pairs([],[]).
pairs([X|Xs],[p(X,f([X]))|Ps]):-pairs(Xs,Ps).
job(I,H):-findall(X,between(1,I,X),L),nrev(L,R),pairs(R,P),put(H,done(I,R,P)).
"""


def test_threads_compile_shared_clauses_on_their_first_calls():
    s = Session(text=STRESS)
    hub = s.hub(20000)
    sizes = [20 + i for i in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [s.bg(Struct("job", (Int(n), hub.term))) for n in sizes]
        got = [hub.collect() for _ in sizes]
    finally:
        sys.setswitchinterval(switch)
    for t in threads:
        t.thread.join(timeout=20)
        assert not t.thread.is_alive()
    assert s.error_count == 0
    expect = {}
    for n in sizes:
        r = ",".join(str(i) for i in range(n, 0, -1))
        p = ",".join(f"p({i},f([{i}]))" for i in range(n, 0, -1))
        expect[n] = f"done({n},[{r}],[{p}])"
    assert {deref(t).args[0].value: write_term(t) for t in got if t is not None} == expect
