"""Clauses compiled to Python functions on their first call."""

from __future__ import annotations

import ast
import re
import sys
import traceback

import pytest

from hornlog import Atom, Int, Session, Struct, Var, deref, make_list, parse_term, write_term
from hornlog.machine import Database
from hornlog.terms import list_parts

from conftest import answers_str

NREV = """
nrev([],[]).
nrev([H|T],R):-nrev(T,RT),app(RT,[H],R).
app([],L,L).
app([H|T],L,[H|R]):-app(T,L,R).
"""


def clauses(s: Session, name: str, arity: int):
    return s.db.pred((Atom(name), arity)).clauses


# -- compiled on the first call, named after the clause ------------------------


def test_session_construction_compiles_no_clause():
    s = Session(text=NREV)
    assert all(cl.run is None for p in s.db._preds.values() for cl in p.clauses or ())
    assert answers_str(s, "R", "nrev([1,2,3],R)") == ["[3,2,1]"]
    assert all(cl.run is not None for cl in clauses(s, "app", 3) + clauses(s, "nrev", 2))
    assert all(cl.run is None for cl in clauses(s, "member", 2))


def test_generated_code_is_named_after_its_predicate_and_line():
    s = Session(text=NREV, prelude=False)
    assert answers_str(s, "R", "nrev([1,2],R)") == ["[2,1]"]
    files = [cl.run.__code__.co_filename for cl in clauses(s, "app", 3)]
    assert files == ["<app/3 at <text>:4>", "<app/3 at <text>:5>"]
    db = Database()
    db.add(parse_term("late(1)"), parse_term("true"))  # no origin
    (cl,) = db.pred((Atom("late"), 1)).clauses
    assert cl.compile().__code__.co_filename == "<late/1>"


def test_traceback_names_the_clause():
    s = Session(text="p(X):-q(X).\nq(1).\n", prelude=False)
    (cl,) = clauses(s, "p", 1)
    run = cl.compile()
    with pytest.raises(ValueError) as e:
        run((), None, None, 0)  # a wrong argument count fails in the generated code
    assert traceback.extract_tb(e.value.__traceback__)[-1].filename == "<p/1 at <text>:1>"


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


# names of the generated code besides its numbered temporaries and
# closure values: its functions and parameters, the goal chain, and globals
IDENTIFIERS = {"make", "run", "args", "trail", "rest", "barrier", "g", "Var", "Struct", "new", "bind", "unify", "len", "type"}


def test_generated_source_of_every_prelude_clause_holds_no_term():
    s = Session()
    count = 0
    for pred in s.db._preds.values():
        for cl in pred.clauses or ():
            text, values = cl.source()
            tree = ast.parse(text)
            arities = _arity_checks(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    assert node.value is None or type(node.value) is bool or id(node) in arities, text
            for node in ast.walk(tree):
                name = node.id if isinstance(node, ast.Name) else node.arg if isinstance(node, ast.arg) else None
                assert name is None or re.fullmatch(r"[kvab]\d+", name) or name in IDENTIFIERS, name
            count += 1
    assert count > 50


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


def test_clause_with_a_ten_thousand_element_list_in_the_body():
    n = 10000
    xs = ",".join(f"X{i}" for i in range(n))
    s = Session(text=f"b(L):-q([{xs}],L).\nq(L,L).\n", prelude=False)
    lst = Var()
    (got,) = s.answers(lst, Struct("b", (lst,)))
    elems, tail = list_parts(got)
    assert len(elems) == n and write_term(tail) == "[]"
    assert len({id(deref(e)) for e in elems}) == n


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
