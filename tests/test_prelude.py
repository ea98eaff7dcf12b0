from __future__ import annotations

import random
import sys
import threading

import pytest

from hornlog import Session, write_term

from conftest import answers_str


# -- ask/yield protocol ---------------------------------------------------------


def test_inc_test_paper_values(base):
    got = answers_str(base, "R1-R2", "inc_test(R1,R2)")
    assert got == ["the(0=>2)-the(2=>7)"]


def test_ask_engine_injected_goal_success(base):
    got = answers_str(
        base,
        "R",
        "(new_engine(_,sum_loop(0),E), ask_engine(E,(S1=>S2:-S2 is S1+1),R))",
    )
    assert got == ["the(0=>1)"]


def test_ask_engine_injected_failing_goal_fast_fails(base):
    # failure of the injected goal exhausts the whole engine; afterwards the
    # engine is dead, so even sending to it reports failure
    got = answers_str(
        base,
        "R1-D",
        "(new_engine(_,sum_loop(0),E),"
        " ask_engine(E,(S1=>S2:-fail),R1),"
        " if(to_engine(E,anything),D=alive,D=dead))",
    )
    assert got == ["no-dead"]


# -- folds -----------------------------------------------------------------------


def test_efoldl_sum(base):
    # oracle: 1+2+3 = 6
    got = answers_str(base, "R", "(new_engine(X,member(X,[1,2,3]),E),efoldl(E,+,0,R))")
    assert got == ["6"]


def test_efoldl_empty_generator_keeps_acc(base):
    got = answers_str(base, "R", "(new_engine(X,fail,E),efoldl(E,+,42,R))")
    assert got == ["42"]


def test_reverse_as_fold(base):
    assert answers_str(base, "Ys", "reverse([1,2,3],Ys)") == ["[3,2,1]"]
    assert answers_str(base, "Ys", "reverse([],Ys)") == ["[]"]


def test_efoldl_cons_equals_findall_plus_foldl(base):
    rng = random.Random(5)
    for _ in range(40):
        xs = [rng.randint(0, 9) for _ in range(rng.randint(0, 7))]
        goal = f"member(X,{xs})"
        folded = base.first("R", f"(new_engine(X,{goal},E),efoldl(E,reverse_cons,[],R))")
        via_findall = base.first("Xs", f"findall(X,{goal},Xs)")
        # fold-left with cons reverses; compare against the python fold of the list
        items = [v.value for v in _list_items(via_findall)]
        acc: list = []
        for x in items:
            acc = [x] + acc
        assert [v.value for v in _list_items(folded)] == acc


def _list_items(t):
    from conftest import list_parts

    items, tail = list_parts(t)
    return items


# -- findall ----------------------------------------------------------------------


def test_findall_examples(base):
    assert answers_str(base, "Xs", "findall(X,member(X,[a,b]),Xs)") == ["[a,b]"]
    assert answers_str(base, "Xs", "findall(X,fail,Xs)") == ["[]"]
    got = answers_str(base, "L", "findall(X-Y,(member(X,[1,2]),member(Y,[a])),L)")
    assert got == ["[1-a,2-a]"]


def test_findall_matches_reference_enumeration(base):
    rng = random.Random(17)
    for _ in range(50):
        xs = [rng.randint(0, 5) for _ in range(rng.randint(0, 6))]
        expected = list(xs)
        got = base.first("Xs", f"findall(X,member(X,{xs}),Xs)")
        assert [v.value for v in _list_items(got)] == expected


# -- if_any / if -------------------------------------------------------------------


def test_if_any_then_per_answer(base):
    assert answers_str(base, "Y", "if_any(member(X,[1,2]),Y=X,Y=0)") == ["1", "2"]


def test_if_any_else_on_empty_cond(base):
    assert answers_str(base, "Y", "if_any(fail,_,Y=0)") == ["0"]


def test_if_any_else_not_tried_after_cond_success(base):
    assert answers_str(base, "Y", "if_any(member(X,[1]),fail,Y=0)") == []


def test_if_first_solution_only(base):
    assert answers_str(base, "R", "if(member(X,[1,2]),R=X,R=none)") == ["1"]
    assert answers_str(base, "R", "if(fail,R=1,R=none)") == ["none"]


def test_if_nondeterministic_then(base):
    got = answers_str(base, "R", "if(member(X,[1,2]),member(R,[X,X]),R=none)")
    assert got == ["1", "1"]


def test_not_via_if(base):
    assert answers_str(base, "X", "(X=ok,not(fail))") == ["ok"]
    assert answers_str(base, "X", "(X=ok,not(true))") == []
    assert answers_str(base, "X", "(X=ok,not(member(_,[1])))") == []


# -- best_of ------------------------------------------------------------------------


def test_best_of_paper_example(base):
    assert answers_str(base, "X", "best_of(X,>,member(X,[2,1,4,3]))") == ["4"]


def test_best_of_min(base):
    assert answers_str(base, "X", "best_of(X,<,member(X,[2,1,4,3]))") == ["1"]


def test_best_of_empty_generator_yields_no(base):
    assert answers_str(base, "X", "best_of(X,>,fail)") == ["no"]


def test_best_of_matches_oracle_on_random_lists(base):
    rng = random.Random(23)
    for _ in range(25):
        xs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
        assert base.first("X", f"best_of(X,>,member(X,{xs}))").value == max(xs)
        assert base.first("X", f"best_of(X,<,member(X,{xs}))").value == min(xs)


# -- partitions ----------------------------------------------------------------------


def partition_count_oracle(n: int) -> int:
    # independent brute force: count partitions as nonincreasing part lists
    def count(n, maxp):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(min(n, maxp), 0, -1))

    return count(n, n)


def test_partition_oracle_known_values():
    assert partition_count_oracle(1) == 1
    assert partition_count_oracle(5) == 7
    assert partition_count_oracle(10) == 42


def test_count_partitions_small(base):
    assert base.first("R", "count_partitions(1,R)").value == 1
    assert base.first("R", "count_partitions(5,R)").value == partition_count_oracle(5)
    assert base.first("R", "count_partitions(10,R)").value == partition_count_oracle(10)


def test_integer_partition_of_enumerates_each_once(base):
    got = answers_str(base, "Ps", "integer_partition_of(4,Ps)")
    assert got == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]


# -- primes / streams ------------------------------------------------------------------


def primes_oracle(n: int) -> list[int]:
    out, k = [], 2
    while len(out) < n:
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            out.append(k)
        k += 1
    return out


def test_prime_stream_first_values(base):
    got = [v.value for v in base.answers("P", "prime(P)", limit=25)]
    assert got == primes_oracle(25)


def test_loop_stream(base):
    e = base.new_engine("_", "loop(0)")
    got = [e.get().value.value for _ in range(3)]
    e.stop()
    assert got == [0, 1, 2]


def test_element_of_streams_engine_answers(base):
    got = answers_str(base, "X", "(new_engine(A,member(A,[x,y,z]),E),element_of(E,X))")
    assert got == ["x", "y", "z"]


# -- exceptions --------------------------------------------------------------------------


def test_catch_matching_exception(base):
    assert answers_str(base, "R", "catch(throw(boom),boom,R=caught)") == ["caught"]


def test_catch_passes_answers_through(base):
    assert answers_str(base, "X", "catch(member(X,[1,2]),_,fail)") == ["1", "2"]


def test_catch_rethrows_to_outer(base):
    got = answers_str(base, "R", "catch(catch(throw(other),boom,R=inner),other,R=outer)")
    assert got == ["outer"]


def test_uncaught_throw_surfaces_as_exception_answer(base):
    e = base.new_engine("X", "(X=1,throw(kaboom))")
    ans = e.get()
    assert write_term(ans.value) == "exception(kaboom)"
    e.stop()


def test_catch_exception_binding_flows_to_handler(base):
    got = answers_str(base, "R", "catch(throw(oops(7)),oops(N),R=got(N))")
    assert got == ["got(7)"]


def test_catch_failing_goal_fails(base):
    assert answers_str(base, "R", "catch(fail,_,R=handled)") == []


def test_catch_forwards_an_unbound_yield_as_an_answer(base):
    # the goal's yield of a variable and then its own answer: neither is
    # bound to exception(_) and handled
    assert len(base.answers("X", "catch(return(X),_,fail)")) == 2


def test_catch_handler_answers_are_all_answers_of_catch(base):
    assert answers_str(base, "X", "catch(throw(a),a,member(X,[1,2]))") == ["1", "2"]


def test_a_cut_in_the_handler_is_transparent(base):
    # a cut reached through a metacall is transparent in hornlog, so the
    # handler's own member/2 keeps its second answer...
    assert answers_str(base, "X", "catch(throw(a),a,(member(X,[1,2]),!))") == ["1", "2"]
    # ...and it never prunes a choice point made before catch/3
    got = answers_str(base, "Y", "(member(Y,[p,q]),catch(throw(a),a,!))")
    assert got == ["p", "q"]


def test_an_inner_catch_that_does_not_match_passes_the_throw_on(base):
    got = answers_str(base, "X", "catch(catch(throw(f(1)),g(_),true),f(X),true)")
    assert got == ["1"]


def test_an_answer_of_a_user_exception_fact_is_caught_as_a_throw():
    # a throw is a yield of exception(E), so an answer of the goal
    # exception(z) cannot be told from throw(z): catch/3 handles it
    s = Session(text="exception(z).")
    assert answers_str(s, "E", "catch(exception(z),E,true)") == ["z"]


@pytest.mark.parametrize(
    "goal, spawned",
    [
        ("catch(member(X,[a,b]),_,true)", 1),
        ("catch(throw(x),x,true)", 1),
        ("catch(throw(x),y,true)", 1),
        ("catch(catch(throw(x),y,true),x,true)", 2),
        ("not(true)", 1),
        ("findall(X,member(X,[a,b]),L)", 1),
    ],
)
def test_engines_spawned_per_construct(goal, spawned):
    # catch/3 runs its goal in one engine and tells an exception from an
    # answer by clause selection: no engine per answer or per throw
    s = Session()
    before = s.last_id
    s.answers("X", goal)
    assert s.last_id - before - 1 == spawned  # less the query's own engine


NESTED = """
ns(0).
ns(N):-N>0,N1 is N-1,not(nf(N1)).
nf(N):-N>0,N1 is N-1,not(ns(N1)).
dc(0).
dc(N):-N>0,N1 is N-1,catch(dc(N1),_,true).
df(0).
df(N):-N>0,N1 is N-1,findall(x,df(N1),[x]).
"""


@pytest.mark.parametrize("pred", ["ns", "dc", "df"])
def test_constructs_nested_240_deep_answer_once(pred):
    # a nested get recurses on the host stack: 240 levels of not/1,
    # catch/3 or findall/3 fit a recursion limit of 1000 (the first
    # RecursionError is at about 247), and one more host frame per level
    # would not. The query runs on a fresh thread, so the test's own
    # stack depth does not count.
    s = Session(text=NESTED)
    got = []

    def run():
        try:
            got.append(answers_str(s, "ok", f"{pred}(240)"))
        except RecursionError as e:
            got.append(e)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = threading.Thread(target=run)
        t.start()
        t.join()
    finally:
        sys.setrecursionlimit(limit)
    assert got == [["ok"]]


# -- dynamic database ----------------------------------------------------------------------


def test_test_clause_scenario(base):
    # hand simulation of the queue: asserta prepends, assertz appends
    vals = base.answers("H-B", "test_clause(H,B)")
    shown = [write_term(v) for v in vals]
    assert shown[0] == "a(1)-true"
    assert shown[1] == "a(2)-true"
    assert len(shown) == 3 and shown[2].startswith("b(_G")
    # the third clause shares its variable between head and body
    third = vals[2]
    from hornlog.terms import deref

    h, b = deref(third).args
    assert deref(deref(h).args[0]) is deref(deref(b).args[0])


def test_edb_clause_on_empty_db_fails(base):
    assert answers_str(base, "H-B", "(new_edb(Db),edb_clause(Db,H,B))") == []


def test_edb_retract_absent_head_fails_softly(base):
    got = answers_str(
        base,
        "R",
        "(new_edb(Db),"
        " edb_assertz(Db,(a(1):-true)),"
        " if(edb_retract1(Db,zzz),R=removed,R=kept),"
        " edb_assertz(Db,(a(2):-true)),"
        " findall(H,edb_clause(Db,H,_),Hs),"
        " Hs=[a(1),a(2)])",
    )
    assert got == ["kept"]


def test_edb_retract_removes_first_match(base):
    got = answers_str(
        base,
        "Hs",
        "(new_edb(Db),"
        " edb_assertz(Db,(p(1):-true)),"
        " edb_assertz(Db,(p(2):-true)),"
        " edb_assertz(Db,(p(1):-true)),"
        " edb_retract1(Db,p(1)),"
        " findall(H,edb_clause(Db,H,_),Hs))",
    )
    assert got == ["[p(2),p(1)]"]


def test_edb_delete_stops_server(base):
    got = answers_str(
        base,
        "R",
        "(new_edb(Db),edb_assertz(Db,(p(1):-true)),edb_delete(Db),"
        " if(edb_assertz(Db,(p(2):-true)),R=alive,R=dead))",
    )
    assert got == ["dead"]


class _DbModel:
    """Reference list model for the queue-served clause store."""

    def __init__(self):
        self.clauses: list[tuple[str, int]] = []

    def assertz(self, c):
        self.clauses.append(c)

    def asserta(self, c):
        self.clauses.insert(0, c)

    def retract1(self, head) -> bool:
        for i, c in enumerate(self.clauses):
            if c == head:
                del self.clauses[i]
                return True
        return False


def test_randomized_db_ops_match_list_model(base):
    rng = random.Random(4242)
    handle = write_term(base.first("E", "new_edb(E)"))
    model = _DbModel()
    ops = 0
    for round_no in range(25):
        for _ in range(45):
            ops += 1
            k = rng.randint(0, 6)
            clause = f"(p({k}):-true)"
            op = rng.random()
            if op < 0.45:
                assert base.first("X", f"(edb_assertz({handle},{clause}),X=ok)") is not None
                model.assertz(("p", k))
            elif op < 0.7:
                assert base.first("X", f"(edb_asserta({handle},{clause}),X=ok)") is not None
                model.asserta(("p", k))
            else:
                removed = base.first("X", f"(edb_retract1({handle},p({k})),X=ok)")
                assert (removed is not None) == model.retract1(("p", k))
        got = answers_str(base, "H", f"edb_clause({handle},H,_)")
        expected = [f"p({k})" for _, k in model.clauses]
        assert got == expected
    assert ops >= 1000


def test_db_interleaved_engines_stay_independent(base):
    got = answers_str(
        base,
        "H1-H2",
        "(new_edb(D1),new_edb(D2),"
        " edb_assertz(D1,(x(1):-true)),"
        " edb_assertz(D2,(y(9):-true)),"
        " edb_clause(D1,H1,_),edb_clause(D2,H2,_))",
    )
    assert got == ["x(1)-y(9)"]
