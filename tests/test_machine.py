from __future__ import annotations

import pytest

from hornlog import (
    EXHAUSTED,
    AnswerReady,
    Atom,
    Int,
    MachineError,
    MachineFault,
    Machine,
    Session,
    Var,
    Yielded,
    eval_arith,
    parse_term,
    variant,
    write_term,
)
from hornlog.machine import Exhausted


def machine(base: Session, pattern, goal) -> Machine:
    if isinstance(pattern, str):
        spec = parse_term(f"'$spec'(({pattern}),({goal}))")
        pattern, goal = spec.args
    return Machine(base, base.db, pattern, goal)


def events(m: Machine, n: int):
    return [m.resume() for _ in range(n)]


def test_member_event_sequence(base):
    m = machine(base, "X", "member(X,[1,2])")
    evs = events(m, 4)
    assert type(evs[0]) is AnswerReady and evs[0].value.value == 1
    assert type(evs[1]) is AnswerReady and evs[1].value.value == 2
    assert evs[2] is EXHAUSTED and evs[3] is EXHAUSTED


def test_loop_yields(base):
    m = machine(base, "_", "loop(0)")
    evs = events(m, 3)
    assert [type(e) for e in evs] == [Yielded] * 3
    assert [e.value.value for e in evs] == [0, 1, 2]


def test_fail_exhausts_immediately(base):
    m = machine(base, "X", "fail")
    assert m.resume() is EXHAUSTED


def test_exhaustion_absorbing(base):
    m = machine(base, "X", "member(X,[1])")
    seen_no = False
    for _ in range(10):
        ev = m.resume()
        if seen_no:
            assert ev is EXHAUSTED
        if ev is EXHAUSTED:
            seen_no = True
    assert seen_no


def test_boot_rejects_variable_and_integer_goal(base):
    with pytest.raises(MachineFault) as e:
        Machine(base, base.db, Var(), Var())
    assert e.value.kind == "type_error"
    with pytest.raises(MachineFault) as e:
        Machine(base, base.db, Var(), Int(7))
    assert e.value.kind == "type_error"


def test_boot_is_lazy(base):
    m = machine(base, "X", "member(X,[1])")
    assert m.status == "ready"  # nothing executed yet


def test_boot_copies_pattern_and_goal_jointly(base):
    # hand trace: pattern A-B must share A,B with the goal copy
    s = Session(text="q(1,2).")
    m = machine(s, "A-B", "q(A,B)")
    ev = m.resume()
    assert write_term(ev.value) == "1-2"


def test_answers_are_standalone_copies(base):
    # binding variables of a returned answer never changes later events
    from hornlog import Trail, unify

    m = machine(base, "X-Y", "member(X-Y,[1-A,2-B])")
    first = m.resume().value
    unify(first, parse_term("1-mangled"), Trail())
    second = m.resume().value
    assert write_term(second).startswith("2-_G")


def test_deposit_fifo(base):
    m = machine(base, "A-B", "(from_engine(A),from_engine(B))")
    assert m.deposit(Atom("x"))
    assert m.deposit(Atom("y"))
    ev = m.resume()
    assert write_term(ev.value) == "x-y"


def test_deposit_to_dead_machine_reports_failure(base):
    m = machine(base, "X", "true")
    m.kill()
    assert m.deposit(Atom("x")) is False


def test_from_engine_on_empty_mailbox_kills(base):
    m = machine(base, "X", "from_engine(X)")
    ev = m.resume()
    assert type(ev) is MachineError and ev.kind == "mailbox_empty"
    assert m.dead
    assert m.resume() is EXHAUSTED


def test_kill_idempotent_and_total(base):
    m = machine(base, "X", "member(X,[1,2,3])")
    m.resume()
    m.kill()
    m.kill()
    assert m.resume() is EXHAUSTED
    fresh = machine(base, "X", "member(X,[1])")
    fresh.kill()  # never run
    assert fresh.dead and fresh.resume() is EXHAUSTED


def test_unknown_predicate_error(base):
    m = machine(base, "X", "no_such_thing(X)")
    ev = m.resume()
    assert type(ev) is MachineError and ev.kind == "unknown_predicate"
    assert write_term(ev.culprit) == "no_such_thing/1"


def test_runtime_unbound_goal_is_instantiation_error(base):
    m = machine(base, "X", "call(X)")
    ev = m.resume()
    assert type(ev) is MachineError and ev.kind == "instantiation_error"


def test_determinacy_same_inputs_same_events(base):
    def trace():
        m = machine(base, "X", "(member(X,[1,2]),member(X,[2,3]))")
        out = []
        while True:
            ev = m.resume()
            out.append(ev)
            if ev is EXHAUSTED:
                return out

    t1, t2 = trace(), trace()
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert type(a) is type(b)
        if type(a) is AnswerReady:
            assert variant(a.value, b.value)


def test_suspension_transparency(base):
    # unrelated work between resumes does not change the event sequence
    m1 = machine(base, "X", "member(X,[5,6,7])")
    m2 = machine(base, "X", "member(X,[5,6,7])")
    plain = [m1.resume() for _ in range(4)]
    inter = []
    for _ in range(4):
        machine(base, "Y", "member(Y,[1,2,3])").resume()
        inter.append(m2.resume())
    for a, b in zip(plain, inter):
        assert type(a) is type(b)
        if type(a) is AnswerReady:
            assert variant(a.value, b.value)


# -- cut ---------------------------------------------------------------------


def test_cut_prunes_own_alternatives(base):
    s = Session(text="p(X):-member(X,[1,2]),!. p(9).")
    assert [v.value for v in s.answers("X", "p(X)")] == [1]


def test_cut_is_local_to_the_clause(base):
    # the caller's other alternatives survive a cut inside the callee
    s = Session(text="p(X):-member(X,[1,2]),!. p(9). q(Y-X):-member(Y,[a,b]),p(X).")
    got = [write_term(v) for v in s.answers("R", "q(R)")]
    assert got == ["a-1", "b-1"]


def test_cut_via_server_task_remove(base):
    # at most one solution per call
    got = [write_term(v) for v in base.answers("N-Y", "server_task_remove([a,b],N,Y)")]
    assert got == ["[b]-yes(a)"]
    got = [write_term(v) for v in base.answers("N-Y", "server_task_remove(Open,N,Y)")]
    assert len(got) == 1 and got[0].endswith("no")


def test_metacalled_cut_is_transparent(base):
    assert [v.value for v in base.answers("X", "(member(X,[1,2]),call(!))")] == [1, 2]


# -- builtins -----------------------------------------------------------------


def test_structural_equality_builtins(base):
    assert base.answers("X", "(X=f(Y),X==f(Y))") != []
    assert base.answers("X", "(X\\==Y)") != []
    assert base.answers("X", "(X==Y)") == []


def test_var_nonvar(base):
    assert base.first("X", "(var(X))") is not None
    assert base.answers("X", "(X=1,var(X))") == []
    assert base.answers("X", "nonvar(X)") == []
    assert base.first("X", "(X=f(_),nonvar(X))") is not None


def test_call_n_adds_arguments(base):
    s = Session(text="add3(A,B,C,S):-S is A+B+C.")
    assert s.first("R", "call(add3(1),2,3,R)").value == 6
    assert s.first("R", "call(add3,1,2,30,R)").value == 33


def test_between_generator_and_check(base):
    assert [v.value for v in base.answers("X", "between(2,5,X)")] == [2, 3, 4, 5]
    assert base.first("X", "(X=3,between(1,5,X))").value == 3
    assert base.answers("X", "(X=9,between(1,5,X))") == []
    assert base.answers("X", "between(3,2,X)") == []
    assert [v.value for v in base.answers("X", "between(4,4,X)")] == [4]


def test_comparison_builtins(base):
    assert base.first("X", "(X=1, 1+1 =:= 2)") is not None
    assert base.answers("X", "(X=1, 1 =\\= 1)") == []
    assert base.first("X", "(X=1, 1 < 2, 2 > 1, 1 =< 1, 2 >= 2)") is not None


# -- arithmetic ----------------------------------------------------------------


def test_eval_arith_basics():
    assert eval_arith(parse_term("0+2")) == 2
    assert eval_arith(parse_term("7 mod 2")) == 1
    assert eval_arith(parse_term("2*3+4")) == 10
    assert eval_arith(parse_term("-(3)")) == -3
    assert eval_arith(parse_term("7/2")) == 3
    assert eval_arith(parse_term("-7/2")) == -3  # truncation toward zero
    assert eval_arith(parse_term("7/ -2")) == -3


def test_eval_isqrt_matches_linear_search_oracle():
    def isqrt_oracle(n):
        m = 0
        while (m + 1) * (m + 1) <= n:
            m += 1
        return m

    for n in list(range(0, 50)) + [99, 100, 101, 10_000, 123_456]:
        assert eval_arith(parse_term(f"integer(sqrt({n}))")) == isqrt_oracle(n)


def test_eval_arith_errors():
    with pytest.raises(MachineFault) as e:
        eval_arith(parse_term("1/0"))
    assert e.value.kind == "arith_error"
    with pytest.raises(MachineFault) as e:
        eval_arith(parse_term("1 mod 0"))
    assert e.value.kind == "arith_error"
    with pytest.raises(MachineFault) as e:
        eval_arith(Var())
    assert e.value.kind == "instantiation_error"
    with pytest.raises(MachineFault) as e:
        eval_arith(Atom("x"))
    assert e.value.kind == "type_error"


def test_is_error_kills_machine(base):
    m = machine(base, "X", "X is foo+1")
    ev = m.resume()
    assert type(ev) is MachineError and ev.kind == "type_error"
    assert m.dead


# -- memory discipline ----------------------------------------------------------


def test_deterministic_loop_runs_trail_free(base):
    m = machine(base, "_", "loop(0)")
    for _ in range(2000):
        m.resume()
    assert len(m.trail.entries) == 0
    assert len(m.cps) == 0
    # the goal chain stays short: walk it
    g, n = m.goals, 0
    while g is not None:
        g = g[1]
        n += 1
    assert n < 10


def test_fold_with_answer_clause_first_leaves_no_choice_points():
    # first-argument indexing makes the fold deterministic whatever the
    # clause order: no choice point and no trail entry per answer
    s = Session(
        text="""
fold(E,F,R1,R2):-get(E,X),fold_cont(X,E,F,R1,R2).
fold_cont(the(X),E,F,R1,R2):-call(F,R1,X,R),fold(E,F,R,R2).
fold_cont(no,_,_,R,R).
"""
    )
    m = machine(s, "R", "(new_engine(X,between(1,2000,X),E),fold(E,+,0,R))")
    ev = m.resume()
    assert type(ev) is AnswerReady and ev.value.value == 2000 * 2001 // 2
    assert len(m.cps) == 0
    assert len(m.trail.entries) == 0


# -- first-argument indexing and head unification --------------------------------

INDEXED = """
p(a,1). p(X,2). p(a,3). p(b,4).
k(1,int). k('1',atom).
s(f(x),one). s(f(x,y),two).
q(R):-p(a,R),R>1,!.
eq(X,X).
twice(X,f(X,X)).
mk(f(A,g(A,B)),B).
mk_bound(f(A,g(A,B)),B):-A=k.
"""


def test_index_keeps_source_order_across_variable_clauses():
    s = Session(text=INDEXED)
    assert [v.value for v in s.answers("R", "p(a,R)")] == [1, 2, 3]
    assert [v.value for v in s.answers("R", "p(b,R)")] == [2, 4]
    assert [v.value for v in s.answers("R", "p(c,R)")] == [2]


def test_index_separates_integers_from_atoms_and_arities():
    s = Session(text=INDEXED)
    assert [write_term(v) for v in s.answers("R", "k(1,R)")] == ["int"]
    assert [write_term(v) for v in s.answers("R", "k('1',R)")] == ["atom"]
    assert [write_term(v) for v in s.answers("R", "s(f(x),R)")] == ["one"]
    assert [write_term(v) for v in s.answers("R", "s(f(x,y),R)")] == ["two"]
    assert s.answers("R", "s(f(y),R)") == []


def test_unbound_first_argument_enumerates_every_clause():
    s = Session(text=INDEXED)
    assert [v.value for v in s.answers("R", "p(_,R)")] == [1, 2, 3, 4]
    assert [write_term(v) for v in s.answers("X-R", "k(X,R)")] == ["1-int", "'1'-atom"]


def test_single_candidate_call_leaves_no_choice_point():
    s = Session(text=INDEXED)
    m = machine(s, "R", "s(f(x),R)")
    ev = m.resume()
    assert type(ev) is AnswerReady and write_term(ev.value) == "one"
    assert len(m.cps) == 0
    m = machine(s, "R", "p(a,R)")
    m.resume()
    assert len(m.cps) == 1  # p(X,2) and p(a,3) remain


def test_cut_after_indexed_call():
    s = Session(text=INDEXED)
    assert [v.value for v in s.answers("R", "q(R)")] == [2]
    m = machine(s, "R", "q(R)")
    m.resume()
    assert len(m.cps) == 0


def test_repeated_head_variables():
    s = Session(text=INDEXED)
    assert write_term(s.first("A", "eq(f(A),f(1))")) == "1"
    assert s.answers("X", "eq(a,b)") == []
    assert s.first("X", "(eq(A,B),A==B)") is not None
    assert write_term(s.first("Y-Z", "twice(Y,f(1,Z))")) == "1-1"
    assert s.answers("X", "twice(1,f(1,2))") == []


def test_head_compound_built_for_unbound_goal_variable_shares_slots():
    s = Session(text=INDEXED)
    t = s.first("T", "mk(T,z)")
    a = t.args[0]
    g = t.args[1]
    assert type(a) is Var and g.args[0] is a
    assert write_term(g.args[1]) == "z"
    assert write_term(s.first("T", "mk_bound(T,z)")) == "f(k,g(k,z))"


def test_failed_alias():
    from hornlog.machine import Failed

    assert Failed is Exhausted
