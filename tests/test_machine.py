from __future__ import annotations

import traceback
from collections import Counter

import pytest

import hornlog
from hornlog import (
    NO,
    Atom,
    Int,
    MachineError,
    Machine,
    Session,
    Struct,
    The,
    Var,
    Yielded,
    deref,
    make_list,
    parse_term,
    write_term,
)
from hornlog import machine as machine_module
from hornlog.machine import ClausePred, Database, eval_arith
from hornlog.terms import TRUE

from conftest import answers_str, list_parts, variant


def machine(base: Session, pattern, goal) -> Machine:
    if isinstance(pattern, str):
        spec = parse_term(f"'$spec'(({pattern}),({goal}))")
        pattern, goal = spec.args
    return Machine(base, pattern, goal)


def events(m: Machine, n: int):
    return [m.resume() for _ in range(n)]


def test_member_event_sequence(base):
    m = machine(base, "X", "member(X,[1,2])")
    evs = events(m, 4)
    assert type(evs[0]) is The and evs[0].value.value == 1
    assert type(evs[1]) is The and evs[1].value.value == 2
    assert evs[2] is NO and evs[3] is NO


def test_loop_yields(base):
    m = machine(base, "_", "loop(0)")
    evs = events(m, 3)
    assert [type(e) for e in evs] == [Yielded] * 3
    assert [e.value.value for e in evs] == [0, 1, 2]


def test_fail_exhausts_immediately(base):
    m = machine(base, "X", "fail")
    assert m.resume() is NO


def test_exhaustion_absorbing(base):
    m = machine(base, "X", "member(X,[1])")
    seen_no = False
    for _ in range(10):
        ev = m.resume()
        if seen_no:
            assert ev is NO
        if ev is NO:
            seen_no = True
    assert seen_no


def test_boot_rejects_variable_and_integer_goal(base):
    with pytest.raises(MachineError) as e:
        Machine(base, Var(), Var())
    assert e.value.kind == "type_error"
    with pytest.raises(MachineError) as e:
        Machine(base, Var(), Int(7))
    assert e.value.kind == "type_error"


def test_boot_is_lazy(base):
    # an eager boot would already have faulted on the empty mailbox
    m = machine(base, "X", "from_engine(X)")
    assert m.deposit(parse_term("late"))
    ev = m.resume()
    assert type(ev) is The and write_term(ev.value) == "late"


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
    assert m.resume() is NO


def test_a_fault_is_one_class_and_its_event_has_no_traceback(base):
    m = machine(base, "X", "X is 1/0")
    ev = m.resume()
    assert type(ev) is MachineError and isinstance(ev, Exception)
    assert ev.kind == "arith_error" and ev.__traceback__ is None
    assert m.dead
    assert not hasattr(hornlog, "MachineFault")
    assert all(hasattr(hornlog, name) for name in hornlog.__all__)


def test_kill_idempotent_and_total(base):
    m = machine(base, "X", "member(X,[1,2,3])")
    m.resume()
    m.kill()
    m.kill()
    assert m.resume() is NO
    fresh = machine(base, "X", "member(X,[1])")
    fresh.kill()  # never run
    assert fresh.dead and fresh.resume() is NO


def test_a_dead_machine_resumes_to_the_clients_no(base):
    m = machine(base, "X", "X is 1/0")
    assert type(m.resume()) is MachineError and m.dead
    assert m.resume() is hornlog.NO


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
            if ev is NO:
                return out

    t1, t2 = trace(), trace()
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert type(a) is type(b)
        if type(a) is The:
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
        if type(a) is The:
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


def test_cut_via_server_task_remove():
    # at most one solution per call
    s = Session(
        text="""
server_task_remove(Xs,NewXs,YesNo):-nonvar(Xs),Xs=[X|NewXs],!,
  YesNo=yes(X).
server_task_remove(Xs,Xs,no).
"""
    )
    got = [write_term(v) for v in s.answers("N-Y", "server_task_remove([a,b],N,Y)")]
    assert got == ["[b]-yes(a)"]
    got = [write_term(v) for v in s.answers("N-Y", "server_task_remove(Open,N,Y)")]
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
    with pytest.raises(MachineError) as e:
        eval_arith(parse_term("1/0"))
    assert e.value.kind == "arith_error"
    with pytest.raises(MachineError) as e:
        eval_arith(parse_term("1 mod 0"))
    assert e.value.kind == "arith_error"
    with pytest.raises(MachineError) as e:
        eval_arith(Var())
    assert e.value.kind == "instantiation_error"
    with pytest.raises(MachineError) as e:
        eval_arith(Atom("x"))
    assert e.value.kind == "type_error"


def test_deep_arithmetic_runs_off_the_host_stack():
    s = Session(text="sum(0,0). sum(N,E+1):-N>0,N1 is N-1,sum(N1,E).")
    assert [v.value for v in s.answers("X", "(sum(20000,E),X is E,E =:= 20000)")] == [20000]
    text = "+".join(["1"] * 20000)
    assert eval_arith(parse_term(text)) == 20000
    assert eval_arith(parse_term(f"integer(sqrt(-(-({text}))))")) == 141
    with pytest.raises(MachineError) as e:
        eval_arith(parse_term(f"{text}+x*2"))
    assert e.value.kind == "type_error" and write_term(e.value.culprit) == "x"


def test_is_error_kills_machine(base):
    m = machine(base, "X", "X is foo+1")
    ev = m.resume()
    assert type(ev) is MachineError and ev.kind == "type_error"
    assert m.dead


@pytest.mark.parametrize(
    "goal, answers, fault",
    [
        ("between(X,3,Y)", [], "instantiation_error: _G"),
        ("between(a,3,Y)", [], "type_error: a"),
        ("between(1,3,a)", [], "type_error: a"),
        ("X is integer(sqrt(0-1))", [], "arith_error: integer(sqrt(0-1))"),
        ("X is integer(7)", ["7"], None),
        ("X is max(1,2)", [], "type_error: max(1,2)"),
        ("get(foo,X)", [], "type_error: foo"),
    ],
)
def test_a_builtin_faults_on_a_bad_argument_with_its_kind_and_culprit(goal, answers, fault):
    s, lines = _errors("")
    assert answers_str(s, "X", goal) == answers
    if fault is None:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(f"engine 1: {fault}")


def test_a_clause_head_that_is_not_callable_is_refused():
    with pytest.raises(ValueError):
        Database().add(Int(1), TRUE)


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
    assert type(ev) is The and ev.value.value == 2000 * 2001 // 2
    assert len(m.cps) == 0
    assert len(m.trail.entries) == 0


TRUST = """
t(N,g(_)):-N<0.
t(N,f(M)):-M is N+1.
tloop(0):-!.
tloop(N):-t(N,X),X=f(_),N1 is N-1,tloop(N1).
bloop(0):-!.
bloop(N):-between(1,2,X),X>=2,N1 is N-1,bloop(N1).
pick(Y):-member(Y,[a,b]),!.
cloop(0):-!.
cloop(N):-pick(Y),Y==a,N1 is N-1,cloop(N1).
"""


@pytest.mark.parametrize("goal", ["tloop(3000)", "bloop(3000)", "cloop(3000)"])
def test_last_alternative_leaves_nothing_on_the_trail(goal):
    # the last clause of t/2 and the last value of between/3 bind an older
    # variable; the choice point is gone by then, so nothing is trailed.
    # member/2 binds Y under its choice point, and the cut that removes it
    # drops the entry too
    m = machine(Session(text=TRUST), "ok", goal)
    assert type(m.resume()) is The
    assert len(m.cps) == 0
    assert len(m.trail.entries) == 0


def test_cut_keeps_only_the_entries_older_choice_points_undo():
    s = Session(text="d(R):-c(X,Y),R=X-Y. c(X,Y):-member(Y,[1,2]),X=Y,!.")
    m = machine(s, "R-Z", "(member(Z,[p,q]),d(R))")
    assert write_term(m.resume().value) == "1-1-p"
    # the choice point of member(Z,..) remains, so the bindings of the
    # query's R and Z stay undoable; the cut dropped those of X and Y,
    # which are younger than it
    assert len(m.cps) == 1
    assert sorted(id(v) for v in m.trail.entries) == sorted(id(v) for v in m.pattern.args)
    assert write_term(m.resume().value) == "1-1-q"
    assert m.resume() is NO


def test_store_server_trail_stays_empty():
    s = Session()
    handle = write_term(s.first("D", "new_edb(D)"))
    for k in range(3000):
        goal = f"(edb_assertz({handle},(p({k}):-true)),edb_retract1({handle},p({k})))"
        assert s.first("ok", goal) is not None
    server = s.lookup(s.first("I", f"{handle}='$engine'(I)").value, Machine)
    assert len(server.cps) == 0
    assert len(server.trail.entries) == 0


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
    assert type(ev) is The and write_term(ev.value) == "one"
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



# -- dispatch through predicate records ---------------------------------------

NREV = """
nrev([],[]).
nrev([H|T],R):-nrev(T,RT),app(RT,[H],R).
app([],L,L).
app([H|T],L,[H|R]):-app(T,L,R).
"""


def test_one_lookup_per_predicate_call_and_one_call_per_builtin():
    # the benchmark's tracer counts Database.lookup through the class
    # attribute and each BUILTINS entry as the session found it
    from hornlog import machine as mach

    counts = {"lookup": 0, ">": 0, "between": 0, "is": 0, "new_engine": 0, "get": 0, "true": 0, "fail": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    saved_lookup = mach.Database.lookup
    saved = dict(mach.BUILTINS)
    gt, between, is_ = (Atom(">"), 2), (Atom("between"), 3), (Atom("is"), 2)
    engine_keys = {"new_engine": 3, "get": 2, "true": 0, "fail": 0}
    try:
        mach.Database.lookup = counted("lookup", saved_lookup)
        mach.BUILTINS[gt] = counted(">", saved[gt])
        mach.BUILTINS[between] = counted("between", saved[between])
        mach.BUILTINS[is_] = counted("is", saved[is_])
        for name, arity in engine_keys.items():
            key = (Atom(name), arity)
            mach.BUILTINS[key] = counted(name, saved[key])
        s = Session(text=NREV + NECK)
        for n in (0, 1, 10, 30):
            counts["lookup"] = 0
            items = ",".join(map(str, range(n)))
            assert s.first("R", f"nrev([{items}],R)") is not None
            assert counts["lookup"] == (n + 1) * (n + 2) // 2
        assert [v.value for v in s.answers("X", "(between(1,5,X),X>2)")] == [3, 4, 5]
        assert counts[">"] == 5 and counts["between"] == 1
        # a shallow-try scan runs in place past n failed heads: one lookup
        # a call, the call of member(z,[]) included
        for n in (0, 1, 10):
            counts["lookup"] = 0
            assert s.answers("x", f"member(z,[{','.join('a' * n)}])") == []
            assert counts["lookup"] == n + 1
        # a call where every head fails
        counts["lookup"] = 0
        assert s.answers("x", "member(z,f)") == []
        assert counts["lookup"] == 1
        # calls in place that switch candidate lists: app/3 reaching []
        counts["lookup"] = 0
        assert write_term(s.first("R", "app([1,2,3],[4],R)")) == "[1,2,3,4]"
        assert counts["lookup"] == 4
        # guards run at the neck, in the entry, each through its record's
        # fn: a recursion looped in its entry, and one whose calls switch
        # lists at every step
        for goal in ("c({})", "alt(a,{})"):
            for n in (0, 1, 10, 1000):
                counts.update({"lookup": 0, ">": 0, "is": 0})
                assert s.first("x", goal.format(n)) is not None
                assert counts["lookup"] == n + 1
                assert counts[">"] == n and counts["is"] == n
        # calls an entry hands on, its clause's first call past the neck:
        # top/1, mid/2 and low/1, then end/1 after low/1's fact; every
        # answer adds end/1 after low(2), and low/1 from mid/2's second
        # clause
        t = Session(text=CHAIN, prelude=False)
        counts["lookup"] = 0
        assert write_term(t.first("R", "top(R)")) == "1-a"
        assert counts["lookup"] == 4
        counts["lookup"] = 0
        assert len(t.answers("R", "top(R)")) == 6
        assert counts["lookup"] == 6
        # as many as before entries handed calls on: each asked it by fn
        counts["lookup"] = 0
        assert write_term(s.first("R", "count_partitions(6,R)")) == "11"
        assert counts["lookup"] == 152
        # not(fail): not/1, if/3, whose entry boots the engine at its neck,
        # and select_if/4 are one lookup each; the engine's fail/0 and the
        # else branch's true/0 are metacalled builtins
        counts.update(dict.fromkeys(counts, 0))
        assert s.answers("x", "not(fail)") == [Atom("x")]
        assert counts == {"lookup": 3, ">": 0, "between": 0, "is": 0, "new_engine": 1, "get": 1, "true": 1, "fail": 1}
    finally:
        mach.Database.lookup = saved_lookup
        mach.BUILTINS.clear()
        mach.BUILTINS.update(saved)


CHAIN = """
top(X-Y):-mid(X,Y).
mid(X,Y):-low(X),end(Y).
mid(X,z):-low(X).
low(1).
low(2).
end(a).
end(b).
"""


def test_a_chain_of_first_calls_runs_below_one_dispatch(monkeypatch):
    # top/1's entry hands its call of mid/2 on to ClausePred.fn's loop, and
    # mid/2's first clause, after its ClauseCP, its call of low/1: _run
    # dispatches top/1, and then end/1, which low/1's fact leaves as a goal
    s = Session(text=CHAIN, prelude=False)
    e = s.new_engine("R", "top(R)")
    calls = []
    fn = ClausePred.fn

    def counted(pred, m, *args):
        calls.append(pred.key[0].name)
        return fn(pred, m, *args)

    monkeypatch.setattr(ClausePred, "fn", counted)
    assert write_term(e.get().value) == "1-a"
    assert calls == ["top", "end"]
    assert [cp.clauses.pred.key[0].name for cp in e.cps] == ["mid", "low", "end"]
    # each retry runs through fn; mid/2's runs its second clause, whose
    # call of low/1 is handed on in place
    del calls[:]
    got = []
    while (ans := e.get()) is not NO:
        got.append(write_term(ans.value))
    assert got == ["1-b", "2-a", "2-b", "1-z", "2-z"]
    assert calls == ["end", "low", "end", "end", "mid", "low"]


def test_every_boundary_copy_goes_through_the_traced_copy_term_names():
    # the benchmark's tracer counts copies by wrapping copy_term where
    # terms, machine and threads bind it; a copy made any other way would
    # escape it and change these counts
    from hornlog import machine as mach, terms, threads

    owners = (terms, mach, threads)
    saved = [m.copy_term for m in owners]
    calls = []

    def counted(t, vmap=None):
        calls.append(t)
        return saved[0](t, vmap)

    def copies(fn):
        calls.clear()
        fn()
        return len(calls)

    try:
        for m in owners:
            m.copy_term = counted
        s = Session(text="two:-return(a),return(b).")
        g = parse_term("true")
        assert copies(lambda: Machine(s, g, g)) == 1  # new_engine(G,G,E)
        assert copies(lambda: Machine(s, Var(), g)) == 2
        # the query: boot 2, answer 1; if/3 adds its boot and its answer
        assert copies(lambda: s.first("X", "X=1")) == 3
        assert copies(lambda: s.first("X", "if(X=1,true,true)")) == 5
        e = s.new_engine("X", "member(X,[1,2,3])")
        assert [copies(e.get) for _ in range(4)] == [1, 1, 1, 0]
        e = s.new_engine("X", "two")
        assert [copies(e.get) for _ in range(4)] == [1, 1, 1, 0]  # two yields, the answer
        e = s.new_engine("X", "from_engine(X)")
        assert copies(lambda: e.to_engine(parse_term("f(Y)"))) == 1
        hub = s.hub(0)
        assert copies(lambda: hub.put(parse_term("f(Y)"))) == 1
        # the query's boot and answer, and the put
        assert copies(lambda: s.first("X", "(hub_ms(0,H),put(H,f(X)),collect(H,X))")) == 4
    finally:
        for m, fn in zip(owners, saved):
            m.copy_term = fn


def _errors(text):
    lines = []
    return Session(text=text, on_error=lines.append), lines


def test_call_site_before_its_definition_runs():
    s = Session(text="p(X):-q(X),r(X). q(1). r(1).")
    assert [v.value for v in s.answers("X", "p(X)")] == [1]


def test_undefined_predicate_faults_when_reached():
    s, lines = _errors("p(X):-nope(X). p2:-fail,nope(1).")
    assert lines == []
    assert s.answers("X", "p2") == []
    assert lines == []
    assert s.answers("X", "p(1)") == []
    assert s.answers("X", "call(nope,1)") == []
    assert len(lines) == 2
    assert all(line.endswith("unknown_predicate: nope/1") for line in lines)


def test_resolve_keeps_one_record_per_metacalled_builtin():
    # no clause calls true/0 or call/3 (a body's true is dropped), so
    # resolve makes their records, once each, outside the frozen table
    s, lines = _errors("p(X):-G=true,G,X=1.")
    preds = dict(s.db._preds)
    for goal in (Atom("true"), Atom("fail"), parse_term("call(a,b)")):
        record = s.db.resolve(goal)[0]
        assert s.db.resolve(goal)[0] is record
        assert record.fn is machine_module.BUILTINS[record.key]
    assert [v.value for v in s.answers("X", "p(X)")] == [1]
    # an unknown key's record faults only when it is called
    unknown, args = s.db.resolve(parse_term("nope(1,2)"))
    assert lines == [] and unknown.key == (Atom("nope"), 2)
    assert s.answers("X", "call(nope,1,2)") == []
    assert lines == ["engine 2: unknown_predicate: nope/2"]
    assert s.db._preds == preds


def test_goal_bound_at_run_time():
    s = Session(text="q(X):-G=member(X,[1,2]),G,X>1.")
    assert [v.value for v in s.answers("X", "q(X)")] == [2]
    assert s.first("G", "call((G=true,G))") is not None


def test_non_callable_body_goal_faults_only_when_reached():
    s, lines = _errors("p:-fail,3. p3:-3.")
    assert s.answers("X", "p") == []
    assert lines == []
    assert s.answers("X", "p3") == []
    assert len(lines) == 1 and lines[0].endswith("type_error: 3")


def test_builtin_wins_over_program_clauses():
    s = Session(text="fail. t:-fail.")
    assert s.answers("X", "fail") == []
    assert s.answers("X", "t") == []


def test_every_record_has_an_entry():
    s = Session()
    assert s.db.frozen and all(callable(p.fn) for p in s.db._preds.values())
    for key in [(Atom("undefined_pred"), 2), (Atom("member"), 3)]:
        p, args = s.db.resolve(parse_term(f"{key[0].name}({','.join('_' * key[1])})"))
        assert p.key == key and p.key not in s.db._preds
        with pytest.raises(MachineError) as e:
            p.fn(None, args, None)
        assert e.value.kind == "unknown_predicate"
        assert write_term(e.value.culprit) == f"{key[0].name}/{key[1]}"


def test_every_predicate_key_is_an_atom_and_an_arity():
    from hornlog.machine import BUILTINS

    s = Session()
    keys = [*BUILTINS, *s.db._preds]
    assert all(type(name) is Atom and type(arity) is int for name, arity in keys)
    assert (Atom("member"), 2) in s.db._preds


def test_answered_machine_resumes_through_its_goal_stack(base):
    m = machine(base, "X", "member(X,[1,2])")
    assert m.resume().value.value == 1
    (pred, args), rest = m.goals
    assert rest is None and pred.fn(m, args, rest) is False  # backtrack on resume
    assert m.resume().value.value == 2
    assert m.resume() is NO


def test_metacalls_of_undefined_predicates_never_grow_the_table():
    s, lines = _errors("")
    size = len(s.db._preds)
    for i in range(50):
        assert s.answers("X", f"call(undefined_{i},X)") == []
    assert len(lines) == 50
    assert len(s.db._preds) == size


# -- calls of a predicate's own record run in place ------------------------------


@pytest.fixture
def entry_calls(monkeypatch):
    """Calls of each clause predicate's entry made by the run loop, by name;
    a call run in place inside an entry is not one of them."""
    calls = Counter()
    fn = ClausePred.fn

    def counted(self, m, args, rest, candidates=None, start=0):
        if candidates is None:  # not a choice point's retry
            calls[self.key[0].name] += 1
        return fn(self, m, args, rest, candidates, start)

    monkeypatch.setattr(ClausePred, "fn", counted)
    return calls


def test_app_over_a_long_list_is_one_entry_call_and_leaves_nothing(entry_calls):
    n = 200_000
    s = Session(text=NREV, prelude=False)
    out = Var()
    goal = Struct("app", (make_list([Int(i) for i in range(n)]), make_list([Atom("z")]), out))
    m = Machine(s, out, goal)
    ev = m.resume()
    assert type(ev) is The
    items, tail = list_parts(ev.value)
    assert len(items) == n + 1 and tail is Atom("[]")
    assert deref(items[0]).value == 0 and deref(items[n - 1]).value == n - 1 and deref(items[n]) is Atom("z")
    assert len(m.cps) == 0
    assert len(m.trail.entries) == 0
    assert entry_calls == {"app": 1}
    assert m.resume() is NO


def test_nrev_runs_its_first_body_goal_in_place(entry_calls):
    s = Session(text=NREV, prelude=False)
    items = ",".join(map(str, range(30)))
    assert write_term(s.first("R", f"nrev([{items}],R)")) == f"[{','.join(map(str, range(29, -1, -1)))}]"
    # one entry call runs every nrev/2 call; each app/3 goal a level pushed
    # is reached from the run loop, since a fact hands back its caller's chain
    assert entry_calls == {"nrev": 1, "app": 30}


LOOPED = """
k(z,R):-member(R,[1,2,3]),R>1,!.
k(s(N),R):-k(N,R).
k2(z,R):-member(R,[1,2,3]).
k2(s(N),R):-k2(N,R),R>1,!.
d(z,a).
d(z,b).
d(s(N),X):-d(N,X).
c(z,X):-!,X=one.
c(z,two).
c(s(N),X):-c(N,X).
e(z,X):-member(X,[a,b]).
e(s(N),X):-e(N,Y),Y\\==a,X=Y.
f(z,R):-R is foo+1.
f(s(N),R):-f(N,R).
g(z):-nope(1).
g(s(N)):-g(N).
"""


@pytest.mark.parametrize(
    "name, goal, expected",
    [
        # the answers the run loop gave before calls ran in place
        ("k", "k(s(s(z)),R)", ["2"]),
        ("k", "(member(A,[p,q]),k(s(s(z)),R))", ["p-2", "q-2"]),
        ("k2", "(member(A,[p,q]),k2(s(s(z)),R))", ["p-2", "q-2"]),
        ("d", "d(s(s(z)),R)", ["a", "b"]),
        ("d", "(member(A,[p,q]),d(s(s(s(z))),R))", ["p-a", "p-b", "q-a", "q-b"]),
        ("c", "c(s(s(z)),R)", ["one"]),
        ("c", "(member(A,[p,q]),c(s(z),R))", ["p-one", "q-one"]),
        ("e", "e(s(s(z)),R)", ["b"]),
    ],
)
def test_a_cut_reached_in_place_cuts_to_its_own_calls_barrier(name, goal, expected, entry_calls):
    s = Session(text=LOOPED)
    assert answers_str(s, "A-R" if "A" in goal else "R", goal) == expected
    # the goal's calls of name/2 ran inside one entry call per answer of
    # member/2 before it, or one in all
    assert entry_calls[name] == (2 if "member(A" in goal else 1)


@pytest.mark.parametrize(
    "goal, line",
    [
        ("f(s(s(z)),R)", "engine 1: type_error: foo"),
        ("g(s(s(z)))", "engine 1: unknown_predicate: nope/1"),
    ],
)
def test_a_fault_inside_a_looped_call_reads_as_before(goal, line):
    s, lines = _errors(LOOPED)
    assert s.answers("R", goal) == []
    assert lines == [line]


# -- shallow backtracking: a choice point only once a head matches ---------------

SHALLOW = """
member(X,[X|_]).
member(X,[_|T]):-member(X,T).
r(a,x).
r(Y,y):-var(Y).
w(a,x).
w(b,_).
c(1,a).
c(2,_).
c(_,z).
v(X,[X|_]):-!.
v(X,[_|T]):-v(X,T).
k(1,a).
k(_,b):-!.
k(_,_).
"""


def test_a_failed_head_leaves_the_callers_variable_unbound():
    # r(a,x) binds V to a before x fails to match y
    s = Session(text=SHALLOW, prelude=False)
    m = machine(s, "V", "r(V,y)")
    ev = m.resume()
    assert type(ev) is The and type(deref(ev.value)) is Var
    assert len(m.cps) == 0
    assert len(m.trail.entries) == 0
    assert m.resume() is NO


def test_the_last_candidate_after_failed_heads_trails_only_against_older_choice_points():
    # w(b,_) binds the query's V with no choice point left to undo it
    s = Session(text=SHALLOW, prelude=False)
    m = machine(s, "V", "w(V,y)")
    assert write_term(m.resume().value) == "b"
    assert len(m.cps) == 0
    assert len(m.trail.entries) == 0
    # under member/2's choice point the binding is trailed, and undone
    m = machine(s, "A-V", "(member(A,[p,q]),w(V,y))")
    assert write_term(m.resume().value) == "p-b"
    assert len(m.cps) == 1
    assert [id(v) for v in m.trail.entries] == [id(v) for v in m.pattern.args]
    assert write_term(m.resume().value) == "q-b"


def test_backtracking_into_a_matched_heads_choice_point_undoes_its_bindings():
    # c(1,a) fails on its second argument; c(2,_) binds V to 2 and makes the
    # choice point; var(V) fails, and c(_,z) must see V unbound again
    s = Session(text=SHALLOW, prelude=False)
    first, second = s.answers("V", "c(V,z)")
    assert deref(first).value == 2 and type(deref(second)) is Var
    m = machine(s, "V", "(c(V,z),var(V))")
    ev = m.resume()
    assert type(ev) is The and type(deref(ev.value)) is Var
    assert len(m.cps) == 0
    assert m.resume() is NO


@pytest.mark.parametrize(
    "goal, expected",
    [
        # v/2's first head fails on a and b; the cut of the clause that
        # matches z keeps member/2's choice point, older than the call
        ("(member(A,[p,q]),v(z,[a,b,z,z]))", ["p", "q"]),
        # k(1,a) fails; the cut of k(_,b) drops only the choice point the
        # match made over k(_,_)
        ("(member(A,[p,q]),k(_,b))", ["p", "q"]),
    ],
)
def test_a_cut_reached_after_failed_heads_cuts_to_its_callers_barrier(goal, expected):
    s = Session(text=SHALLOW, prelude=False)
    assert answers_str(s, "A", goal) == expected


@pytest.fixture
def counted_cps(monkeypatch):
    """The ClauseCPs made, each one appended as it is made."""
    made = []

    class CountedCP(machine_module.ClauseCP):
        __slots__ = ()

        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(machine_module, "ClauseCP", CountedCP)
    return made


def test_a_member_scan_makes_one_choice_point(counted_cps):
    s = Session()
    assert len(s.answers("ok", f"member(z,[{'a,' * 1000}z])")) == 1
    # only the head that matches z makes one; a failed head makes none,
    # and so does the last clause, which runs the scan on in place
    assert len(counted_cps) == 1


# -- shallow backtracking to the neck: guards run in the entry -------------------

NECK = """
p(X,Y):-X=a,Y=b,Y==c.
p(X,Y):-var(X),Y=d.
q(X):-Y is X+1,Y>0.
q(_).
c(0).
c(N):-N>0,N1 is N-1,c(N1).
alt(_,0).
alt(a,N):-N>0,N1 is N-1,alt(b,N1).
alt(b,N):-N>0,N1 is N-1,alt(a,N1).
"""


def test_bindings_a_failed_guard_made_are_undone_before_the_next_head():
    # X=a and Y=b hold until Y==c fails; var(X) must see X unbound again
    s = Session(text=NECK, prelude=False)
    m = machine(s, "X-Y", "p(X,Y)")
    ev = m.resume()
    assert type(ev) is The
    x, y = ev.value.args
    assert type(deref(x)) is Var and deref(y) is Atom("d")
    assert len(m.cps) == 0
    assert len(m.trail.entries) == 0
    assert m.resume() is NO


def test_a_guard_at_the_neck_runs_two_frames_below_the_run_loop(monkeypatch):
    # _run calls the record's fn, which runs the entry, which calls the guard
    frames = []
    var = machine_module.BUILTINS[(Atom("var"), 1)]

    def spy(m, args, rest):
        names = [f.name for f in traceback.extract_stack()]
        frames.append(names[names.index("_run") + 1 :])
        return var(m, args, rest)

    monkeypatch.setitem(machine_module.BUILTINS, (Atom("var"), 1), spy)
    s = Session(text="p(X):-var(X),q(X). p(2). q(1).", prelude=False)
    assert answers_str(s, "X", "p(X)") == ["1", "2"]
    assert frames == [["fn", "run", "spy"]]


@pytest.mark.parametrize("goal, levels", [("q", 1), ("p(A)", 2), ("r(A)", 3)])
def test_a_nested_get_runs_three_frames_between_its_engines_run_loops(goal, levels, monkeypatch):
    # each engine level is _run -> _bi_get -> get_by_id -> resume -> the
    # child's _run: a frame more or fewer moves the depth at which deep
    # not/1 and catch/3 nesting runs out of host stack
    gaps = []
    between = machine_module.BUILTINS[(Atom("between"), 3)]

    def spy(m, args, rest):
        names = [f.name for f in traceback.extract_stack()]
        runs = [i for i, name in enumerate(names) if name == "_run"]
        gaps.extend(names[i + 1 : j] for i, j in zip(runs, runs[1:]))
        return between(m, args, rest)

    monkeypatch.setitem(machine_module.BUILTINS, (Atom("between"), 3), spy)
    program = """
    q:-between(1,1,_).
    p(A):-new_engine(x,q,E),get(E,A).
    r(A):-new_engine(B,p(B),E),get(E,A).
    """
    s = Session(text=program, prelude=False)
    assert len(s.answers("A", goal)) == 1
    assert gaps == [["_bi_get", "get_by_id", "resume"]] * (levels - 1)


def test_a_guard_fault_in_a_candidate_with_others_left_kills_as_from_the_body():
    # the fault ends the query; q(_) is never tried
    s, lines = _errors(NECK)
    assert s.answers("X", "q(X)") == []
    assert len(lines) == 1 and lines[0].startswith("engine 1: instantiation_error: _G")
    assert answers_str(s, "x", "q(1)") == ["x", "x"]
    assert len(lines) == 1


@pytest.mark.parametrize("n", [0, 1, 20])
def test_a_retract_scanning_past_elements_makes_one_choice_point(n, counted_cps):
    # select_nonvar/3 tests each list cell at its neck, so an element it
    # scans past makes no choice point; server_task_delete/4 makes the one
    s = Session()
    db = s.first("Db", "new_edb(Db)")
    for i in range(n):
        assert s.first(Atom("x"), Struct("edb_assertz", (db, parse_term(f"(a({i}):-true)")))) is not None
    counted_cps.clear()
    assert s.first(Atom("x"), Struct("edb_retract1", (db, Atom("z")))) is None
    assert len(counted_cps) <= 1
    if n:
        assert s.first(Atom("x"), Struct("edb_retract1", (db, parse_term(f"a({n - 1})")))) is not None
        h = Var()
        left = s.answers(h, Struct("edb_clause", (db, h, Atom("true"))))
        assert [write_term(t) for t in left] == [f"a({i})" for i in range(n - 1)]


def test_a_deep_guarded_recursion_runs_in_one_entry():
    s = Session(text=NECK, prelude=False)
    m = machine(s, "x", "c(1000000)")
    assert type(m.resume()) is The
    # the one choice point is c(0)'s, over c(N), made as the recursion ends
    assert len(m.cps) == 1
    assert m.resume() is NO


def test_calls_that_alternate_between_keyed_lists_hand_back_without_nesting():
    # each call selects the other list, so each is handed back to fn
    s = Session(text=NECK, prelude=False)
    assert answers_str(s, "x", "alt(a,100000)") == ["x"]
    assert answers_str(s, "x", "alt(b,100001)") == ["x"]
