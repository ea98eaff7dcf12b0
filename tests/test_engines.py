from __future__ import annotations

import random
import threading

import hornlog
from hornlog import NO, Machine, Session, The, Trail, Yielded, parse_term, unify, write_term

from conftest import answers_str, variant


def test_a_yield_reaches_the_client_as_a_the(base):
    e = base.new_engine("N", "loop(0)")
    ans = e.get()
    assert isinstance(ans, The) and type(ans) is Yielded and ans.value.value == 0
    e.stop()


def test_get_protocol_exact_sequence(base):
    e = base.new_engine("X", "member(X,[1,2])")
    seq = [e.get() for _ in range(5)]
    assert [type(a) for a in seq[:2]] == [The, The]
    assert [a.value.value for a in seq[:2]] == [1, 2]
    assert seq[2] is NO and seq[3] is NO and seq[4] is NO


def test_reader_made_handle_term_has_the_handle_functor():
    # the reader interns '$engine' to the very atom Machine.FUNCTOR is
    from hornlog.machine import handle_id

    assert handle_id(parse_term("'$engine'(3)"), Machine) == 3


def test_an_engine_is_its_own_handle(base):
    # new_engine returns the Machine: the table and a handle term's id hold it
    e = base.new_engine("X", "member(X,[1,2])")
    assert type(e) is Machine
    assert base.lookup(e.id, Machine) is e
    assert e.term.args[0].owner is e
    assert not hasattr(hornlog, "EngineRef")


def test_new_engine_performs_no_work(base):
    before = base.error_count
    e = base.new_engine("X", "no_such_predicate_here(X)")
    assert base.error_count == before  # nothing ran yet
    assert e.get() is NO
    assert base.error_count == before + 1


def test_two_engines_do_not_interfere(base):
    a = base.new_engine("X", "member(X,[1,2,3])")
    b = base.new_engine("X", "member(X,[10,20,30])")
    assert a.get().value.value == 1
    assert b.get().value.value == 10
    assert a.get().value.value == 2
    assert b.get().value.value == 20
    assert a.get().value.value == 3
    assert b.get().value.value == 30
    assert a.get() is NO and b.get() is NO


def test_isolation_random_pairs(base):
    rng = random.Random(31)
    for _ in range(30):
        xs = [rng.randint(0, 9) for _ in range(rng.randint(0, 6))]
        ys = [rng.randint(0, 9) for _ in range(rng.randint(0, 6))]
        ga = f"member(X,{list(xs)})"
        gb = f"member(X,{list(ys)})"
        base_a = [v.value for v in base.answers("X", ga)]
        base_b = [v.value for v in base.answers("X", gb)]
        a = base.new_engine("X", ga)
        b = base.new_engine("X", gb)
        got_a, got_b = [], []
        done_a = done_b = False
        while not (done_a and done_b):
            if not done_a and rng.random() < 0.5:
                ans = a.get()
                if ans is NO:
                    done_a = True
                else:
                    got_a.append(ans.value.value)
            elif not done_b:
                ans = b.get()
                if ans is NO:
                    done_b = True
                else:
                    got_b.append(ans.value.value)
        assert got_a == base_a and got_b == base_b


def test_stop_is_idempotent_and_releases(base):
    n0 = base.engine_count()
    e = base.new_engine("X", "member(X,[1,2,3])")
    assert base.engine_count() == n0 + 1
    assert e.get().value.value == 1
    e.stop()
    assert base.engine_count() == n0
    assert e.get() is NO
    e.stop()
    assert e.get() is NO


def test_exhaustion_releases_resources(base):
    n0 = base.engine_count()
    e = base.new_engine("X", "member(X,[1])")
    e.get()
    assert e.get() is NO
    assert base.engine_count() == n0


def test_to_engine_on_stopped_engine_fails(base):
    e = base.new_engine("X", "from_engine(X)")
    e.stop()
    assert e.to_engine(parse_term("hello")) is False


def test_to_engine_then_from_engine(base):
    e = base.new_engine("X", "(from_engine(A),from_engine(B),X=pair(A,B),return(X))")
    assert e.to_engine(parse_term("first"))
    assert e.to_engine(parse_term("second"))
    assert write_term(e.get().value) == "pair(first,second)"


def test_machine_error_normalized_to_no_with_diagnostic():
    lines = []
    s = Session(on_error=lines.append)
    e = s.new_engine("X", "undefined_pred(X)")
    assert e.get() is NO
    assert len(lines) == 1 and "unknown_predicate" in lines[0]
    assert e.get() is NO  # and stays NO


def test_engines_nest(base):
    # an engine may create and drive other engines
    got = answers_str(base, "L", "findall(Ps, integer_partition_of(4,Ps), L)")
    assert got == ["[[4],[3,1],[2,2],[2,1,1],[1,1,1,1]]"]
    # two levels: findall over a goal that itself runs findall
    got = answers_str(base, "L", "findall(X-I, (member(X,[2,3]), findall(Y,member(Y,[1,X]),I)), L)")
    assert got == ["[2-[1,2],3-[1,3]]"]


def test_object_level_bridge_matches_host_level(base):
    host = [v.value for v in base.answers("X", "member(X,[4,5])")]
    obj = answers_str(
        base, "A1-A2-A3", "(new_engine(X,member(X,[4,5]),E),get(E,A1),get(E,A2),get(E,A3))"
    )
    assert obj == ["the(4)-the(5)-no"]
    assert host == [4, 5]


def test_fresh_handle_per_creation(base):
    # re-creating after backtracking gives a fresh engine, never a resurrected one
    ids = answers_str(base, "E", "(member(_,[1,2]),new_engine(X,member(X,[9]),E))")
    assert len(ids) == 2 and ids[0] != ids[1]


def test_get_inside_engine_drives_sibling(base):
    # the handle travels through the answer term into a second query
    e1 = base.new_engine("X", "member(X,[7,8,9])")
    handle = write_term(e1.term)
    got = answers_str(base, "A", f"get({handle},A)")
    assert got == ["the(7)"]
    assert e1.get().value.value == 8  # the host sees the stream advanced


def test_answer_copy_has_no_live_sharing(base):
    e = base.new_engine("X-Y", "(member(X,[1]),Y=f(X))")
    v = e.get().value
    assert write_term(v) == "1-f(1)"
    assert e.get() is NO


def test_get_on_unknown_handle_is_no(base):
    got = answers_str(base, "A", "get('$engine'(999999),A)")
    assert got == ["no"]


def test_reentrant_get_reports_and_answers_no():
    lines = []
    s = Session(on_error=lines.append)
    # two engines each told to drive the other: the cycle is cut with a
    # diagnostic instead of corrupting the running machine
    e1 = s.new_engine("A", "(from_engine(H),get(H,A))")
    e2 = s.new_engine("A", "(from_engine(H),get(H,A))")
    assert e1.to_engine(e2.term)
    assert e2.to_engine(e1.term)
    ans = e1.get()
    assert type(ans) is The and write_term(ans.value) == "the(no)"
    assert any("reentrant" in ln for ln in lines)


def test_binding_an_answer_leaves_the_next_answer_unaffected(base):
    # both answers mention the engine's one Z; an answer that shared it
    # with the engine would pass the binding on to the second answer
    e = base.new_engine("X-Z", "member(X,[g(Z),h(Z)])")
    first = e.get().value
    assert unify(first, parse_term("g(1)-1"), Trail())
    assert write_term(first) == "g(1)-1"
    second = e.get().value
    assert variant(second, parse_term("h(A)-A"))


def test_concurrent_first_deposits_all_arrive_in_order():
    # two threads deposit at once: each one's items arrive in its order
    n = 1000
    s = Session(text="drain:-from_engine(X),return(X),drain.")
    e = s.new_engine("X", "drain")
    assert not s.lookup(e.id, Machine).mailbox
    start = threading.Barrier(2)

    def send(tag):
        start.wait()
        for i in range(n):
            assert e.to_engine(parse_term(f"m({tag},{i})"))

    threads = [threading.Thread(target=send, args=(tag,)) for tag in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    got = {"a": [], "b": []}
    for _ in range(2 * n):
        tag, i = e.get().value.args
        got[tag.name].append(i.value)
    assert got == {"a": list(range(n)), "b": list(range(n))}
    e.stop()


def test_from_engine_without_any_deposit_faults():
    lines = []
    s = Session(on_error=lines.append)
    e = s.new_engine("X", "from_engine(X)")
    m = s.lookup(e.id, Machine)
    assert e.get() is NO
    assert not m.mailbox and m.dead
    assert len(lines) == 1 and "mailbox_empty" in lines[0]


def test_kill_drops_the_mailbox(base):
    e = base.new_engine("X", "from_engine(X)")
    m = base.lookup(e.id, Machine)
    assert e.to_engine(parse_term("a")) and m.mailbox
    e.stop()
    assert not m.mailbox and not e.to_engine(parse_term("b"))


def test_an_engine_that_stops_itself_runs_no_further():
    s = Session(text="selfstop(X):-from_engine(E),stop(E),X=after_stop.")
    e = s.new_engine("X", "selfstop(X)")
    assert e.to_engine(e.term)
    assert e.get() is NO
    assert s.engine_count() == 0


def test_an_engine_that_stops_itself_spawns_nothing_after():
    s = Session()
    e = s.new_engine("A", "(from_engine(E),stop(E),new_engine(Z,member(Z,[1,2]),C),get(C,A))")
    assert e.to_engine(e.term)
    assert e.get() is NO
    assert s.engine_count() == 0
