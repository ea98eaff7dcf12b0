"""Engines, hubs and threads live while something reaches them.

A session's handle table refers to its objects weakly, so an engine is
freed once no term, choice point or host handle reaches it, whether or not
anything stopped it. A handle the host was handed in an answer is pinned
until its engine's stop. The tests run with the cycle collector off, so
only reference counting frees anything; only the self-referencing engine
needs a collection.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from hornlog import NO, MachineError, Session, parse_term, write_term
from hornlog.threads import ThreadRef

# one prelude construct each, as a goal with at least one answer
GOALS = {
    "if": "if(member(X,[1,2]),X=1,true)",
    "not": "not(member(3,[1,2]))",
    "catch": "catch(member(_,[1,2]),_,true)",
    "catch_throw": "catch(throw(oops),oops,true)",
    "if_any": "if_any(member(X,[1,2]),X=2,fail)",
    "findall": "findall(X,member(X,[1,2,3]),[1,2,3])",
    "best_of": "(best_of(X,>,member(X,[2,3,1])),X=3)",
    "prime": "prime(_)",
    "edb": "(new_edb(D),edb_assertz(D,(a:-true)),edb_clause(D,a,true),edb_delete(D))",
    "hub": "(hub_ms(10,H),put(H,x),collect(H,x))",
}

# times(N,C) runs construct C N times in one query; the cut drops what the
# construct left for backtracking, as prime/1 at limit 1 does
PROGRAM = "".join(f"c({name}):-{goal}.\n" for name, goal in GOALS.items()) + (
    "times(0,_):-!.\ntimes(N,C):-c(C),!,N1 is N-1,times(N1,C).\n"
)


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(text=PROGRAM)


@pytest.fixture(autouse=True)
def no_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def counts(s: Session) -> tuple[int, int]:
    """Live engines, and entries of the handle table."""
    return s.engine_count(), len(s._handles)


@pytest.mark.parametrize("name", GOALS)
def test_a_construct_run_20000_times_in_one_query_frees_its_engines(session, name):
    before = counts(session)
    e = session.new_engine("ok", f"times(20000,{name})")
    assert write_term(e.get().value) == "ok"
    assert counts(session) == (before[0] + 1, before[1] + 1)  # the query alone
    del e  # neither stopped nor exhausted: dropped
    assert counts(session) == before


@pytest.mark.parametrize("name", GOALS)
def test_a_construct_run_as_2000_queries_frees_its_engines(session, name):
    before = counts(session)
    for _ in range(2000):
        e = session.new_engine("ok", GOALS[name])
        assert e.get() is not NO  # one answer, as at limit 1; no stop
        del e
        assert counts(session) == before


def test_a_store_answered_to_the_host_lives_until_edb_delete():
    s = Session()
    before = counts(s)
    (t,) = s.answers("D1", "findall(D,new_edb(D),[D1])")
    text = write_term(t)
    del t  # only the pin keeps the store now; its text names it
    assert counts(s) == (before[0] + 1, before[1] + 1)
    assert s.answers("ok", f"edb_assertz({text},(a:-true))") != []
    assert [write_term(b) for b in s.answers("B", f"edb_clause({text},a,B)")] == ["true"]
    assert s.answers("ok", f"edb_delete({text})") != []
    assert counts(s) == before
    assert s.answers("ok", f"edb_assertz({text},(a:-true))") == []


def test_stop_drops_the_pin():
    s = Session()
    before = counts(s)
    (t,) = s.answers("E", "new_engine(X,member(X,[1,2]),E)")
    text = write_term(t)
    del t
    assert [write_term(a) for a in s.answers("A", f"get({text},A)")] == ["the(1)"]
    s.answers("ok", f"stop({text})")
    assert counts(s) == before


def test_run_bg_drops_the_pin():
    s = Session()
    (t,) = s.answers("E", "new_engine(X,member(X,[1,2]),E)")
    machine = weakref.ref(t.args[0].owner)
    text = write_term(t)
    del t
    (tref,) = s.answers("T", f"run_bg({text},T)")
    tref.args[0].owner.thread.join(timeout=5)
    assert not tref.args[0].owner.thread.is_alive()
    del tref
    assert machine() is None


def test_a_hub_answered_to_the_host_stays_by_design():
    s = Session()
    before = counts(s)
    texts = [write_term(h) for _ in range(3) for h in s.answers("H", "hub_ms(10,H)")]
    assert counts(s) == (before[0], before[1] + 3)
    for text in texts:
        assert s.answers("X", f"(put({text},x),collect({text},X))") != []


def test_a_self_referencing_engine_is_freed_by_the_cycle_collector():
    s = Session()
    before = counts(s)
    e = s.new_engine("X", "from_engine(X)")
    assert e.to_engine(e.term)  # its mailbox holds its own handle
    del e
    assert counts(s) == (before[0] + 1, before[1] + 1)
    gc.collect()
    assert counts(s) == before


def test_a_faulted_engine_is_freed_while_its_fault_event_is_kept():
    # the event is the raised fault itself; a traceback on it would keep
    # the frames of the run, and with them the machine
    events, lines = [], []
    s = Session(on_event=lambda eid, ev: events.append(ev), on_error=lines.append)
    e = s.new_engine("X", "X is foo+1")
    machine = weakref.ref(e)
    assert e.get() is NO
    (ev,) = events
    assert type(ev) is MachineError and ev.kind == "type_error" and write_term(ev.culprit) == "foo"
    assert ev.__traceback__ is None
    assert lines == [f"engine {e.id}: type_error: foo"]
    del e
    assert machine() is None
    assert events == [ev]


def test_an_engine_handed_to_run_bg_answers_no_through_its_old_handle():
    s = Session()
    e = s.new_engine("X", "member(X,[1,2])")
    machine = weakref.ref(e)
    t = s.run_bg(e)
    t.thread.join(timeout=5)
    assert not t.thread.is_alive()
    assert e.get() is NO
    assert e.to_engine(parse_term("x")) is False
    assert s.engine_count() == 0
    del e, t
    assert machine() is None


def test_a_thread_record_leaves_once_its_thread_ends_and_is_dropped():
    s = Session()
    before = counts(s)
    t = s.bg("true")
    t.thread.join(timeout=5)
    assert not t.thread.is_alive()
    tid = t.id
    del t
    assert counts(s) == before
    assert s.lookup(tid, ThreadRef) is None
