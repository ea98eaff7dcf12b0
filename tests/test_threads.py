from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from hornlog import NO, MachineFault, Session, parse_term, write_term

from conftest import answers_str, vars_below


def test_hub_put_then_collect(base):
    h = base.hub(0)
    h.put(parse_term("a"))
    assert write_term(h.collect()) == "a"


def test_hub_fifo_order(base):
    h = base.hub(0)
    for i in range(5):
        h.put(parse_term(f"t({i})"))
    assert [write_term(h.collect()) for _ in range(5)] == [f"t({i})" for i in range(5)]


def test_hub_timeout_signals_failure(base):
    h = base.hub(10)
    t0 = time.monotonic()
    assert h.collect() is None
    elapsed = time.monotonic() - t0
    assert 0.010 <= elapsed <= 0.100


def test_waiting_consumer_is_woken_by_a_later_put(base):
    h = base.hub(2000)
    timer = threading.Timer(0.020, h.put, args=(parse_term("late"),))
    t0 = time.monotonic()
    timer.start()
    got = h.collect()
    elapsed = time.monotonic() - t0
    timer.join(timeout=10)
    assert not timer.is_alive()
    assert write_term(got) == "late"
    assert 0.015 <= elapsed <= 1.0


def test_hub_without_timeout_blocks_until_a_put(base):
    h = base.hub(0)
    got = []
    consumer = threading.Thread(target=lambda: got.append(h.collect()), daemon=True)
    consumer.start()
    consumer.join(timeout=0.2)
    assert consumer.is_alive() and got == []
    h.put(parse_term("f(x)"))
    consumer.join(timeout=10)
    assert not consumer.is_alive()
    assert [write_term(t) for t in got] == ["f(x)"]


def test_hub_copies_at_put(base):
    from hornlog import Trail, Var, unify

    x = Var()
    t = parse_term("f(X)")
    h = base.hub(0)
    h.put(t)
    unify(t.args[0], parse_term("mutated"), Trail())
    got = h.collect()
    assert write_term(got).startswith("f(_G")  # unaffected by the later binding


def test_hub_negative_timeout_rejected(base):
    with pytest.raises(ValueError):
        base.hub(-1)
    lines = []
    s = Session(on_error=lines.append)
    assert s.answers("H", "hub_ms(-1,H)") == []
    assert lines and "type_error" in lines[0]


def test_producers_consumers_exactly_once(base):
    h = base.hub(0)
    produced = [f"m({p},{i})" for p in range(2) for i in range(10)]

    def producer(p):
        for i in range(10):
            h.put(parse_term(f"m({p},{i})"))

    collected: list[str] = []
    lock = threading.Lock()

    def consumer():
        for _ in range(5):
            item = h.collect()
            with lock:
                collected.append(write_term(item))

    threads = [threading.Thread(target=producer, args=(p,)) for p in range(2)]
    threads += [threading.Thread(target=consumer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert Counter(collected) == Counter(produced)


def test_per_producer_order_preserved(base):
    h = base.hub(0)

    def producer(p):
        for i in range(20):
            h.put(parse_term(f"m({p},{i})"))

    ts = [threading.Thread(target=producer, args=(p,)) for p in range(2)]
    for t in ts:
        t.start()
    got = [h.collect() for _ in range(40)]
    for t in ts:
        t.join()
    per = {0: [], 1: []}
    for item in got:
        p = item.args[0].value
        per[p].append(item.args[1].value)
    assert per[0] == list(range(20))
    assert per[1] == list(range(20))


def test_run_bg_drives_engine_to_exhaustion(base):
    h = base.hub(0)
    goal = parse_term(f"(member(X,[a,b,c]),put({write_term(h.term)},X),fail)")
    e = base.new_engine(parse_term("_"), goal)
    tref = base.run_bg(e)
    assert tref is not None
    got = sorted(write_term(h.collect()) for _ in range(3))
    tref.join()
    assert got == ["a", "b", "c"]


def test_run_bg_hides_the_engine(base):
    e = base.new_engine("X", "(sleep_ms(30),member(X,[1,2]))")
    tref = base.run_bg(e)
    assert e.get() is NO
    assert e.to_engine(parse_term("z")) is False
    tref.join()


def test_run_bg_on_dead_engine_fails(base):
    e = base.new_engine("X", "member(X,[1])")
    e.stop()
    assert base.run_bg(e) is None
    got = answers_str(base, "R", "(if(run_bg('$engine'(424242),_),R=ok,R=failed))")
    assert got == ["failed"]


def test_run_bg_of_a_running_engine_fails(monkeypatch):
    # an engine that hands its own handle to run_bg is running: no new
    # thread may resume it while its own resume is still on the stack
    started = []
    start = threading.Thread.start

    def record_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record_start)
    events = []
    s = Session(on_event=lambda eid, ev: events.append((eid, ev, threading.current_thread())))
    e = s.new_engine("T", "(from_engine(E),run_bg(E,T),between(1,3,X),X>=3)")
    assert e.to_engine(e.term)
    assert e.get() is NO
    assert started == []
    assert [(eid, type(ev).__name__) for eid, ev, _ in events] == [(e.id, "Exhausted")]
    assert all(thread is threading.current_thread() for _, _, thread in events)
    assert s.engine_count() == 0


def test_bg_launches_goal_thread(base):
    h = base.hub(0)
    got = answers_str(
        base,
        "A-B",
        f"(bg((put({write_term(h.term)},x),put({write_term(h.term)},y))),"
        f" collect({write_term(h.term)},A),collect({write_term(h.term)},B))",
    )
    assert got == ["x-y"]


def test_bg_rejects_bad_goal():
    lines = []
    s = Session(on_error=lines.append)
    assert s.answers("X", "(X=1,bg(X))") == []  # X bound to 1: not callable
    assert lines and "type_error" in lines[0]


def test_join_finished_thread_immediate(base):
    tref = base.bg(parse_term("true"))
    tref.join()
    t0 = time.monotonic()
    tref.join()  # idempotent, immediate
    assert time.monotonic() - t0 < 0.05


def test_join_self_is_error(base):
    cur = base.current_thread()
    with pytest.raises(MachineFault):
        cur.join()
    lines = []
    s = Session(on_error=lines.append)
    got = s.answers("R", "(current_thread(T),join_thread(T),R=ok)")
    assert got == []
    assert lines and "type_error" in lines[0]


def test_current_thread_stable(base):
    a = base.current_thread()
    b = base.current_thread()
    assert a.id == b.id


def test_current_thread_never_hands_out_an_ended_threads_record(base):
    # the OS gives an ended bg thread's ident to the next thread it starts
    for _ in range(20):
        ended = base.bg(parse_term("true")).thread
        ended.join(timeout=5)
        assert not ended.is_alive()
        seen = []
        t = threading.Thread(target=lambda: seen.append(base.current_thread().thread))
        t.start()
        t.join(timeout=5)
        assert seen == [t]


def test_an_id_of_one_kind_never_resolves_as_another():
    lines = []
    s = Session(on_error=lines.append)

    def after_hub(goal):
        return answers_str(s, "R", f"(hub_ms(0,H),H='$hub'(I),if(({goal}),R=yes,R=no))")

    assert answers_str(s, "A", "(hub_ms(0,H),H='$hub'(I),get('$engine'(I),A))") == ["no"]
    assert after_hub("to_engine('$engine'(I),x)") == ["no"]
    assert after_hub("run_bg('$engine'(I),_)") == ["no"]
    assert after_hub("join_thread('$thread'(I))") == ["no"]
    assert after_hub("(new_engine(_,true,E),E='$engine'(J),put('$hub'(J),x))") == ["no"]
    # stop on a hub's id leaves the hub in place
    assert after_hub("(stop('$engine'(I)),put(H,x),collect(H,x))") == ["yes"]
    assert lines == []
    live = s.engine_count()
    s.hub(0)
    s.current_thread()
    assert s.engine_count() == live


def test_concurrent_stops_release_each_engine_once():
    # eight threads stop the same engines: each leaves the table once
    s = Session(prelude=False, text="p.")
    ids = [s.new_engine("x", "p").id for _ in range(2000)]
    errors = []

    def stop_all():
        try:
            for eid in ids:
                s.stop_id(eid)
        except Exception as e:
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=stop_all) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert s.engine_count() == 0


def test_sleep_ms_waits(base):
    t0 = time.monotonic()
    assert base.answers("X", "(sleep_ms(20),X=ok)") != []
    assert time.monotonic() - t0 >= 0.020


def test_object_level_hub_roundtrip(base):
    got = answers_str(
        base,
        "D",
        "(hub_ms(0,H),bg((sleep_ms(5),put(H,ping))),collect(H,D))",
    )
    assert got == ["ping"]


def test_collect_timeout_via_builtin(base):
    t0 = time.monotonic()
    got = answers_str(base, "R", "(hub_ms(10,H),if(collect(H,_),R=got,R=timeout))")
    elapsed = time.monotonic() - t0
    assert got == ["timeout"]
    assert elapsed >= 0.010


def test_current_thread_inside_bg_goal(base):
    got = answers_str(base, "T", "(hub_ms(0,H),bg((current_thread(T0),put(H,T0))),collect(H,T))")
    assert len(got) == 1 and got[0].startswith("'$thread'(")
    main = answers_str(base, "T", "current_thread(T)")
    assert main[0] != got[0]


def test_run_bg_join_then_all_work_done(base):
    got = answers_str(
        base,
        "A-B",
        "(hub_ms(50,H), new_engine(_,(put(H,a),put(H,b)),E), run_bg(E,T),"
        " join_thread(T), collect(H,A), collect(H,B))",
    )
    assert got == ["a-b"]


def test_hub_term_collected_on_another_thread_shares_no_var(base):
    from hornlog import Struct, Trail, Var, unify, variant

    h = base.hub(0)
    x, y = Var(), Var()
    assert unify(y, parse_term("g(Z,[1,2])"), Trail())
    sent = Struct("m", (x, y, parse_term("k([a,b],c)"), x))
    got = []
    reader = threading.Thread(target=lambda: got.append(h.collect()))
    reader.start()
    h.put(sent)
    reader.join()

    assert variant(got[0], sent)
    assert not (vars_below(got[0]) & vars_below(sent))
    assert got[0].args[2] is sent.args[2]  # variable-free: shared, not copied


def _answers_within(s, pattern, goal, seconds=10):
    """s.answers(pattern, goal) run on a thread that must end in time."""
    got = []
    t = threading.Thread(target=lambda: got.append(s.answers(pattern, goal)), daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive()
    assert got, "answers raised"
    return got[0]


PAST = int(threading.TIMEOUT_MAX * 1000) + 1  # ms: just past the longest wait


@pytest.mark.parametrize(
    "goal",
    [
        "sleep_ms(100000000000000000000)",
        f"sleep_ms({PAST})",
        "(hub_ms(100000000000000000,H),collect(H,X))",
        f"(hub_ms({PAST},H),collect(H,X))",
        f"(hub_ms({PAST * 10**30},H),collect(H,X))",
    ],
)
def test_a_wait_past_the_hosts_limit_is_a_type_error(goal):
    lines = []
    s = Session(on_error=lines.append)
    assert _answers_within(s, "ok", goal) == []
    assert len(lines) == 1 and "type_error" in lines[0]


def test_the_longest_wait_the_host_allows_is_accepted(base):
    longest = PAST - 1
    assert answers_str(base, "ok", f"(hub_ms({longest},H),put(H,x),collect(H,X))") == ["ok"]
    with pytest.raises(ValueError):
        base.hub(longest + 1)
    assert base.hub(longest) is not None
