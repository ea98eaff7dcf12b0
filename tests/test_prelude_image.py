"""The prelude read and compiled once per process; each session holds the same clauses."""

from __future__ import annotations

import gc
import subprocess
import sys
import weakref
from pathlib import Path

import hornlog.machine as machine
import hornlog.session as session
from hornlog import Atom, Session, parse_program
from hornlog.session import prelude_sources

from conftest import answers_str, child_env

REPO = Path(__file__).resolve().parent.parent

EXTRA_MEMBER = "member(extra,_).\n"


def test_a_second_session_reads_and_compiles_no_prelude_clause(monkeypatch):
    Session()  # the prelude is compiled from here on
    parsed: list[str] = []
    added: list = []
    real_parse, real_add = session.parse_program, machine.Database.add

    def counted_parse(source, name="<string>"):
        parsed.append(name)
        return real_parse(source, name)

    def counted_add(db, head, body, origin=None):
        added.append(origin)
        return real_add(db, head, body, origin)

    monkeypatch.setattr(session, "parse_program", counted_parse)
    monkeypatch.setattr(machine.Database, "add", counted_add)
    s = Session(text="p(1).\np(2).\n")
    assert parsed == ["<text>"]
    assert added == [("<text>", 1), ("<text>", 2)]
    assert answers_str(s, "R", "count_partitions(10,R)") == ["42"]


def test_clauses_a_program_adds_to_a_prelude_predicate_stay_in_its_session():
    s = Session(text=EXTRA_MEMBER)
    # member/2's call of itself, a body call in db.pl, and a goal reverse/2
    # runs on an engine all reach the added clause; no (H:-B) matches extra
    assert answers_str(s, "X", "member(X,[1,2])") == ["1", "2", "extra", "extra", "extra"]
    assert answers_str(s, "R", "reverse([1,2],R)") == ["[extra,extra,extra,2,1]"]
    query = "(new_edb(E), edb_assertz(E,(p(1):-true)), findall(H-B,edb_clause(E,H,B),L))"
    assert answers_str(s, "L", query) == ["[p(1)-true]"]
    later = Session()
    assert answers_str(later, "X", "member(X,[1,2])") == ["1", "2"]
    assert answers_str(later, "R", "reverse([1,2],R)") == ["[2,1]"]
    assert answers_str(later, "L", query) == ["[p(1)-true]"]


def test_findall_lists_its_goals_answers_whatever_member_a_program_adds():
    # findall/3 folds its one engine's answers; it calls no member/2 of its own
    s = Session(text=EXTRA_MEMBER)
    assert answers_str(s, "L", "findall(X,member(X,[a]),L)") == ["[a,extra,extra]"]
    assert answers_str(s, "L", "findall(X,between(1,2,X),L)") == ["[1,2]"]


def test_prelude_code_names_and_origins_are_those_of_the_sources():
    want = {}
    for name, src in prelude_sources():
        for cl in parse_program(src, name):
            head = cl.head
            key = (head, 0) if type(head) is Atom else (head.functor, len(head.args))
            want.setdefault(key, []).append(cl.origin)
    s = Session()
    got = {p.key: [cl.origin for cl in p.clauses] for p in s.db._preds.values() if p.clauses}
    assert got == want
    for name, arity in want:
        entry = s.db.pred((name, arity)).clauses.compile(s.db)
        assert entry.__code__.co_filename == f"<{name.name}/{arity} entry>"


def test_every_call_in_the_prelude_has_clauses_or_a_builtin():
    clauses = session.prelude_clauses()
    defined = {cl.key for cl in clauses} | set(machine.BUILTINS)
    called = {key for cl in clauses for key, _ in cl.body if type(key) is tuple}
    assert called - defined == set()


def test_a_dropped_session_is_freed():
    s = Session(text=EXTRA_MEMBER)
    assert answers_str(s, "R", "reverse([1,2],R)") == ["[extra,extra,extra,2,1]"]
    e = s.new_engine("X", "member(X,[a,b])")
    assert e.get().value is Atom("a")
    db = weakref.ref(s.db)
    del s, e
    gc.collect()
    assert db() is None


def test_sessions_hold_the_prelude_clauses_compiled_once(monkeypatch):
    clauses = session.prelude_clauses()
    a, b = Session(), Session(text=EXTRA_MEMBER)
    for s in (a, b):
        # a Clause has no __eq__: the lists compare the objects themselves
        held = [cl for p in s.db._preds.values() for cl in p.clauses or () if cl.origin[0] != "<text>"]
        assert len(held) == len(clauses)
        for p in s.db._preds.values():
            own = [cl for cl in clauses if cl.key == p.key]
            assert (p.clauses or [])[: len(own)] == own
    # a session makes no Clause: its prelude is appended, not copied
    made: list = []
    real_init = machine.Clause.__init__

    def counted_init(cl, *args):
        made.append(cl)
        real_init(cl, *args)

    monkeypatch.setattr(machine.Clause, "__init__", counted_init)
    s = Session()
    assert made == []
    assert answers_str(s, "R", "count_partitions(10,R)") == ["42"]
    # a clause names the keys it calls; only the body cut and a call of a
    # variable are records, the two that belong to no database
    for cl in clauses:
        for q, _ in cl.body:
            if type(q) is tuple:
                name, arity = q
                assert type(name) is Atom and type(arity) is int
            else:
                assert q is machine._CUT or q is machine._METACALL


def test_a_session_without_prelude_has_no_member():
    Session()
    lines: list[str] = []
    s = Session(prelude=False, on_error=lines.append)
    assert s.answers("X", "member(X,[1])") == []
    assert len(lines) == 1 and "unknown_predicate: member/2" in lines[0]


def test_a_cold_image_built_by_threads_at_once():
    script = r"""
import threading
from hornlog import Session, write_term

start = threading.Barrier(4)
got = []

def run():
    start.wait()
    s = Session()
    got.append(write_term(s.first("R", "count_partitions(10,R)")))

threads = [threading.Thread(target=run, daemon=True) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads), "a thread did not finish"
print(sorted(got))
"""
    r = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(REPO / "src"),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[0] == "['42', '42', '42', '42']"
