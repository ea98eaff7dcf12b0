"""Clause code compiled once per process and shared by every session."""

from __future__ import annotations

import gc
import weakref

import hornlog.machine as machine
from hornlog import Atom, Session

from conftest import answers_str

NREV = """
nrev([],[]).
nrev([H|T],R):-nrev(T,RT),app(RT,[H],R).
app([],L,L).
app([H|T],L,[H|R]):-app(T,L,R).
"""


def counted_compiles(monkeypatch) -> list[str]:
    """The code names of the sources compiled from now on: _make reads
    compile from the machine module's globals first."""
    names: list[str] = []
    real = compile

    def counted(source, filename, *args, **kwargs):
        names.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(machine, "compile", counted, raising=False)
    return names


def test_a_second_session_over_a_program_compiles_nothing(monkeypatch):
    first = Session(text=NREV)
    assert answers_str(first, "R", "nrev([1,2,3],R)") == ["[3,2,1]"]
    names = counted_compiles(monkeypatch)
    second = Session(text=NREV)
    assert answers_str(second, "R", "nrev([1,2,3],R)") == ["[3,2,1]"]
    assert names == []
    # the second session has entries of its own, made from cached code
    entries = [c for c in second.db.pred((Atom("app"), 3)).index[0].values()]
    assert all(c.run is not None for c in entries)
    # a source not seen before is compiled, through the counted name: the
    # entry's, which holds the clause's head inline
    probe = Session(text="cache_probe(X):-X=1.\n", prelude=False)
    assert answers_str(probe, "X", "cache_probe(X)") == ["1"]
    assert names == ["<cache_probe/1 entry>"]


def test_shared_code_keeps_each_clauses_name_and_values():
    one = Session(text=NREV, prelude=False)
    two = Session(text=NREV, prelude=False)
    assert answers_str(one, "R", "nrev([1,2],R)") == ["[2,1]"]
    assert answers_str(two, "R", "nrev([a,b],R)") == ["[b,a]"]
    runs = [[c.run for c in s.db.pred((Atom("app"), 3)).index[0].values()] for s in (one, two)]
    files = [[run.__code__.co_filename for run in rs] for rs in runs]
    assert files == [["<app/3 entry>", "<app/3 entry>"]] * 2
    # one code object, a run of its own per session: its defaults hold the
    # session's records
    for a, b in zip(*runs):
        assert a is not b and a.__code__ is b.__code__


def test_a_dropped_session_is_collected():
    s = Session(text=NREV)
    assert answers_str(s, "R", "nrev([1,2,3],R)") == ["[3,2,1]"]
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


def test_the_cache_stays_within_its_bound_and_holds_only_code(monkeypatch):
    bound = machine._make.cache_parameters()["maxsize"]

    def run(i):
        s = Session(text=f"bounded_{i}(X):-X={i}.\n", prelude=False)
        assert s.first("X", f"bounded_{i}(X)").value == i
        return s

    # a session's first call compiles one source, its entry's
    for i in range(bound + 20):
        run(i)
        assert machine._make.cache_info().currsize <= bound
    # bounded_20 is now the least recently used source; use it again, so a
    # new source drops bounded_21 instead
    run(20)
    run(bound + 20)
    assert machine._make.cache_info().currsize == bound
    names = counted_compiles(monkeypatch)
    run(bound + 20)
    run(20)
    assert names == []
    s = run(21)
    assert names == ["<bounded_21/1 entry>"]
    entry = s.db.pred((Atom("bounded_21"), 1)).clauses
    # a make is code and this module's globals; the terms and records come
    # in as its arguments and are the defaults of the run it returns
    text, values = entry.source(s.db)
    make = machine._make(names[0], text)
    assert make.__closure__ is None and make.__globals__ is vars(machine)
    assert entry.run.__code__ in make.__code__.co_consts
    assert entry.run.__closure__ is None and list(entry.run.__defaults__) == [0, *values]


def test_a_table_of_same_shape_facts_compiles_two_entries(monkeypatch):
    # enumerated with its first argument unbound, the full list is tried
    # through a chain of entries; all links but the last have one source
    n = 10000
    s = Session(text="".join(f"f(k{i},{i},g(k{i})).\n" for i in range(n)), prelude=False)
    names = counted_compiles(monkeypatch)
    got = s.answers("X-Y", "f(X,Y,_)")
    assert len(got) == n and [a.args[1].value for a in got[:3]] == [0, 1, 2]
    assert len(names) <= 2 and set(names) <= {"<f/3 entry>"}
