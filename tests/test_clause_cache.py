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
    """The code names of the sources compiled from now on: Clause.compile
    reads compile from the machine module's globals first."""
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
    # a source not seen before is compiled, through the counted name
    probe = Session(text="cache_probe(X):-X=1.\n", prelude=False)
    assert answers_str(probe, "X", "cache_probe(X)") == ["1"]
    assert names == ["<cache_probe/1 at <text>:1>"]


def test_shared_code_keeps_each_clauses_name_and_values():
    one = Session(text=NREV, prelude=False)
    two = Session(text=NREV, prelude=False)
    assert answers_str(one, "R", "nrev([1,2],R)") == ["[2,1]"]
    assert answers_str(two, "R", "nrev([a,b],R)") == ["[b,a]"]
    runs = [[cl.run for cl in s.db.pred((Atom("app"), 3)).clauses] for s in (one, two)]
    files = [[run.__code__.co_filename for run in rs] for rs in runs]
    assert files == [["<app/3 at <text>:4>", "<app/3 at <text>:5>"]] * 2
    # one code object, a run of its own per session: the closure holds the
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


def test_the_cache_stays_within_its_bound_and_holds_only_code():
    bound = machine._MAKES_MAX
    for i in range(bound + 20):
        s = Session(text=f"bounded_{i}(X):-X={i}.\n", prelude=False)
        assert s.first("X", f"bounded_{i}(X)").value == i
        assert len(machine._makes) <= bound
    # the oldest went first
    assert not any(name == "<bounded_0/1 at <text>:1>" for name, _ in machine._makes)
    assert any(name == f"<bounded_{bound + 19}/1 at <text>:1>" for name, _ in machine._makes)
    for (name, text), make in machine._makes.items():
        assert type(name) is str and type(text) is str
        assert make.__closure__ is None and make.__globals__ is vars(machine)
