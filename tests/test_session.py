from __future__ import annotations

import pytest

from hornlog import Session, Var, parse_term, write_term


def test_session_loads_files(tmp_path):
    f = tmp_path / "p.pl"
    f.write_text("fact(1). fact(2).\n")
    s = Session(files=[str(f)])
    assert [v.value for v in s.answers("X", "fact(X)")] == [1, 2]


def test_session_without_prelude_is_bare():
    lines = []
    s = Session(prelude=False, text="p(1).", on_error=lines.append)
    assert [v.value for v in s.answers("X", "p(X)")] == [1]
    assert s.answers("X", "member(X,[1])") == []
    assert lines and "unknown_predicate" in lines[0]


def test_database_frozen_after_init():
    s = Session()
    with pytest.raises(RuntimeError):
        s.db.add(parse_term("late(1)"), parse_term("true"))


def test_user_files_load_after_prelude(tmp_path):
    f = tmp_path / "uses_prelude.pl"
    f.write_text("pairs(L):-findall(X-Y,(member(X,[1,2]),member(Y,[a])),L).\n")
    s = Session(files=[str(f)])
    assert write_term(s.first("L", "pairs(L)")) == "[1-a,2-a]"


def test_answers_limit_stops_engine():
    s = Session()
    n0 = s.engine_count()
    got = s.answers("P", "prime(P)", limit=3)
    assert [v.value for v in got] == [2, 3, 5]
    assert s.engine_count() == n0


def test_first_none_when_no_answers():
    s = Session()
    assert s.first("X", "fail") is None


def test_new_engine_accepts_terms():
    s = Session()
    pat = Var()
    goal = parse_term("member(X,[7])")
    # terms passed directly: pattern shares nothing with the goal here
    e = s.new_engine(goal, goal)
    assert write_term(e.get().value) == "member(7,[7])"


def test_new_engine_rejects_mixed_text_and_terms():
    s = Session()
    with pytest.raises(TypeError):
        s.new_engine("X", parse_term("member(X,[1])"))


def test_new_engine_rejects_uncallable_goal():
    s = Session()
    with pytest.raises(TypeError):
        s.new_engine(Var(), Var())


def test_error_channel_counts():
    lines = []
    s = Session(on_error=lines.append)
    s.answers("X", "undefined_one(X)")
    s.answers("X", "undefined_two(X)")
    assert s.error_count == 2 and len(lines) == 2


def test_fault_on_an_integer_past_the_hosts_digit_limit_answers_no():
    lines = []
    s = Session(text="pw(0,1). pw(N,X):-N>0,N1 is N-1,pw(N1,Y),X is Y*10.", on_error=lines.append)
    assert s.first("Z", "pw(4400,X), Z is X mod 0") is None
    assert len(lines) == 1 and "1" + "0" * 4400 in lines[0]


def test_on_event_hook_sees_engine_events():
    events = []
    s = Session(on_event=lambda eid, ev: events.append((eid, type(ev).__name__)))
    s.answers("X", "member(X,[1])")
    kinds = [k for _, k in events]
    assert "AnswerReady" in kinds and "Exhausted" in kinds


def test_length_predicate():
    s = Session()
    assert s.first("N", "length([a,b,c],N)").value == 3
    assert s.first("N", "length([],N)").value == 0
    big = "[" + ",".join(str(i) for i in range(2000)) + "]"
    assert s.first("N", f"length({big},N)").value == 2000


def test_append_predicate():
    s = Session()
    assert write_term(s.first("Zs", "append([1,2],[3],Zs)")) == "[1,2,3]"
    got = [write_term(v) for v in s.answers("X-Y", "append(X,Y,[1,2])")]
    assert got == ["[]-[1,2]", "[1]-[2]", "[1,2]-[]"]
