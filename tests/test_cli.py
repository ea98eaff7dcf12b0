from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from conftest import child_env

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, stdin: str | None = None, timeout: float = 60):
    return subprocess.run(
        [sys.executable, "-m", "hornlog.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(REPO / "src"),
    )


def norm(s: str) -> str:
    return "".join(s.split())


def test_batch_inc_test():
    r = run_cli("--goal", "inc_test(R1,R2)")
    assert r.returncode == 0
    assert norm(r.stdout) == norm("R1=the(0=>2), R2=the(2=>7)")


def test_batch_best_of():
    r = run_cli("--goal", "best_of(X,>,member(X,[2,1,4,3]))")
    assert r.returncode == 0
    assert norm(r.stdout) == "X=4"


def test_batch_count_partitions():
    r = run_cli("--goal", "count_partitions(10,R)")
    assert r.returncode == 0
    assert norm(r.stdout) == "R=42"


def test_batch_length_with_a_bound_length_answers_once():
    # with the length bound, length/2 answers once, so each goal ends
    r = run_cli("--goal", "length(L,2)", timeout=10)
    assert r.returncode == 0
    assert norm(r.stdout).count("L=") == 1 and norm(r.stdout).startswith("L=[_G")
    goal = (
        "findall(L,length(L,1),A),findall(T,length([a|T],2),B),"
        "findall(x,length(_,-1),C),findall(N,length([a,b],N),D),findall(x,length([a],2),E)"
    )
    r = run_cli("--goal", f"{goal},A=[[_]],B=[[_]],C=[],D=[2],E=[]", timeout=10)
    assert r.returncode == 0 and norm(r.stdout).count("A=") == 1
    # with neither bound it still enumerates
    r = run_cli("--limit", "3", "--goal", "length(L,N),length(L,M),M=N", timeout=10)
    assert r.returncode == 0 and norm(r.stdout).count("L=") == 3


def test_batch_fail_exit_code():
    r = run_cli("--goal", "fail")
    assert r.returncode == 1
    assert r.stdout == ""


def test_batch_missing_file_exit_code():
    r = run_cli("--consult", "/no/such/file.pl", "--goal", "true")
    assert r.returncode == 2
    assert r.stderr


def test_batch_machine_error_exit_code():
    r = run_cli("--goal", "undefined_predicate(1)")
    assert r.returncode == 2
    assert "unknown_predicate" in r.stderr


def test_batch_deeply_nested_goal_is_a_parse_error():
    r = run_cli("--goal", "X = " + "f(" * 5000 + "a" + ")" * 5000)
    assert r.returncode == 2
    assert r.stdout == ""
    assert [line[0] for line in r.stderr.splitlines()] == ["!"]


def test_batch_superscript_digit_is_a_parse_error():
    r = run_cli("--goal", "X = ²")
    assert r.returncode == 2
    assert r.stdout == ""
    assert [line[0] for line in r.stderr.splitlines()] == ["!"]


def test_batch_prints_an_integer_past_the_hosts_digit_limit(tmp_path):
    f = tmp_path / "pw.pl"
    f.write_text("pw(0,1). pw(N,X):-N>0,N1 is N-1,pw(N1,Y),X is Y*10.\n")
    r = run_cli("--consult", str(f), "--goal", "pw(5000,X)")
    assert r.returncode == 0
    assert r.stdout.strip() == "X=1" + "0" * 5000


def test_batch_deep_arithmetic():
    r = run_cli("--goal", "X is " + "+".join(["1"] * 1500))
    assert r.returncode == 0
    assert norm(r.stdout) == "X=1500"


def test_batch_long_answer_prints_in_full():
    r = run_cli("--goal", "findall(X,between(1,100,X),L)")
    assert r.returncode == 0
    assert norm(r.stdout).endswith(",L=[" + ",".join(map(str, range(1, 101))) + "]")


def test_batch_limit_caps_stream():
    r = run_cli("--goal", "loop(0)", "--limit", "3")
    assert r.returncode == 0
    assert r.stdout.split() == ["0", "1", "2"]


def test_batch_limit_below_one_is_a_usage_error():
    for n in ("0", "-1"):
        r = run_cli("--goal", "true", "--limit", n)
        assert r.returncode == 2
        assert r.stdout == "" and "--limit" in r.stderr


def test_batch_ground_query_prints_yes():
    r = run_cli("--goal", "member(1,[1,2])")
    assert r.returncode == 0
    assert r.stdout.strip() == "yes"


def test_batch_prints_the_dot_atom_quoted():
    r = run_cli("--goal", "X = '.'")
    assert r.returncode == 0
    assert r.stdout.strip() == "X='.'"


def test_consulted_file(tmp_path):
    f = tmp_path / "fam.pl"
    f.write_text("parent(tom,bob). parent(bob,ann).\ngrand(X,Z):-parent(X,Y),parent(Y,Z).\n")
    r = run_cli("--consult", str(f), "--goal", "grand(G,ann)")
    assert r.returncode == 0
    assert r.stdout.strip() == "G=tom"


def test_repl_answer_stepping():
    r = run_cli(stdin="member(X,[1,2]).\n;\n;\nfail.\n")
    assert r.returncode == 0
    assert "X=1" in r.stdout and "X=2" in r.stdout
    assert "no" in r.stdout


def test_repl_parse_error_keeps_session():
    r = run_cli(stdin="member(X,[1).\nmember(X,[7]).\n\n")
    assert "X=7" in r.stdout
    assert "expected" in r.stderr


def test_repl_fault_prints_its_diagnostic_instead_of_no():
    r = run_cli(stdin="undefined_predicate(1).\nfail.\n")
    assert r.returncode == 0
    assert r.stderr.count("unknown_predicate") == 1
    assert r.stderr.startswith("! engine ")
    assert r.stdout.split().count("no") == 1  # only the second query's


def test_repl_stop_after_first_answer():
    r = run_cli(stdin="member(X,[1,2]).\n\nfail.\n")
    assert "X=1" in r.stdout
    assert "X=2" not in r.stdout


def test_repl_matches_library_stream():
    # the front end adds no semantics: same answers as the engine stream
    import hornlog

    s = hornlog.Session()
    lib = [hornlog.write_term(v) for v in s.answers("X", "integer_partition_of(3,X)")]
    r = run_cli(stdin="integer_partition_of(3,X).\n;\n;\n;\n\n")
    out = norm(r.stdout)
    for item in lib:
        assert f"X={norm(item)}" in out


def test_extract_prelude(tmp_path):
    target = tmp_path / "prel"
    r = run_cli("--extract-prelude", str(target))
    assert r.returncode == 0
    names = sorted(p.name for p in target.glob("*.pl"))
    assert names == ["control.pl", "db.pl", "engines.pl", "generators.pl", "lists.pl"]


def test_trace_prints_events():
    # each event's kind, and its term as the answer line writes it
    r = run_cli("--trace", "--goal", "member(X,[9])")
    assert r.returncode == 0
    assert r.stderr.splitlines() == ["% engine 1: answer X=9", "% engine 1: exhausted"]
    r = run_cli("--trace", "--goal", "loop(7)", "--limit", "1")
    assert r.stderr.splitlines() == ["% engine 1: yield 7"]
    r = run_cli("--trace", "--goal", "X is foo+1")
    assert r.stderr.splitlines() == ["% engine 1: error type_error: foo", "! engine 1: type_error: foo"]


def test_batch_yields_print_like_answers():
    r = run_cli("--goal", "loop(41)", "--limit", "1")
    assert r.stdout.strip() == "41"


def test_trace_prints_an_integer_past_the_hosts_digit_limit(tmp_path):
    f = tmp_path / "pw.pl"
    f.write_text("pw(0,1). pw(N,X):-N>0,N1 is N-1,pw(N1,Y),X is Y*10.\n")
    r = run_cli("--trace", "--consult", str(f), "--goal", "pw(5000,X)")
    assert r.returncode == 0
    assert r.stdout.strip() == "X=1" + "0" * 5000
    assert "1" + "0" * 5000 in r.stderr  # the traced answer event


def test_batch_hub_timeout_past_the_hosts_limit_answers_no():
    r = run_cli("--goal", "hub_ms(100000000000000000,H), collect(H,X)")
    assert r.returncode == 2
    assert r.stdout == ""
    assert [line.split(":")[1].strip() for line in r.stderr.splitlines()] == ["type_error"]
