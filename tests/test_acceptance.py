"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is produced by an independent oracle
(brute-force enumeration, trial division, hand simulation) computed inside
this module, never by the engine under test.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from hornlog import NO, Session, The, parse_term, write_term

from conftest import child_env

REPO = Path(__file__).resolve().parent.parent


def _pass(n: int, msg: str):
    print(f"PASS criterion {n}: {msg}")


@pytest.fixture(scope="module")
def sess() -> Session:
    return Session()


# -- oracles -------------------------------------------------------------------


def partitions_oracle(n: int) -> int:
    def count(n, maxp):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(min(n, maxp), 0, -1))

    return count(n, n)


def primes_oracle(n: int) -> list[int]:
    out, k = [], 2
    while len(out) < n:
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            out.append(k)
        k += 1
    return out


# -- criteria ------------------------------------------------------------------


def test_c01_inc_test(sess):
    t0 = time.monotonic()
    got = [write_term(v) for v in sess.answers("R1-R2", "inc_test(R1,R2)")]
    elapsed = time.monotonic() - t0
    assert got == ["the(0=>2)-the(2=>7)"]
    assert elapsed < 1.0
    _pass(1, f"inc_test gives R1=the(0=>2), R2=the(2=>7) in {elapsed:.3f}s")


def test_c02_best_of(sess):
    t0 = time.monotonic()
    mx = sess.answers("X", "best_of(X,>,member(X,[2,1,4,3]))")
    mn = sess.answers("X", "best_of(X,<,member(X,[2,1,4,3]))")
    elapsed = time.monotonic() - t0
    assert [v.value for v in mx] == [max([2, 1, 4, 3])]
    assert [v.value for v in mn] == [min([2, 1, 4, 3])]
    assert elapsed < 1.0
    _pass(2, f"best_of max=4 min=1 in {elapsed:.3f}s")


def test_c03_answer_protocol(sess):
    e = sess.new_engine("X", "member(X,[1,2])")
    seq = [e.get() for _ in range(5)]
    assert type(seq[0]) is The and seq[0].value.value == 1
    assert type(seq[1]) is The and seq[1].value.value == 2
    assert seq[2] is NO and seq[3] is NO and seq[4] is NO
    rng = random.Random(303)
    for _ in range(100):
        xs = [rng.randint(-5, 5) for _ in range(rng.randint(0, 8))]
        e = sess.new_engine("X", f"member(X,{xs})")
        for expected in xs:
            ans = e.get()
            assert type(ans) is The and ans.value.value == expected
        assert e.get() is NO
        assert e.get() is NO
    _pass(3, "get stream is the(..) per answer then absorbing no; 100 random generators")


def test_c04_dynamic_db(sess):
    got = sess.answers("H-B", "test_clause(H,B)")
    shown = [write_term(v) for v in got]
    assert shown[0] == "a(1)-true" and shown[1] == "a(2)-true"
    assert len(shown) == 3 and shown[2].startswith("b(_G")
    # randomized op sequences against a reference list model
    rng = random.Random(777)
    handle = write_term(sess.first("E", "new_edb(E)"))
    model: list[int] = []
    ops = 0
    for _round in range(20):
        for _ in range(52):
            ops += 1
            k = rng.randint(0, 5)
            r = rng.random()
            if r < 0.45:
                assert sess.first("X", f"(edb_assertz({handle},(p({k}):-true)),X=ok)")
                model.append(k)
            elif r < 0.70:
                assert sess.first("X", f"(edb_asserta({handle},(p({k}):-true)),X=ok)")
                model.insert(0, k)
            else:
                got_r = sess.first("X", f"(edb_retract1({handle},p({k})),X=ok)")
                if k in model:
                    assert got_r is not None
                    model.remove(k)
                else:
                    assert got_r is None
        snapshot = [write_term(v) for v in sess.answers("H", f"edb_clause({handle},H,_)")]
        assert snapshot == [f"p({k})" for k in model]
    assert ops >= 1000
    _pass(4, f"test_clause order exact; {ops} randomized ops match the list model")


def test_c05_count_partitions(sess):
    for n in range(1, 12):
        assert sess.first("R", f"count_partitions({n},R)").value == partitions_oracle(n)
    t0 = time.monotonic()
    r12 = sess.first("R", "count_partitions(12,R)").value
    elapsed = time.monotonic() - t0
    assert r12 == partitions_oracle(12)
    assert partitions_oracle(5) == 7 and partitions_oracle(10) == 42
    assert elapsed < 5.0
    _pass(5, f"count_partitions matches oracle for N=1..12; N=12 in {elapsed:.3f}s")


def test_c06_prime_stream_and_memory():
    # run in a subprocess so the resident-memory measurement is isolated
    script = r"""
import json, resource, sys
from hornlog import Session
s = Session()
e = s.new_engine("P", "prime(P)")
primes = []
for _ in range(10):
    primes.append(e.get().value.value)
rss10 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(990):
    primes.append(e.get().value.value)
rss1000 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"primes": primes, "rss10": rss10, "rss1000": rss1000}))
"""
    r = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(REPO / "src"),
    )
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    expected = primes_oracle(1000)
    assert data["primes"] == expected
    assert expected[-1] == 7919
    assert data["rss1000"] <= 2 * data["rss10"], (data["rss10"], data["rss1000"])
    _pass(
        6,
        f"first 1000 primes match trial division (1000th=7919); "
        f"peak rss {data['rss1000']}KB <= 2x {data['rss10']}KB",
    )


def test_c07_findall_fold_equivalence(sess):
    from conftest import list_parts

    rng = random.Random(909)
    checked = 0
    for _ in range(200):
        kind = rng.randrange(4)
        if kind == 0:
            xs = [rng.randint(0, 9) for _ in range(rng.randint(0, 6))]
            goal, expected = f"member(X,{xs})", [str(x) for x in xs]
        elif kind == 1:
            lo = rng.randint(-3, 3)
            hi = lo + rng.randint(-1, 5)
            goal, expected = f"between({lo},{hi},X)", [str(v) for v in range(lo, hi + 1)]
        elif kind == 2:
            xs = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
            ys = ["a", "b"][: rng.randint(0, 2)]
            goal = f"(member(A,{xs}),member(B,{ys}),X=A-B)"
            expected = [f"{a}-{b}" for a in xs for b in ys]
        else:
            goal, expected = "fail", []
        found = sess.first("Xs", f"findall(X,{goal},Xs)")
        items, _ = list_parts(found)
        assert [write_term(v) for v in items] == expected
        folded = sess.first("R", f"(new_engine(X,{goal},E),efoldl(E,reverse_cons,[],R))")
        fitems, _ = list_parts(folded)
        acc: list[str] = []
        for x in expected:
            acc = [x] + acc  # fold-left with cons reverses
        assert [write_term(v) for v in fitems] == acc
        checked += 1
    assert checked == 200
    _pass(7, "200 random generators: findall == reference; efoldl cons == findall+foldl")


IF_ANY_SUITE = [
    # (cond, then, else, expected R answers by clause analysis)
    ("member(X,[1,2])", "R=X", "R=0", ["1", "2"]),
    ("fail", "R=1", "R=0", ["0"]),
    ("member(X,[1])", "fail", "R=0", []),
    ("member(X,[1,1])", "R=X", "R=0", ["1", "1"]),
    ("true", "R=t", "R=e", ["t"]),
    ("member(X,[1,2,3])", "R=x(X)", "R=none", ["x(1)", "x(2)", "x(3)"]),
    ("between(1,4,X)", "R=X", "R=0", ["1", "2", "3", "4"]),
    ("(member(X,[1,2]),member(Y,[a,b]))", "R=X-Y", "R=none", ["1-a", "1-b", "2-a", "2-b"]),
    ("member(X,[1,2])", "member(R,[X,X])", "R=none", ["1", "1", "2", "2"]),
    ("fail", "fail", "R=else", ["else"]),
    ("fail", "R=1", "fail", []),
    ("member(X,[5])", "R=X", "fail", ["5"]),
    ("member(X,[1,2])", "(X=1,R=only1)", "R=none", ["only1"]),
    ("member(X,[1,2])", "fail", "R=0", []),
    ("(member(X,[1,2]),X=2)", "R=X", "R=none", ["2"]),
    ("between(2,1,X)", "R=X", "R=empty", ["empty"]),
    ("member(X,[a])", "member(R,[X,b])", "R=none", ["a", "b"]),
    ("true", "fail", "R=e", []),
    ("member(X,[3,1])", "R=f(X)", "R=z", ["f(3)", "f(1)"]),
    ("not(fail)", "R=yes", "R=no", ["yes"]),
]


def test_c08_if_any(sess):
    assert len(IF_ANY_SUITE) == 20
    for cond, then, els, expected in IF_ANY_SUITE:
        got = [write_term(v) for v in sess.answers("R", f"if_any(({cond}),({then}),({els}))")]
        assert Counter(got) == Counter(expected), (cond, then, els, got)
    _pass(8, "if_any answer multisets match the clause-analysis oracle on 20 triples")


def test_c09_hub(sess):
    for _rep in range(100):
        hub = sess.hub(0)
        produced = [f"m({p},{i})" for p in range(2) for i in range(10)]

        def producer(p, hub=hub):
            for i in range(10):
                hub.put(parse_term(f"m({p},{i})"))

        collected: list[str] = []
        lock = threading.Lock()

        def consumer(hub=hub, collected=collected, lock=lock):
            for _ in range(5):
                item = hub.collect()
                with lock:
                    collected.append(write_term(item))

        threads = [threading.Thread(target=producer, args=(p,)) for p in range(2)]
        threads += [threading.Thread(target=consumer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert Counter(collected) == Counter(produced)
    hub = sess.hub(10)
    t0 = time.monotonic()
    assert hub.collect() is None
    elapsed = time.monotonic() - t0
    assert 0.010 <= elapsed <= 0.100
    _pass(9, f"100 reps of 2x10 producers/4 consumers exact; timeout in {elapsed*1000:.1f}ms")


def test_c10_exceptions(sess):
    got = [write_term(v) for v in sess.answers("R", "catch(throw(boom),boom,R=caught)")]
    assert got == ["caught"]
    got = [
        write_term(v)
        for v in sess.answers("R", "catch(catch(throw(other),boom,R=inner),other,R=outer)")
    ]
    assert got == ["outer"]
    got = [write_term(v) for v in sess.answers("X", "catch(member(X,[1,2]),_,fail)")]
    assert got == ["1", "2"]
    e = sess.new_engine("X", "throw(loose)")
    assert write_term(e.get().value) == "exception(loose)"
    e.stop()
    _pass(10, "catch/throw: caught, rethrown-to-outer, pass-through, uncaught surfaces")


def test_c11_isolation(sess):
    rng = random.Random(1111)
    for _ in range(100):
        xs = [rng.randint(0, 9) for _ in range(rng.randint(0, 7))]
        ys = [rng.randint(0, 9) for _ in range(rng.randint(0, 7))]
        ga, gb = f"member(X,{xs})", f"member(X,{ys})"
        solo_a = [v.value for v in sess.answers("X", ga)]
        solo_b = [v.value for v in sess.answers("X", gb)]
        ea, eb = sess.new_engine("X", ga), sess.new_engine("X", gb)
        got_a, got_b = [], []
        done_a = done_b = False
        while not (done_a and done_b):
            pick_a = rng.random() < 0.5
            if (pick_a and not done_a) or done_b:
                ans = ea.get()
                if ans is NO:
                    done_a = True
                else:
                    got_a.append(ans.value.value)
            else:
                ans = eb.get()
                if ans is NO:
                    done_b = True
                else:
                    got_b.append(ans.value.value)
        assert got_a == solo_a and got_b == solo_b
    _pass(11, "interleaved gets equal solo streams over 100 random engine pairs")
