"""The four benchmark workloads.

Each workload turns a seed into a fixed sequence of ops, gives every op a
reference answer computed here in plain Python (never by hornlog), and runs
one op through hornlog's public host API the way an embedder or the CLI
batch path does: spawn an engine, `get` answers one at a time, format each
with `write_term`, stop the engine.

All workloads are closed loop with one host client: the next op starts
only after the previous one is answered.
"""

from __future__ import annotations

import random

from hornlog import NO, Atom, Int, Session, Struct, Var, deref, make_list, reader, writer

# op outcomes; everything but OK counts in fail_ratio. RAISED is an
# exception the op is known to raise (see Op.may_raise); ERROR is any other
# exception. WRONG, MISSING and ERROR make a run incorrect.
OK, WRONG, MISSING, RAISED, ERROR = "ok", "wrong", "missing", "raised", "error"
OUTCOMES = (OK, WRONG, MISSING, RAISED, ERROR)
INCORRECT = (WRONG, MISSING, ERROR)

TRUE = Atom("true")


class Op:
    """One host operation: its kind, its inputs and the answers due.

    `expected` is the list of answers due, in order, as plain Python values
    (see `to_python`), or a function from the answers received to an
    outcome. `may_raise` is the exception class of a known defect the op
    runs into; raising it fails the op without making the run incorrect.
    """

    __slots__ = ("kind", "args", "expected", "may_raise")

    def __init__(self, kind, args, expected, may_raise=None):
        self.kind = kind
        self.args = args
        self.expected = expected
        self.may_raise = may_raise


def outcome_of_exception(op: Op, exc: Exception) -> str:
    return RAISED if op.may_raise is not None and isinstance(exc, op.may_raise) else ERROR


def to_python(t):
    """A term as plain Python: int, atom name, list, or (functor, *args)."""
    t = deref(t)
    tt = type(t)
    if tt is Int:
        return t.value
    if tt is Atom:
        return [] if t.name == "[]" else t.name
    if tt is Var:
        return None
    items = []
    while tt is Struct and t.name == "." and len(t.args) == 2:
        items.append(to_python(t.args[0]))
        t = deref(t.args[1])
        tt = type(t)
    if items:
        return items if tt is Atom and t.name == "[]" else ("|", items, to_python(t))
    return (t.name, *map(to_python, t.args))


def check(op: Op, answer_terms: list) -> str:
    got = [to_python(t) for t in answer_terms]
    if callable(op.expected):
        return op.expected(got)
    if got == op.expected:
        return OK
    if len(got) < len(op.expected) and got == op.expected[: len(got)]:
        return MISSING  # a NO where an answer was due
    return WRONG


def answers(ref, limit=None) -> list:
    """The CLI batch path: get and format answers until NO or limit, then stop.

    Returns the answer terms. The check reads the terms rather than the
    text, because write_term elides a list past 64 elements.
    """
    out = []
    try:
        while limit is None or len(out) < limit:
            ans = ref.get()
            if ans is NO:
                break
            writer.write_term(ans.value)
            out.append(ans.value)
    finally:
        ref.stop()
    return out


def grid(lo: int, hi: int, count: int) -> list[int]:
    """count sizes spread evenly over [lo, hi], both ends included.

    Every seed gets the same sizes; the seed draws the ops' contents and
    their order. A run-to-run difference is then the program's, not the
    draw's: a jittered draw moved which ops formed the tail of `engines`.
    """
    return [lo + i * (hi - lo) // max(count - 1, 1) for i in range(count)]


# -- independent references ---------------------------------------------------


def partition_count(n: int) -> int:
    """Number of integer partitions of n, by dynamic programming over parts."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def primes(count: int) -> list[int]:
    """The first `count` primes, by a sieve of Eratosthenes."""
    limit = 16
    while True:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\0\0"
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
        found = [i for i, is_prime in enumerate(sieve) if is_prime]
        if len(found) >= count:
            return found[:count]
        limit *= 2


def partitions_check(n: int):
    """Outcome of an enumeration of integer_partition_of(n, Ps).

    Every answer must be a distinct nonincreasing list of positive integers
    summing to n, and there must be exactly partition_count(n) of them.
    """
    due = partition_count(n)

    def outcome(got: list) -> str:
        seen = set()
        for parts in got:
            if type(parts) is not list:
                return WRONG
            key = tuple(parts)
            valid = (
                all(type(p) is int and p > 0 for p in parts)
                and sum(parts) == n
                and all(a >= b for a, b in zip(parts, parts[1:]))
                and key not in seen
            )
            if not valid:
                return WRONG
            seen.add(key)
        if len(seen) == due:
            return OK
        return MISSING if len(seen) < due else WRONG

    return outcome


# -- workloads ----------------------------------------------------------------


class Workload:
    """A seeded op sequence over a program, and how to run one op.

    `program` is the workload's own clause text loaded after the prelude.
    `start` makes per-session state (a store engine, hubs and an echo
    thread) and `finish` releases it; neither is part of any op's time.
    """

    name = ""
    program: str | None = None

    def make_ops(self, rng: random.Random, size: dict) -> list[Op]:
        raise NotImplementedError

    def start(self, session: Session):
        return None

    def run_op(self, session: Session, ctx, op: Op) -> list:
        """Run one op; return the answer terms received, in order."""
        raise NotImplementedError

    def finish(self, session: Session, ctx) -> None:
        pass


class Resolve(Workload):
    """Naive reverse of seeded integer lists, and host-driven enumeration of
    integer_partition_of/2. Nearly all the time is clause dispatch, head
    build and unify, choice points and the trail, with one spawn and small
    answers per op: the control for session, copy and thread changes."""

    name = "resolve"
    program = """
nrev([],[]).
nrev([H|T],R):-nrev(T,RT),app(RT,[H],R).
app([],L,L).
app([H|T],L,[H|R]):-app(T,L,R).
"""

    def make_ops(self, rng, size):
        n_nrev = round(size["ops"] * size["nrev_share"])
        ops = []
        for length in grid(*size["nrev_len"], n_nrev):
            xs = [rng.randrange(1000) for _ in range(length)]
            ops.append(Op("nrev", xs, [xs[::-1]]))
        for n in grid(*size["partition_n"], size["ops"] - n_nrev):
            ops.append(Op("partitions", n, partitions_check(n)))
        rng.shuffle(ops)
        return ops

    def run_op(self, session, ctx, op):
        out = Var()
        if op.kind == "nrev":
            goal = Struct("nrev", (make_list([Int(x) for x in op.args]), out))
        else:
            goal = Struct("integer_partition_of", (Int(op.args), out))
        return answers(session.new_engine(out, goal))


class Engines(Workload):
    """A seeded mix of prelude constructs, each op a text query. The time
    goes to spawn, get and stop, to copies at engine boundaries and to
    nested resume."""

    name = "engines"
    program = """
nn(0).
nn(N):-N>0,N1 is N-1,not(not(nn(N1))).
deep(0).
deep(N):-N>0,N1 is N-1,catch(deep(N1),_,true).
ctl(N,S):-ctl(N,0,S).
ctl(0,S,S).
ctl(N,S0,S):-N>0,
  if(N mod 3 =:= 0,catch(throw(hit(N)),hit(K),S1 is S0+K),S1=S0),
  if(not(N mod 2 =:= 0),S2 is S1+1,S2=S1),
  N1 is N-1,ctl(N1,S2,S).
"""
    # op kind -> the SIZES entry its size is drawn from
    KINDS = {
        "findall": "findall_n",
        "ctl": "ctl_n",
        "prime": "prime_k",
        "partitions": "partition_n",
        "inc": "inc_steps",
        "churn": "churn_engines",
        "not_not": "nest_depth",
        "catch": "nest_depth",
    }

    def make_ops(self, rng, size):
        ops = []
        for kind, size_key in self.KINDS.items():
            for n in grid(*size[size_key], size["ops"] // len(self.KINDS)):
                ops.append(self._op(rng, kind, n))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(rng, kind, n) -> Op:
        if kind == "findall":
            return Op(kind, n, [list(range(1, n + 1))])
        if kind == "ctl":
            total = sum(k for k in range(1, n + 1) if k % 3 == 0)
            total += sum(1 for k in range(1, n + 1) if k % 2 == 1)
            return Op(kind, n, [total])
        if kind == "prime":
            return Op(kind, n, primes(n))
        if kind == "partitions":
            return Op(kind, n, [partition_count(n)])
        if kind == "inc":
            steps = [rng.randint(1, 9) for _ in range(n)]
            due, total = [], 0
            for step in steps:
                due.append(("=>", total, total + step))
                total += step
            return Op(kind, steps, due)
        if kind == "churn":
            items = [f"k{rng.randrange(100)}" for _ in range(3)]
            # answers taken per engine: 1, 2 and 3 in turn, in seeded
            # order, so every seed does the same work
            takes = [1 + i % 3 for i in range(n)]
            rng.shuffle(takes)
            return Op(kind, (items, takes), [item for take in takes for item in items[:take]])
        # not_not, catch: n is the nesting depth. A nested get recurses on
        # the host stack, so deep nesting raises RecursionError out of get.
        return Op(kind, n, ["ok"], may_raise=RecursionError)

    def run_op(self, session, ctx, op):
        kind = op.kind
        if kind == "findall":
            return answers(session.new_engine("L", f"findall(X,between(1,{op.args},X),L)"))
        if kind == "ctl":
            return answers(session.new_engine("S", f"ctl({op.args},S)"))
        if kind == "prime":
            return answers(session.new_engine("P", "prime(P)"), limit=op.args)
        if kind == "partitions":
            return answers(session.new_engine("R", f"count_partitions({op.args},R)"))
        if kind == "inc":
            ref = session.new_engine("_", "sum_loop(0)")
            out = []
            try:
                for step in op.args:
                    ref.to_engine(reader.parse_term(f"(S1=>S2:-S2 is S1+{step})"))
                    ans = ref.get()
                    if ans is NO:
                        break
                    writer.write_term(ans.value)
                    out.append(ans.value)
            finally:
                ref.stop()
            return out
        if kind == "churn":
            items, takes = op.args
            goal = f"member(X,[{','.join(items)}])"
            out = []
            for take in takes:
                out += answers(session.new_engine("X", goal), limit=take)
            return out
        pred = "nn" if kind == "not_not" else "deep"
        return answers(session.new_engine("ok", f"{pred}({op.args})"), limit=1)


class ClauseStore(Workload):
    """Writes beside reads on the engine-served store of db.pl. A write is
    one small deposit and one resume; a read has the server return the
    whole store as one answer, so it copies O(store) at the boundary."""

    name = "clause_store"
    KEYS = 40

    # one round of ops, shuffled per round: the store grows by about ten
    # clauses a round, so every seed reads at the same store sizes
    ROUND = ("assertz",) * 6 + ("asserta",) * 6 + ("read",) * 5 + ("retract",) * 3

    def make_ops(self, rng, size):
        """Rounds of writes, reads and retracts until the store holds a drawn number of clauses."""
        target = rng.randint(*size["store_size"])
        model: list[tuple[int, int]] = []  # (key, value) in store order
        ops = []
        while len(model) < target:
            for kind in rng.sample(self.ROUND, len(self.ROUND)):
                key = rng.randrange(self.KEYS)
                if kind == "assertz":
                    value = rng.randrange(1000)
                    model.append((key, value))
                    ops.append(Op(kind, (key, value), ["ok"]))
                elif kind == "asserta":
                    value = rng.randrange(1000)
                    model.insert(0, (key, value))
                    ops.append(Op(kind, (key, value), ["ok"]))
                elif kind == "read":
                    ops.append(Op(kind, key, [v for k, v in model if k == key]))
                else:
                    hit = next((i for i, (k, _) in enumerate(model) if k == key), None)
                    ops.append(Op(kind, key, [] if hit is None else [model.pop(hit)[1]]))
        return ops

    def start(self, session):
        (store,) = session.answers("Db", "new_edb(Db)")
        return store

    def run_op(self, session, store, op):
        kind = op.kind
        if kind in ("assertz", "asserta"):
            key, value = op.args
            clause = Struct(":-", (Struct("k", (Int(key), Int(value))), TRUE))
            goal = Struct(f"edb_{kind}", (store, clause))
            return answers(session.new_engine(Atom("ok"), goal))
        value = Var()
        head = Struct("k", (Int(op.args), value))
        if kind == "read":
            goal = Struct("edb_clause", (store, head, TRUE))
        else:
            goal = Struct("edb_retract1", (store, head))
        return answers(session.new_engine(value, goal))

    def finish(self, session, store):
        session.answers(Atom("ok"), Struct("edb_delete", (store,)))


class Hubs(Workload):
    """The host thread ping-pongs seeded terms through two hubs with one bg
    echo engine on its own thread: copy at put, Condition wait/notify and
    bg launch. The echo engine ends on the atom `stop`."""

    name = "hubs"
    program = """
echo(In,Out):-collect(In,T),echo_cont(T,In,Out).
echo_cont(stop,_,_).
echo_cont(T,In,Out):-T\\==stop,put(Out,T),echo(In,Out).
"""
    ATOMS = ("a", "b", "foo", "nil")

    def make_ops(self, rng, size):
        ops = []
        for length in grid(*size["term_len"], size["ops"]):
            texts, values = [], []
            for _ in range(length):
                r = rng.random()
                if r < 0.5:
                    n = rng.randrange(1000)
                    texts.append(str(n))
                    values.append(n)
                elif r < 0.75:
                    a = rng.choice(self.ATOMS)
                    texts.append(a)
                    values.append(a)
                else:
                    n, a = rng.randrange(100), rng.choice(self.ATOMS)
                    texts.append(f"p({n},{a})")
                    values.append(("p", n, a))
            text = f"m({len(values)},[{','.join(texts)}])"
            ops.append(Op("echo", reader.parse_term(text), [("m", len(values), values)]))
        rng.shuffle(ops)
        return ops

    def start(self, session):
        # the echo side waits at most 10 s for the next term, the host 5 s for
        # its echo, so a lost term ends the run instead of hanging it
        inbox, outbox = session.hub(10000), session.hub(5000)
        echo = session.bg(Struct("echo", (inbox.term, outbox.term)))
        return inbox, outbox, echo

    def run_op(self, session, ctx, op):
        inbox, outbox, echo = ctx
        if not echo.thread.is_alive():  # or every later op waits out the timeout
            raise RuntimeError("the echo thread has ended")
        inbox.put(op.args)
        got = outbox.collect()
        if got is None:
            return []
        writer.write_term(got)
        return [got]

    def finish(self, session, ctx):
        inbox, _, echo = ctx
        inbox.put(Atom("stop"))
        echo.thread.join(timeout=15)
        if echo.thread.is_alive():
            raise RuntimeError("echo thread did not end on the sentinel")


WORKLOADS = {w.name: w for w in (Resolve(), Engines(), ClauseStore(), Hubs())}

# Sizes of one pass over the op sequence. "full" is what a measured run
# repeats; "smoke" only proves every workload, check and metric works.
# Nesting depths reach 400, the depth at which nested catch was seen to
# overflow the host stack: the known defect stays in the measured mix.
SIZES = {
    "full": {
        "resolve": {"ops": 80, "nrev_share": 0.7, "nrev_len": (20, 60), "partition_n": (6, 14)},
        "engines": {
            "ops": 80,
            "findall_n": (10, 150),
            "ctl_n": (5, 40),
            "prime_k": (5, 40),
            "partition_n": (4, 14),
            "inc_steps": (2, 20),
            "churn_engines": (5, 40),
            "nest_depth": (10, 400),
        },
        "clause_store": {"store_size": (195, 205)},
        "hubs": {"ops": 1000, "term_len": (1, 48)},
    },
    "smoke": {
        "resolve": {"ops": 6, "nrev_share": 0.5, "nrev_len": (1, 8), "partition_n": (1, 6)},
        "engines": {
            "ops": 16,
            "findall_n": (1, 10),
            "ctl_n": (0, 6),
            "prime_k": (1, 5),
            "partition_n": (1, 6),
            "inc_steps": (1, 3),
            "churn_engines": (1, 3),
            "nest_depth": (0, 10),
        },
        "clause_store": {"store_size": (6, 10)},
        "hubs": {"ops": 20, "term_len": (0, 4)},
    },
}
