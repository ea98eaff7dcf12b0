from __future__ import annotations

import random

import pytest

from hornlog import Atom, Int, Session, Struct, Var, make_list, write_term


@pytest.fixture(scope="session")
def base() -> Session:
    """One shared read-only session; engines on it are independent."""
    return Session()


def answers_str(session: Session, pattern: str, goal: str, limit=None) -> list[str]:
    return [write_term(v) for v in session.answers(pattern, goal, limit=limit)]


def random_term(rng: random.Random, depth: int = 3, vars_pool=None):
    """Random acyclic term over a small signature, sharing variables."""
    if vars_pool is None:
        vars_pool = [Var() for _ in range(3)]
    roll = rng.random()
    if depth == 0 or roll < 0.30:
        return rng.choice(
            [
                Atom("a"),
                Atom("b"),
                Atom("hello world"),
                Atom("[]"),
                Atom("mod"),
                Int(rng.randint(-9, 9)),
                rng.choice(vars_pool),
            ]
        )
    if roll < 0.45:
        items = [random_term(rng, depth - 1, vars_pool) for _ in range(rng.randint(0, 3))]
        tail = rng.choice(vars_pool) if rng.random() < 0.2 and items else Atom("[]")
        return make_list(items, tail)
    if roll < 0.60:
        name = rng.choice(["-", "+", "=>", "=", ":-", ","])
        return Struct(
            name,
            (random_term(rng, depth - 1, vars_pool), random_term(rng, depth - 1, vars_pool)),
        )
    name = rng.choice(["f", "g", "point", "pair"])
    n = rng.randint(1, 3)
    return Struct(name, tuple(random_term(rng, depth - 1, vars_pool) for _ in range(n)))


def vars_below(t) -> set[int]:
    """ids of every Var reachable from t, bound or not, binding chains included."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if type(x) is Var:
            seen.add(id(x))
            if x.ref is not None:
                stack.append(x.ref)
        elif type(x) is Struct:
            stack.extend(x.args)
    return seen
