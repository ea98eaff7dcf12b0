from __future__ import annotations

import os
import random

import pytest

from hornlog import Atom, Int, Session, Struct, Var, deref, make_list, write_term
from hornlog.terms import DOT


@pytest.fixture(scope="session")
def base() -> Session:
    """One shared read-only session; engines on it are independent."""
    return Session()


def child_env(src) -> dict:
    """The environment of a Python child process that imports hornlog from
    src: PYTHONPATH and PATH, and PYTHONDONTWRITEBYTECODE when it is set,
    so a run that asks for no bytecode leaves no __pycache__ in src."""
    env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


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


def term_vars(t) -> list[Var]:
    """Distinct unbound variables of t in first-occurrence order."""
    seen: dict[Var, None] = {}
    stack = [t]
    while stack:
        x = deref(stack.pop())
        if type(x) is Var:
            seen.setdefault(x, None)
        elif type(x) is Struct:
            stack.extend(reversed(x.args))
    return list(seen)


def variant(a, b) -> bool:
    """True when a and b are identical up to a bijective renaming of
    unbound variables."""
    fwd: dict[Var, Var] = {}
    bwd: dict[Var, Var] = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        tx = type(x)
        if tx is not type(y):
            return False
        if tx is Var:
            if fwd.setdefault(x, y) is not y or bwd.setdefault(y, x) is not x:
                return False
            continue
        if tx is Atom:
            if x is not y:
                return False
            continue
        if tx is Int:
            if x.value != y.value:
                return False
            continue
        if x.functor is not y.functor or len(x.args) != len(y.args):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def list_parts(t):
    """Split a list chain into (items, tail); tail is NIL for a proper list."""
    items = []
    t = deref(t)
    while type(t) is Struct and t.functor is DOT and len(t.args) == 2:
        items.append(t.args[0])
        t = deref(t.args[1])
    return items, t
