from __future__ import annotations

import random

import pytest

from hornlog import (
    Atom,
    Int,
    Struct,
    Trail,
    Var,
    copy_term,
    deref,
    make_list,
    term_equal,
    unify,
)

from conftest import list_parts, random_term, term_vars, variant, vars_below


def test_atom_interning_is_injective():
    assert Atom("foo") is Atom("foo")
    assert Atom("foo") is not Atom("bar")
    assert Atom("foo").name == "foo"
    # one name type: a functor is the atom of the same name
    assert Struct("foo", (Int(1),)).functor is Atom("foo")
    assert Struct(Atom("foo"), (Int(1),)).functor is Atom("foo")


def test_repr_of_an_integer_past_the_hosts_digit_limit():
    v = 10**5000 + 7
    assert repr(Int(v)) == "1" + "0" * 4999 + "7"
    assert repr(Int(-v)) == "-" + repr(Int(v))
    assert repr(Struct("f", (Int(v),))) == f"f({repr(Int(v))})"


def test_unify_matching_compounds():
    x, y = Var(), Var()
    t = Trail()
    a = Struct("f", (x, Atom("b")))
    b = Struct("f", (Atom("a"), y))
    assert unify(a, b, t)
    assert deref(x) is Atom("a")
    assert deref(y) is Atom("b")


def test_unify_distinct_atoms_fails_cleanly():
    t = Trail()
    x = Var()
    assert not unify(Struct("f", (x, Atom("a"))), Struct("f", (Atom("k"), Atom("b"))), t)
    assert x.ref is None  # rolled back to the pre-call mark
    assert t.mark() == 0


def test_unify_without_occurs_check_builds_cycle():
    # same behavior as a reference interpreter without the occurs check:
    # X ends up bound to f(X)
    x = Var()
    t = Trail()
    assert unify(Struct("g", (x,)), Struct("g", (Struct("f", (x,)),)), t)
    v = deref(x)
    assert type(v) is Struct and v.name == "f"
    assert deref(v.args[0]) is v


def test_copy_term_shares_and_renames():
    x, y = Var(), Var()
    t = Struct("f", (x, x, y))
    c = copy_term(t)
    assert variant(c, t)
    a1, a2, a3 = c.args
    assert deref(a1) is deref(a2)
    assert deref(a1) is not deref(a3)
    assert deref(a1) is not x


def test_copy_term_ground_identity():
    assert copy_term(Atom("a")) is Atom("a")
    t = Struct("f", (Int(1), Atom("b")))
    assert term_equal(copy_term(t), t)


def test_copy_term_dereferences_bound_vars():
    # hand trace: X bound to g(Z); copying f(X) gives f(g(Z')) with fresh Z'
    x, z = Var(), Var()
    t = Trail()
    assert unify(x, Struct("g", (z,)), t)
    c = copy_term(Struct("f", (x,)))
    inner = deref(c.args[0])
    assert type(inner) is Struct and inner.name == "g"
    assert type(deref(inner.args[0])) is Var
    assert deref(inner.args[0]) is not z


def test_copy_idempotent_up_to_renaming():
    rng = random.Random(7)
    for _ in range(100):
        t = random_term(rng)
        once = copy_term(t)
        assert variant(copy_term(once), once)


def test_term_equal_variable_identity():
    x, y = Var(), Var()
    assert term_equal(x, x)
    assert not term_equal(x, y)
    assert term_equal(Struct("f", (Atom("a"), x)), Struct("f", (Atom("a"), x)))
    assert not term_equal(Struct("f", (Atom("a"), x)), Struct("f", (Atom("a"), y)))


def test_deep_list_copy_does_not_recurse():
    items = [Int(i) for i in range(5000)]
    t = make_list(items)
    c = copy_term(t)
    assert term_equal(c, t)


def test_trail_round_trip_restores_vars():
    # any sequence of unifications undone to a mark leaves every var unbound as before
    rng = random.Random(13)
    for _ in range(50):
        pool = [Var() for _ in range(6)]
        t = Trail()
        mark = t.mark()
        for _ in range(rng.randint(1, 8)):
            unify(random_term(rng, 2, pool), random_term(rng, 2, pool), t)
        t.undo_to(mark)
        assert all(v.ref is None for v in pool)


def test_unify_success_symmetric():
    rng = random.Random(99)
    for _ in range(200):
        pool = [Var() for _ in range(4)]
        a = random_term(rng, 3, pool)
        b = random_term(rng, 3, pool)
        t1 = Trail()
        r1 = unify(copy_term(Struct("p", (a, b))), copy_term(Struct("p", (b, a))), t1)
        t2 = Trail()
        r2 = unify(copy_term(Struct("p", (b, a))), copy_term(Struct("p", (a, b))), t2)
        assert r1 == r2


def test_term_vars_order():
    x, y = Var(), Var()
    t = Struct("f", (x, Struct("g", (y, x))))
    assert term_vars(t) == [x, y]


def test_copy_term_shares_a_variable_free_compound():
    t = Struct("f", (Int(1), make_list([Atom("a"), Struct("g", (Int(2),))])))
    assert copy_term(t) is t
    x = Var()
    c = copy_term(Struct("h", (x, t)))
    assert c.args[1] is t


def _bound(value):
    v = Var()
    assert unify(v, value, Trail())
    return v


@pytest.mark.parametrize(
    "make_leaf",
    [lambda: Var(), lambda: _bound(Atom("a")), lambda: _bound(Struct("k", (Var(),))), lambda: _bound(_bound(Int(3)))],
    ids=["unbound", "bound_to_atom", "bound_to_compound", "bound_chain"],
)
def test_copy_term_rebuilds_every_compound_above_a_var(make_leaf):
    leaf = make_leaf()
    inner = Struct("g", (Atom("b"), leaf))
    t = Struct("f", (Int(1), make_list([Atom("a"), inner]), Atom("c")))
    c = copy_term(t)
    assert variant(c, t)
    assert c is not t
    assert c.args[1] is not t.args[1] and deref(c.args[1].args[1]).args[0] is not inner
    assert not (vars_below(c) & vars_below(t))


def test_copy_term_keeps_shared_ground_siblings_of_a_var():
    ground = make_list([Int(i) for i in range(5)])
    t = Struct("f", (ground, Var(), ground))
    c = copy_term(t)
    assert c is not t
    assert c.args[0] is ground and c.args[2] is ground


def test_copy_of_a_long_open_list_has_no_recursion():
    n = 200_000
    tail = Var()
    t = make_list([Int(i) for i in range(n)], tail)
    c = copy_term(t)
    items, ctail = list_parts(c)
    assert len(items) == n and items[-1].value == n - 1
    assert type(ctail) is Var and ctail is not tail


@pytest.mark.parametrize("bottom", [Atom("z"), None], ids=["ground", "var"])
def test_copy_of_a_deep_compound_has_no_recursion(bottom):
    n = 200_000
    leaf = Var() if bottom is None else bottom
    t = leaf
    for _ in range(n):
        t = Struct("f", (t,))
    c = copy_term(t)
    assert (c is t) == (bottom is not None)
    depth = 0
    while type(c) is Struct:
        c = c.args[0]
        depth += 1
    assert depth == n
    assert (c is leaf) == (bottom is not None)


# -- unify: binding direction, pair order, trailing and the undo ------------------


def test_failed_unify_restores_every_binding_and_the_trail_length():
    t = Trail()
    old = Var()
    assert unify(old, Atom("kept"), t)  # an entry from before the call stays
    x, y, z, w = Var(), Var(), Var(), Var()
    # the pairs are taken left to right, so every binding below is made
    # before the last arguments clash
    a = Struct("f", (Struct("g", (x, Int(1))), y, make_list([z, w]), Atom("a")))
    b = Struct("f", (Struct("g", (Int(7), Int(1))), Atom("q"), make_list([Int(2), Int(3)]), Atom("b")))
    assert not unify(a, b, t)
    assert all(v.ref is None for v in (x, y, z, w))
    assert t.entries == [old] and deref(old) is Atom("kept")
    # an integer or arity clash after bindings rolls back the same way
    assert not unify(Struct("h", (Int(1), x)), Struct("h", (Int(2), y)), t)
    assert not unify(Struct("h", (Struct("k", (y,)), x)), Struct("h", (Struct("k", (y, y)), z)), t)
    assert all(v.ref is None for v in (x, y, z, w)) and t.entries == [old]


class _AppendLog(list):
    """A trail's entries that log every append."""

    def __init__(self):
        super().__init__()
        self.appended = []

    def append(self, v):
        self.appended.append(v)
        super().append(v)


def test_a_clash_in_the_first_argument_binds_nothing():
    t = Trail()
    t.entries = _AppendLog()
    x, y = Var(), Var()
    assert not unify(Struct("f", (Atom("a"), x)), Struct("f", (Atom("b"), y)), t)
    assert t.entries.appended == []
    assert x.ref is None and y.ref is None
    # the pairs of a nested compound come before its parent's later ones
    assert not unify(Struct("f", (Struct("g", (Int(1),)), x)), Struct("f", (Struct("g", (Int(2),)), y)), t)
    assert t.entries.appended == []


def test_a_zero_argument_compound_unifies_with_an_equal_one():
    f0, g0 = Struct("f", ()), Struct("g", ())
    t = Trail()
    assert unify(f0, Struct("f", ()), t) and term_equal(f0, Struct("f", ()))
    assert not unify(f0, g0, t) and not term_equal(f0, g0)
    assert not unify(f0, Struct("f", (Atom("a"),)), t)
    assert not term_equal(f0, Struct("f", (Atom("a"),)))
    assert not term_equal(Struct("f", (Atom("a"),)), f0)
    # as an argument, the walk goes on to the pairs after it
    x = Var()
    assert unify(Struct("h", (f0, x)), Struct("h", (Struct("f", ()), Atom("a"))), t)
    assert deref(x) is Atom("a") and t.entries == [x]
    assert term_equal(Struct("h", (f0, x)), Struct("h", (Struct("f", ()), Atom("a"))))


class _Cyclic(Exception):
    pass


def _occurs(v, t) -> bool:
    t = deref(t)
    if t is v:
        return True
    return type(t) is Struct and any(_occurs(v, x) for x in t.args)


def _reference_unify(a, b) -> bool:
    """Recursive unification, arguments left to right. Raises _Cyclic where
    a binding would build a cyclic term, so that the pair can be left out."""
    a, b = deref(a), deref(b)
    if a is b:
        return True
    if type(b) is Var:
        a, b = b, a
    if type(a) is Var:
        if _occurs(a, b):
            raise _Cyclic
        a.ref = b
        return True
    if type(a) is not type(b) or type(a) is Atom:
        return False
    if type(a) is Int:
        return a.value == b.value
    return (
        a.functor is b.functor
        and len(a.args) == len(b.args)
        and all(_reference_unify(x, y) for x, y in zip(a.args, b.args))
    )


def _reference_equal(a, b) -> bool:
    a, b = deref(a), deref(b)
    if a is b:
        return True
    if type(a) is not type(b) or type(a) in (Var, Atom):
        return False
    if type(a) is Int:
        return a.value == b.value
    return (
        a.functor is b.functor
        and len(a.args) == len(b.args)
        and all(_reference_equal(x, y) for x, y in zip(a.args, b.args))
    )


def _gen(rng, depth, pool):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(pool)
        return Atom(rng.choice("ab")) if kind == 1 else Int(rng.randrange(3))
    args = tuple(_gen(rng, depth - 1, pool) for _ in range(rng.randint(1, 5)))
    return Struct(rng.choice("fg"), args)


def _instance(rng, t, depth, pool):
    """t with some subterms replaced by variables and some variables by
    terms: it unifies with t unless a shared variable meets two values or
    would build a cycle."""
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(pool)
    if type(t) is Var:
        return _gen(rng, depth, pool) if roll < 0.6 else t
    if type(t) is Struct:
        return Struct(t.functor, tuple(_instance(rng, x, depth - 1, pool) for x in t.args))
    return t


def test_unify_and_term_equal_agree_with_a_recursive_reference():
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        pool = [Var() for _ in range(6)]
        a = _gen(rng, 4, pool)
        b = _instance(rng, a, 4, pool) if rng.random() < 0.5 else _gen(rng, 4, pool)
        ref = copy_term(Struct("p", (a, b)))
        assert _reference_equal(a, b) == term_equal(a, b)
        try:
            expected = _reference_unify(ref.args[0], ref.args[1])
        except _Cyclic:
            continue
        t = Trail()
        old = Var()
        assert unify(old, Atom("kept"), t)
        mark = t.mark()
        assert unify(a, b, t) is expected
        outcomes[expected] += 1
        if expected:
            assert term_equal(a, b)
            assert variant(Struct("p", (a, b)), ref)
        else:
            assert all(v.ref is None for v in pool)
            assert t.mark() == mark and t.entries == [old]
        assert _reference_equal(a, b) == term_equal(a, b)
    assert min(outcomes.values()) > 120, outcomes


def test_unify_binds_the_younger_variable_to_the_older():
    t = Trail()
    older, younger = Var(), Var()
    assert unify(older, younger, t)
    assert younger.ref is older and older.ref is None
    older, younger = Var(), Var()
    assert unify(younger, older, t)
    assert younger.ref is older and older.ref is None
    # a variable meeting a non-variable is bound on either side
    v = Var()
    assert unify(Int(3), v, t) and deref(v).value == 3


def test_unify_trails_only_variables_older_than_the_boundary():
    from hornlog.terms import next_stamp

    older = Var()
    t = Trail()
    t.boundary = next_stamp()
    younger = Var()
    assert unify(Struct("p", (older, younger)), Struct("p", (Atom("a"), Atom("b"))), t)
    assert t.entries == [older]


@pytest.mark.parametrize("right_leaf, unifies", [(Atom("a"), True), (Atom("b"), False)])
def test_unify_of_two_deep_terms_has_no_recursion(right_leaf, unifies):
    n = 200_000
    x = Var()
    left, right = Struct("g", (x, Atom("a"))), Struct("g", (Atom("a"), right_leaf))
    for _ in range(n):
        left = Struct("f", (left,))
        right = Struct("f", (right,))
    t = Trail()
    assert unify(left, right, t) is unifies
    assert (deref(x) is Atom("a")) is unifies
    assert len(t.entries) == (1 if unifies else 0)
