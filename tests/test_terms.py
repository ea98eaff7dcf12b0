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
    variant,
)
from hornlog.terms import list_parts, term_vars

from conftest import random_term, vars_below


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
    # the pairs are taken from the last argument back, so every binding
    # below is made before the first arguments clash
    a = Struct("f", (Atom("a"), Struct("g", (x, Int(1))), y, make_list([z, w])))
    b = Struct("f", (Atom("b"), Struct("g", (Int(7), Int(1))), Atom("q"), make_list([Int(2), Int(3)])))
    assert not unify(a, b, t)
    assert all(v.ref is None for v in (x, y, z, w))
    assert t.entries == [old] and deref(old) is Atom("kept")
    # an integer or arity clash after bindings rolls back the same way
    assert not unify(Struct("h", (Int(1), x)), Struct("h", (Int(2), y)), t)
    assert not unify(Struct("h", (Struct("k", (y,)), x)), Struct("h", (Struct("k", (y, y)), z)), t)
    assert all(v.ref is None for v in (x, y, z, w)) and t.entries == [old]


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
