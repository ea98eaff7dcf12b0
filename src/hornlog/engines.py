"""The engine builtins.

new_engine, get, stop and to_engine mirror the host's Session.new_engine
and Machine.get, stop and to_engine one-to-one (return/from_engine run
inside engine code): a Machine is its own handle. get never raises: every
outcome is normalized to the(Term) or no, and machine faults are reported
on the session's diagnostic channel.
"""

from __future__ import annotations

from .machine import NO, Machine, builtin, handle_id, new
from .terms import Atom, Int, Struct, Var, unify


@builtin("new_engine", 3)
def _bi_new_engine(m, args, rest):
    return unify(args[2], m.session.spawn(args[0], args[1]).term, m.trail)


_THE = Atom("the")
_ATOM_NO = Atom("no")
_ENGINE = Machine.FUNCTOR


@builtin("get", 2)
def _bi_get(m, args, rest):
    # the id of an '$engine'(Id) term is read here; handle_id reads any
    # other form of it, and faults on a term that is no engine handle
    t = args[0]
    while type(t) is Var and t.ref is not None:
        t = t.ref
    if type(t) is Struct and t.functor is _ENGINE and len(t.args) == 1 and type(t.args[0]) is Int:
        eid = t.args[0].value
    else:
        eid = handle_id(t, Machine)
    ans = m.session.get_by_id(eid)
    if ans is NO:
        return unify(args[1], _ATOM_NO, m.trail)
    t = new(Struct)
    t.functor = _THE
    t.args = (ans.value,)
    return unify(args[1], t, m.trail)


@builtin("stop", 1)
def _bi_stop(m, args, rest):
    m.session.stop_id(handle_id(args[0], Machine))
    # an engine that stopped itself runs none of the rest of its goal
    return NO if m.dead else True


@builtin("to_engine", 2)
def _bi_to_engine(m, args, rest):
    return m.session.to_id(handle_id(args[0], Machine), args[1])
