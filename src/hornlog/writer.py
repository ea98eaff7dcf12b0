"""Canonical term output: reparses to a variant of the input.

Operators print infix/prefix per the fixed table, lists in bracket notation,
unbound variables as _G<serial>. Nesting beyond the depth limit is elided
with `...` so cyclic terms (possible without an occurs check) still print.
A list's elements nest but its spine does not, so a list prints in full at
any length; a spine that cycles back on itself ends in `|...`.
"""

from __future__ import annotations

from .reader import INFIX, PREFIX
from .terms import DOT, NIL, Atom, Int, Struct, Var, deref

MAX_DEPTH = 64

_SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&")


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _atom_needs_quote(name: str) -> bool:
    if name in ("[]", "!", ";"):
        return False
    if not name:
        return True
    if name[0].isalpha() and name[0].islower() and all(_is_ident_char(c) for c in name):
        return False
    if name != "." and all(c in _SYMBOL_CHARS for c in name):  # a lone . ends a clause
        return False
    return True


def _atom_token(name: str) -> str:
    if _atom_needs_quote(name):
        return "'" + name.replace("'", "''") + "'"
    return name


def write_term(t) -> str:
    toks: list[str] = []
    _emit(t, 1200, 0, toks, operand=False)
    return _join(toks)


def _emit(t, max_p: int, depth: int, out: list[str], operand: bool):
    t = deref(t)
    if depth > MAX_DEPTH:
        out.append("...")
        return
    tt = type(t)
    if tt is Var:
        out.append(f"_G{t.serial}")
        return
    if tt is Int:
        out.append(str(t.value))
        return
    if tt is Atom:
        name = t.name
        # an operator-named atom as an operator's operand needs parentheses
        if operand and (name in INFIX or name in PREFIX):
            out.append("(")
            out.append(_atom_token(name))
            out.append(")")
        else:
            out.append(_atom_token(name))
        return
    # compound
    if t.functor is DOT and len(t.args) == 2:
        _emit_list(t, depth, out)
        return
    name = t.name
    if len(t.args) == 2 and name in INFIX:
        p, typ = INFIX[name]
        lmax = p if typ == "yfx" else p - 1
        rmax = p if typ == "xfy" else p - 1
        wrap = p > max_p
        if wrap:
            out.append("(")
        _emit(t.args[0], lmax, depth + 1, out, operand=True)
        out.append("," if name == "," else _atom_token(name))
        _emit(t.args[1], rmax, depth + 1, out, operand=True)
        if wrap:
            out.append(")")
        return
    if len(t.args) == 1 and name in PREFIX:
        # -(3) must not print as -3, which would read back as an integer
        if not (name == "-" and type(deref(t.args[0])) is Int):
            p, typ = PREFIX[name]
            wrap = p > max_p
            if wrap:
                out.append("(")
            out.append(_atom_token(name))
            _emit(t.args[0], p if typ == "fy" else p - 1, depth + 1, out, operand=True)
            if wrap:
                out.append(")")
            return
    out.append(_atom_token(name))
    out.append("(")
    for i, a in enumerate(t.args):
        if i:
            out.append(",")
        _emit(a, 999, depth + 1, out, operand=False)
    out.append(")")


def _emit_list(t, depth: int, out: list[str]):
    # the spine is written in a loop at any length; only the elements nest.
    # Struct arguments never change, so a spine can only cycle through a
    # bound variable: a repeated one ends the list as |...
    out.append("[")
    seen: set[Var] = set()
    while True:
        _emit(t.args[0], 999, depth + 1, out, operand=False)
        tail = t.args[1]
        while type(tail) is Var and tail.ref is not None:
            if tail in seen:
                out.append("|...]")
                return
            seen.add(tail)
            tail = tail.ref
        if type(tail) is Struct and tail.functor is DOT and len(tail.args) == 2:
            out.append(",")
            t = tail
        else:
            if tail is not NIL:
                out.append("|")
                _emit(tail, 999, depth + 1, out, operand=False)
            out.append("]")
            return


def _join(tokens: list[str]) -> str:
    parts: list[str] = []
    prev = ""
    for tk in tokens:
        if not tk:
            continue
        if parts:
            a, b = prev[-1], tk[0]
            if (a in _SYMBOL_CHARS and b in _SYMBOL_CHARS) or (
                _is_ident_char(a) and _is_ident_char(b)
            ):
                parts.append(" ")
        parts.append(tk)
        prev = tk
    return "".join(parts)
