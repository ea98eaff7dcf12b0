"""Canonical term output: reparses to a variant of the input.

Operators print infix/prefix per the fixed table, lists in bracket notation,
unbound variables as _G<serial>. Nesting beyond the depth limit is elided
with `...` so cyclic terms (possible without an occurs check) still print.
A list's elements nest but its spine does not, so a list prints in full at
any length; a spine that cycles back on itself ends in `|...`.

A term is written in one pass: its tokens go straight into one list, which
is joined once. Brackets, commas and `|` separate tokens by themselves, so
two tokens can only run together where one of them is an operator. Spacing
is therefore decided on each side of an infix operator and after a prefix
one: a space goes between two symbol-char or two identifier-char ends
(`a- -1`, `1 mod 2`), and after a prefix operator whose operand starts with
a `(` that would otherwise read as the operator's argument list (`- (a,b)`,
but `-(a+b)`, which reads back as the same term either way).

The token of each atom, quoted where it must be, is computed the first time
the atom is written and kept, keyed by the interned Atom: one string per
atom ever written, as `Atom` itself keeps every atom for the process's life.
`[]`, `!` and `;` are written bare alone but quoted as a functor.
"""

from __future__ import annotations

from .reader import INFIX, PREFIX
from .terms import DOT, NIL, Atom, Int, Struct, Var, deref

MAX_DEPTH = 64

_SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&")
_BARE_ALONE = ("[]", "!", ";")  # '[]'(a), '!'(a) and ';'(a) read back; [](a) does not


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _runs_together(a: str, b: str) -> bool:
    """Whether the chars a and b, written side by side, read as one token."""
    return (a in _SYMBOL_CHARS and b in _SYMBOL_CHARS) or (
        _is_ident_char(a) and _is_ident_char(b)
    )


def _needs_quote(name: str) -> bool:
    """Whether the name must be quoted as a functor."""
    if not name:
        return True
    if name[0].isalpha() and name[0].islower() and all(_is_ident_char(c) for c in name):
        return False
    if name != "." and all(c in _SYMBOL_CHARS for c in name):  # a lone . ends a clause
        return False
    return True


def _quote(name: str) -> str:
    return "'" + name.replace("'", "''") + "'"


_TOKENS: dict[Atom, str] = {}  # an atom's token when it stands alone
_FUNCTOR_TOKENS: dict[Atom, str] = {}  # its token as a compound's functor


def _atom_token(a: Atom) -> str:
    name = a.name
    tok = _TOKENS[a] = name if name in _BARE_ALONE or not _needs_quote(name) else _quote(name)
    return tok


def _functor_token(f: Atom) -> str:
    name = f.name
    tok = _FUNCTOR_TOKENS[f] = _quote(name) if _needs_quote(name) else name
    return tok


# functor -> (token, priority, left max, right max)
_INFIX = {
    Atom(name): (name, p, p if typ == "yfx" else p - 1, p if typ == "xfy" else p - 1)
    for name, (p, typ) in INFIX.items()
}
# functor -> (token, priority, operand max)
_PREFIX = {Atom(name): (name, p, p if typ == "fy" else p - 1) for name, (p, typ) in PREFIX.items()}
_OPERATORS = _INFIX.keys() | _PREFIX.keys()  # written (op) as an operator's operand
_MINUS = Atom("-")
_UNGROUPED = 1201  # what _emit wrote is not one parenthesised group


def write_term(t) -> str:
    out: list[str] = []
    _emit(t, 1200, 0, out, False)
    return "".join(out)


def _emit(t, max_p: int, depth: int, out: list[str], operand: bool):
    """Append the tokens of t, written to fit priority max_p. When what it
    appends starts with `(`, returns the priority the inside of that `(`
    reads at if the `(` closes only at the end, else _UNGROUPED."""
    if depth > MAX_DEPTH:
        out.append("...")
        return
    tt = type(t)
    if tt is Var:
        t = deref(t)
        tt = type(t)
        if tt is Var:
            out.append(f"_G{t.serial}")
            return
    if tt is Atom:
        tok = _TOKENS.get(t) or _atom_token(t)
        out.append("(" + tok + ")" if operand and t in _OPERATORS else tok)
        return 0
    if tt is Int:
        out.append(str(t.value))
        return
    # compound
    f = t.functor
    args = t.args
    if len(args) == 2:
        if f is DOT:
            _emit_list(t, depth, out)
            return
        op = _INFIX.get(f)
        if op is not None:
            tok, p, lmax, rmax = op
            wrap = p > max_p
            if wrap:
                out.append("(")
            _emit(args[0], lmax, depth + 1, out, True)
            if _runs_together(out[-1][-1], tok[0]):
                tok = " " + tok
            out.append(tok)
            i = len(out)
            _emit(args[1], rmax, depth + 1, out, True)
            if _runs_together(tok[-1], out[i][0]):
                out[i - 1] = tok + " "
            if wrap:
                out.append(")")
                return p
            return _UNGROUPED
    elif len(args) == 1:
        op = _PREFIX.get(f)
        # -(3) must not print as -3, which would read back as an integer
        if op is not None and not (f is _MINUS and type(deref(args[0])) is Int):
            tok, p, amax = op
            wrap = p > max_p
            if wrap:
                out.append("(")
            out.append(tok)
            i = len(out)
            inside = _emit(args[0], amax, depth + 1, out, True)
            c = out[i][0]
            if c == "(" and inside <= 999:
                # op(...) reads as op applied to what the parentheses hold:
                # this very term when they hold the whole operand and it fits
                # an argument, as in -(a+b); read that way it is a primary
                p = 0
            elif c == "(" or _runs_together(tok[-1], c):
                out[i - 1] = tok + " "  # - (a,b), :- (a:-b),c, - -a
            if wrap:
                out.append(")")
                return p
            return _UNGROUPED
    out.append(_FUNCTOR_TOKENS.get(f) or _functor_token(f))
    depth += 1
    sep = "("
    for a in args:
        out.append(sep)
        sep = ","
        if type(a) is Var:
            a = deref(a)
        ta = type(a)
        if ta is Atom and depth <= MAX_DEPTH:
            out.append(_TOKENS.get(a) or _atom_token(a))
        elif ta is Int and depth <= MAX_DEPTH:
            out.append(str(a.value))
        else:
            _emit(a, 999, depth, out, False)
    out.append(")")


def _emit_list(t, depth: int, out: list[str]):
    # the spine is written in a loop at any length; only the elements nest.
    # Struct arguments never change, so a spine can only cycle through a
    # bound variable: a repeated one ends the list as |...
    out.append("[")
    depth += 1
    seen: set[Var] = set()
    while True:
        a = t.args[0]
        if type(a) is Var:
            a = deref(a)
        ta = type(a)
        if ta is Atom and depth <= MAX_DEPTH:
            out.append(_TOKENS.get(a) or _atom_token(a))
        elif ta is Int and depth <= MAX_DEPTH:
            out.append(str(a.value))
        else:
            _emit(a, 999, depth, out, False)
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
                _emit(tail, 999, depth, out, False)
            out.append("]")
            return
