"""Canonical term output: reparses to a variant of the input.

Operators print infix/prefix per the fixed table, lists in bracket notation,
unbound variables as _G<serial>, integers in full at any length. Nesting
beyond the depth limit is elided with `...`. A term can only cycle through
a bound variable (possible without an occurs check), so a bound variable
met again inside its own value is written as `...` too, and a cycle is
written once however many arguments it runs through. A list's elements
nest but its spine does not, so a list prints in full at any length; a
spine that cycles back on itself ends in `|...`.

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

from .reader import INFIX, PREFIX, SYMBOL_CHARS, is_ident_char
from .terms import DOT, NIL, Atom, Int, Struct, Var, deref

MAX_DEPTH = 64

_BARE_ALONE = ("[]", "!", ";")  # '[]'(a), '!'(a) and ';'(a) read back; [](a) does not


def _runs_together(a: str, b: str) -> bool:
    """Whether the chars a and b, written side by side, read as one token."""
    return (a in SYMBOL_CHARS and b in SYMBOL_CHARS) or (
        is_ident_char(a) and is_ident_char(b)
    )


def _needs_quote(name: str) -> bool:
    """Whether the name must be quoted as a functor."""
    if not name:
        return True
    if name[0].isalpha() and name[0].islower() and all(is_ident_char(c) for c in name):
        return False
    if name != "." and all(c in SYMBOL_CHARS for c in name):  # a lone . ends a clause
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


_SHORT_INT = 10**500  # str() writes anything below: a host's digit limit is 0 or >= 640


def _long_int_text(v: int) -> str:
    """The decimal text of an integer too long for str() under the host's
    int/str digit limit, written in parts that each stay under it."""
    if v < 0:
        return "-" + _long_int_text(-v)
    if v < _SHORT_INT:
        return str(v)
    k = v.bit_length() * 3 // 20  # about half of v's decimal digits
    hi, lo = divmod(v, 10**k)
    return _long_int_text(hi) + _long_int_text(lo).zfill(k)


def write_term(t) -> str:
    out: list[str] = []
    _emit(t, 1200, 0, out, False, ())
    return "".join(out)


def _emit(t, max_p: int, depth: int, out: list[str], operand: bool, path: tuple):
    """Append the tokens of t, written to fit priority max_p, below the
    bound variables in path. When what it appends starts with `(`, returns
    the priority the inside of that `(` reads at if the `(` closes only at
    the end, else _UNGROUPED."""
    if depth > MAX_DEPTH:
        out.append("...")
        return
    tt = type(t)
    if tt is Var:
        v = t
        t = deref(t)
        tt = type(t)
        if tt is Var:
            out.append(f"_G{t.serial}")
            return
        if tt is Struct:
            if v in path:  # a cycle closes here
                out.append("...")
                return
            return _emit(t, max_p, depth, out, operand, path + (v,))
    if tt is Atom:
        tok = _TOKENS.get(t) or _atom_token(t)
        out.append("(" + tok + ")" if operand and t in _OPERATORS else tok)
        return 0
    if tt is Int:
        try:
            out.append(str(t.value))
        except ValueError:  # past the host's int/str digit limit
            out.append(_long_int_text(t.value))
        return
    # compound
    f = t.functor
    args = t.args
    if len(args) == 2:
        if f is DOT:
            _emit_list(t, depth, out, path)
            return
        op = _INFIX.get(f)
        if op is not None:
            tok, p, lmax, rmax = op
            wrap = p > max_p
            if wrap:
                out.append("(")
            _emit(args[0], lmax, depth + 1, out, True, path)
            if _runs_together(out[-1][-1], tok[0]):
                tok = " " + tok
            out.append(tok)
            i = len(out)
            _emit(args[1], rmax, depth + 1, out, True, path)
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
            inside = _emit(args[0], amax, depth + 1, out, True, path)
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
        # a variable goes to _emit, which keeps the path of bound ones
        ta = type(a)
        if ta is Atom and depth <= MAX_DEPTH:
            out.append(_TOKENS.get(a) or _atom_token(a))
        elif ta is Int and depth <= MAX_DEPTH:
            try:
                out.append(str(a.value))
            except ValueError:
                out.append(_long_int_text(a.value))
        else:
            _emit(a, 999, depth, out, False, path)
    out.append(")")


def _emit_list(t, depth: int, out: list[str], path: tuple):
    # the spine is written in a loop at any length; only the elements nest.
    # Struct arguments never change, so a spine can only cycle through a
    # bound variable: a repeated one ends the list as |...
    out.append("[")
    depth += 1
    seen: set[Var] = set()
    while True:
        a = t.args[0]
        ta = type(a)
        if ta is Atom and depth <= MAX_DEPTH:
            out.append(_TOKENS.get(a) or _atom_token(a))
        elif ta is Int and depth <= MAX_DEPTH:
            try:
                out.append(str(a.value))
            except ValueError:
                out.append(_long_int_text(a.value))
        else:
            _emit(a, 999, depth, out, False, path)
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
                _emit(tail, 999, depth, out, False, path + tuple(seen))
            out.append("]")
            return
