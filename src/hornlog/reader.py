"""Reader for the Prolog subset: tokenizer and operator-precedence parser.

The operator table is fixed and closed. Variables sharing a name within one
term parse to the same Var; `_` is always fresh. Clauses end with `.`
followed by layout or end of input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Atom, Int, Struct, Var, make_list

# (priority, type); type in xfx/xfy/yfx
INFIX = {
    ":-": (1200, "xfx"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "is": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=>": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "mod": (400, "yfx"),
}

PREFIX = {
    ":-": (1200, "fx"),
    "-": (200, "fy"),
}

# The lexical classes: a run of symbol chars or of identifier chars reads
# as one token. The writer spaces its output by the same classes.
SYMBOL_CHARS = frozenset("+-*/\\^<>=~:.?@#&")
_SOLO = set("!;")


def is_ident_char(c: str) -> bool:
    """Whether c continues a name or a variable: a letter or number of any
    script, or `_`."""
    return c.isalnum() or c == "_"


# Terms nested deeper than this are refused with a ParseError, so that
# outside input cannot exhaust the host stack the parser recurses on.
MAX_NESTING = 400


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col


# token kinds: atom var int punct end eof
@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int
    value: int = 0
    functor: bool = False  # atom immediately followed by '('


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    n = len(text)
    line = 1
    bol = -1  # index before the first column of the current line

    def err(msg, at):
        raise ParseError(msg, line, at - bol)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            bol = i
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - bol
        if c.isdecimal():  # not isdigit: int() refuses digits such as ²
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # longer than the host's int/str conversion limit
                err(f"integer literal of {j - i} digits is too long", i)
            toks.append(Token("int", text[i:j], line, col, value=value))
            i = j
            continue
        if c == "_" or c.isalpha():
            j = i
            # is_ident_char inlined: a call per char reads the prelude a sixth slower
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "atom"
            tok = Token(kind, word, line, col)
            if kind == "atom" and j < n and text[j] == "(":
                tok.functor = True
            toks.append(tok)
            i = j
            continue
        if c == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    err("unterminated quoted atom", i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                if text[j] == "\n":
                    line += 1
                    bol = j
                buf.append(text[j])
                j += 1
            tok = Token("atom", "".join(buf), line, col)
            if j < n and text[j] == "(":
                tok.functor = True
            toks.append(tok)
            i = j
            continue
        if c in "()[]|,":
            toks.append(Token("punct", c, line, col))
            i += 1
            continue
        if c in _SOLO:
            toks.append(Token("atom", c, line, col))
            i += 1
            continue
        if c == ".":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "" or nxt.isspace() or nxt == "%":
                toks.append(Token("end", ".", line, col))
                i += 1
                continue
            # fall through: part of a symbolic atom
        if c in SYMBOL_CHARS:
            j = i
            while j < n and text[j] in SYMBOL_CHARS:
                j += 1
            tok = Token("atom", text[i:j], line, col)
            if j < n and text[j] == "(":
                tok.functor = True
            toks.append(tok)
            i = j
            continue
        err(f"unexpected character {c!r}", i)
    toks.append(Token("eof", "", line, n - bol))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.varmap: dict[str, Var] = {}
        self.varorder: list[str] = []
        self.depth = 0  # calls of parse open: the nesting of the term being read

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect_punct(self, ch: str):
        t = self.take()
        if t.kind != "punct" or t.text != ch:
            self.error(f"expected {ch!r}, found {t.text!r}", t)

    def reset_vars(self):
        self.varmap.clear()
        self.varorder.clear()

    def _var(self, name: str) -> Var:
        if name == "_":
            return Var()
        v = self.varmap.get(name)
        if v is None:
            v = self.varmap[name] = Var()
            self.varorder.append(name)
        return v

    def _starts_term(self, tok: Token) -> bool:
        if tok.kind in ("int", "var", "atom"):
            return True
        return tok.kind == "punct" and tok.text in ("(", "[")

    def parse(self, max_p: int):
        """Read a term of priority at most max_p. Brackets, arguments and
        prefix operands nest calls of parse, so their depth is limited."""
        depth = self.depth
        if depth > MAX_NESTING:
            self.error(f"term nested deeper than {MAX_NESTING}")
        self.depth = depth + 1
        left, left_p = self.primary(max_p)
        # (name, left operand, priority) of the xfy operators awaiting the
        # end of their right operand: a chain such as a,b,c is read in this
        # loop and folded to the right, not nested
        pending = None
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == ",":
                name = ","
            elif tok.kind == "atom":
                # the functor flag only matters in operand position:
                # in X=(...) the '=' is an operator before a parenthesized term
                name = tok.text
            else:
                break
            entry = INFIX.get(name)
            if entry is None:
                break
            p, typ = entry
            while pending and p > pending[-1][2]:  # ends the right operand
                left, left_p = self._fold(pending, left)
            if p > max_p:
                break
            lmax = p if typ == "yfx" else p - 1
            if left_p > lmax:
                break
            self.take()
            if typ == "xfy":
                if pending is None:
                    pending = []
                pending.append((name, left, p))
                left, left_p = self.primary(p)
                continue
            right, _ = self.parse(p - 1)
            left = Struct(name, (left, right))
            left_p = p
        while pending:
            left, left_p = self._fold(pending, left)
        self.depth = depth
        return left, left_p

    @staticmethod
    def _fold(pending: list, right):
        name, left, p = pending.pop()
        return Struct(name, (left, right)), p

    def primary(self, max_p: int):
        tok = self.take()
        if tok.kind == "int":
            return Int(tok.value), 0
        if tok.kind == "var":
            return self._var(tok.text), 0
        if tok.kind == "punct":
            if tok.text == "(":
                t, _ = self.parse(1200)
                self.expect_punct(")")
                return t, 0
            if tok.text == "[":  # read here, not in a helper: one frame less per level
                if self.peek().kind == "punct" and self.peek().text == "]":
                    self.take()
                    return Atom("[]"), 0
                items = [self.parse(999)[0]]
                tail = Atom("[]")
                while True:
                    tok = self.take()
                    if tok.kind == "punct" and tok.text == ",":
                        items.append(self.parse(999)[0])
                        continue
                    if tok.kind == "punct" and tok.text == "|":
                        tail = self.parse(999)[0]
                        self.expect_punct("]")
                        break
                    if tok.kind == "punct" and tok.text == "]":
                        break
                    self.error(f"expected ',', '|' or ']', found {tok.text!r}", tok)
                return make_list(items, tail), 0
            self.error(f"unexpected {tok.text!r}", tok)
        if tok.kind == "atom":
            name = tok.text
            if tok.functor:
                self.expect_punct("(")
                args = [self.parse(999)[0]]
                while self.peek().kind == "punct" and self.peek().text == ",":
                    self.take()
                    args.append(self.parse(999)[0])
                self.expect_punct(")")
                return Struct(name, tuple(args)), 0
            entry = PREFIX.get(name)
            if entry is not None and entry[0] <= max_p and self._starts_term(self.peek()):
                p, typ = entry
                if name == "-" and self.peek().kind == "int":
                    return Int(-self.take().value), 0
                arg, _ = self.parse(p if typ == "fy" else p - 1)
                return Struct(name, (arg,)), p
            # a bare operator symbol in argument position is a plain atom
            return Atom(name), 0
        self.error("unexpected end of input", tok)


def parse_term(text: str):
    """Parse a single term; a trailing clause terminator is allowed."""
    term, _names = parse_term_with_names(text)
    return term


def parse_term_with_names(text: str):
    """Parse a single term; also return its named variables in source order."""
    p = _Parser(tokenize(text))
    term, _ = p.parse(1200)
    tok = p.take()
    if tok.kind == "end":
        tok = p.take()
    if tok.kind != "eof":
        p.error(f"unexpected {tok.text!r} after term", tok)
    return term, [(name, p.varmap[name]) for name in p.varorder]


@dataclass
class SourceClause:
    head: object
    body: object  # goal conjunction; the atom true for a fact
    origin: tuple[str, int] | None = None


def parse_program(text: str, source_name: str = "<string>") -> list[SourceClause]:
    """Parse a clause sequence. `H:-B` gives (H,B); a fact H gives (H,true)."""
    p = _Parser(tokenize(text))
    clauses: list[SourceClause] = []
    while p.peek().kind != "eof":
        p.reset_vars()
        start = p.peek()
        term, _ = p.parse(1200)
        tok = p.take()
        if tok.kind != "end":
            p.error(f"expected '.' to end clause, found {tok.text!r}", tok)
        origin = (source_name, start.line)
        if type(term) is Struct and term.name == ":-" and len(term.args) == 2:
            head, body = term.args
        elif type(term) is Struct and term.name == ":-" and len(term.args) == 1:
            raise ParseError("directives are not supported", start.line, start.col)
        else:
            head, body = term, Atom("true")
        if type(head) not in (Atom, Struct):
            raise ParseError("clause head must be an atom or compound", start.line, start.col)
        clauses.append(SourceClause(head, body, origin))
    return clauses
