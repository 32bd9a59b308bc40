"""Lexer and recursive-descent parser for model files.

Parsing is total: every lexical or syntactic problem is recorded as a
positioned diagnostic and the parser resynchronizes at the next block
keyword or closing brace, so one pass collects multiple errors.
"""

from __future__ import annotations

from fractions import Fraction

from .ast import (Br, DerivationNode, DiffDecl, Document, ExpAd, Expr,
                  FiltDecl, GenDecl, HomotopyNode, McDecl, ModelNode,
                  MorphismNode, Ref, Term, TruncDecl, expr_of)

BLOCK_KEYWORDS = {"model", "morphism", "derivation", "homotopy"}
DECL_KEYWORDS = {"gen", "d", "mc", "filtration", "truncate"}


class Diagnostic:
    __slots__ = ("line", "col", "severity", "message")

    def __init__(self, line: int, col: int, severity: str, message: str):
        self.line = line
        self.col = col
        self.severity = severity
        self.message = message

    def __str__(self):
        return "%d:%d: %s: %s" % (self.line, self.col, self.severity, self.message)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind      # IDENT, INT, SYM, EOF
        self.text = text
        self.line = line
        self.col = col


def lex(text):
    tokens = []
    diags = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(Token("SYM", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}()[],:=+-*/^|":
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        diags.append(Diagnostic(line, col, "error", "unexpected character %r" % ch))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens, diags


class Parser:
    def __init__(self, text):
        self.tokens, self.diags = lex(text)
        self.pos = 0

    # -- plumbing ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind, text=None):
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def error(self, message, tok=None):
        tok = tok or self.peek()
        self.diags.append(Diagnostic(tok.line, tok.col, "error", message))

    def expect(self, kind, text=None):
        if self.at(kind, text):
            return self.advance()
        want = text or kind
        self.error("expected %r, got %r" % (want, self.peek().text or "end of input"))
        return None

    def sync_to(self, stops):
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text in stops:
                return
            if tok.kind == "SYM" and tok.text in stops:
                return
            self.advance()

    # -- entry ---------------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document()
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "model":
                node = self.parse_model()
            elif tok.kind == "IDENT" and tok.text == "morphism":
                node = self.parse_block(MorphismNode, "morphism", arrow=True)
            elif tok.kind == "IDENT" and tok.text == "derivation":
                node = self.parse_derivation()
            elif tok.kind == "IDENT" and tok.text == "homotopy":
                node = self.parse_block(HomotopyNode, "homotopy", arrow=True)
            else:
                self.error("expected a top-level block (model, morphism, "
                           "derivation or homotopy)")
                self.sync_to(BLOCK_KEYWORDS)
                continue
            if node is not None:
                doc.items.append(node)
        return doc

    # -- blocks ----------------------------------------------------------------

    def parse_model(self):
        start = self.advance()
        name_tok = self.expect("IDENT")
        if name_tok is None:
            self.sync_to(BLOCK_KEYWORDS | {"}"})
            return None
        node = ModelNode(name_tok.text, pos=(start.line, start.col))
        if self.expect("SYM", "{") is None:
            self.sync_to(BLOCK_KEYWORDS)
            return node
        while not self.at("SYM", "}") and not self.at("EOF"):
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in DECL_KEYWORDS:
                self.error("expected a declaration (gen, d, mc, filtration, "
                           "truncate)")
                self.sync_to(DECL_KEYWORDS | {"}"} | BLOCK_KEYWORDS)
                if self.at("IDENT") and self.peek().text in BLOCK_KEYWORDS:
                    return node
                continue
            decl = getattr(self, "parse_" + tok.text + "_decl")()
            if decl is not None:
                node.decls.append(decl)
        self.expect("SYM", "}")
        return node

    def parse_gen_decl(self):
        start = self.advance()
        name = self.expect("IDENT")
        if name is None or self.expect("SYM", ":") is None:
            self.sync_to(DECL_KEYWORDS | {"}"})
            return None
        deg = self.parse_signed_int()
        if deg is None:
            self.sync_to(DECL_KEYWORDS | {"}"})
            return None
        return GenDecl(name.text, deg, pos=(start.line, start.col))

    def parse_d_decl(self):
        start = self.advance()
        name = self.expect("IDENT")
        if name is None or self.expect("SYM", "=") is None:
            self.sync_to(DECL_KEYWORDS | {"}"})
            return None
        expr = self.parse_expr()
        return DiffDecl(name.text, expr, pos=(start.line, start.col))

    def parse_mc_decl(self):
        start = self.advance()
        name = self.expect("IDENT")
        if name is None:
            self.sync_to(DECL_KEYWORDS | {"}"})
            return None
        expr = None
        if self.at("SYM", "="):
            self.advance()
            expr = self.parse_expr()
        return McDecl(name.text, expr, pos=(start.line, start.col))

    def parse_filtration_decl(self):
        start = self.advance()
        name = self.expect("IDENT")
        if name is None or self.expect("SYM", "{") is None:
            self.sync_to(DECL_KEYWORDS | {"}"})
            return None
        levels = []
        level = []
        while not self.at("SYM", "}") and not self.at("EOF"):
            if self.at("SYM", "|"):
                self.advance()
                levels.append(tuple(level))
                level = []
                continue
            tok = self.expect("IDENT")
            if tok is None:
                self.sync_to({"|", "}"})
                continue
            level.append(tok.text)
        levels.append(tuple(level))
        self.expect("SYM", "}")
        return FiltDecl(name.text, tuple(levels), pos=(start.line, start.col))

    def parse_truncate_decl(self):
        start = self.advance()
        cap_tok = self.expect("INT")
        if cap_tok is None:
            self.sync_to(DECL_KEYWORDS | {"}"})
            return None
        max_degree = None
        if self.at("IDENT", "degree"):
            self.advance()
            max_degree = self.parse_signed_int()
        return TruncDecl(int(cap_tok.text), max_degree, pos=(start.line, start.col))

    def parse_block(self, cls, kw, arrow):
        start = self.advance()
        name = self.expect("IDENT")
        if name is None or self.expect("SYM", ":") is None:
            self.sync_to(BLOCK_KEYWORDS)
            return None
        src = self.expect("IDENT")
        tgt = None
        if arrow:
            if self.expect("SYM", "->") is None or src is None:
                self.sync_to(BLOCK_KEYWORDS)
                return None
            tgt = self.expect("IDENT")
        if src is None or (arrow and tgt is None):
            self.sync_to(BLOCK_KEYWORDS)
            return None
        node = cls(name.text, src.text, tgt.text, pos=(start.line, start.col))
        self._parse_assign_body(node)
        return node

    def parse_derivation(self):
        start = self.advance()
        name = self.expect("IDENT")
        if name is None or self.expect("SYM", ":") is None:
            self.sync_to(BLOCK_KEYWORDS)
            return None
        model = self.expect("IDENT")
        if model is None:
            self.sync_to(BLOCK_KEYWORDS)
            return None
        degree = None
        if self.at("IDENT", "degree"):
            self.advance()
            degree = self.parse_signed_int()
        node = DerivationNode(name.text, model.text, degree,
                              pos=(start.line, start.col))
        self._parse_assign_body(node)
        return node

    def _parse_assign_body(self, node):
        if self.expect("SYM", "{") is None:
            self.sync_to(BLOCK_KEYWORDS)
            return
        while not self.at("SYM", "}") and not self.at("EOF"):
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text in BLOCK_KEYWORDS:
                self.error("unterminated block (missing '}')", tok)
                return
            gen = self.expect("IDENT")
            if gen is None or self.expect("SYM", "->") is None:
                self.sync_to({"}"} | BLOCK_KEYWORDS)
                continue
            expr = self.parse_expr()
            node.assigns.append((gen.text, expr, (gen.line, gen.col)))
        self.expect("SYM", "}")

    # -- expressions --------------------------------------------------------------

    def parse_signed_int(self):
        neg = False
        if self.at("SYM", "-"):
            self.advance()
            neg = True
        tok = self.expect("INT")
        if tok is None:
            return None
        return -int(tok.text) if neg else int(tok.text)

    def parse_expr(self) -> Expr:
        terms = list(self.parse_term_group())
        while self.at("SYM", "+") or self.at("SYM", "-"):
            op = self.advance().text
            nxt = self.parse_term_group()
            if op == "-":
                nxt = [Term(-t.coeff, t.t_power, t.dt, t.atom) for t in nxt]
            terms.extend(nxt)
        return expr_of(terms)

    def parse_term_group(self):
        """One product group, folded into a single normalized Term."""
        coeff = Fraction(1)
        t_power = 0
        dt = False
        atom = None
        negate = False
        while self.at("SYM", "-"):
            self.advance()
            negate = not negate
        while True:
            tok = self.peek()
            if tok.kind == "INT":
                self.advance()
                num = int(tok.text)
                if self.at("SYM", "/"):
                    self.advance()
                    den_tok = self.expect("INT")
                    den = int(den_tok.text) if den_tok else 1
                    if den == 0:
                        self.error("zero denominator", tok)
                        den = 1
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
            elif tok.kind == "IDENT" and tok.text == "t":
                self.advance()
                power = 1
                if self.at("SYM", "^"):
                    self.advance()
                    p = self.expect("INT")
                    power = int(p.text) if p else 1
                t_power += power
            elif tok.kind == "IDENT" and tok.text == "dt":
                self.advance()
                if dt:
                    self.error("dt * dt vanishes", tok)
                dt = True
            elif tok.kind == "IDENT" and tok.text == "exp":
                a = self.parse_exp_atom()
                if a is None:
                    break
                if atom is not None:
                    self.error("product of two non-scalar factors", tok)
                atom = a
            elif tok.kind == "IDENT":
                self.advance()
                if atom is not None:
                    self.error("product of two non-scalar factors", tok)
                atom = Ref(tok.text)
            elif tok.kind == "SYM" and tok.text == "[":
                self.advance()
                left = self.parse_expr()
                self.expect("SYM", ",")
                right = self.parse_expr()
                self.expect("SYM", "]")
                if atom is not None:
                    self.error("product of two non-scalar factors", tok)
                atom = Br(left, right)
            elif tok.kind == "SYM" and tok.text == "(":
                self.advance()
                inner = self.parse_expr()
                self.expect("SYM", ")")
                # a parenthesized expression can only be scaled, not
                # multiplied by another atom; distribute the prefix
                if atom is not None:
                    self.error("product of two non-scalar factors", tok)
                sub = [Term(t.coeff * coeff,
                            t.t_power + t_power, t.dt or dt, t.atom)
                       for t in inner]
                if negate:
                    sub = [Term(-t.coeff, t.t_power, t.dt, t.atom) for t in sub]
                rest = self._continue_products()
                if rest:
                    self.error("cannot multiply a sum by further factors", tok)
                return sub
            else:
                break
            if self.at("SYM", "*"):
                self.advance()
                continue
            break
        if negate:
            coeff = -coeff
        return [Term(coeff, t_power, dt, atom)]

    def _continue_products(self):
        if self.at("SYM", "*"):
            self.advance()
            return True
        return False

    def parse_exp_atom(self):
        self.advance()  # exp
        if self.expect("SYM", "(") is None:
            return None
        if not (self.at("IDENT", "ad")):
            self.error("expected 'ad' inside exp(...)")
            self.sync_to({")", "}"} | BLOCK_KEYWORDS)
            return None
        self.advance()
        if self.expect("SYM", "(") is None:
            return None
        inner = self.parse_expr()
        self.expect("SYM", ")")
        self.expect("SYM", ")")
        if self.expect("SYM", "(") is None:
            return None
        target = self.parse_expr()
        self.expect("SYM", ")")
        return ExpAd(inner, target)


def parse_document(text):
    """Parse a model file; returns (Document, diagnostics)."""
    parser = Parser(text)
    doc = parser.parse_document()
    return doc, parser.diags
