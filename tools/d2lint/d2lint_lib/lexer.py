"""Comment/string-aware C++ tokenizer for d2lint's textual extraction.

The lexer is deliberately small: it produces exactly the token stream the
check modules need — identifiers, numbers, punctuators — with comments and
string/char literals stripped, while *capturing* the `// d2lint: ...`
annotation comments (the one place a comment carries semantics, see
DESIGN.md §11 "Annotation grammar"). Preprocessor lines are skipped except
that their line count is preserved so every token's line number matches
the editor's.

This is not a general C++ lexer; it is total (never raises on weird
input) and loses nothing the rules care about. The clang backend
(clangextract.py) cross-validates the constructs extracted from this
stream against the real AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Multi-character punctuators the rules distinguish; longest match first.
_PUNCTS = (
    "<<=", ">>=", "->*", "...", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++",
    "--",
)

_ANNOTATION_RE = re.compile(
    r"//\s*d2lint:\s*([a-z-]+)\s*\(([^)]*)\)")

_ID_START = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | set("0123456789")
_DIGITS = set("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # "id" | "num" | "punct"
    value: str
    line: int


@dataclass(frozen=True)
class Annotation:
    """One `// d2lint: <kind>(<reason>)` comment."""
    kind: str  # e.g. "allow-default", "allow-discard"
    reason: str
    line: int


@dataclass
class LexResult:
    tokens: list
    annotations: list  # [Annotation]

    def annotations_near(self, line: int, kind: str,
                         above: int = 1) -> list:
        """Annotations of `kind` on `line` or up to `above` lines before
        it — the grammar allows the annotation trailing the construct or
        on its own line immediately above."""
        return [a for a in self.annotations
                if a.kind == kind and line - above <= a.line <= line]


def lex(text: str) -> LexResult:
    tokens: list = []
    annotations: list = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            comment = text[i:n if j < 0 else j]
            m = _ANNOTATION_RE.search(comment)
            if m:
                annotations.append(
                    Annotation(m.group(1), m.group(2).strip(), line))
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            block = text[i:end]
            m = _ANNOTATION_RE.search(block.replace("/*", "//", 1))
            if m:
                annotations.append(
                    Annotation(m.group(1), m.group(2).strip(), line))
            line += block.count("\n")
            i = end
        elif c == '"':
            # String literal (handles escapes; raw strings are treated as
            # plain strings — close enough, none of the rules read them).
            if text.startswith('R"', i - 1) and i >= 1:
                pass  # handled below via the generic scan
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    line += 1
                i += 1
            i += 1
        elif c == "'":
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
        elif c == "#":
            # Preprocessor directive: skip to end of (continued) line.
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                if text[j - 1] == "\\" if j > 0 else False:
                    line += 1
                    i = j + 1
                else:
                    i = j  # newline handled by main loop
                    break
        elif c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            word = text[i:j]
            # `R"delim(...)delim"` raw string: swallow it whole.
            if word.endswith("R") and j < n and text[j] == '"':
                k = text.find("(", j)
                delim = text[j + 1:k] if k > 0 else ""
                close = ")" + delim + '"'
                e = text.find(close, k)
                e = n if e < 0 else e + len(close)
                line += text.count("\n", i, e)
                i = e
                continue
            tokens.append(Token("id", word, line))
            i = j
        elif c in _DIGITS:
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
        else:
            for p in _PUNCTS:
                if text.startswith(p, i):
                    tokens.append(Token("punct", p, line))
                    i += len(p)
                    break
            else:
                tokens.append(Token("punct", c, line))
                i += 1
    return LexResult(tokens, annotations)


def match_paren(tokens: list, open_idx: int,
                open_ch: str = "(", close_ch: str = ")") -> int:
    """Index of the token closing the group opened at `open_idx`, or -1."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        v = tokens[i].value
        if v == open_ch:
            depth += 1
        elif v == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1
