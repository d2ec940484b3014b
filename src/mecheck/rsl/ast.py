"""AST node classes for the RSL rule language.

Every node carries a Span: the 1-based line and column where it starts.
Nodes are immutable value records (mecheck.record): two nodes are equal
when they are of the same class and their fields, spans included, are
equal.  A node's fields are its __slots__, in order.
"""

from __future__ import annotations

from mecheck.record import Record


class Span(Record):
    __slots__ = ("line", "column")
    line: int
    column: int


# Type tags name what a declaration binds: an XML element shape like
# <bean>, or one of the scalar/model kinds.
ELEMENT = "element"
FILE = "file"
CLASS = "class"
METHOD = "method"
FIELD = "field"
TEXT = "String"


class TypeTag(Record):
    __slots__ = ("kind", "element_name")
    kind: str
    element_name: str | None

    def __init__(self, kind: str, element_name: str | None = None):
        super().__init__(kind, element_name)


class Exp(Record):
    __slots__ = ()


class Stmt(Record):
    __slots__ = ()


class Identifier(Exp):
    __slots__ = ("name", "span")
    name: str
    span: Span


class Literal(Exp):
    __slots__ = ("value", "kind", "span")
    value: str | int | float
    kind: str  # "string" | "char" | "int" | "float"
    span: Span


class FunctionCall(Exp):
    __slots__ = ("name", "args", "span")
    name: str
    args: tuple[Exp, ...]
    span: Span


class Paren(Exp):
    __slots__ = ("inner", "span")
    inner: Exp
    span: Span


class Eq(Exp):
    __slots__ = ("lhs", "rhs", "span")
    lhs: FunctionCall
    rhs: Exp
    span: Span


class Exists(Exp):
    __slots__ = ("decl_type", "var", "container", "predicate", "span")
    decl_type: TypeTag
    var: str
    container: Exp
    predicate: Exp
    span: Span


class And(Exp):
    __slots__ = ("left", "right", "span")
    left: Exp
    right: Exp
    span: Span


class Or(Exp):
    __slots__ = ("left", "right", "span")
    left: Exp
    right: Exp
    span: Span


class Not(Exp):
    __slots__ = ("operand", "span")
    operand: Exp
    span: Span


class MsgStmt(Record):
    __slots__ = ("template", "args", "span")
    template: str
    args: tuple[Exp, ...]
    span: Span


class ForStmt(Stmt):
    __slots__ = ("decl_type", "var", "container", "body", "span")
    decl_type: TypeTag
    var: str
    container: Exp
    body: tuple[Stmt, ...]
    span: Span


class IfStmt(Stmt):
    __slots__ = ("cond", "body", "span")
    cond: Exp
    body: tuple[Stmt, ...]
    span: Span


class AssertStmt(Stmt):
    __slots__ = ("cond", "message", "span")
    cond: Exp
    message: MsgStmt
    span: Span


class DeclStmt(Stmt):
    __slots__ = ("decl_type", "var", "init", "span")
    decl_type: TypeTag
    var: str
    init: Exp
    span: Span


class Rule(Record):
    __slots__ = ("name", "body", "span")
    name: str
    body: tuple[Stmt, ...]
    span: Span
