"""JSONiq language front-end: lexer, parser, AST, static scoping.

This is the substrate layer of the reproduction (paper §5.2–§5.3): it
turns query text into the expression/clause tree that the core engine
translates into runtime iterators.
"""
from .errors import (  # noqa: F401
    DeadlineExceeded,
    DynamicError,
    MaterializationCapExceeded,
    NonAtomicKeyError,
    ParseError,
    ResourceCapExceeded,
    RumbleError,
    StaticError,
    TypeError_,
)
from .parser import check_depth, parse  # noqa: F401
from .scoping import check  # noqa: F401
