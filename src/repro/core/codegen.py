"""Generated Python evaluators (paper §5.6; Neumann, VLDB 2011).

The paper ships each clause's expression to the executors as one
compiled closure. Here every evaluator is one generated Python
function: each expression node writes its own source fragment
(``_emit``), and the fragments of a tree, or of a whole row-local
FLWOR pipeline, are assembled into one ``def``. A ``for`` becomes a
loop, a ``let`` a local variable, a ``where`` a ``continue``, and an
expression a few statements over lists, the sequences of items.

:class:`Emitter` holds what a function is made of:

* its lines, at the current indentation;
* fresh names: ``v3`` for a variable's sequence, ``t7`` for a
  temporary. Names never come from the query, so any JSONiq name
  (``$a-b``, ``$import``) is safe;
* a constant table ``k0, k1, ...``: literal sequences, folded keys,
  variable names, the nodes and helpers the code calls. Query text
  enters the source only through it.

A generated function (:class:`Generated`) pickles as its source and
constants, so a Spark closure ships the code, not the tree it came
from; a node in the constant table still ships its subtree. The
compiled factory is cached per process by the source text: a Spark
worker runs ``compile()`` once per distinct function.

A node that needs a :class:`~repro.core.dynamic_context.DynamicContext`
(a sequence source, a node with a source below) gets one built from the
variables bound at that point (:meth:`Emitter.context`); everything
else, builtins included, reads and writes Python locals, so the common
path builds no context per row. So does a node that would nest its
code deeper than :data:`MAX_DEPTH`: it runs as a function of its own.
"""
from __future__ import annotations

import contextlib
import functools
from typing import Callable

from ..jsoniq.errors import DynamicError
from .items import dumps_seq, effective_boolean_value, encode_key, loads_seq, value_compare

#: Env key of the context item bound by an enclosing predicate.
FOCUS = "$$"


def focus(ctx):
    """``$$`` outside any predicate: the context item of ``ctx``."""
    if not ctx.has_context_item:
        raise DynamicError("'$$' evaluated with no context item")
    return [ctx.context_item]


def allowing_empty(items):
    """``(position, sequence)`` for each item, or ``(0, [])`` when there
    is none: the bindings of ``for ... allowing empty``."""
    pos = 0
    for pos, item in enumerate(items, 1):
        yield pos, [item]
    if pos == 0:
        yield 0, []


#: The indentation a function's code may reach before the next node, or
#: the next clause of a pipeline, moves into a function of its own.
#: Python compiles at most 20 nested loops in one function, and a node
#: opens at most three blocks around its own lines.
MAX_DEPTH = 16

#: Helpers generated code reads as globals; anything else it reaches
#: through the constant table.
_GLOBALS = {
    "ebv": effective_boolean_value, "value_compare": value_compare,
    "loads_seq": loads_seq, "dumps_seq": dumps_seq, "encode_key": encode_key,
    "focus": focus, "allowing_empty": allowing_empty,
    "TRUE": [True], "FALSE": [False], "EMPTY": "[]",
}


class Emitter:
    """The lines, fresh names and constants of one generated function."""

    def __init__(self):
        self.lines: list[str] = []
        self.consts: list = []
        self.depth = 1
        self._names = 0
        #: variable -> the expression of the serialized cell this
        #: function decoded its sequence from, where it did.
        self.cells: dict[str, str] = {}

    def tmp(self, prefix: str = "t") -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def open(self, header: str) -> None:
        """Start a block that stays open to the end of the function,
        as a pipeline's row and ``for`` loops do."""
        self.line(header + ":")
        self.depth += 1

    @contextlib.contextmanager
    def block(self, header: str):
        self.open(header)
        start = len(self.lines)
        yield
        if len(self.lines) == start:
            self.line("pass")
        self.depth -= 1

    def value(self, expr: str) -> str:
        """``expr`` evaluated here, as a name: a parent evaluates each
        child before the next one's statements run."""
        if expr.isidentifier():
            return expr
        name = self.tmp()
        self.line(f"{name} = {expr}")
        return name

    def emit(self, node, env: dict[str, str]) -> str:
        """The expression for ``node``'s sequence, after the statements
        it needs. ``env`` maps each variable bound in this function to
        its local (:data:`FOCUS` to the context item's). A node that
        may be RDD-backed is called through its own evaluator, which
        keeps the §5.5 switch, and so is one past :data:`MAX_DEPTH`."""
        if node.is_source or node.has_source or self.depth > MAX_DEPTH:
            return f"{self.const(node)}.materialize({self.context(env)})"
        return node._emit(self, env)

    def iterate(self, node, env: dict[str, str]) -> str:
        """An iterable over ``node``'s sequence: a source streams it."""
        if node.is_source or node.has_source:
            return f"{self.const(node)}.iter_items({self.context(env)})"
        return self.emit(node, env)

    def context(self, env: dict[str, str]) -> str:
        """A dynamic context holding the variables bound so far: ``ctx``
        itself when this function binds none."""
        if not env:
            return "ctx"
        ctx = self.tmp("c")
        binds = ", ".join(f"{self.const(n)}: {local}" for n, local in env.items() if n != FOCUS)
        self.line(f"{ctx} = ctx.child({{{binds}}})")
        if FOCUS in env:
            self.line(f"{ctx}.context_item, {ctx}.has_context_item = {env[FOCUS]}, True")
        return ctx

    def function(self, params: str) -> Generated:
        """The function of these lines, with ``params``."""
        return Generated("\n".join([f"def f({params}):", *self.lines]), tuple(self.consts))


class Generated(functools.partial):
    """A generated function that pickles as its source and constants,
    compiled once per process (:func:`_factory`)."""

    def __new__(cls, source: str, consts: tuple):
        self = super().__new__(cls, _factory(source, len(consts))(*consts))
        self.source, self.consts = source, consts
        return self

    def __reduce__(self):
        return Generated, (self.source, self.consts)


@functools.lru_cache(maxsize=512)
def _factory(source: str, n_consts: int) -> Callable:
    """A function from the constants to the function of ``source``,
    compiled once per process."""
    params = ", ".join(f"k{i}" for i in range(n_consts))
    body = "\n".join("    " + line for line in source.split("\n"))
    namespace = dict(_GLOBALS)
    exec(compile(f"def make({params}):\n{body}\n    return f\n", "<jsoniq>", "exec"),
         namespace)
    return namespace["make"]


def evaluator(node) -> Callable:
    """The generated ``f(ctx) -> list`` of ``node``. A node that may be
    RDD-backed first asks whether it is, and if so collects the RDD up
    to the cap (§5.5); a source otherwise lists its stream."""
    b = Emitter()
    if node.is_source or node.has_source:
        k = b.const(node)
        with b.block(f"if {k}.supports_rdd(ctx)"):
            b.line(f"return {k}._collect_capped(ctx)")
        if node.is_source:
            b.line(f"return list({k}._iterate_local(ctx))")
            return b.function("ctx")
    b.line(f"return {node._emit(b, {})}")
    return b.function("ctx")


class Built:
    """Caches the functions generated for an object: an expression's
    evaluator, or any other function keyed by what it was built from.
    A node a shipped function holds as a constant ships without them."""

    _built: dict | None = None

    def built(self, key, build: Callable[[], Callable]) -> Callable:
        cache = self.__dict__.setdefault("_built", {})
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_built"}
