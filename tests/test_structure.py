"""Rules about the library's code, read from its syntax tree (stdlib ast), not its text.

Each test states one rule that a CI grep step also checks, as what the rule
means, so that a tier-1 run sees it fail and a rule cannot be dodged by a
line break.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ddradar"
MODULES = sorted(SRC.glob("*.py"))


def _parameters(node):
    """The names of every parameter of a function or lambda node."""
    args = node.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
    return [a.arg for a in every]


def buffer_parameters(source: str):
    """(line, function, parameter) for each parameter named `out` or `entries` of a
    def, async def or lambda in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            found += [(node.lineno, name, p) for p in _parameters(node) if p in ("out", "entries")]
    return sorted(found)


def test_the_library_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_buffer(path):
    """One block protocol: no caller hands a function a buffer to fill.  Every engine block
    is its own new pair (values, entries), and the point query owns its output, so no
    function or lambda in src/ddradar has a parameter named `out` or `entries`, whether its
    signature fits on one line or not (the CI step "One block protocol" greps one-line
    defs only)."""
    assert buffer_parameters(path.read_text(encoding="utf-8")) == []


def test_the_rule_reads_signatures_over_several_lines():
    """The twin sees what a text search of one-line defs misses: a multi-line signature,
    a keyword-only or variadic parameter, a lambda and an async def."""
    source = ("def f(\n    x,\n    out=None,\n):\n    pass\n"
              "def g(x, *, entries):\n    pass\n"
              "h = lambda values, entries: values\n"
              "async def k(*out):\n    pass\n"
              "def fine(values, flat, out_dir):\n    pass\n")
    assert buffer_parameters(source) == [(1, "f", "out"), (6, "g", "entries"), (8, "<lambda>", "entries"),
                                         (9, "k", "out")]


def group_table_lookups(source: str):
    """(line, how) for each read of an attribute named `groups` in `source`: "take" when
    it is the object of a `.take(...)` call, as in `tables.groups.take(g)`, else "other"."""
    tree = ast.parse(source)
    takes = {id(node.func.value) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "take"}
    return sorted((node.lineno, "take" if id(node) in takes else "other") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "groups")


def test_one_digit_table():
    """One digit table: every digit the CSV writer prints comes from one `take` on the
    formatter's group table.  The field kind is picked by arithmetic on what that take
    returned, so floatfmt.py reads the table nowhere else (the CI step "One digit table"
    counts the text `groups.take`)."""
    assert [how for _, how in group_table_lookups((SRC / "floatfmt.py").read_text(encoding="utf-8"))] == ["take"]


def test_the_digit_rule_sees_every_lookup():
    """The twin sees a take split over two lines, and a lookup that is not a method take."""
    source = ("a = tables.groups.take(g, out=x)\n"
              "b = (tables\n     .groups\n     .take(g))\n"
              "c = np.take(tables.groups, g)\n"
              "d = tables.groups[g]\n"
              "groups = np.empty(4)\n")
    assert group_table_lookups(source) == [(1, "take"), (2, "take"), (5, "other"), (6, "other")]
