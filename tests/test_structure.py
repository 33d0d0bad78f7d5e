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


def _bound(tree, names) -> set:
    """The names under which `tree` can reach any of `names`: the names themselves, their
    `import ... as` aliases and plain re-bindings (`f = name`, `f = module.name`)."""
    bound = set(names)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound |= {a.asname for a in node.names if a.name in names and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _names(node.value, bound, names):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return bound


def _names(node, bound, names) -> bool:
    """Whether the expression `node` is one of `names`: a bound name or an attribute."""
    return ((isinstance(node, ast.Name) and node.id in bound)
            or (isinstance(node, ast.Attribute) and node.attr in names))


def modulus_raises(source: str):
    """Lines of each `raise` of ModulusMismatch in `source`, however it is spelled: the
    class or a call of it, by its name, an alias, or an attribute (errors.ModulusMismatch),
    over any number of lines."""
    tree = ast.parse(source)
    names = {"ModulusMismatch"}
    bound = _bound(tree, names)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
                  and _names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, bound, names))


def test_one_modulus_guard():
    """One modulus guard: ModulusMismatch is raised in modmath.py alone (by same_modulus),
    however the raise is spelled (the CI step "One modulus guard" greps the text
    `raise ModulusMismatch`)."""
    assert [p.name for p in MODULES if modulus_raises(p.read_text(encoding="utf-8"))] == ["modmath.py"]


def test_the_guard_rule_sees_every_raise():
    """The twin sees a raise through an attribute, an alias, a re-binding or a line break,
    and no mere mention of the class."""
    source = ("from .errors import ModulusMismatch as Mismatch\n"
              "raise errors.ModulusMismatch('x')\n"
              "raise Mismatch\n"
              "raise (\n    ModulusMismatch(\n        'x'))\n"
              "Refusal = ModulusMismatch\nraise Refusal()\n"
              "try:\n    pass\nexcept ModulusMismatch:\n    raise ValueError('x')\n")
    assert modulus_raises(source) == [2, 3, 4, 8]


def numpy_exp_reads(source: str):
    """Lines of each read of numpy's exp in `source`: `exp` as an attribute of a name
    bound to numpy (`np.exp`, `numpy.exp`), or imported from numpy under any alias."""
    tree = ast.parse(source)
    numpy = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names if a.name == "numpy"}
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                      and any(a.name == "exp" for a in node.names))
                  or (isinstance(node, ast.Attribute) and node.attr == "exp"
                      and isinstance(node.value, ast.Name) and node.value.id in numpy))


def roots_table_reads(source: str):
    """Lines of each read of `_roots_of_unity` in `source`, by name, attribute or import:
    every place but its own def."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id == "_roots_of_unity")
                  or (isinstance(node, ast.Attribute) and node.attr == "_roots_of_unity")
                  or (isinstance(node, ast.ImportFrom) and any(a.name == "_roots_of_unity" for a in node.names)))


def test_every_library_phase_from_the_one_roots_table():
    """Every library phase from the one roots table: numpy's exp is read in modmath.py
    alone (by _roots_of_unity), and the table has one reader (phases_to_complex); the CI
    step of that name greps the texts `np.exp` and `_roots_of_unity(`."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert [name for name, source in sources.items() if numpy_exp_reads(source)] == ["modmath.py"]
    assert sum(len(roots_table_reads(source)) for source in sources.values()) == 1


def test_the_phase_rule_sees_every_exp_and_reader():
    """The twin sees numpy's exp under any name, and a reader of the table that does not
    call it on the same line."""
    source = ("import numpy\nimport numpy as xp\nfrom numpy import exp as e\n"
              "a = numpy.exp(1j)\nb = xp.exp(1j)\nc = cmath.exp(1j)\n"
              "table = _roots_of_unity\nd = modmath._roots_of_unity\n")
    assert numpy_exp_reads(source) == [3, 4, 5]
    assert roots_table_reads(source) == [7, 8]


LABEL_REALISATION = {"_realise"}
LABEL_WRAPPERS = {"lfm_apply", "gdaft_apply", "gdaft_adjoint"}


def label_realisation_calls(source: str, names=LABEL_REALISATION | LABEL_WRAPPERS):
    """(line, callee) of each call in `source` of one of `names` (by default _realise,
    lfm_apply, gdaft_apply and gdaft_adjoint), by name, alias, re-binding or attribute
    (symplectic.gdaft_apply), over any number of lines."""
    tree = ast.parse(source)
    bound = _bound(tree, names)
    return sorted((node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _names(node.func, bound, names))


def test_one_label_realisation():
    """One label realisation: a label becomes a transform in symplectic.py alone, where
    chain_apply, its exact inverse chain_adjoint and the public lfm_apply, gdaft_apply and
    gdaft_adjoint (after their refusals) call _realise, every label's one realisation prime
    by prime; no other module calls it, and nothing in src/ddradar calls the three public
    ones, however the call is spelled (the CI step "One label realisation" greps one-line
    calls by name).  Importing one, as __init__.py does to export it, is not a call."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert [name for name, source in sources.items() if label_realisation_calls(source, LABEL_REALISATION)] == [
        "symplectic.py"]
    assert [name for name, source in sources.items() if label_realisation_calls(source, LABEL_WRAPPERS)] == []


def test_the_label_rule_sees_every_call():
    """The twin sees a call split over lines, through an alias, a re-binding or the module."""
    source = ("from .symplectic import gdaft_adjoint as undo, lfm_apply\n"
              "x = lfm_apply\\\n    (2, x)\n"
              "y = undo(g, x)\n"
              "realise = symplectic.gdaft_apply\nz = realise(g, x)\n"
              "w = symplectic.gdaft_apply(g,\n    x)\n"
              "v = symplectic._realise (g, x)\n")
    assert label_realisation_calls(source) == [(2, "lfm_apply"), (4, "undo"), (6, "realise"),
                                               (7, "symplectic.gdaft_apply"), (9, "symplectic._realise")]
    assert label_realisation_calls(source, LABEL_REALISATION) == [(9, "symplectic._realise")]


def shear_pair_uses(source: str):
    """Lines of each def of sl2_factors in `source`, and of each import or call of it, by
    name, alias, re-binding or attribute, over any number of lines."""
    tree = ast.parse(source)
    names = {"sl2_factors"}
    bound = _bound(tree, names)
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names)
                  or (isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names))
                  or (isinstance(node, ast.Call) and _names(node.func, bound, names)))


def test_no_shear_pair_in_src():
    """No shear pair in src: every label is realised in one step prime by prime, so nothing
    in src/ddradar defines, imports or calls sl2_factors, the split of a label into two
    GDAFTs; tests/oracles.py keeps its own shear_pair (the CI step of that name greps the
    text `sl2_factors`)."""
    assert [p.name for p in MODULES if shear_pair_uses(p.read_text(encoding="utf-8"))] == []


def test_the_shear_rule_sees_every_use():
    """The twin sees a def, an aliased import and its call, and a call through the module
    split over lines, and no mere mention in a comment or a string."""
    source = ("def sl2_factors(g):\n    return (g,)\n"
              "from .symplectic import sl2_factors as split\n"
              "pair = split(g)\n"
              "pair = symplectic.sl2_factors(\n    g)\n"
              "# sl2_factors is gone\nname = 'sl2_factors'\n")
    assert shear_pair_uses(source) == [1, 3, 4, 5]


def _enclosing(tree):
    """Map id(node) -> the name of the innermost def around it, or '<module>'."""
    where = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            where[id(child)] = name
            visit(child, inner)
    visit(tree, "<module>")
    return where


def budget_check_uses(source: str):
    """(line, function, how) for each use of _check_budget in `source`: its def ("def"), or
    a read by name, alias, re-binding or attribute, "call" when it is called there, else
    "read" (an import, or a reference passed on), with the def it sits in."""
    tree = ast.parse(source)
    names = {"_check_budget"}
    bound = _bound(tree, names)
    where = _enclosing(tree)
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found.append((node.lineno, where[id(node)], "def"))
        elif isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names):
            found.append((node.lineno, where[id(node)], "read"))
        elif isinstance(node, (ast.Name, ast.Attribute)) and _names(node, bound, names) and \
                not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)):
            found.append((node.lineno, where[id(node)], "call" if id(node) in calls else "read"))
    return sorted(found)


def test_one_memory_model():
    """One memory model: _check_budget, the one comparison of a need with the budget, is
    defined in ambiguity.py and called once, by check_budget, which every route and command
    calls with its named terms.  No module reads it otherwise, under any name, over any
    number of lines (the CI step "One memory model" counts the text `_check_budget(`)."""
    uses = {p.name: budget_check_uses(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: [(f, how) for _, f, how in found] for name, found in uses.items() if found} == {
        "ambiguity.py": [("<module>", "def"), ("check_budget", "call")]}


def test_the_memory_rule_sees_every_use():
    """The twin sees a call through an alias, a re-binding, an attribute or a line break,
    and a reference that is not called where it is read."""
    source = ("from .ambiguity import _check_budget as charge\n"
              "def route(mn):\n    charge(16 * mn, 'x')\n"
              "def other(mn):\n    f = ambiguity._check_budget\n    f(mn, 'y')\n"
              "    _check_budget \\\n        (mn, 'z')\n"
              "    return map(_check_budget, [mn])\n")
    assert budget_check_uses(source) == [(1, "<module>", "read"), (3, "route", "call"), (5, "other", "read"),
                                         (6, "other", "call"), (7, "other", "call"), (9, "other", "read")]


CLI_FORBIDDEN = {"_check_budget", "_BLOCK_ROWS", "cross_ambiguity_fft", "surface_to_pgm"}


def cli_forbidden_reads(cli_source: str, library_sources=()):
    """Lines of each read in `cli_source` of _check_budget, _BLOCK_ROWS, cross_ambiguity_fft
    or surface_to_pgm: by name, `import ... as` alias, re-binding or attribute, and under any
    name another library module binds to one of them (`fft_rows = cross_ambiguity_fft`, or
    an import under an alias) and the CLI imports from it."""
    aliases = set(CLI_FORBIDDEN)
    for source in library_sources:
        aliases |= _bound(ast.parse(source), CLI_FORBIDDEN)
    tree = ast.parse(cli_source)
    bound = _bound(tree, aliases)
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.ImportFrom) and any(a.name in aliases for a in node.names))
                   or (isinstance(node, (ast.Name, ast.Attribute)) and _names(node, bound, aliases))})


def test_no_budget_formula_or_fft_route_in_the_cli():
    """No budget formula or FFT route in the CLI: every command streams the fast engine and
    charges the named terms through check_budget, so cli.py reads none of _check_budget,
    _BLOCK_ROWS, cross_ambiguity_fft or surface_to_pgm, under their names or any other (the
    CI step of that name greps cli.py for the four names)."""
    library = [p.read_text(encoding="utf-8") for p in MODULES if p.name != "cli.py"]
    assert cli_forbidden_reads((SRC / "cli.py").read_text(encoding="utf-8"), library) == []


def test_the_cli_rule_sees_every_read():
    """The twin sees a name that another module re-exports under an alias, which a text search
    of cli.py misses, besides a read through an attribute or a line break; a comment naming
    one is not a read."""
    library = ["from .ambiguity import cross_ambiguity_fft as fft_rows\n",
               "import numpy as np\nrows = np.zeros(3)\n"]
    cli = ("from .radarsim import fft_rows\n"
           "from . import ambiguity\n"
           "surface = fft_rows(x, x)\n"
           "rows = ambiguity.\\\n    _BLOCK_ROWS\n"
           "# surface_to_pgm is not read here\n")
    assert cli_forbidden_reads(cli, library) == [1, 3, 4]


def _is_magnitude(node) -> bool:
    """Whether `node` is a magnitude: a call of abs, np.abs, np.absolute or x.norm()."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "abs")
        or (isinstance(node.func, ast.Attribute) and node.func.attr in ("abs", "absolute", "norm")))


def index_squares(source: str):
    """(line, function) for each square in `source` that is not a magnitude's: an expression
    times itself (n * n, k * k), a power of 2 (n**2) or a square call (np.square(n)),
    with the def it sits in.  The square of a magnitude (abs(v)**2, x.norm()**2) is an
    energy, not a phase."""
    tree = ast.parse(source)
    where = _enclosing(tree)
    found = []
    for node in ast.walk(tree):
        base = None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right):
            base = node.left
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant) \
                and node.right.value == 2:
            base = node.left
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "square":
            base = node.args[0] if node.args else node
        if base is not None and not _is_magnitude(base):
            found.append((node.lineno, where[id(node)]))
    return sorted(found)


# the quadratic form of the remap law on the delay-Doppler grid, in the remap and in the
# fast engine's phase terms
GRID_SQUARES = {("symplectic.py", "phase_index"), ("ambiguity.py", "_terms")}


def test_one_quadratic_phase():
    """One quadratic phase: every chirp over the samples (chirp, Zadoff-Chu, and each label's
    chirps, LFM's among them) takes its phase from modmath.quadratic_phase, so outside
    modmath.py, the module of exact integer arithmetic (its is_prime squares a trial
    divisor), an index is squared nowhere, however it is spelled, but in the quadratic form
    of the remap law on the delay-Doppler grid (AmbiguityRemap.phase_index and
    FastEngine._terms, whose squares are of grid coordinates); squares of magnitudes are
    energies (the CI step "One quadratic phase" greps the texts `n * n` and `n * (n`
    outside modmath.py)."""
    found = {(p.name, f) for p in MODULES for _, f in index_squares(p.read_text(encoding="utf-8"))}
    assert ("modmath.py", "quadratic_phase") in found
    assert {(name, f) for name, f in found if name != "modmath.py"} == GRID_SQUARES


def test_the_square_rule_sees_every_square():
    """The twin sees what the grep misses, n**2, k * k and np.square, in any function, and
    no square of a magnitude."""
    source = ("def chirp_phase(n, k):\n    a = n**2 % 15\n    b = k * k\n    return np.square(n), a, b\n"
              "def energy(y, x):\n    return y.norm() ** 2 + abs(x) ** 2 + np.abs(x) ** 2\n"
              "c = (n + 1) * (n + 1)\nd = 2**30 * n * 3\n")
    assert index_squares(source) == [(2, "chirp_phase"), (3, "chirp_phase"), (4, "chirp_phase"),
                                     (7, "<module>")]


def raveled_entries(source: str):
    """(line, function) of each raveled index into the fast engine's table in `source`: a
    product with the table's row length R, read as rowfft.shape[1] or as the second name
    unpacked from the shape of a `rowfft` attribute or of a name `table`, in either order;
    or a call of ravel_multi_index."""
    tree = ast.parse(source)
    where = _enclosing(tree)
    lengths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and node.value.attr == "shape" \
                and isinstance(node.targets[0], ast.Tuple) and len(node.targets[0].elts) == 2:
            table = node.value.value
            if (isinstance(table, ast.Attribute) and table.attr == "rowfft") or \
                    (isinstance(table, ast.Name) and table.id == "table"):
                second = node.targets[0].elts[1]
                lengths |= {(where[id(node)], second.id)} if isinstance(second, ast.Name) else set()

    def row_length(node) -> bool:
        return ((isinstance(node, ast.Name) and (where[id(node)], node.id) in lengths)
                or (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "shape" and isinstance(node.value.value, ast.Attribute)
                    and node.value.value.attr == "rowfft" and ast.unparse(node.slice) in ("1", "-1")))
    return sorted((node.lineno, where[id(node)]) for node in ast.walk(tree)
                  if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                      and (row_length(node.left) or row_length(node.right)))
                  or (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
                      and ast.unparse(node.func).split(".")[-1] == "ravel_multi_index"))


def test_one_index_map():
    """One index map: the raveled table entry row*R + col, the index each point reads in the
    fast engine's P x R table, is formed in ambiguity._pulsone_map alone, however the product
    is spelled (the CI step "One index map" counts the text `row * length`)."""
    found = [(p.name, f) for p in MODULES for _, f in raveled_entries(p.read_text(encoding="utf-8"))]
    assert found == [("ambiguity.py", "_pulsone_map")]


def test_the_index_rule_sees_every_product():
    """The twin sees what the grep misses, length * row, the row length under other names
    or as a shape entry, and ravel_multi_index; a product with another shape is not one."""
    source = ("def walk(pre, row, col):\n    period, length = pre.rowfft.shape\n    a = length * row + col\n"
              "    P, R = pre.engine.rowfft.shape\n    b = col + k * R\n"
              "    c = row * pre.rowfft.shape[1]\n"
              "    return np.ravel_multi_index((row, col), (period, length))\n"
              "def other(values, row):\n    nk, nl = values.shape\n    length = 4\n    return row * nl + length * row\n")
    assert raveled_entries(source) == [(3, "walk"), (5, "walk"), (6, "walk"), (7, "walk")]
