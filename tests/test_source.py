"""Source-level guards on src/modrep2."""

import ast
from collections import Counter
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "modrep2"

# Names defined for callers outside the package: the command line entry
# point, and the tuple product and inverse that tests check the index
# kernels against.
ALLOWED = {"main", "mul", "inv"}


def test_every_definition_is_reached_from_src():
    """Every function, method and class that src/modrep2 defines is named
    somewhere in src/modrep2 outside its own definition: as a name, an
    attribute or an imported name.  Dunder methods are called by Python."""
    defs, refs = [], []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, path.name, node.lineno,
                             node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((a.name, path.name, node.lineno)
                            for a in node.names)
    unused = sorted(
        "%s:%d %s" % (f, start, name) for name, f, start, end in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and not any(n == name and not (g == f and start <= line <= end)
                    for n, g, line in refs))
    assert not unused, "defined but never reached from src: %s" % unused


def test_one_tolerance_constant():
    """src/modrep2 binds exactly one float constant below 1, the tolerance
    TOL for class-function sums, and names nothing MTOL: characters of
    abelian groups are compared by their exponents."""
    tols, names = [], set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, float)
                    and 0 < node.value.value < 1):
                tols += ["%s:%s" % (path.name, ast.unparse(t))
                         for t in node.targets]
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name, node.asname})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
    assert tols == ["rings.py:TOL"]
    assert "MTOL" not in names


def _sites(match):
    """'file' or 'file:function' (the innermost enclosing one) for each node
    of src/modrep2 on which match holds."""
    sites = []

    def visit(node, where):
        if match(node):
            sites.append(where)
        if isinstance(node, ast.FunctionDef):
            where = "%s:%s" % (where.split(":")[0], node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PKG.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name)
    return Counter(sites)


def _named(*names):
    """Whether a node names one of names: as a name, an attribute or an
    imported name."""
    return lambda node: (
        isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names)


def test_one_tolerance_rule():
    """Every tolerance decision goes through classfun's close and integers:
    TOL is bound in rings.py, imported by classfun and read only by those
    two; nothing calls np.allclose or np.isclose or writes the float 1e-5;
    and only integers and _rounded (the row keys) round."""
    assert _sites(_named("TOL")) == {"rings.py": 1, "classfun.py": 1,
                                     "classfun.py:close": 1,
                                     "classfun.py:integers": 1}
    assert not _sites(_named("allclose", "isclose"))
    assert not _sites(lambda node: isinstance(node, ast.Constant)
                      and isinstance(node.value, float)
                      and node.value == 1e-5)
    assert _sites(_named("round", "around", "rint")) == {
        "classfun.py:integers": 1, "classfun.py:_rounded": 1}
