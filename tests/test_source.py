"""Source-level guards on src/modrep2."""

import ast
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
