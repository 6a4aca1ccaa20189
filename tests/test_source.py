"""Source-level guards on src/modrep2."""

import ast
import re
from collections import Counter
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "modrep2"

# Names defined for callers outside the package: the command line entry
# point, and AutGroup's tuple product, which tests call and which the
# benchmark's count mode wraps on every AutGroup.
ALLOWED = {"main", "mul"}


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


def test_one_index_protocol():
    """Groups are handled by element index alone: FiniteGroup and
    TableGroup define none of the tuple members (elements, index and the
    rest), and src/modrep2 defines no QuotientGroup (abelianizations are
    TableGroups)."""
    tuple_members = {"elements", "index", "gens", "identity", "inv",
                     "inverse", "locate", "cls_index"}
    found, quotients = {}, []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == "QuotientGroup":
                quotients.append(path.name)
            if node.name in ("FiniteGroup", "TableGroup"):
                # methods and class attributes, and attributes set on self
                names = {item.name for item in node.body
                         if isinstance(item, ast.FunctionDef)}
                names.update(t.id for item in node.body
                             if isinstance(item, ast.Assign)
                             for t in item.targets if isinstance(t, ast.Name))
                names.update(
                    item.attr for item in ast.walk(node)
                    if isinstance(item, ast.Attribute)
                    and isinstance(item.ctx, ast.Store)
                    and isinstance(item.value, ast.Name)
                    and item.value.id == "self")
                found[node.name] = sorted(names & tuple_members)
    assert found == {"FiniteGroup": [], "TableGroup": []}
    assert not quotients


def _sites(match, outer=False):
    """'file' or 'file:function' (the innermost enclosing one, or with outer
    the outermost) for each node of src/modrep2 on which match holds."""
    sites = []

    def visit(node, where):
        if match(node):
            sites.append(where)
        if isinstance(node, ast.FunctionDef) and not (outer and ":" in where):
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


# The complex number system classfun used before residues mod a prime, with
# its tolerance rule, its rounded keys and its second table of roots of
# unity: none of it may come back.
INEXACT = {"TOL", "close", "integers", "roots_of_unity", "psi", "round",
           "rint", "around", "conj", "conjugate", "complex128", "complex64",
           "complex", "allclose", "isclose", "imag"}


def test_one_tolerance_constant():
    """Class functions are residues mod one prime, decided exactly, so the
    one tolerance src/modrep2 had, TOL, is gone with nothing in its place:
    src/modrep2 binds no float constant below 1 and names no TOL or MTOL."""
    floats = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, float)
                    and 0 < node.value.value < 1):
                floats += ["%s:%s" % (path.name, ast.unparse(t))
                           for t in node.targets]
    assert not floats
    assert not _sites(_named("TOL", "MTOL"))


def test_one_tolerance_rule():
    """No tolerance decision is left to make: src/modrep2 names no
    tolerance rule, rounding, conjugation, complex type or complex table of
    roots of unity, as a name, an attribute, an imported name or a
    definition, and writes no float 1e-5."""
    assert not _sites(lambda node: _named(*INEXACT)(node) or isinstance(
        node, (ast.FunctionDef, ast.ClassDef)) and node.name in INEXACT)
    assert not _sites(lambda node: isinstance(node, ast.Constant)
                      and isinstance(node.value, float)
                      and node.value == 1e-5)


def test_one_prime_admission_and_one_memo():
    """A job's prime is admitted by one function, dixon.admit_prime, the
    only site of the float64 bound 2^53, called by the oracle and by
    assemble; per-object derived data is kept by one memo, rings._once, the
    only site that writes into vars(obj).  The second admission rule, the
    hand-mirrored recursion and the hand-rolled memos are gone."""
    pow53 = _sites(lambda node: isinstance(node, ast.BinOp)
                   and ast.unparse(node) == "2 ** 53")
    assert pow53 == Counter({"dixon.py:admit_prime": 1})
    calls = _sites(lambda node: isinstance(node, ast.Call)
                   and _named("admit_prime")(node.func))
    assert set(calls) == {"dixon.py:character_degrees", "build.py:assemble"}
    memo = _sites(lambda node: isinstance(node, ast.Call)
                  and _named("vars")(node.func))
    assert memo == Counter({"rings.py:_once": 1})
    assert not _sites(_named(
        "check_prime", "assembled_types", "r_override", "_degree_multiset",
        "_class_data", "_subgroup_cache", "_tori", "_pullbacks",
        "_orbit_data", "_classfun_maps", "provenance", "degree_counter"))


def test_one_product_derivation():
    """The product of the groups Aut(o_l1 + o_l2) is derived once: only the
    coordinate kernel, AutGroup._codes, reads the product tables (the one
    read of _mul_tables) and indexes dot, low or lift.  The translation
    tables are that kernel on line elements, with no formula of their
    own."""
    reads = _sites(_named("_mul_tables"))
    gathers = _sites(lambda node: isinstance(node, ast.Subscript)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in ("dot", "low", "lift"))
    assert reads == Counter({"groups.py:_codes": 1})
    assert gathers == Counter({"groups.py:_codes": 4})


def test_one_translation_path():
    """AutGroup multiplies on two paths: by one element through that
    element's translation tables, kept once per side (_translate), and
    array by array through the kernel.  Only _translate and the Dixon
    oracle's stacked class tables build translation tables, and the
    size-tuned stacked tier, TABLE_ENTRIES and _stacked, is gone."""
    calls = _sites(lambda node: isinstance(node, ast.Call)
                   and _named("_translation_tables")(node.func))
    assert calls == Counter({"groups.py:_translate": 1,
                             "dixon.py:_class_tables": 1})
    gone = ("TABLE_ENTRIES", "_stacked")
    assert not _sites(lambda node: _named(*gone)(node) or isinstance(
        node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone)


# Subgroup tags that repeated another tag's mask (borel, floor_kernel) or
# that no code in src/modrep2 asked for.  "torus" also keys the memo of the
# torus group, so of it only a dict key (a tag's depths) is refused.
GONE_TAGS = {"borel", "floor_kernel", "torus", "unipotent_upper_floor",
             "unipotent_lower_floor", "floor_torus_d"}


def test_one_summation_path():
    """classfun sums member values per class in one way, the count maps of
    _Pairs: only count_maps (for ind and res), induce and k_spectrum build
    one, and bincount is left for counts alone, the class counts and the
    fiber sizes.  The parabolic-induction wrapper geo_ind, the one-hot
    product of k_spectrum, _mm's choice of dtype by operand size and the
    subgroup tags in GONE_TAGS are gone."""
    pairs = _sites(lambda node: isinstance(node, ast.Call)
                   and _named("_Pairs")(node.func), outer=True)
    assert pairs == Counter({"classfun.py:count_maps": 2,
                             "classfun.py:induce": 1,
                             "classfun.py:k_spectrum": 1})
    counts = _sites(lambda node: isinstance(node, ast.Call)
                    and _named("bincount")(node.func), outer=True)
    assert {site: n for site, n in counts.items()
            if site.startswith("classfun.py")} == {
                "classfun.py:_class_counts": 1, "classfun.py:_fibers": 1}
    assert not _sites(lambda node: _named("geo_ind")(node) or isinstance(
        node, ast.FunctionDef) and node.name == "geo_ind")
    assert not _sites(lambda node: isinstance(node, ast.Call)
                      and _named("_mm")(node.func)
                      and any(isinstance(a, ast.Compare) for a in node.args))
    sizes = _sites(lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ("size", "shape"), outer=True)
    assert "rings.py:_mm" not in sizes
    assert not _sites(lambda node: isinstance(node, ast.Constant)
                      and node.value in GONE_TAGS - {"torus"})
    assert not _sites(lambda node: isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value in GONE_TAGS
        for k in node.keys))


def test_one_eigenspace_path():
    """The Dixon split reads every eigenspace as the kernel of R - lam I:
    _rref is called only by dixon._eigenspaces, which scans the roots with
    no multiplicities.  The multiplicity code (_roots, with its factorial
    and binomial tables) and the peeling on a shrinking complement (_peel)
    are neither defined nor named in src/modrep2, comments included."""
    calls = _sites(lambda node: isinstance(node, ast.Call)
                   and _named("_rref")(node.func))
    assert calls == Counter({"dixon.py:_eigenspaces": 1})
    named = [path.name for path in sorted(PKG.glob("*.py"))
             if re.search(r"\b_(roots|peel)\b", path.read_text())]
    assert not named
    tables = _sites(_named("accumulate", "factorial", "comb", "binom",
                           "fact"))
    assert not [site for site in tables if site.startswith("dixon.py")]


def test_one_abelianization_sweep():
    """An abelianization reads the cosets of [G, G] off one sweep:
    GroupBase.abelianization calls sweep once and builds no Subgroup, and
    commutator_subgroup is neither defined nor named in src/modrep2,
    comments included."""
    sweeps = _sites(lambda node: isinstance(node, ast.Call)
                    and _named("sweep")(node.func))
    assert sweeps["groups.py:abelianization"] == 1
    subgroups = _sites(lambda node: isinstance(node, ast.Call)
                       and _named("Subgroup")(node.func))
    assert "groups.py:abelianization" not in subgroups
    named = [path.name for path in sorted(PKG.glob("*.py"))
             if "commutator_subgroup" in path.read_text()]
    assert not named


def _top_level(tree, cls=None):
    """Names of the functions defined in the module tree's own body, or in
    the body of its class cls."""
    body = tree.body
    if cls is not None:
        body = next(node.body for node in body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
    return {node.name for node in body if isinstance(node, ast.FunctionDef)}


def test_perfbench_targets_are_defined():
    """perfbench/spans.py wraps code of src/modrep2 by name: trace mode
    each METHODS target through vars(cls)[meth], so each must be defined in
    its class's own body, not inherited; count mode AutGroup.mul; and the
    EXTRAS module functions.  A refactor that moves one of them breaks
    --trace 1 while the package's own tests pass."""
    spans = ast.parse((PKG.parent.parent / "perfbench" / "spans.py")
                      .read_text())
    tables = {node.targets[0].id: node.value for node in spans.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    methods = ast.literal_eval(tables["METHODS"]).values()
    extras = [ast.literal_eval(k).split(".") for k in tables["EXTRAS"].keys]
    assert {cls for _, cls, _ in methods} == {"GroupBase", "AutGroup",
                                               "ClassFunction"}
    assert extras == [["dixon", "character_degrees"], ["classfun", "dedupe"]]
    trees = {}

    def tree(layer):
        if layer not in trees:
            trees[layer] = ast.parse((PKG / (layer + ".py")).read_text())
        return trees[layer]

    missing = ["%s.%s.%s" % m for m in methods
               if m[2] not in _top_level(tree(m[0]), m[1])]
    missing += ["%s.%s" % e for e in extras
                if e[1] not in _top_level(tree(e[0]))]
    if "mul" not in _top_level(tree("groups"), "AutGroup"):
        missing.append("groups.AutGroup.mul")
    assert not missing
