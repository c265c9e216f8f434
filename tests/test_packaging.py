"""pyproject.toml declares exactly the third-party modules the package and its tests import, and no scripts;
every public function, class and method of a public class of the package has a caller outside the tests, every
public upper-case module constant is read outside the tests, every private module-level function and private
method of the package has a caller in the package, so none is kept only for a test, the package takes no
last-axis max or min outside tensor._row_max, it names linear_sum_assignment only in matching.hungarian, no
test file imports a test module, and no two files under tests define the same top-level function or class:
shared fixtures and helpers live in tests/support.py."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scenenat"


def project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_top_level_modules(*roots: Path) -> set[str]:
    names = set()
    for path in (p for root in roots for p in root.rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "scenenat", "bench"} - local_modules(*roots)


def local_modules(*roots: Path) -> set[str]:
    return {path.stem for root in roots for path in root.rglob("*.py")}


def names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def test_dependencies_are_exactly_the_imported_modules():
    assert names(project()["dependencies"]) == imported_top_level_modules(PACKAGE)


def test_test_extra_is_exactly_what_the_tests_import_beyond_the_dependencies():
    imported = imported_top_level_modules(ROOT / "tests", ROOT / "bench" / "tests")
    assert names(project()["optional-dependencies"]["test"]) == imported - names(project()["dependencies"])


def test_requires_python_admits_only_interpreters_with_tomllib():
    assert project()["requires-python"] == ">=3.11"


def test_script_entry_points_resolve():
    # the package has no command-line entry point, so it declares none
    assert "scripts" not in project()


# Public names with no caller in src or bench, each kept for a stated reason.
NO_CALLER_YET = {
    "tensor_sum": "tensor op; the gradchecks reduce through it",
    "mul": "tensor op; the gradchecks reduce through it",
    "total_loss": "the training loop of ROADMAP item 1 calls it",
    "remask_count": "the MaskGIT decoder of ROADMAP item 1 calls it",
}
# Public names that were deleted once nothing called them.
DELETED = {
    "predicate_id": "a predicate's id is its RELATION_SET index",
    "accumulate_grad": "Tensor.backward alone accumulates grads, and only leaves keep them",
    "box_rows": "box_table(scene) states the box rule once; the pair loop reads its rows as Python floats",
    "tokenize_text": "a one-line split-and-look-up with one caller; synthesize_instruction does it inline",
    "rotation_bins": "360 // rotation_bin_degrees has one reader, DiscretizationSpec.axes, which computes it",
    "TEMPLATES": "a table rendered from SENTENCE_FRAMES x PREDICATE_PHRASES; synthesize_instruction fills {p}",
    "softmax": "scaled_dot_product_attention is one node with its own masked softmax, and nothing else called it",
}


def referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def references(node: ast.AST) -> set[str]:
    """The names a definition references, less its own name; each method of a class counts on its own."""
    if isinstance(node, ast.ClassDef):
        parts = [referenced_names(n) for n in (*node.bases, *node.keywords, *node.decorator_list)]
        return set().union(*parts, *(references(n) for n in node.body)) - {node.name}
    return referenced_names(node) - {getattr(node, "name", None)}


def public_names(node: ast.AST) -> set[str]:
    """A public top-level function, or a public class and its public methods."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
        return set()
    methods = node.body if isinstance(node, ast.ClassDef) else []
    return {node.name} | {m.name for m in methods if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}


def public_constants(node: ast.AST) -> set[str]:
    """The public upper-case names a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper() and not t.id.startswith("_")}


def loaded_names(tree: ast.AST) -> set[str]:
    """The names a tree reads, bare or as an attribute; an assignment's target is not a read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def package_nodes() -> list[ast.stmt]:
    """The top-level statements of every module of the package."""
    return [node for path in PACKAGE.glob("*.py") for node in parse(path).body]


def bench_trees() -> list[ast.Module]:
    """The modules of the benchmark, its tests left out."""
    return [parse(path) for path in (ROOT / "bench").glob("*.py")]


def test_every_public_name_has_a_caller_outside_the_tests():
    public, used = set(), set()
    for node in package_nodes():
        public |= public_names(node)
        used |= references(node)
    for tree in bench_trees():
        used |= referenced_names(tree)
    assert not public & DELETED.keys()
    assert public - used == NO_CALLER_YET.keys()


def test_every_public_constant_is_read_outside_the_tests():
    # a derived table kept only for the tests fails here
    nodes = package_nodes()
    constants = set().union(*map(public_constants, nodes))
    assert {"GRID_COLUMNS", "RELATION_SET", "SENTENCE_FRAMES"} <= constants
    assert not constants & DELETED.keys()
    read = set().union(*map(loaded_names, nodes), *map(loaded_names, bench_trees()))
    assert constants - read == set()


def private_names(node: ast.AST) -> set[str]:
    """A private top-level function, or the private methods of a class; dunder names are not private."""
    defs = node.body if isinstance(node, ast.ClassDef) else [node]
    return {n.name for n in defs if isinstance(n, ast.FunctionDef) and n.name.startswith("_") and not n.name.endswith("__")}


def test_every_private_function_has_a_caller_in_the_package():
    # a method counts as called only from another definition, as references() leaves out a method's own name
    nodes = package_nodes()
    private = set().union(*map(private_names, nodes))
    assert {"_sentence_plan", "_triplet", "_hold", "_derived"} <= private
    assert private - set().union(*map(references, nodes)) == set()


EXTREMA = {"max", "min", "amax", "amin"}


def last_axis_extrema(tree: ast.AST) -> list[str]:
    """Where a tree takes a max or min along the last axis outside _row_max: np.maximum.reduce or
    np.minimum.reduce, or .max / .min with axis -1, by keyword or position (second for an np. call).

    It reads syntax, not memory layout: a reduce along a short contiguous axis that is not written as axis -1,
    such as axis=1 over a transposed (Fortran-ordered) [3, J] array, passes it. Such layouts are kept out by
    the code that builds them, as matching._classes does for its class table."""
    exempt = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_row_max" for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "reduce" and getattr(node.value, "attr", None) in ("maximum", "minimum"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in EXTREMA:
            on_np = isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
            axes = [kw.value for kw in node.keywords if kw.arg == "axis"] + (node.args[1:2] if on_np else node.args[:1])
            if any(ast.unparse(axis) == "-1" for axis in axes):
                found.append(ast.unparse(node))
    return found


def test_the_last_axis_extrema_scan_flags_each_form():
    flagged = "np.maximum.reduce(x, axis=-1)\nnp.minimum.reduce(x, -1)\nx.max(axis=-1)\nx.min(-1)\nnp.max(x, -1)\nnp.amin(x, axis=-1)"
    assert len(last_axis_extrema(ast.parse(flagged))) == 6
    kept = "x.max(axis=1)\nx.min()\nnp.max(x)\nnp.maximum(a, b)\ndef _row_max(x):\n    return np.maximum.reduce(x.T, axis=0)"
    assert last_axis_extrema(ast.parse(kept)) == []


def test_the_package_takes_row_maxima_only_in_row_max():
    # a last-axis reduce runs its inner loop once per row, so short rows pay that overhead once each
    trees = [parse(path) for path in PACKAGE.glob("*.py")]
    assert "_row_max" in {node.name for tree in trees for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [hit for tree in trees for hit in last_axis_extrema(tree)] == []


def assignment_names(tree: ast.Module) -> list[str]:
    """Where a module names linear_sum_assignment outside a plain import of it and the body of a top-level
    hungarian: a bare name or an attribute, read or bound, and an import that renames it."""
    hungarian = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "hungarian"]
    exempt = {id(n) for f in hungarian for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if getattr(node, "id", None) == "linear_sum_assignment" or getattr(node, "attr", None) == "linear_sum_assignment":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.alias) and node.name.endswith("linear_sum_assignment") and node.asname:
            found.append(f"import {node.name} as {node.asname}")
    return found


def test_the_assignment_scan_flags_a_call_outside_hungarian():
    flagged = (
        "from scipy.optimize import linear_sum_assignment\n"
        "def hungarian(cost):\n    return linear_sum_assignment(cost)[1]\n"
        "def other(cost):\n    return linear_sum_assignment(cost)[1]\n"
        "solve = linear_sum_assignment\n"
        "scipy.optimize.linear_sum_assignment(cost)\n"
        "from scipy.optimize import linear_sum_assignment as lsap\n"
    )
    assert sorted(assignment_names(ast.parse(flagged))) == [
        "import linear_sum_assignment as lsap", "linear_sum_assignment", "linear_sum_assignment",
        "scipy.optimize.linear_sum_assignment",
    ]
    kept = "from scipy.optimize import linear_sum_assignment\ndef hungarian(cost):\n    return linear_sum_assignment(cost)[1]"
    assert assignment_names(ast.parse(kept)) == []


def test_the_package_assigns_only_through_hungarian():
    # every assignment then gets hungarian's checks and its square-cost reduction
    trees = {path.stem: parse(path) for path in PACKAGE.glob("*.py")}
    assert "hungarian" in {node.name for node in trees["matching"].body if isinstance(node, ast.FunctionDef)}
    assert [hit for tree in trees.values() for hit in assignment_names(tree)] == []


def imports_of_test_modules(tree: ast.AST) -> list[str]:
    """The test_* modules a tree imports, as import test_x or from test_x import y."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0].startswith("test_")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0].startswith("test_"):
            found.append(node.module)
    return found


def test_the_test_import_scan_flags_both_forms():
    flagged = "import test_masking\nimport numpy, test_scene as ts\nfrom test_evaluation import count_calls"
    assert imports_of_test_modules(ast.parse(flagged)) == ["test_masking", "test_scene", "test_evaluation"]
    kept = "from support import count_calls\nfrom gradcheck import check_gradients\nimport pytest"
    assert imports_of_test_modules(ast.parse(kept)) == []


def test_no_test_file_imports_a_test_module():
    # a fixture that two modules share is defined once, in tests/support.py, not copied or imported from a test
    assert (ROOT / "tests" / "support.py").is_file()
    for path in (ROOT / "tests").rglob("*.py"):
        assert imports_of_test_modules(parse(path)) == [], path.name


def duplicate_definitions(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """The top-level function and class names that more than one of the named modules defines, with the modules
    that define each; a def nested in a function or a class is not top-level."""
    owners = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owners.setdefault(node.name, []).append(module)
    return {name: modules for name, modules in owners.items() if len(modules) > 1}


def test_the_duplicate_scan_flags_a_name_two_modules_define():
    trees = {
        "support": ast.parse("def make_codec():\n    pass\nclass LargestDraws:\n    def random(self):\n        pass"),
        "test_a": ast.parse("def make_codec(n=8):\n    pass\ndef test_x(monkeypatch):\n    def counting(self):\n        pass"),
        "test_b": ast.parse("class LargestDraws:\n    pass\ndef test_y():\n    def counting(self):\n        pass"),
        "test_c": ast.parse("def random(rng):\n    pass\nmake_codec = None"),
    }
    assert duplicate_definitions(trees) == {"make_codec": ["support", "test_a"], "LargestDraws": ["support", "test_b"]}


def test_no_two_test_modules_define_the_same_helper():
    # a helper that two modules need is defined once, in tests/support.py
    trees = {str(path.relative_to(ROOT / "tests")): parse(path) for path in sorted((ROOT / "tests").rglob("*.py"))}
    assert "support.py" in trees
    assert duplicate_definitions(trees) == {}
