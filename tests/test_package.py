"""Module structure of the package: imports sit at module top and form no cycle,
the caches are the ones listed in the README, no function takes an optional
second copy of the algebra parameters, and no top-level code is there only for
the tests."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import chainalg

PACKAGE = Path(chainalg.__file__).parent


def _parsed_modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _package_modules(node) -> list:
    """The chainalg modules an import statement names ([] for an outside import)."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chainalg"):
        return [node.module.removeprefix("chainalg").lstrip(".") or "__init__"]
    if isinstance(node, ast.Import):
        return [a.name.removeprefix("chainalg.") for a in node.names if a.name.startswith("chainalg.")]
    return []


def test_no_import_inside_a_function_or_class():
    nested = set()
    for name, tree in _parsed_modules().items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested |= {
                    f"{name}.py:{node.lineno}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(nested) == []


def test_intra_package_import_graph_has_no_cycle():
    graph = {
        name: {m for node in ast.walk(tree) for m in _package_modules(node)}
        for name, tree in _parsed_modules().items()
    }
    assert {"core", "chains", "basis", "weights", "cli"} <= graph.keys()
    assert graph["cli"] >= {"checks", "core"}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle {' -> '.join(exc.args[1])}") from None


CACHES = ("lru_cache", "cache", "cached_property")  # functools' memoising decorators


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_memo_inventory():
    # a new cache joins this list and the README's list of memos
    cached, with_global = set(), set()
    for name, tree in _parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_decorator_name(d) in CACHES for d in node.decorator_list):
                    cached.add(f"{name}.{node.name}")
            elif isinstance(node, ast.Global):
                with_global.add(name)
    assert cached == {"bracket.bracket_gen", "basis.to_b4_gen"}
    assert with_global == {"chains"}


def test_no_params_argument_defaults_to_none():
    # an element carries its AlgebraParams; a second, optional copy could only disagree
    optional = set()
    for name, tree in _parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = zip(positional[len(positional) - len(args.defaults):], args.defaults)
                for arg, default in [*defaults, *zip(args.kwonlyargs, args.kw_defaults)]:
                    none = isinstance(default, ast.Constant) and default.value is None
                    if arg.arg == "params" and none:
                        optional.add(f"{name}.{getattr(node, 'name', '<lambda>')}")
    assert sorted(optional) == []


# top-level names that nothing in the package reads and chainalg.__all__ does
# not export, each with the reason it stays in the package
UNREFERENCED_BY_DESIGN = {
    "checks.suite_identities": "the CLI looks each suite up by name (getattr)",
    "checks.suite_independence": "the CLI looks each suite up by name (getattr)",
    "checks.suite_jacobi": "the CLI looks each suite up by name (getattr)",
    "checks.suite_oracle": "the CLI looks each suite up by name (getattr)",
    "checks.random_element": "random elements shared by the tests",
    "checks.commutator_of_actions_ok": "the action-commutator oracle the tests share",
    "weights.free_weight_from_af": "the free-mode weight fixture the tests share",
}


def _loaded_names(tree) -> set:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_no_top_level_code_only_tests_use():
    # code that only tests call belongs in the tests; a name counts as read
    # when another top-level statement of the package loads it, so a
    # function's calls to itself do not count
    statements = [(name, node) for name, tree in _parsed_modules().items() for node in tree.body]
    reads = {id(node): _loaded_names(node) for _, node in statements}
    unused = {
        f"{name}.{node.name}"
        for name, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in chainalg.__all__
        and not any(node.name in reads[id(other)] for _, other in statements if other is not node)
    }
    assert sorted(unused) == sorted(UNREFERENCED_BY_DESIGN)
