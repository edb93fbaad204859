"""The package's import layering, read from the source with ast: the
relative imports between schlicht's modules form no cycle, and the
lower layers import nothing from the layers built on them."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "schlicht"

#: Modules that every other layer may build on.
LOWER = ("errors", "series", "caratheodory")
#: Modules built on the lower ones.
UPPER = ("probe", "zoo", "transforms", "functionals", "cli")


def _import_graph() -> dict[str, set[str]]:
    """Each module of the package to the sibling modules that its
    `from .x import ...` statements name, wherever they stand."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = {
            node.module.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    return graph


def test_graph_covers_the_package():
    graph = _import_graph()
    assert set(LOWER + UPPER) <= set(graph)
    assert all(deps <= set(graph) for deps in graph.values())


def test_import_graph_is_acyclic():
    graph = _import_graph()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, f"import cycle: {' -> '.join(path + (module,))}"
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + (module,))
        done.add(module)

    for module in graph:
        visit(module, ())


def test_lower_layers_import_no_upper_layer():
    graph = _import_graph()
    for module in LOWER:
        assert not graph[module] & set(UPPER), (module, sorted(graph[module] & set(UPPER)))
