"""mvkc's runtime dependencies are numpy and scipy, and nothing else."""

import ast
import pathlib
import sys

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mvkc"
ALLOWED = sys.stdlib_module_names | {"numpy", "scipy"}


def test_every_import_is_the_standard_library_numpy_scipy_or_relative():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {module}" for module in modules
                        if module.split(".")[0] not in ALLOWED]
    assert outside == []
