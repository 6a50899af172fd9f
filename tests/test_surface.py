"""The package holds only what the program runs.

Every function, class, method and module-level name defined in
src/plusforms must be named somewhere the program reaches it: another part
of the package (its own definition and __init__.py's re-exports do not
count), a demo, or a benchmark workload.  A definition only tests call is
moved into the tests or deleted.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plusforms"

# kept although only tests call them: the exponential sum and its bound
# (acceptance criterion 12), the certified value's dict form, and the
# store's reset hook
ALLOWED = {"s_sum", "s_sum_upper_bound_log", "as_dict", "cache_clear"}


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function, class and
    assigned name, and each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")):
                        yield sub.name, sub.lineno, sub.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno


def test_every_definition_is_reached_by_the_program():
    modules = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    callers = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    callers.append((ROOT / "perfbench" / "workloads.py").read_text())
    unreached = []
    for path, text in modules.items():
        lines = text.splitlines()
        for name, first, last in _definitions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = [t for p, t in modules.items() if p != path]
            elsewhere.append("\n".join(lines[: first - 1] + lines[last:]))
            if name not in ALLOWED and not any(word.search(t) for t in elsewhere + callers):
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, "reached by no command, demo or workload: " + ", ".join(unreached)
