"""The package holds only what the program runs.

Every function, class, method and module-level name defined in
src/plusforms must be used as an identifier somewhere the program reaches
it: another part of the package (its own definition and __init__.py's
re-exports do not count), a demo, or a benchmark workload.  A name that
only comments or docstrings mention is not reached.  A definition only
tests call is moved into the tests or deleted.
"""

import ast
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


def _identifiers(tree: ast.AST):
    """(identifier, line) of each name the code uses: a Name, the attribute
    of an Attribute, and the name of each import alias.  Comments, strings
    and docstrings name nothing, and neither does an attribute of a module
    from outside the package (np.log names no `log` of ours)."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if not alias.name.startswith("plusforms")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                yield node.attr, node.end_lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_every_definition_is_reached_by_the_program():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    callers = [ast.parse(path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    callers.append(ast.parse((ROOT / "perfbench" / "workloads.py").read_text()))
    # identifiers used by the demos, the workloads and each package module
    outside = {name for tree in callers for name, _ in _identifiers(tree)}
    used = {path: list(_identifiers(tree)) for path, tree in trees.items()}
    unreached = []
    for path, tree in trees.items():
        elsewhere = outside | {name for p, ids in used.items() if p != path for name, _ in ids}
        for name, first, last in _definitions(tree):
            if name in ALLOWED or name in elsewhere:
                continue
            if not any(n == name and not first <= line <= last for n, line in used[path]):
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, "reached by no command, demo or workload: " + ", ".join(unreached)
