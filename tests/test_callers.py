"""Every public function and class of the package has a caller in src/, and
is imported from the module that defines it."""
import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "insens4"


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(name, enclosing top-level definition or None) for every reference."""
    refs = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.append((sub.id, owner))
            elif isinstance(sub, ast.Attribute):
                refs.append((sub.attr, owner))
    return refs


def _exported_definitions(tree: ast.Module) -> set[str]:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return exported & defined


def test_every_exported_definition_has_a_src_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    refs = {stem: _references(tree) for stem, tree in trees.items()}
    uncalled = []
    for stem, tree in trees.items():
        for name in sorted(_exported_definitions(tree)):
            called = any(
                ref == name and (other != stem or owner != name)
                for other, module_refs in refs.items()
                for ref, owner in module_refs)
            if not called:
                uncalled.append(f"{stem}.{name}")
    assert uncalled == []


def test_package_root_is_its_docstring():
    # one import path per name: callers import from the defining module
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def test_every_exported_name_exists():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"insens4.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
