import ast
import importlib
import pathlib
import pkgutil

import vextrace


def test_public_names_resolve():
    # a name left in __all__ after its definition is deleted breaks star imports
    for info in pkgutil.iter_modules(vextrace.__path__):
        module = importlib.import_module(f"vextrace.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"vextrace.{info.name}.__all__ names {missing}"
        exec(f"from vextrace.{info.name} import *", {})
    exec("from vextrace import *", {})


def test_imports_sit_at_the_top_of_each_module():
    # no module needs a lazy import to break a cycle, so none hides one
    root = pathlib.Path(vextrace.__file__).parent
    nested = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                              if isinstance(inner, (ast.Import, ast.ImportFrom)))
    assert sorted(nested) == []


def _loaded_names(path):
    """Every name a file reads, as a bare name or an attribute."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_public_names_have_a_program_use():
    # A public name earns its place by a use outside the unit tests: in the
    # package itself, a script, the benchmark or the acceptance suite.  An
    # import or re-export is not a use, nor are a definition and its __all__
    # entry, neither of which reads the name.
    root = pathlib.Path(__file__).resolve().parents[1]
    corpus = [
        *sorted((root / "src" / "vextrace").glob("*.py")),
        *sorted((root / "scripts").glob("*.py")),
        *sorted((root / "perfbench").glob("*.py")),
        root / "tests" / "test_acceptance.py",
    ]
    used = set().union(*map(_loaded_names, corpus))
    unused = {}
    for info in pkgutil.iter_modules(vextrace.__path__):
        module = importlib.import_module(f"vextrace.{info.name}")
        idle = [n for n in getattr(module, "__all__", ()) if n not in used]
        if idle:
            unused[info.name] = idle
    assert unused == {}, f"__all__ names used only by unit tests: {unused}"
