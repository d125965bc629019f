"""Every function, class and method the package defines is used by the
package itself: a name that only tests (or the ``__init__`` re-exports)
reach belongs in the tests, next to what they compare it against.  And every
name the benchmark's tracer wraps still exists."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import bltlsynth

PACKAGE = Path(bltlsynth.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def definitions(tree: ast.Module):
    """(qualified name, name, node) of each module-level function and class
    and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def names_read(node: ast.AST) -> Counter:
    """How often each name is read in node, as a variable or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_used_by_the_package():
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    everywhere = sum((names_read(tree) for tree in modules.values()), Counter())
    # a definition's own body (recursion) is not a use
    unused = [f"{filename}:{qualified}" for filename, tree in modules.items()
              for qualified, name, node in definitions(tree)
              if everywhere[name] == names_read(node)[name]]
    assert unused == []


def test_every_traced_boundary_resolves():
    """Each (module, attribute path) of ``bench/tracing.py``'s ``BOUNDARIES``
    resolves the way ``Recorder.install`` looks it up.  One that does not is
    left unwrapped and listed as missing by a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module_name, path in tracing.BOUNDARIES:
        try:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(f"{name}: {module_name}.{path}")
    assert len(tracing.BOUNDARIES) > 10
    assert missing == []
