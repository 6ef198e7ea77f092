import ast
import subprocess
import sys
from pathlib import Path

import weakfuse

# each module may import only modules before it
LAYERS = ("errors", "weights", "model", "nuisance", "betafit", "gradients", "estimator",
          "simulation", "cli")


def _package_imports(path: Path) -> set[str]:
    """The weakfuse modules a module imports, at any depth of its code."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "weakfuse":
                continue
            parts = module.split(".")[node.level == 0:]
            if parts and parts[0]:
                out.add(parts[0])
            else:               # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("weakfuse."))
    return out


def test_no_module_imports_a_later_layer():
    src = Path(weakfuse.__file__).parent
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    assert sorted(LAYERS) == modules
    upward = {(m, dep) for m in LAYERS for dep in _package_imports(src / f"{m}.py")
              if LAYERS.index(dep) >= LAYERS.index(m)}
    assert upward == set()


def test_the_package_root_imports_nothing():
    # each name has one import path, its defining module, so the root holds
    # no import, and importing it loads no weakfuse module and not numpy
    init = Path(weakfuse.__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import weakfuse; "
            "print(sorted(m for m in sys.modules if m.startswith(('weakfuse.', 'numpy'))))")
    out = subprocess.run([sys.executable, "-c", code, str(init.parent.parent)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_input_faults_have_one_error_type():
    # an error that the input causes is a WeakfuseError, which the CLI reports
    # as a user error (exit 1); a ValueError is left to mean a fault in the
    # program (exit 2), so no module raises one, and no type re-labels another
    src = Path(weakfuse.__file__).parent
    raised, named = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                raised.append(f"{path.name}:{node.lineno}")
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name == "SemanticError":
                named.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert raised == []
    assert named == []
