import ast
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
