"""The package's only runtime dependency is numpy (pyproject's dependencies)."""

import ast
import sys
from pathlib import Path

import dysplat

PACKAGE = Path(dysplat.__file__).parent


def imported_roots(path):
    """Top-level names of every absolute import in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_import_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {p.name: sorted(imported_roots(p) - allowed) for p in modules}
    assert not {name: roots for name, roots in foreign.items() if roots}


# Referenced only outside src/: perfbench's seams, which go with the shared run
# trace (ROADMAP item 5), and the estimator contract's set_params.
UNREFERENCED_ALLOWED = {
    ("rasterizer", "_splats_in_tile"),   # perfbench's tile test for its per-tile counts
    ("rasterizer", "channel_stack"),     # perfbench's render digests and oracle check
    ("estimators", "set_params"),        # the scikit-learn parameter contract
}


def test_every_helper_is_referenced():
    # helpers that nothing needs are deleted: each function, class or method in
    # src/ is named in code (a load, an attribute or an import) somewhere in src/
    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    unreferenced = {(module, name) for module, name in defined
                    if name not in named and not (name.startswith("__") and name.endswith("__"))}
    assert unreferenced == UNREFERENCED_ALLOWED


# Parameters that no body reads, kept because a caller outside src/ passes them
# or a contract names them; one entry per seam.
UNREAD_PARAMETERS_ALLOWED = {
    # perfbench passes the camera and thread count to every render and fit
    # (ROADMAP item 6); the tile loop is serial and the batch is already projected
    ("rasterizer", "rasterize_forward", "cam"),
    ("rasterizer", "rasterize_forward", "threads"),
    ("rasterizer", "rasterize_reference", "cam"),
    ("evaluation", "evaluate", "threads"),
    ("estimators", "get_params", "deep"),  # the scikit-learn parameter contract
}


def test_every_parameter_is_read():
    # a function's parameters are each loaded somewhere in its body (nested
    # functions included); self and cls are exempt
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if p is not None and p.arg not in ("self", "cls")]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {node.id for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread.update((path.stem, getattr(fn, "name", "<lambda>"), p)
                          for p in params if p not in loaded)
    assert unread == UNREAD_PARAMETERS_ALLOWED


def test_np_rint_only_in_nearest_pixel():
    # one pixel rule: every np.rint in src/ lies inside geometry.nearest_pixel
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)  # ast.walk visits outer functions first
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "rint":
                sites.append((path.stem, owner.get(node)))
    assert sites == [("geometry", "nearest_pixel")]


def test_no_np_cross_in_src():
    # one cross product: geometry.cross3, with np.cross's bytes in fewer passes
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "cross":
                sites.append((path.stem, node.lineno))
            elif isinstance(node, ast.ImportFrom) and any(a.name == "cross" for a in node.names):
                sites.append((path.stem, node.lineno))
    assert sites == []
