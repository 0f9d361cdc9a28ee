"""Every name a ``gridmaint`` module exports is used somewhere in ``src/``.

A name counts as used when some module's code, its own included, loads it
(a ``Name`` or an attribute access) or imports it by name; its ``def`` or
``class`` line, the ``__all__`` entry and mentions in docstrings do not
count.  A name used only by the tests belongs in ``tests/``.

Every public member of a ``gridmaint`` class (method, property, annotated
field, or ``self.`` attribute set in ``__init__``) is read by name, as an
attribute, somewhere in ``src/`` or ``perfbench/``.  A member only the tests
read belongs in ``tests/``.  The check works on names alone, not types: a
member whose name some other object's attribute shares (a ``gap`` field on
two classes, say) passes while that other one is read.

Every name a module imports is loaded by that module's own code.

No module reduces through BLAS (``@``, ``dot``, ``matmul``, ``inner``,
``vdot``): OpenBLAS splits such a sum across its threads, so its bits
would follow the BLAS thread count.

No module groups equal rows with ``np.unique`` or ``np.packbits``:
``degrade.group_rows`` is the one grouping.

Only ``saa`` imports ``concurrent.futures``, and no module imports
``threading``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gridmaint"
PERFBENCH = ROOT / "perfbench"

# exported names kept in src/ with no caller there yet, and why
ALLOWED_UNUSED = {
    # the case writer that parse_case round-trips against; the planned
    # command that writes a case file will call it
    ("caseio", "serialize_case"),
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _exports(tree):
    """The module's ``__all__``, or without one its public functions and
    classes."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _used_names(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_is_used_in_src():
    trees = _trees()
    used = _used_names(trees)
    unused = sorted((module, name) for module, tree in trees.items()
                    for name in _exports(tree)
                    if name not in used and (module, name) not in ALLOWED_UNUSED)
    assert unused == []


def test_allowed_unused_names_are_still_exported_and_unused():
    trees = _trees()
    used = _used_names(trees)
    for module, name in ALLOWED_UNUSED:
        assert name in _exports(trees[module]) and name not in used


# public class members kept in src/ that no code there or in perfbench/
# reads, and why
ALLOWED_UNREAD_MEMBERS = {
    # the safe-mode referee that the C4 check and oracle_enum compare the
    # safe block's cuts against
    ("chance", "SafeApproxBlock", "accepts"),
    # the column map the day-model tests read a solution through
    ("ucmodel", "DayModel", "idx"),
}


def _members(cls):
    """The public methods, properties and annotated fields of ``cls``, and
    the public ``self.`` attributes its ``__init__`` sets."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
            if node.name == "__init__":
                names.update(target.attr for target in ast.walk(node)
                             if isinstance(target, ast.Attribute)
                             and isinstance(target.ctx, ast.Store)
                             and getattr(target.value, "id", None) == "self")
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _read_attributes(trees):
    """Every attribute name some code reads."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread_members():
    trees = _trees()
    perfbench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    read = _read_attributes([*trees.values(), *perfbench])
    return {(module, cls.name, name) for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for name in _members(cls) if name not in read}


def test_every_class_member_is_read_in_src_or_perfbench():
    assert sorted(_unread_members() - ALLOWED_UNREAD_MEMBERS) == []


def test_allowed_unread_members_are_still_members_and_unread():
    assert ALLOWED_UNREAD_MEMBERS <= _unread_members()


def _unused_imports(tree):
    """The names the module's import statements bind and its code never
    loads; ``from __future__`` imports bind nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - loaded


def test_every_imported_name_is_used():
    unused = sorted((module, name) for module, tree in _trees().items()
                    for name in _unused_imports(tree))
    assert unused == []


# reductions OpenBLAS may split across its threads, so that their bits
# follow the BLAS thread count
_BLAS_CALLS = {"dot", "matmul", "inner", "vdot"}


def _blas_reductions(tree):
    """Line numbers of ``@`` and of calls to a name in ``_BLAS_CALLS``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name in _BLAS_CALLS:
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reduces_through_blas():
    found = [f"{module}.py:{line}" for module, tree in _trees().items()
             for line in _blas_reductions(tree)]
    assert found == []


def _row_groupings(tree):
    """Line numbers of calls to ``np.unique`` or ``np.packbits``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("unique", "packbits")
                  and getattr(node.func.value, "id", None) == "np")


def test_equal_rows_are_grouped_by_group_rows_alone():
    # degrade.group_rows is the one grouping of equal rows
    found = [f"{module}.py:{line}" for module, tree in _trees().items()
             for line in _row_groupings(tree)]
    assert found == []


def _importers(trees, package):
    """The modules that import ``package`` or a module inside it."""
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == package or name.startswith(package + ".")
                   for name in names):
                found.add(module)
    return found


def test_concurrency_lives_in_saa():
    # SAA replicates are the one thing solved at once, and no state is kept
    # per thread: each spec owns its HiGHS instance.  A pool in the plan or
    # evaluation path would share the cache, the master and the bound arrays
    trees = _trees()
    assert _importers(trees, "concurrent") == {"saa"}
    assert _importers(trees, "threading") == set()
