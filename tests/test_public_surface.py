"""Public-surface ratchets: every exported name has a user outside its own
module and the tests, and no module reaches into another's private names.

A name in ``exogait.__all__`` earns its place when another library module,
the README, the benchmark or the acceptance tests use it, or when it is a
class that a public library function returns. A name that only its own
module and the unit tests reach belongs in that module alone.
"""

import ast
import re
from pathlib import Path

import exogait

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "exogait"

# Uses of another module's private name, by import or as an attribute of
# the module, as (using module, used module, name). Shrink this set; never
# grow it.
_PRIVATE_IMPORTS = set()


def _modules():
    """(stem, syntax tree) of each package module."""
    return [(p.stem, ast.parse(p.read_text(encoding="utf-8")))
            for p in sorted(PACKAGE.glob("*.py"))]


def _sources():
    """(home module stem or None, lines) of each file whose uses count."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    return [(p.stem if p.parent == PACKAGE else None,
             p.read_text(encoding="utf-8").splitlines()) for p in paths]


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _returned_names(tree):
    """Names in the return annotations of the module's public functions."""
    return {
        word
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.returns is not None
        for word in re.findall(r"\w+", ast.unparse(node.returns))
    }


def _defines(name, line):
    return re.match(rf"\s*(def|class)\s+{name}\b|\s*{name}\s*[:=]", line)


def test_every_export_is_used_outside_the_tests():
    modules = _modules()
    home = {name: stem for stem, tree in modules
            for name in _defined_names(tree) | {stem}}
    returned = set().union(*(_returned_names(tree) for _, tree in modules))
    sources = _sources()
    unused = [
        name for name in exogait.__all__
        if name not in returned
        and not any(re.search(rf"\b{name}\b", line)
                    and not _defines(name, line)
                    for stem, lines in sources if stem != home[name]
                    for line in lines)
    ]
    assert unused == []


def test_export_count_is_capped():
    # Raise the cap only together with a deliberate new export.
    assert len(exogait.__all__) <= 35


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_uses(tree, stems):
    """(module, name) of each private name of another package module that
    tree imports, or reads as an attribute of that module."""
    found = set()
    aliases = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # from . import csvio, from exogait import csvio: a module;
            # from .csvio import _split, from exogait.csvio import _split: a
            # module's name.
            module = "exogait" if node.level else ""
            if node.module:
                module = ".".join(filter(None, (module, node.module)))
            package, _, stem = module.partition(".")
            if package != "exogait":
                continue
            for alias in node.names:
                if not stem and alias.name in stems:
                    aliases[alias.asname or alias.name] = alias.name
                elif stem in stems and _private(alias.name):
                    found.add((stem, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, stem = alias.name.partition(".")
                if package == "exogait" and stem in stems and alias.asname:
                    aliases[alias.asname] = stem
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _private(node.attr):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            found.add((aliases[value.id], node.attr))
        elif isinstance(value, ast.Attribute) and value.attr in stems and \
                ast.unparse(value.value) == "exogait":
            found.add((value.attr, node.attr))  # exogait.csvio._split
    return found


def test_no_module_imports_another_modules_private_name():
    modules = _modules()
    stems = {stem for stem, _ in modules}
    found = {
        (stem, module, name)
        for stem, tree in modules
        for module, name in _private_uses(tree, stems)
        if module != stem
    }
    assert found == _PRIVATE_IMPORTS


def _raised_names(tree):
    """Names of the exceptions that raise statements in tree raise, called
    or not, bare or as a module attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_has_a_raiser():
    # An error class leaves errors.py together with its last raise.
    classes = [name for name, obj in vars(exogait.errors).items()
               if isinstance(obj, type) and obj is not exogait.ExogaitError
               and issubclass(obj, exogait.ExogaitError)]
    raised = set().union(*(_raised_names(tree) for stem, tree in _modules()
                           if stem != "errors"))
    assert classes
    assert [name for name in classes if name not in raised] == []
