"""Every definition of the package is reached from the command line.

A module-level function or class of ``mocap_geom`` that only tests call is
a second way through the program that no command runs, and it drifts from
the one that does.  The test below walks the package's syntax trees from
``cli.main`` and every module's top-level statements, following the names
each reached body uses, and fails on any definition it does not reach
(methods included: a method is reached when its class is, and reached code
reads an attribute of its name, or it is a dunder).  A second scan fails on
any function parameter that its body never reads, and a third on any
``self.<name>`` that a method stores and no package code reads as an
attribute.
"""

import ast
from pathlib import Path

import mocap_geom

PACKAGE = Path(mocap_geom.__file__).parent

# Definitions that no command reaches, kept on purpose.
KEEP = {
    "maps.loss_maps": "the paper's training loss, asserted by criterion 2",
    "maps.loss_fields": "the paper's training loss, asserted by criterion 2",
    "maps._squared_residual": "the sum that loss_maps and loss_fields share",
}

# Parameters that their function never reads, kept on purpose.
KEEP_PARAMETERS = {
    "skeleton.calibrate_template.seed":
        "perfbench/run.py passes it; drop it with the next benchmark change",
}

# Attributes that a method stores and no package code reads, kept on purpose.
KEEP_ATTRIBUTES = {}


class _Module:
    def __init__(self, name, tree):
        self.name = name
        self.tree = tree
        self.defs = {node.name: node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        self.imports = {}  # local name -> (package module, name there)
        self.aliases = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("mocap_geom")):
                source = (node.module or "").removeprefix("mocap_geom")
                source = source.lstrip(".")
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source:
                        self.imports[local] = (source, alias.name)
                    else:
                        self.aliases[local] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("mocap_geom.") and alias.asname:
                        self.aliases[alias.asname] = alias.name.split(".")[1]


def _definitions(modules):
    """Every module-level definition and method, by dotted name."""
    out = {}
    for mod in modules.values():
        for name, node in mod.defs.items():
            out[f"{mod.name}.{name}"] = (mod, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[f"{mod.name}.{name}.{item.name}"] = (mod, item)
    return out


def _resolve(modules, mod, name):
    """The dotted name of the package definition ``name`` means in ``mod``."""
    seen = set()
    while name not in mod.defs:
        if name not in mod.imports or (mod.name, name) in seen:
            return None
        seen.add((mod.name, name))
        source, name = mod.imports[name]
        mod = modules[source]
    return f"{mod.name}.{name}"


def _uses(modules, mod, nodes):
    """The package definitions and the attribute names that ``nodes`` use."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(_resolve(modules, mod, sub.id))
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
                if (isinstance(sub.value, ast.Name)
                        and sub.value.id in mod.aliases):
                    names.add(_resolve(
                        modules, modules[mod.aliases[sub.value.id]], sub.attr))
    return names - {None}, attrs


def _body(node):
    """What a definition runs or declares, without a class's methods."""
    if isinstance(node, ast.ClassDef):
        return [*node.bases, *node.keywords, *node.decorator_list,
                *(item for item in node.body
                  if not isinstance(item, ast.FunctionDef))]
    return [node]


def _unreached(modules):
    """The dotted names of the definitions that no command reaches."""
    definitions = _definitions(modules)
    reached, attrs = set(), set()
    frontier = [("cli", [modules["cli"].defs["main"]])] + [
        (name, [node for node in mod.tree.body
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef))])
        for name, mod in modules.items()]
    reached.add("cli.main")
    while frontier:
        while frontier:
            name, nodes = frontier.pop()
            names, used = _uses(modules, modules[name], nodes)
            attrs |= used
            for target in names - reached:
                reached.add(target)
                mod, node = definitions[target]
                frontier.append((mod.name, _body(node)))
        for target, (mod, node) in definitions.items():
            owner, _, method = target.rpartition(".")
            if (target not in reached and owner in reached
                    and (method in attrs or method.startswith("__"))):
                reached.add(target)
                frontier.append((mod.name, [node]))
    return set(definitions) - reached


def _package():
    return {path.stem: _Module(path.stem, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_reached_from_the_cli():
    missed = _unreached(_package())
    assert missed - set(KEEP) == set(), (
        "reached only from tests, or from nothing; delete them or give "
        f"each a reason in KEEP: {sorted(missed - set(KEEP))}")
    assert set(KEEP) <= missed, (
        f"KEEP names what a command reaches: {sorted(set(KEEP) - missed)}")


def _unread_parameters(modules):
    """The dotted names (function, then parameter) of the parameters, other
    than ``self`` and ``cls``, that their function's body never reads."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                args = child.args
                read = {sub.id for stmt in child.body for sub in ast.walk(stmt)
                        if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)}
                out.update(f"{name}.{arg.arg}" for arg in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    *filter(None, (args.vararg, args.kwarg)))
                    if arg.arg not in read | {"self", "cls"})
                visit(child, name)
            else:
                visit(child, f"{prefix}.{child.name}"
                      if isinstance(child, ast.ClassDef) else prefix)

    for mod in modules.values():
        visit(mod.tree, mod.name)
    return out


def test_every_parameter_is_read():
    unread = _unread_parameters(_package())
    assert unread - set(KEEP_PARAMETERS) == set(), (
        "parameters that their function never reads; drop them or give "
        f"each a reason in KEEP_PARAMETERS: {sorted(unread - set(KEEP_PARAMETERS))}")
    assert set(KEEP_PARAMETERS) <= unread, (
        "KEEP_PARAMETERS names parameters that are read: "
        f"{sorted(set(KEEP_PARAMETERS) - unread)}")


def _unread_attributes(modules):
    """The dotted names (class, then attribute) of the ``self.<name>`` that
    a method of a package class stores and that no package code reads as an
    attribute: by ``.<name>``, an augmented assignment or ``getattr``."""
    stored, read = set(), set()
    for mod in modules.values():
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef):
                stored.update(
                    f"{mod.name}.{node.name}.{sub.attr}"
                    for item in node.body if isinstance(item, ast.FunctionDef)
                    for sub in ast.walk(item)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.target, ast.Attribute)):
                read.add(node.target.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return {name for name in stored if name.rpartition(".")[2] not in read}


def test_every_stored_attribute_is_read():
    unread = _unread_attributes(_package())
    assert unread - set(KEEP_ATTRIBUTES) == set(), (
        "attributes that no package code reads; drop them or give each a "
        f"reason in KEEP_ATTRIBUTES: {sorted(unread - set(KEEP_ATTRIBUTES))}")
    assert set(KEEP_ATTRIBUTES) <= unread, (
        "KEEP_ATTRIBUTES names attributes that are read: "
        f"{sorted(set(KEEP_ATTRIBUTES) - unread)}")
