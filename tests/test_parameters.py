"""Every defaulted parameter of the library is one that a caller sets,
every config key is one that a shipped config sets or that names an
input, and every library name is one that a caller names.

A parameter with a default is an option, and an option earns its place
when some call in ``src/``, ``scripts/`` or ``perfbench/`` passes it,
positionally or by keyword.  One that only tests set is a constant with
extra code around it.  The audit reads the source with ``ast``: it
resolves a call through the caller's imports of ``diskrig`` modules and
names, takes ``ClassName(...)`` as a call of ``__init__``, and takes any
other ``obj.name(...)`` as a call of every method of that name.

A config key is a runner parameter of ``cli.py``.  The configs shipped
with the project are those in ``scripts/``, the README's example, the CI
workflow and the benchmark's battery; a key that none of them sets must
name what is checked, never how strictly.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from diskrig import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diskrig"
CALLER_DIRS = ("src", "scripts", "perfbench")
#: cli.py's runner parameters are config keys, audited against the shipped
#: configs below, and ``main(argv)`` is the console entry point
EXEMPT_MODULES = {"cli"}
#: (module, function, parameter) -> why it stays although only tests set it
ALLOWED = {
    ("sequences", "zero_rigidity_track", "ns"):
        "acceptance criterion 6 tracks the orders to n = 64, not the "
        "default 128, so its clause reads the index it asserts",
}


def _functions(tree: ast.Module):
    """(qualified name, FunctionDef) of a module's top-level functions and
    methods, and the names of its classes."""
    functions, classes = [], set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            classes.add(node.name)
            functions.extend((f"{node.name}.{item.name}", item) for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return functions, classes


def _library() -> tuple[dict, dict]:
    """((module, qualified name) -> FunctionDef, module -> class names)."""
    defs, classes = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        functions, classes[path.stem] = _functions(ast.parse(path.read_text()))
        defs.update(((path.stem, name), fn) for name, fn in functions)
    return defs, classes


def _positional(fn: ast.FunctionDef) -> list[str]:
    return [a.arg for a in fn.args.posonlyargs + fn.args.args]


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    names = _positional(fn)
    kwonly = [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
              if d is not None]
    return names[len(names) - len(fn.args.defaults):] + kwonly


def _imports(tree: ast.Module, here: str | None) -> tuple[dict, dict]:
    """(alias -> diskrig module, name -> (module, name)) over a file's imports,
    the file's own top-level definitions included for a library module."""
    modules, names = {}, {}
    if here is not None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = (here, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("diskrig.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and source.split(".")[0] != "diskrig":
                continue
            sub = source.split(".")[-1] if source not in ("", "diskrig") else None
            for alias in node.names:
                bound = alias.asname or alias.name
                if sub is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = (sub, alias.name)
    return modules, names


def _targets(call: ast.Call, modules: dict, names: dict, defs: dict,
             classes: dict) -> list[tuple[tuple, int]]:
    """(key of a definition the call may reach, argument offset) pairs."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in names:
        module, name = names[func.id]
    elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
          and func.value.id in modules):
        module, name = modules[func.value.id], func.attr
    elif isinstance(func, ast.Attribute):
        return [(key, 1) for key in defs if key[1].endswith("." + func.attr)]
    else:
        return []
    if name in classes.get(module, ()):
        key = (module, f"{name}.__init__")
        return [(key, 1)] if key in defs else []
    return [((module, name), 0)] if (module, name) in defs else []


def _calls(tree: ast.AST, here: str | None):
    """(call, key of the library function or method around it, or None)."""
    own = dict(_functions(tree)[0]) if here is not None else {}
    keys = {id(fn): (here, name) for name, fn in own.items()}

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, enclosing
            yield from walk(child, keys.get(id(child), enclosing))

    return walk(tree, None)


def _set_parameters(defs: dict, classes: dict) -> set:
    """(definition key, parameter) pairs some call passes.

    An argument that is the calling function's own defaulted parameter,
    passed on by name, sets the callee's parameter only where the
    caller's is set in turn (cli.py's are set by its configs)."""
    passed, forwarded = set(), []
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            here = path.stem if path.parent == PACKAGE else None
            modules, names = _imports(tree, here)
            for call, outer in _calls(tree, here):
                own = (set(_defaulted(defs[outer]))
                       if outer and outer[0] not in EXEMPT_MODULES else set())
                for key, offset in _targets(call, modules, names, defs, classes):
                    params = _positional(defs[key])
                    values = []
                    for i, arg in enumerate(call.args):
                        if isinstance(arg, ast.Starred):
                            values += [(p, arg) for p in params[i + offset:]]
                            break
                        if i + offset < len(params):
                            values.append((params[i + offset], arg))
                    values += [(kw.arg, kw.value) for kw in call.keywords]
                    for param, value in values:
                        if isinstance(value, ast.Name) and value.id in own:
                            forwarded.append(((key, param), (outer, value.id)))
                        else:
                            passed.add((key, param))
    while True:
        more = {target for target, source in forwarded if source in passed}
        if more <= passed:
            return passed
        passed |= more


def _unset_defaults() -> list[tuple[str, str, str]]:
    defs, classes = _library()
    passed = _set_parameters(defs, classes)
    return [(module, name, p) for (module, name), fn in defs.items()
            if module not in EXEMPT_MODULES
            for p in _defaulted(fn) if ((module, name), p) not in passed]


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = [u for u in _unset_defaults() if u not in ALLOWED]
    assert not unset, (
        "defaulted parameters that no call in src/, scripts/ or perfbench/ "
        "sets (make each the constant it always is): "
        + ", ".join(f"{m}.{f}({p})" for m, f, p in unset))


def test_allowed_exceptions_are_still_unset():
    assert set(ALLOWED) <= set(_unset_defaults())


def _identifiers(tree: ast.AST) -> set:
    """Every name a file uses: bare names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unnamed_library_names() -> list[tuple[str, str]]:
    used = set()
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _identifiers(ast.parse(path.read_text()))
    return [(path.stem, node.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]


def test_every_library_name_is_used_outside_the_tests():
    unused = _unnamed_library_names()
    assert not unused, (
        "top-level functions and classes that nothing in src/, scripts/ or "
        "perfbench/ names (move each into the tests that use it, or delete "
        "it): " + ", ".join(f"{m}.{n}" for m, n in unused))


#: files that ship configs, as literal text or as Python string literals
SHIPPED_CONFIGS = (*sorted((ROOT / "scripts").glob("*.py")), ROOT / "README.md",
                   ROOT / ".github" / "workflows" / "tier1.yml",
                   ROOT / "perfbench" / "workloads.py")
#: (command, key) -> what the key names, for keys no shipped config sets
INPUT_KEYS = {
    ("rigidity-scan", "angle"): "the ray the scan walks to the boundary",
    ("pj-decompose", "n-r"): "the radial nodes of the quadrature grid",
    ("pj-decompose", "n-t"): "the angular nodes of the quadrature grid",
    ("pj-decompose", "bound-r"): "the sub-disk radius of the quotient bound",
    ("pj-decompose", "bound-xi"): "the point whose zero orders the bound weighs",
    ("sequence-scan", "mu"): "the metric the sequence is compared with",
    ("sequence-scan", "expect-verdict"): "the verdict the config asserts",
    ("sequence-scan", "a"): "the parameter of the extremal family",
    ("sequence-scan", "z"): "the point the extremal family is evaluated at",
    ("liouville-solve", "R"): "the radius of the disk the equation is solved on",
    ("liouville-solve", "out-csv"): "the file the solution grid is exported to",
    ("ball-check", "N"): "the dimension of the ball",
    ("ball-check", "seed"): "the seed of the random maps, slices or samples",
    ("ball-check", "count"): "the number of random maps or slices drawn",
    ("ball-check", "k"): "the power of the map (z1^k, 0, ...)",
    ("ball-check", "expect-verdict"): "the verdict the config asserts",
}
KEY_LINE = re.compile(r"\s*([A-Za-z][\w-]*) = \S.*")


def _texts(path: Path) -> list[str]:
    """The text a file may carry configs in: its string literals (an
    f-string with its fields blanked) for Python, else the file with its
    escaped newlines read as newlines."""
    if path.suffix != ".py":
        return [path.read_text().replace("\\n", "\n")]
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
        elif isinstance(node, ast.JoinedStr):
            out.append("".join(v.value if isinstance(v, ast.Constant) else "{}"
                               for v in node.values))
    return out


def _shipped_configs():
    """(command, {key: value}) of each config in a shipped file: a
    ``command = ...`` line and the key lines right after it."""
    for path in SHIPPED_CONFIGS:
        for text in _texts(path):
            for match in re.finditer(r"command = ([\w-]+)\n", text):
                params = {}
                for line in text[match.end():].split("\n"):
                    key = KEY_LINE.fullmatch(line)
                    if key is None:
                        break
                    params[key[1]] = line.split(" = ", 1)[1]
                yield match[1], params


def _runners():
    """(command, selector value or None, runner) of every runner."""
    for command, spec in cli.COMMANDS.items():
        if spec.selector is None:
            yield command, None, spec.runner
        else:
            yield from ((command, choice, runner)
                        for choice, runner in spec.runner.items())


def _unset_keys() -> list[tuple[str, str | None, str]]:
    """(command, selector value, key) of each runner key that no shipped
    config sets.  A selector value that is a placeholder (the CI
    workflow's ``kappa = %s``) stands for every runner of the table."""
    shipped = set()
    for command, params in _shipped_configs():
        spec = cli.COMMANDS[command]
        choices = [None]
        if spec.selector is not None:
            choice = params.get(spec.selector, next(iter(spec.runner)))
            choices = [choice] if choice in spec.runner else list(spec.runner)
        shipped |= {(command, choice, key) for choice in choices for key in params}
    return [(command, choice, key) for command, choice, runner in _runners()
            for key in cli._keys(runner) if (command, choice, key) not in shipped]


def test_every_config_key_is_shipped_or_names_an_input():
    unlisted = [u for u in _unset_keys() if (u[0], u[2]) not in INPUT_KEYS]
    assert not unlisted, (
        "config keys that no shipped config sets and INPUT_KEYS does not "
        "list (a key that only retunes a verdict is a library constant): "
        + ", ".join(f"{c}{f' ({s})' if s else ''}: {k}" for c, s, k in unlisted))


def test_input_keys_are_still_unset():
    assert set(INPUT_KEYS) <= {(c, k) for c, _, k in _unset_keys()}


def test_shipped_configs_are_found():
    # the README's example and a battery config, as the extraction reads them
    configs = list(_shipped_configs())
    assert ("rigidity-scan", {
        "lam": "pullback(zpow 2)", "mu": "poincare", "c": "4",
        "expect-verdict": "BOUNDED_NONZERO", "expect-limit": "-0.5",
        "out": "scan.json", "profile": "scan.dat"}) in configs
    assert ("verify-harnack", {"liouville-n": "97", "out": "harnack.json"}) in configs


def test_no_config_key_is_boolean():
    # a config value is text, and bool("no") is True
    flags = [(command, choice, key) for command, choice, runner in _runners()
             for key, param in cli._keys(runner).items()
             if isinstance(param.default, bool)]
    assert not flags


def test_rings_of_points_have_one_builder():
    # a ring e^(2 pi i (j + phase) / n) is built only by numerics.polar_points
    tree = ast.parse((PACKAGE / "numerics.py").read_text())
    builder = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "polar_points")
    hits = [(path.stem, i) for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"np\.exp\(.*np\.pi", line)]
    assert len(hits) == 1
    assert hits[0][0] == "numerics"
    assert builder.lineno <= hits[0][1] <= builder.end_lineno
