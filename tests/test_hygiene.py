"""Source hygiene of the package: explicit checks only, no dead imports
or parameters."""

import ast
from pathlib import Path

import symmeq

SRC = Path(symmeq.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "exchange.py"}


def test_no_assert_statements():
    # python -O strips asserts, so a check written as one would not run
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def imported_names(tree):
    """(name bound by the import, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    # __init__.py imports names to re-export them
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []


def test_no_unused_parameters():
    # a parameter that the body never reads is a knob that does nothing
    unused = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unused += [
                f"{path.name} {node.name} {a.arg}"
                for a in params
                if a.arg not in read
            ]
    assert unused == []


def test_no_unused_private_names():
    # a module-level _name that nothing in the package reads is dead code
    trees = {path.name: parse(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                targets = [node]
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", ""))
                if (
                    name.startswith("_")
                    and not name.startswith("__")
                    and name not in read
                ):
                    unused.append(f"{module} {name}")
    assert unused == []


def test_private_defaults_are_passed():
    # a default that no call overrides is a constant dressed as an option
    trees = [parse(path) for path in MODULES]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    never = []
    for path, tree in zip(MODULES, trees):
        for node in tree.body:
            if not (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [
                (positional.index(a), a.arg)
                for a in positional[len(positional) - len(args.defaults):]
            ]
            defaulted += [
                (None, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            for pos, name in defaulted:
                if not any(
                    any(kw.arg in (name, None) for kw in call.keywords)
                    or (pos is not None and len(call.args) > pos)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    for call in calls.get(node.name, ())
                ):
                    never.append(f"{path.name} {node.name} {name}")
    assert never == []


# the only randomness in the package: the samplers that check an exact
# result empirically (a correlation scheme's recommendations against its
# exact deviation gains, sealed envelopes against an orbit's marginal)
RNG_ALLOWED = {
    "exchange.py CorrelationScheme.sample",
    "exchange.py verify_scheme_equilibrium",
    "orbits.py envelope_simulate",
}


def is_rng(node):
    """Whether an AST node imports, names or draws from a random number
    generator (`random`, `numpy.random`, `default_rng`, `rng.random`)."""
    if isinstance(node, ast.Import):
        return any(
            alias.name.split(".")[0] == "random" or alias.name == "numpy.random"
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom):
        return node.module in ("random", "numpy.random") or any(
            alias.name in ("random", "default_rng") for alias in node.names
        )
    if isinstance(node, ast.Attribute):
        return node.attr in ("random", "default_rng")
    return isinstance(node, ast.Name) and node.id == "default_rng"


def rng_uses(node, scope=""):
    """(enclosing def or class, line) of every random number generator
    under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            inner = f"{scope}.{child.name}" if scope else child.name
        if is_rng(child):
            yield scope, child.lineno
        yield from rng_uses(child, inner)


def test_no_random_number_generators_outside_the_scheme_sampler():
    # results are decided exactly; no seeded search may decide one
    found = [
        f"{path.name}:{line} {scope}"
        for path in MODULES
        for scope, line in rng_uses(parse(path))
        if f"{path.name} {scope}" not in RNG_ALLOWED
    ]
    assert found == []
