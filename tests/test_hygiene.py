"""Package hygiene: every exported name exists and is used outside the
tests, every public method is read by the library or the benchmark, every
defaulted parameter of a public function is passed by some call of the
library or the benchmark and left out by another, no import is unused,
only the CLI writes files, every config key a mode accepts is read by
that mode and named in the README, every thread pool is closed by a with
statement, no module reads another module's private names, and importing
the CLI loads no scipy."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "brokerfee"
# __init__.py imports only to re-export the public API
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# files whose mention of a public name counts as a use: the library
# modules and the packaging metadata (the console script)
USERS = MODULES + [ROOT / "pyproject.toml"]


def test_all_names_resolve():
    missing = []
    for path in MODULES:
        module = importlib.import_module(f"brokerfee.{path.stem}")
        missing += [f"{path.stem}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_every_exported_name_is_used():
    texts = {path: path.read_text() for path in USERS}
    unused = []
    for path in MODULES:
        module = importlib.import_module(f"brokerfee.{path.stem}")
        # within its own module a name counts only where it is read: its
        # definition and its __all__ entry are not reads
        read = {node.id for node in ast.walk(ast.parse(texts[path]))
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for name in getattr(module, "__all__", ()):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if name not in read and not any(
                    word.search(text) for other, text in texts.items()
                    if other != path):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_public_method_is_read():
    # a public method or property of a library class that neither a library
    # module nor the benchmark reads as an attribute is API that only the
    # tests call
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    readers = list(trees.values()) + [
        ast.parse(path.read_text())
        for path in sorted((ROOT / "perfbench").glob("*.py"))]
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.name}.{item.name}"
              for path, tree in trees.items() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for item in cls.body
              if isinstance(item, ast.FunctionDef)
              and not item.name.startswith("_") and item.name not in read]
    assert unread == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for lineno, name in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.name}:{lineno}: {name}")
    assert unused == []


# calls that write a file whatever their arguments
FILE_WRITERS = ("json.dump", "np.save", "np.savez", "np.savez_compressed",
                "np.savetxt")


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _file_write(node):
    """How ``node`` writes a file, or None."""
    if isinstance(node, ast.Import) and any(
            alias.name == "csv" for alias in node.names):
        return "imports csv"
    if isinstance(node, ast.ImportFrom) and node.module == "csv":
        return "imports csv"
    if not isinstance(node, ast.Call):
        return None
    name = _dotted(node.func)
    if name in FILE_WRITERS:
        return f"calls {name}"
    if name == "open":
        mode = (node.args[1] if len(node.args) > 1 else
                next((k.value for k in node.keywords if k.arg == "mode"),
                     None))
        # a mode that is not a literal read mode may write
        if mode is not None and not (isinstance(mode, ast.Constant)
                                     and set(mode.value) <= set("rbt")):
            return "opens a file to write"
    return None


def test_only_cli_writes_files():
    # the library returns data; cli alone chooses formats and writes them
    writes = []
    for path in MODULES:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            how = _file_write(node)
            if how:
                writes.append(f"{path.name}:{node.lineno}: {how}")
    assert writes == []


def _public_functions(tree):
    """(function, index of its first parameter a call passes) for the
    module's public functions and the public methods of its public
    classes, whose receiver fills the first parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    static = any(_dotted(d) == "staticmethod"
                                 for d in item.decorator_list)
                    yield item, 0 if static else 1


def _passes(call, arg, index, first):
    """Whether ``call`` passes the parameter ``arg``, positional ``index``
    (None if keyword-only) of a function whose first ``first`` parameters
    the call does not fill."""
    return (any(k.arg in (arg, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index - first))


def _defaulted_parameters():
    """(name, passed) for each defaulted parameter of a public function:
    one flag per library or benchmark call of a function of that name,
    true where the call passes the parameter."""
    callers = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                calls.setdefault(name and name.split(".")[-1], []).append(
                    node)
    for path in MODULES:
        for fn, first in _public_functions(ast.parse(path.read_text())):
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                        fn.args.kw_defaults)
                          if d is not None]
            for index, arg in defaulted:
                yield (f"{path.stem}.{fn.name}({arg})",
                       [_passes(call, arg, index, first)
                        for call in calls.get(fn.name, [])])


def test_every_default_is_passed_somewhere():
    # a defaulted parameter that no call of the library or the benchmark
    # passes is a setting that only the tests can change
    unpassed = [name for name, passed in _defaulted_parameters()
                if not any(passed)]
    assert unpassed == []


def test_every_default_is_left_out_somewhere():
    # a defaulted parameter that every call of the library or the benchmark
    # passes has a default that only the tests use
    always_passed = [name for name, passed in _defaulted_parameters()
                     if all(passed)]
    assert always_passed == []


def _config_reads(function):
    """The family and run keys that ``function`` reads off its ``config``:
    ``config.run["k"]``, every family key where it reads the configured fee
    ``config.contract``, and every one but the fee's coefficients where it
    reads the searched family ``config.contract_family``."""
    from brokerfee import cli
    family = {f"family.{key}" for key in cli._KEYS["family"]}
    keys = set()
    for node in ast.walk(function):
        if (isinstance(node, ast.Subscript)
                and _dotted(node.value) == "config.run"
                and isinstance(node.slice, ast.Constant)):
            keys.add(f"run.{node.slice.value}")
        elif _dotted(node) == "config.contract":
            keys |= family
        elif _dotted(node) == "config.contract_family":
            keys |= family - {"family.coefficients"}
    return keys


def test_every_config_key_is_read():
    # each mode accepts exactly the family and run keys that its runner or
    # every run reads: a key that parses under a mode that never reads it
    # would be silently ignored, and every key is read by some mode
    from brokerfee import cli
    functions = {node.name: node
                 for node in ast.parse((PACKAGE / "cli.py").read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    assert _config_reads(functions["run"]) == cli._EVERY_MODE_KEYS
    for mode, runner in cli._MODE_RUNNERS.items():
        assert _config_reads(functions[runner.__name__]) == \
            cli._MODE_KEYS[mode], mode
    every = {f"{section}.{key}" for section in ("family", "run")
             for key in cli._KEYS[section]}
    assert set().union(cli._EVERY_MODE_KEYS, *cli._MODE_KEYS.values()) == \
        every


def test_readme_names_every_family_and_run_key():
    # the README's table of family and run keys cannot drift from the schema
    from brokerfee import cli
    readme = (ROOT / "README.md").read_text()
    unnamed = [f"{section}.{key}" for section in ("family", "run")
               for key in cli._KEYS[section]
               if f"`{section}.{key}`" not in readme]
    assert unnamed == []


def test_thread_pools_are_scoped_by_with():
    # a pool opened as the context of a with statement joins its threads
    # when the block exits, so no call leaves a thread running
    pools, loose = 0, []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        scoped = {id(item.context_expr) for node in ast.walk(tree)
                  if isinstance(node, ast.With) for item in node.items}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and (_dotted(node.func) or "").split(".")[-1]
                    == "ThreadPoolExecutor"):
                pools += 1
                if id(node) not in scoped:
                    loose.append(f"{path.name}:{node.lineno}")
    assert pools > 0 and loose == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    # a name another module needs is part of its owner's API: it carries
    # no underscore and is listed in __all__
    stems = {path.stem for path in MODULES}
    reads = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        # the names this module binds to sibling modules
        siblings = {alias.asname or alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is None
                    for alias in node.names if alias.name in stems}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                reads += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names if _private(alias.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings):
                reads.append(f"{path.name}:{node.lineno}: "
                             f"{node.value.id}.{node.attr}")
    assert reads == []


def test_cli_import_loads_no_scipy():
    # scipy is imported by the functions that draw, search or solve, so a
    # run pays for it only when it uses it
    probe = ("import sys; import brokerfee.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] "
             "== 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe],
                            env=dict(os.environ,
                                     PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_budget_two_polynomial_search_loads_no_optimizer(tmp_path):
    # a degree-1 polynomial at budget 2 spends its budget on the initial
    # simplex, which is scored before Nelder-Mead would start, so the run
    # never pays for importing scipy.optimize
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.rate_lower = -1.0\nmodel.rate_upper = 1.0\n"
                   "model.n_steps = 50\nmodel.n_paths = 500\n"
                   "family.class = linear_polynomial\nfamily.degree = 1\n"
                   "run.mode = optimize\nrun.budget = 2\n")
    probe = ("import sys; from brokerfee import cli; "
             f"status = cli.main(['optimize', '--config', {str(cfg)!r}, "
             f"'--out', {str(tmp_path / 'out')!r}]); "
             "print(status, 'scipy.optimize' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            env=dict(os.environ,
                                     PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "0 False"
