"""No module of the package imports a name it does not use, defines a
private module-level name that it never reads, defines a public name that
nothing outside the tests reads, or binds a module-level name to an empty
container.

No linter ships with the test dependencies, so this is checked from the
syntax tree.  An import kept on purpose for other modules to read carries
``# noqa: F401`` on its line.  The import and private-name checks cover
``perfbench/*.py`` too, and every name of the package that the benchmark
loads must resolve.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glcdist

MODULES = sorted(Path(glcdist.__file__).parent.glob("*.py"))
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
BENCH = sorted(BENCH_DIR.glob("*.py"))
LINTED = MODULES + BENCH
LINTED_IDS = [path.name for path in MODULES] + [f"perfbench/{path.name}" for path in BENCH]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == [
        "os (line 1)",
        "pi (line 2)",
    ]


@pytest.mark.parametrize("path", LINTED, ids=LINTED_IDS)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assigned_names(node) -> list:
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unused_private_names(source: str) -> list:
    """Module-level ``_name`` defs, classes and assignments never read in the module."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        for name in assigned_names(node):
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in defined.items() if name not in read)


def test_detects_an_unused_private_name():
    source = "_a = 1\n_b, c = 2, 3\ndef _f():\n    return _b\nclass _C:\n    pass\n__all__ = []\nprint(_f)\n"
    assert unused_private_names(source) == ["_C (line 5)", "_a (line 1)"]


@pytest.mark.parametrize("path", LINTED, ids=LINTED_IDS)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


EMPTY_CALLS = ("dict", "list", "set")


def module_level_memos(source: str) -> list:
    """Module-level names bound to an empty ``{}``, ``[]``, ``dict()``,
    ``list()`` or ``set()``: a container that fills as the program runs and
    is never freed."""
    found = []
    for node in ast.parse(source).body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
            or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in EMPTY_CALLS
                and not value.args
                and not value.keywords
            )
        )
        if empty:
            found += [f"{name} (line {node.lineno})" for name in assigned_names(node)]
    return found


def test_detects_a_module_level_memo():
    source = (
        "_MEMO: dict = {}\nseen = []\nA = B = set()\nc = dict()\nd = list()\n"
        "TABLE = {1: 2}\nNAMES = [\"x\"]\nUNIQUE = set(NAMES)\nE = frozenset()\n"
        "def f():\n    local = {}\n    return local\n"
    )
    assert module_level_memos(source) == [
        "_MEMO (line 1)",
        "seen (line 2)",
        "A (line 3)",
        "B (line 3)",
        "c (line 4)",
        "d (line 5)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_level_memo(path):
    # A cache lives as long as the call that fills it, or has a stated bound
    # (functools.lru_cache with a maxsize, or a domain capped by a constant).
    assert module_level_memos(path.read_text(encoding="utf-8")) == []


KEYED_FORBIDDEN = ("__init__", "__eq__", "__hash__")


def keyed_overrides(source: str) -> tuple:
    """(subclasses of ``_Keyed``, the ``__init__``, ``__eq__`` or
    ``__hash__`` each defines or assigns, and each line of one that reads
    ``object.__setattr__``).  A hash-consed class builds its object in
    ``__new__``, as an ``__init__`` would run again on every hit, compares
    and hashes by identity only, and leaves setting its slots to
    ``_Keyed``'s helpers."""
    keyed = ["_Keyed"]
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in keyed for b in node.bases):
            keyed.append(node.name)
            found += [f"{node.name}.{n}" for item in node.body for n in assigned_names(item) if n in KEYED_FORBIDDEN]
            found += [
                f"{node.name}: object.__setattr__ (line {n.lineno})"
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute)
                and n.attr == "__setattr__"
                and isinstance(n.value, ast.Name)
                and n.value.id == "object"
            ]
    return keyed[1:], found


def test_detects_a_keyed_override():
    source = (
        "class _Keyed(Frozen):\n    __hash__ = object.__hash__\n"
        "    def _enter(self):\n        object.__setattr__(self, 'key', 1)\n"
        "class A(_Keyed):\n    def __new__(cls): pass\n"
        "class B(A):\n    def __init__(self): pass\n    __eq__ = None\n"
        "    def f(self):\n        setattr_ = object.__setattr__\n"
        "class C(Frozen):\n    def __hash__(self): pass\n    def __init__(self):\n        object.__setattr__(self, 'x', 1)\n"
    )
    assert keyed_overrides(source) == (["A", "B"], ["B.__init__", "B.__eq__", "B: object.__setattr__ (line 11)"])


def test_keyed_classes_keep_identity():
    source = (Path(glcdist.__file__).parent / "params.py").read_text(encoding="utf-8")
    assert keyed_overrides(source) == (["CharacterCx", "CharBlock", "CompSeriesBlock"], [])


BLOCK_KINDS = ("CharBlock", "CompSeriesBlock")


def block_kind_tests(source: str) -> list:
    """Lines that call ``isinstance`` with ``CharBlock`` or
    ``CompSeriesBlock`` (a bare name or an attribute) in its class
    argument."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            named = {
                n.id if isinstance(n, ast.Name) else n.attr
                for arg in node.args[1:]
                for n in ast.walk(arg)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if named & set(BLOCK_KINDS):
                lines.append(node.lineno)
    return lines


def test_detects_a_block_kind_test():
    source = (
        "from .params import CharBlock\nfrom . import params\n"
        "isinstance(b, CharBlock)\nisinstance(b, (int, params.CompSeriesBlock))\n"
        "isinstance(b, CharacterCx)\nCharBlock(1, 0, u)\nb.needs_even\n"
    )
    assert block_kind_tests(source) == [3, 4]


def test_only_params_tests_a_block_kind():
    # A block carries its kind's facts (size, the u = 0 flag and the (ii)
    # flag ``needs_even``), so the readers never ask which class it is.
    found = {path.name: block_kind_tests(path.read_text(encoding="utf-8")) for path in MODULES}
    assert sorted(name for name, lines in found.items() if lines) == ["params.py"]


# A value's kind and fields, which only ``params`` reads: the readers pair
# and count values through ``partner()``, ``self_paired``, ``needs_even``
# and ``size``, and the old names of that relation stay gone.
VALUE_FIELDS = ("conj_inverse", "mirror", "s_is_zero", "u_is_zero", "half_integral_odd", "m", "s", "n", "k", "u", "t")


def value_field_reads(source: str) -> list:
    """``name (line N)``, in line order, for every attribute in VALUE_FIELDS
    that ``source`` reads, as ``x.name`` or ``x.name()``."""
    found = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in VALUE_FIELDS
    )
    return [f"{attr} (line {line})" for line, attr in found]


def test_detects_a_value_field_read():
    source = "if c.m % 2:\n    b.mirror()\np.n, x.size, x.partner(), m, s.needs_even\nc.s.re\n"
    assert value_field_reads(source) == ["m (line 1)", "mirror (line 2)", "n (line 3)", "s (line 4)"]


@pytest.mark.parametrize("name", ["distinction.py", "equivalence_scan.py"])
def test_readers_see_no_value_fields(name):
    source = (Path(glcdist.__file__).parent / name).read_text(encoding="utf-8")
    assert value_field_reads(source) == []


EQUALITY = ("__eq__", "__hash__")


def equality_definers(source: str) -> list:
    """``Class.name`` for every ``__eq__`` or ``__hash__`` a class defines
    or assigns in its body, at any depth of ``source``."""
    return [
        f"{node.name}.{name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        for name in assigned_names(item)
        if name in EQUALITY
    ]


def test_detects_an_equality_definer():
    source = (
        "class Frozen:\n    def __eq__(self, other): pass\n    def __hash__(self): pass\n"
        "class A(Frozen):\n    __hash__ = None\n    def key(self): pass\n"
        "def f():\n    class B:\n        __eq__ = __hash__ = object.__eq__\n"
    )
    assert equality_definers(source) == ["Frozen.__eq__", "Frozen.__hash__", "A.__hash__", "B.__eq__", "B.__hash__"]


def test_equality_is_written_only_in_the_bases():
    # A value type compares by field through Frozen, or by identity through
    # the interned _Keyed; no other class writes its own equality or hash.
    found = [name for path in MODULES for name in equality_definers(path.read_text(encoding="utf-8"))]
    assert sorted(found) == ["Frozen.__eq__", "Frozen.__hash__", "_Keyed.__eq__", "_Keyed.__hash__"]


def imported_modules(source: str) -> set:
    """The top-level package of every absolute import in ``source``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_numpy():
    # The package needs no array library: exact arithmetic everywhere, and
    # kernelnum's floats through math and cmath.
    assert imported_modules("import numpy.linalg as la\nfrom .x import y\n") == {"numpy"}
    assert [path.name for path in MODULES if "numpy" in imported_modules(path.read_text(encoding="utf-8"))] == []


def test_only_equivalence_scan_imports_dataclasses():
    # Value types derive from exactnum.Frozen or are NamedTuples, and
    # dataclasses costs its importer inspect and ast.  ScanResult stays a
    # dataclass: perfbench/test_checks.py builds altered scans with
    # dataclasses.replace.
    found = [path.stem for path in MODULES if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))]
    assert found == ["equivalence_scan"]


def test_kernelnum_import_leaves_dataclasses_unloaded():
    code = "import sys\nimport glcdist.kernelnum\nassert 'dataclasses' not in sys.modules, 'dataclasses loaded'\n"
    src = str(Path(glcdist.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def indented_json_calls(source: str) -> list:
    """Lines that call a ``dump`` or ``dumps`` with an ``indent`` argument.
    CPython's json encodes in C only when indent is None; with an indent it
    runs its pure-Python encoder."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps"):
                lines.append(node.lineno)
    return lines


def test_detects_an_indented_json_call():
    source = (
        "import json\nfrom json import dump\n"
        "json.dumps(x, indent=2)\ndump(x, f, indent=None)\njson.dumps(x)\nprint(x, indent=2)\n"
    )
    assert indented_json_calls(source) == [3, 4]


def test_no_module_encodes_json_with_indent():
    # Reports are written by cli's own writer, byte-identical to
    # json.dumps(indent=2) and several times faster.
    found = {path.name: indented_json_calls(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def print_callers(source: str) -> list:
    """The module-level definitions that call the builtin ``print``, by
    name ("<module>" for a call outside any), sorted."""
    callers = set()
    for node in ast.parse(source).body:
        if any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "print" for n in ast.walk(node)
        ):
            callers.add(getattr(node, "name", "<module>"))
    return sorted(callers)


def test_detects_a_print_caller():
    source = (
        "import sys\nprint('start')\n"
        "def quiet():\n    return 1\n"
        "def loud():\n    def inner():\n        print(1)\n    return inner\n"
        "class C:\n    def m(self):\n        print(2, file=sys.stderr)\n"
        "def other(log):\n    log.print(3)\n"
    )
    assert print_callers(source) == ["<module>", "C", "loud"]


def test_only_emit_main_and_selftest_print():
    # One output path and one failure path: _emit writes every report, main
    # every failure's stderr line, and cmd_selftest the summary under the
    # criteria's progress lines.
    source = (Path(glcdist.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert print_callers(source) == ["_emit", "cmd_selftest", "main"]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def collect_reads(tree, reads: dict) -> None:
    """For each Name or Attribute read in ``tree``, append to ``reads[name]``
    the ids of the definitions that enclose the read."""

    def visit(node, enclosing):
        if isinstance(node, DEFINITIONS):
            enclosing = enclosing | {id(node)}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())


def overrides(cls, name: str, classes: dict, namespace: dict) -> bool:
    """True if a base of ``cls`` defines ``name``: a class of the linted
    modules, or one its absolute imports or the builtins resolve."""
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            owner = classes[base.id]
            if any(isinstance(item, FUNCTIONS) and item.name == name for item in owner.body):
                return True
            if overrides(owner, name, classes, namespace):
                return True
            continue
        try:
            resolved = eval(compile(ast.Expression(base), "<base>", "eval"), namespace)
        except NameError:
            continue
        if hasattr(resolved, name):
            return True
    return False


def unread_public_names(module_sources: dict, reader_sources: list) -> list:
    """Public module-level defs, classes and assignments, and public methods,
    of ``module_sources`` (module name -> source) that neither those modules
    nor ``reader_sources`` read outside the name's own definition.

    A read is a Name or Attribute in load context.  Dunder names are exempt,
    and so is a method that overrides one of a base class.
    """
    trees = {module: ast.parse(source) for module, source in module_sources.items()}
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    defined = []
    for module, tree in trees.items():
        imports = [n for n in tree.body if isinstance(n, ast.Import) or (isinstance(n, ast.ImportFrom) and not n.level)]
        namespace: dict = {}
        exec(compile(ast.Module(imports, []), module, "exec"), namespace)
        for node in tree.body:
            defined += [(f"{module}.{name}", name, node) for name in assigned_names(node) if not name.startswith("_")]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{item.name}", item.name, item)
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                    and not item.name.startswith("_")
                    and not overrides(node, item.name, classes, namespace)
                ]
    reads: dict = {}
    for tree in list(trees.values()) + [ast.parse(source) for source in reader_sources]:
        collect_reads(tree, reads)
    return sorted(
        label for label, name, node in defined if all(id(node) in enclosing for enclosing in reads.get(name, []))
    )


def test_detects_an_unread_public_name():
    module = (
        "import argparse\n"
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        pass\n"
        "    def unread(self):\n        return self.unread()\n"
        "    def __repr__(self):\n        return ''\n"
        "class Child(Parser):\n    def error(self, message):\n        pass\n"
    )
    reader = "import m\nm.used()\nm.Parser()\nm.Child()\n"
    assert unread_public_names({"m": module}, [reader]) == ["m.Parser.unread", "m.recursive"]


def tracer_spans() -> list:
    """The (module, function) pairs that ``perfbench/tracer.py`` wraps by
    name, read from its ``SPANS``."""
    tracer = ast.parse((BENCH_DIR / "tracer.py").read_text(encoding="utf-8"))
    (spans,) = [
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "SPANS"
    ]
    return list(spans)


def test_every_public_name_has_a_reader():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = [path.read_text(encoding="utf-8") for path in BENCH if path.name != "test_checks.py"]
    # The tracer reads each span with getattr; written out, that is module.function.
    readers.append("\n".join(f"{module}.{fn}" for module, fn in tracer_spans()))
    assert unread_public_names(sources, readers) == []


def glcdist_loads(source: str) -> list:
    """(module, attribute chain) for every attribute of glcdist that
    ``source`` loads: chains read off a glcdist module it imports, off
    ``sys.modules["glcdist.<module>"]``, or names it imports from one."""
    tree = ast.parse(source)
    modules = {}
    loads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname or alias.name: alias.name for alias in node.names if alias.name == "glcdist"})
        elif isinstance(node, ast.ImportFrom) and node.module == "glcdist":
            modules.update({alias.asname or alias.name: f"glcdist.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("glcdist."):
            loads.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        chain = []
        base = node
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules:
            module = modules[base.id]
        elif isinstance(base, ast.Subscript) and isinstance(base.slice, ast.Constant):
            module = str(base.slice.value)
        else:
            continue
        if chain and module.split(".")[0] == "glcdist":
            loads.add((module, ".".join(chain)))
    return sorted(loads)


def unresolved(loads) -> list:
    """The (module, attribute chain) pairs that do not resolve, dotted."""
    missing = []
    for module, chain in loads:
        value = importlib.import_module(module)
        try:
            for attr in chain.split("."):
                value = getattr(value, attr)
        except AttributeError:
            missing.append(f"{module}.{chain}")
    return missing


def test_detects_a_missing_hook():
    source = (
        "import sys\nimport glcdist\nfrom glcdist import kernelnum as kn\nfrom glcdist.cli import gone\n"
        "kn.angular_moment(1.0)\nkn.no_such_name\nsys.modules['glcdist.params'].block_characters.nope\n"
        "glcdist.__file__\nother.attr\n"
    )
    loads = glcdist_loads(source)
    assert loads == [
        ("glcdist", "__file__"),
        ("glcdist.cli", "gone"),
        ("glcdist.kernelnum", "angular_moment"),
        ("glcdist.kernelnum", "no_such_name"),
        ("glcdist.params", "block_characters"),
        ("glcdist.params", "block_characters.nope"),
    ]
    assert unresolved(loads) == [
        "glcdist.cli.gone",
        "glcdist.kernelnum.no_such_name",
        "glcdist.params.block_characters.nope",
    ]


def test_benchmark_hooks_resolve():
    # The benchmark reaches into glcdist by name: the tracer wraps each of
    # its SPANS, and the workloads call module attributes.  A rename here
    # would break ``perfbench/run.py --trace`` or a workload only at run time.
    assert unresolved((f"glcdist.{module}", fn) for module, fn in tracer_spans()) == []
    loads = {load for path in BENCH for load in glcdist_loads(path.read_text(encoding="utf-8"))}
    assert {
        ("glcdist.kernelnum", "case1_displayed_form"),
        ("glcdist.equivalence_scan", "run_equivalence_scan"),
        ("glcdist.equivalence_scan", "direct_verdicts"),
        ("glcdist.selftest", "KERNEL_CONFIG"),
        ("glcdist.params", "block_characters.cache_info"),
        ("glcdist.exactnum", "GaussianRational"),
    } <= loads
    assert unresolved(sorted(loads)) == []
