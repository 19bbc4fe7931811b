"""Static checks on the package source: every module-level import is used,
every `__all__` entry resolves and has a caller, and so does every public
function of `_util` and every public method of a package class; every
parameter default is set by some call; no code asks an allele law for its
type; only the CLI's output and config readers open files; one helper
states when reads cover a range, and one segment table gives each noisy
segment's SNP and read ranges. No linter ships with the project, so these
guard against dead imports, stale export lists, public names that nothing
uses, defaults that are constants in all but name, switches on a law's
class, writes around the output rule, a second read-cover rule and a
second segment-to-range mapping."""

import ast
import functools
import importlib
from pathlib import Path
from types import FunctionType

import pytest

import poolseq_limits

PACKAGE_DIR = Path(poolseq_limits.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by top-level imports, mapped to their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_no_unused_module_imports(module):
    """`__init__` is exempt: its imports are the package's public names."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _module_imports(tree).items()
              if name not in used}
    assert not unused, f"{module}.py: unused imports {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    name = "poolseq_limits" if module == "__init__" else f"poolseq_limits.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"


def test_package_exports_are_module_exports():
    """Every name `__init__` re-exports is in its module's `__all__`, so a
    deleted or renamed public name cannot linger in either list."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"poolseq_limits.{node.module}")
            stray += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in mod.__all__]
    assert not stray, f"__init__ imports names missing from __all__: {stray}"


def test_exception_classes_live_in_core():
    """Every exception class the package defines is defined in `core`, so
    the command group's one mapping from exception to exit code covers
    them all."""
    stray = []
    for module in MODULES:
        name = "poolseq_limits" if module == "__init__" else f"poolseq_limits.{module}"
        for obj in vars(importlib.import_module(name)).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) \
                    and obj.__module__.startswith("poolseq_limits") \
                    and obj.__module__ != "poolseq_limits.core":
                stray.append(f"{obj.__module__}.{obj.__qualname__}")
    assert not stray, f"exception classes outside core: {stray}"


# public names kept for library users and the tests, with no caller in the
# package: the assembly referee, the exact exponent oracle, its canonical
# pair, the spectral ceiling criterion 08 checks, and the exact assembly
# bounds, which criterion 09 bisects and against which
# test_noiseless_columns_equal_their_library_bounds checks the `bounds`
# columns e_lower and e_upper (the CLI combines the event bounds itself)
UNCALLED_PUBLIC = {"unique_and_correct", "exponent_numeric",
                   "canonical_adjacent_pair", "spectral_noise_ceiling",
                   "assembly_lower", "assembly_upper"}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from node.body


def _references(trees: dict, name: str, home: str) -> int:
    """Loads of `name`, as a name or an attribute, anywhere in the package
    outside the body of its own definition in module `home`."""
    count = 0
    for module, tree in trees.items():
        skip = set()
        if module == home:
            skip = {id(n) for node in _definitions(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name == name for n in ast.walk(node)}
        count += sum(1 for n in ast.walk(tree) if id(n) not in skip and (
            isinstance(n, ast.Name) and n.id == name
            or isinstance(n, ast.Attribute) and n.attr == name))
    return count


def _public_methods(module: str) -> set[str]:
    """Public methods and properties of the classes `module` defines,
    except those overriding a base class's attribute of the same name,
    which the base class calls."""
    mod = importlib.import_module(f"poolseq_limits.{module}")
    names = set()
    for cls in vars(mod).values():
        if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
            continue
        names |= {name for name, attr in vars(cls).items()
                  if not name.startswith("_")
                  and isinstance(attr, (FunctionType, property,
                                        functools.cached_property))
                  and not any(hasattr(base, name) for base in cls.__mro__[1:])}
    return names


def test_public_names_have_callers():
    """Every `__all__` entry and every public method or property of a
    package class is used somewhere in the package outside its own
    definition, and every public top-level function of `_util` (which has
    no `__all__`) outside `_util`, or is listed in UNCALLED_PUBLIC; an
    import or an `__all__` string does not count as a use."""
    trees = {m: ast.parse((PACKAGE_DIR / f"{m}.py").read_text())
             for m in MODULES}
    uncalled = set()
    for module in MODULES:
        if module == "__init__":
            continue
        mod = importlib.import_module(f"poolseq_limits.{module}")
        uncalled |= {name for name in (*getattr(mod, "__all__", ()),
                                       *_public_methods(module))
                     if not _references(trees, name, module)}
    callers = {m: tree for m, tree in trees.items() if m != "_util"}
    uncalled |= {node.name for node in trees["_util"].body
                 if isinstance(node, ast.FunctionDef)
                 and not node.name.startswith("_")
                 and not _references(callers, node.name, "_util")}
    assert uncalled == UNCALLED_PUBLIC


# parameter defaults no call in the package sets, kept because the tests
# set them: criterion 10 passes wilson_interval a Bonferroni z, the
# critical-length tests bisect to other tolerances, and golden_max keeps
# the iteration budget of golden_min, which the (D, d) optimiser sets, so
# that the golden-search contract test can require golden_min(-f) to
# return golden_max(f)
UNPASSED_DEFAULTS = {"wilson_interval.z", "golden_max.iters",
                     "bisect_decreasing.rtol"}


def _defaulted_parameters(fn: ast.FunctionDef, offset: int):
    """(name, position among a call's positional arguments or None) of
    each parameter with a default; a method's call omits its first
    parameter, so `offset` is 1 for a method and 0 otherwise."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets_parameter(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call passes the parameter, by keyword or by position;
    an unpacked `*args` or `**kwargs` may pass any parameter."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return position is not None
    return position is not None and position < len(call.args)


def test_keyword_defaults_have_callers():
    """Every parameter default of a function or method in the package is
    set, by keyword or by position, by some call in the package outside the
    function's own body, or is listed in UNPASSED_DEFAULTS: a default that
    every call leaves as it is would be a module constant. Calls are
    matched by name, as a name or an attribute."""
    trees = {m: ast.parse((PACKAGE_DIR / f"{m}.py").read_text())
             for m in MODULES}
    calls = [(module, n) for module, tree in trees.items()
             for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unpassed = set()
    for module, tree in trees.items():
        methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for n in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            offset = int(id(fn) in methods and not static)
            own = {id(n) for n in ast.walk(fn)}
            named = [c for m, c in calls
                     if not (m == module and id(c) in own)
                     and (isinstance(c.func, ast.Name) and c.func.id == fn.name
                          or isinstance(c.func, ast.Attribute)
                          and c.func.attr == fn.name)]
            unpassed |= {f"{fn.name}.{name}"
                         for name, position in _defaulted_parameters(fn, offset)
                         if not any(_sets_parameter(c, name, position)
                                    for c in named)}
    assert unpassed == UNPASSED_DEFAULTS


ALLELE_LAWS = {"FixedBiallelic", "Empirical", "FixedEta", "AlleleLaw"}


def _names(node: ast.expr) -> set[str]:
    """Names of a class expression, of each member of a tuple of them, and
    of the attribute in a dotted name such as `core.Empirical`."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_no_isinstance_on_allele_laws():
    """Each allele law states its own eta, samples its own alleles and says
    whether flips apply, so no code in the package tests a value against a
    law class: a new law then needs no edit outside its own class."""
    found = []
    for module in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
        found += [f"{module}.py:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "isinstance" and len(n.args) == 2
                  and _names(n.args[1]) & ALLELE_LAWS]
    assert not found, f"isinstance tests against allele laws: {found}"


# the functions allowed to open files: the output path every command
# writes through, and the config file it reads
FILE_OPENERS = {("cli", "_output"), ("cli", "load_config_file")}
OPEN_CALLS = {"open", "write_text", "write_bytes"}


def test_files_open_only_through_the_output_rule():
    """No code in the package calls `open`, `.open`, `.write_text` or
    `.write_bytes` outside the functions in FILE_OPENERS, so every file a
    command writes goes through `cli._output` and keeps its bytes until
    `write_csv` writes the rows."""
    found = []
    for module in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
        allowed = {id(n) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and (module, fn.name) in FILE_OPENERS
                   for n in ast.walk(fn)}
        found += [f"{module}.py:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in allowed
                  and (isinstance(n.func, ast.Name) and n.func.id == "open"
                       or isinstance(n.func, ast.Attribute)
                       and n.func.attr in OPEN_CALLS)]
    assert not found, f"files opened outside {sorted(FILE_OPENERS)}: {found}"


def _searchsorted_callers(module: str) -> set[str]:
    """Names of the functions in `module` that call `searchsorted`."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for n in ast.walk(fn) if isinstance(n, ast.Call)
            and "searchsorted" in (getattr(n.func, "attr", None),
                                   getattr(n.func, "id", None))}


def test_read_cover_rule_stated_once():
    """No function in `assemble` but `_uncovered` calls `searchsorted`, so
    the coverage and bridging checks share one rule for when reads cover a
    range of positions, and cannot disagree at a tie."""
    found = _searchsorted_callers("assemble") - {"_uncovered"}
    assert not found, f"searchsorted called outside _uncovered: {sorted(found)}"


def test_segment_ranges_come_from_one_table():
    """No function in `denoise` calls `searchsorted`: `run_noisy_trial`'s
    segment table alone maps each segment to its SNP and read ranges, and
    `extract_block` only gathers the block they name."""
    found = _searchsorted_callers("denoise")
    assert not found, f"searchsorted called in denoise: {sorted(found)}"
