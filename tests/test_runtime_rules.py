"""Rules the runtime package must keep for the code that sits beside it.

The benchmark's traced pass (perfbench/tracing.py) rebinds names in the
package's modules, so a rename under src/ must fail here first; the
runtime imports nothing outside the standard library; it memoizes
nothing, so speed comes from the cost per slope, not from results kept
across queries; only farey's continued-fraction kernel derives a slope's
path (Euclid's loop); and every public annotation resolves.  The tests
themselves give every ``approx`` that takes a relative tolerance an
absolute one too.
"""

import ast
import importlib
import inspect
import subprocess
import sys
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TRACED_RUN = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracing import Tracer
from torusmetrics import ptorus, torus

# the argmax of this pair lies 602 deep; the walk certifies it without the engine
pair = (torus.TorusPoint(-0.198, 6.648), torus.TorusPoint(-0.271, 0.471))
X, Y = ptorus.MarkovPoint(3.0, 3.0, 3.0), ptorus.MarkovPoint(3.0, 3.0, 6.0)
V = ptorus.tangent_from_chart(Y, 1.0, 0.0)
queries = [
    lambda: torus.teich_distance_enum(*pair),  # certified by the continued-fraction walk
    lambda: ptorus.thurston_distance(X, Y, max_depth=10),  # a pruned tier sweep
    lambda: ptorus.thurston_norm(Y, V, max_depth=8),  # a pruned tier sweep
]
untraced = [query() for query in queries]
tracer = Tracer()
tracer.install()
evals = bound_calls = 0
for query, want in zip(queries, untraced):
    traced = query()
    tracer.end_query()
    metrics = tracer.metrics(1.0, 1.0, 0, 0)
    assert traced == want, (traced, want)
    print(metrics["supratio.evals"][0] - evals, metrics["supratio.bound_calls"][0] - bound_calls,
          want.evals)
    evals, bound_calls = metrics["supratio.evals"][0], metrics["supratio.bound_calls"][0]
"""


def test_benchmark_tracer_installs_on_the_package():
    # the traced pass counts evaluations through the objective it wraps, so
    # a search step or tier loop that evaluates around it would make the
    # counts disagree
    script = TRACED_RUN.format(src=str(SRC), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    (teich, teich_bounds, teich_evals), (dist, dist_bounds, _), (norm, norm_bounds, _) = rows
    # the flat-torus distance runs no engine, so the tracer counts nothing there
    assert teich == teich_bounds == 0 < teich_evals
    assert all(evals == untraced_evals > 0 for evals, _, untraced_evals in rows[1:])
    assert dist_bounds > 0 and norm_bounds > 0
    # both pruned sweeps drop cells
    assert dist < 3 * 2 ** 10 and norm < 3 * 2 ** 8


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks star imports
    import torusmetrics

    for path in sorted((SRC / "torusmetrics").glob("*.py")):
        if path.stem in ("__init__", "__main__"):  # the package below; __main__ runs the CLI
            continue
        exec(f"from torusmetrics.{path.stem} import *", {})
    exec("from torusmetrics import *", {})
    missing = [name for name in torusmetrics.__all__ if not hasattr(torusmetrics, name)]
    assert missing == []


def _absolute_imports():
    """(file name, top-level module) for each absolute import in the package."""
    files = sorted((SRC / "torusmetrics").glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    for file_name, module in _absolute_imports():
        assert module in sys.stdlib_module_names, (file_name, module)


def test_runtime_does_not_import_typing():
    # every CLI call pays for its imports; annotations are never evaluated
    # (from __future__ import annotations), so they need no typing names
    assert [f for f, module in _absolute_imports() if module == "typing"] == []


def test_import_leaves_fractions_and_decimal_unloaded():
    # exact arithmetic runs on Python ints: fractions alone costs ~3 ms to
    # import, which every CLI call would pay; -I ignores PYTHONPATH and site
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import torusmetrics; "
              "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_cli_import_leaves_random_unloaded():
    # only gardiner-check draws, and random costs every CLI call ~1 ms to
    # import; -S too, as a site .pth file may load random on its own
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import torusmetrics.cli; "
              "print('random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-I", "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_oracles_import_no_private_name_of_the_package():
    # an oracle that borrows the code it checks cannot catch its faults
    path = ROOT / "tests" / "_oracles.py"
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torusmetrics")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


_CACHE_DECORATORS = {"cache", "lru_cache"}
_DICT_WRITES = {"setdefault", "update", "__setitem__"}


def _memo_violations(source: str) -> list[str]:
    """functools caches, and module-level dicts that a function writes to."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"from functools import {a.name}" for a in node.names
                      if a.name in _CACHE_DECORATORS]
        elif (isinstance(node, ast.Attribute) and node.attr in _CACHE_DECORATORS
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(f"functools.{node.attr}")
    dicts = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) and node.value else [])
        value = getattr(node, "value", None)
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "defaultdict", "OrderedDict"))
        if is_dict:
            dicts |= {t.id for t in targets if isinstance(t, ast.Name)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name) and node.value.id in dicts):
                found.append(f"{node.value.id}[...] written in a function")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _DICT_WRITES and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in dicts):
                found.append(f"{node.func.value.id}.{node.func.attr} in a function")
    return found


def test_the_memo_rule_sees_caches_and_memo_dicts():
    memo = "_SEEN = {}\ndef f(x):\n    _SEEN[x] = x * x\n    return _SEEN[x]\n"
    assert _memo_violations(memo) == ["_SEEN[...] written in a function"]
    assert _memo_violations("_T: dict = dict()\ndef f(x):\n    return _T.setdefault(x, x)\n")
    assert _memo_violations("import functools\n@functools.lru_cache(None)\ndef f(x):\n    pass\n")
    assert _memo_violations("from functools import cache\n")
    # a constant table that functions only read is not a memo
    assert _memo_violations("_STEP = {1: abs}\ndef f(x):\n    return _STEP[1](x)\n") == []


def test_runtime_keeps_no_memo():
    files = sorted((SRC / "torusmetrics").glob("*.py"))
    assert files
    for path in files:
        assert _memo_violations(path.read_text(encoding="utf-8")) == [], path.name


def _euclid_loops(source: str) -> list[int]:
    """Lines of the loops that take // and % (or divmod) of the same two operands."""
    found = []
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
                                 ast.DictComp, ast.GeneratorExp)):
            continue
        taken = {ast.FloorDiv: set(), ast.Mod: set()}
        for node in ast.walk(loop):
            if isinstance(node, ast.BinOp) and type(node.op) in taken:
                taken[type(node.op)].add((ast.unparse(node.left), ast.unparse(node.right)))
            elif isinstance(node, ast.AugAssign) and type(node.op) in taken:
                taken[type(node.op)].add((ast.unparse(node.target), ast.unparse(node.value)))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "divmod" and len(node.args) == 2):
                for ops in taken.values():
                    ops.add(tuple(map(ast.unparse, node.args)))
        if taken[ast.FloorDiv] & taken[ast.Mod]:
            found.append(loop.lineno)
    return found


def test_the_euclid_rule_sees_euclid_loops():
    euclid = "while d:\n    k, (n, d) = n // d, (d, n % d)\n"
    assert _euclid_loops(euclid) == [1]
    assert _euclid_loops("def f(n, d):\n    for _ in range(9):\n        k, r = divmod(n, d)\n") == [2]
    assert _euclid_loops("while d:\n    k = n // d\n    n %= d\n    n, d = d, n\n") == [1]
    assert _euclid_loops("x = [n // d + n % d for n in ns]\n") == [1]
    # different operands, or no loop, is not Euclid's loop
    assert _euclid_loops("for k in range(4):\n    first = -k * n % 4 // g\n") == []
    assert _euclid_loops("k, (n, d) = n // d, (d, n % d)\n") == []


def test_only_farey_runs_euclids_loop():
    # a slope's continued fraction, depth and ancestors come from farey's
    # kernel (convergents, ancestor, act); a copy elsewhere would drift from it
    files = sorted((SRC / "torusmetrics").glob("*.py"))
    assert files
    for path in files:
        if path.name != "farey.py":
            assert _euclid_loops(path.read_text(encoding="utf-8")) == [], path.name


def test_every_public_annotation_resolves():
    # annotations stay strings at run time (from __future__ import annotations),
    # so a name they use but the module never binds fails only in tools that read them
    checked = 0
    for path in sorted((SRC / "torusmetrics").glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"torusmetrics.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                targets = [obj, *(f for f in vars(obj).values() if inspect.isfunction(f))]
            else:
                targets = [obj] if inspect.isfunction(obj) else []
            for target in targets:
                typing.get_type_hints(target)
                checked += 1
    assert checked > 50


def _approx_without_abs(source: str) -> list[int]:
    """Lines of the approx(...) calls that pass rel, by name or position, but not abs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        given = {kw.arg for kw in node.keywords} | set(("expected", "rel", "abs")[:len(node.args)])
        if name == "approx" and "rel" in given and "abs" not in given:
            found.append(node.lineno)
    return found


def test_the_approx_rule_sees_rel_without_abs():
    assert _approx_without_abs("assert y == pytest.approx(x, rel=1e-9)\n") == [1]
    assert _approx_without_abs("from pytest import approx\ny == approx(\n    x, 1e-9)\n") == [2]
    assert _approx_without_abs("pytest.approx(x, rel=1e-9, abs=0)\napprox(x, 1e-9, 0)\n") == []
    assert _approx_without_abs("pytest.approx(x)\npytest.approx(x, abs=1e-9)\n") == []


def test_no_approx_passes_rel_without_abs():
    # without abs, approx keeps a default abs of 1e-12, which hides a move of
    # a small value behind a tight rel; abs=0 checks the rel alone
    files = sorted((ROOT / "tests").glob("*.py"))
    assert files
    for path in files:
        assert _approx_without_abs(path.read_text(encoding="utf-8")) == [], path.name
