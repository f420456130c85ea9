"""Rules the runtime package must keep for the code that sits beside it.

The benchmark's traced pass (perfbench/tracing.py) rebinds names in the
package's modules, so a rename under src/ must fail here first; the
runtime imports nothing outside the standard library; and it memoizes
nothing, so speed comes from the cost per slope, not from results kept
across queries.
"""

import ast
import subprocess
import sys
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
    lambda: ptorus.thurston_norm(Y, V, max_depth=8),  # a full tier sweep
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
    assert dist_bounds > 0 and norm_bounds == 0
    # the pruned sweep drops cells; the norm's sweep has no bound to drop them by
    assert dist < 3 * 2 ** 10 and norm == 3 * 2 ** 8


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
