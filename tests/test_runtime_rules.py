"""Rules the runtime package must keep for the code that sits beside it.

The benchmark's traced pass (perfbench/tracing.py) rebinds names in the
package's modules, so a rename under src/ must fail here first; and the
runtime imports nothing outside the standard library.
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
from torusmetrics import torus

# the argmax of this pair lies on the ray -n/1, which the search jumps along
pair = (torus.TorusPoint(-0.198, 6.648), torus.TorusPoint(-0.271, 0.471))
untraced = torus.teich_distance_enum(*pair)
tracer = Tracer()
tracer.install()
traced = torus.teich_distance_enum(*pair)
tracer.end_query()
metrics = tracer.metrics(1.0, 1.0, 0, 0)
assert traced == untraced, (traced, untraced)
print(metrics["supratio.evals"][0], metrics["supratio.bound_calls"][0], untraced.evals)
"""


def test_benchmark_tracer_installs_on_the_package():
    # the traced pass counts evaluations through the objective it wraps, so
    # a search step that evaluates around it would make the counts disagree
    script = TRACED_RUN.format(src=str(SRC), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    evals, bound_calls, untraced_evals = map(int, proc.stdout.split())
    assert evals == untraced_evals > 0 and bound_calls > 0


def test_runtime_imports_only_the_standard_library():
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
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
