"""The runtime imports the standard library only, and no HTTP stack.

A ``python -S`` child, with no site-packages and only ``src`` on
``sys.path``, imports the CLI, the churn and fault experiments, the obs
package and the executor, runs one Fig. 7(b) cell and reports every
module it has loaded.  ``http.server`` belongs to ``--metrics-port``
alone (:mod:`repro.obs.export`), so it must not be among them.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import json
import sys

sys.path.insert(0, {src!r})

import repro
import repro.exec.executor
import repro.experiments.__main__
import repro.experiments.churn
import repro.experiments.faults
import repro.obs
from repro.experiments.config import FIGURE_CONFIGS
from repro.experiments.harness import run_single

results = run_single(FIGURE_CONFIGS["fig7b"], 5, 0)
print(json.dumps({{"protocols": sorted(results), "modules": sorted(sys.modules)}}))
"""

#: Names ``sys.modules`` holds for the running script, not for a package.
ALIASES = {"__main__", "__mp_main__"}


def load_child(tmp_path) -> dict:
    # -S: no site-packages; -E: no PYTHONPATH, so ``src`` is the only
    # repo path the child sees; cwd is an empty directory.
    completed = subprocess.run(
        [sys.executable, "-S", "-E", "-c", CHILD.format(src=str(SRC))],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


class TestRuntimeImports:
    def test_stdlib_only_and_no_http_stack(self, tmp_path):
        child = load_child(tmp_path)
        assert child["protocols"]
        top_level = {name.partition(".")[0] for name in child["modules"]}
        foreign = sorted(
            name for name in top_level - ALIASES
            if name not in sys.stdlib_module_names and name != "repro"
        )
        assert foreign == []
        assert "http.server" not in child["modules"]
