"""The package's import graph: the root exports nothing, and each module loads only what it uses.

Each test imports in a fresh interpreter, so that no module an earlier test loaded counts. The
child imports the package this process imported: src/ under the tier-1 command, the installed
package when run from the checkout without PYTHONPATH.
"""
import json
import os
import subprocess
import sys

import cyclic_ppo

_REPORT = """
import json, sys
import cyclic_ppo
print(json.dumps({"file": cyclic_ppo.__file__,
                  "public": sorted(n for n in vars(cyclic_ppo) if not n.startswith("_")),
                  "loaded": sorted(m for m in sys.modules if m.startswith("cyclic_ppo."))}))
"""


def _import_in_a_fresh_interpreter(statement: str) -> dict:
    package_dir = os.path.dirname(os.path.dirname(cyclic_ppo.__file__))  # src/ or installed
    done = subprocess.run([sys.executable, "-c", statement + _REPORT],
                          env=dict(os.environ, PYTHONPATH=package_dir),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-500:]
    report = json.loads(done.stdout)
    assert report["file"] == cyclic_ppo.__file__
    return report


def test_the_package_root_exports_nothing_and_loads_no_module():
    report = _import_in_a_fresh_interpreter("import cyclic_ppo")
    assert (report["public"], report["loaded"]) == ([], [])


def test_the_trainer_loads_neither_the_harness_nor_plots_nor_the_cli():
    loaded = _import_in_a_fresh_interpreter("import cyclic_ppo.ppo")["loaded"]
    assert "cyclic_ppo.ppo" in loaded
    assert not {"cyclic_ppo.harness", "cyclic_ppo.plots", "cyclic_ppo.cli"} & set(loaded)


def test_the_cli_entry_point_imports():
    report = _import_in_a_fresh_interpreter("from cyclic_ppo.cli import main\nassert callable(main)")
    assert "cyclic_ppo.cli" in report["loaded"]
