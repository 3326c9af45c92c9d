"""What ``import casphere`` loads: numpy and ``scipy.linalg`` only, with
``scipy.integrate`` deferred to the first PFA integral; and that the public
names are the ones README documents."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import casphere

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SCRIPT = """
import json, sys
import casphere, casphere.cli
from casphere import FieldSpec, Geometry, force, matsubara_free_energy, vacuum_energy
from casphere.pfa import pfa_force, pfa_regime

geom = Geometry(1.0, 0.5)
matsubara_free_energy(geom, FieldSpec.em(), 1.0)
vacuum_energy(geom, FieldSpec())
force(geom, FieldSpec(), 1.0, target="thermal_part")
pfa_regime(Geometry(10.0, 1.0), 3.0, "high")  # a closed form, no integral
before = sorted(m for m in sys.modules if m.startswith("scipy."))
value = pfa_force(Geometry(10.0, 1.0), 0.0)
print(json.dumps({"before": before, "pfa_force": value,
                  "after": "scipy.integrate" in sys.modules}))
"""


def test_hot_path_loads_neither_scipy_integrate_nor_special():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    loaded = {m.split(".")[1] for m in got["before"]}
    assert "linalg" in loaded
    assert not loaded & {"integrate", "special"}, got["before"]
    # the first PFA integral loads quad and gives the value it gave when
    # scipy.integrate was imported with the package
    assert got["after"]
    assert got["pfa_force"] == -0.8185770932586038


def test_every_public_name_is_documented_in_the_readme():
    # a name counts as documented when it appears as code: in a code span
    # or a fenced block
    text = (ROOT / "README.md").read_text()
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))
    missing = [name for name in casphere.__all__ if not re.search(rf"\b{name}\b", code)]
    assert not missing
