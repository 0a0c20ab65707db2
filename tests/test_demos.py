"""The worked-example demo prints the structures the index and bounds build.

The golden copy pins its whole output: SIL text, the <{a}> chain, SWU and
IEU values, the mined patterns and the search counters.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUNNING_EXAMPLE_OUTPUT = """\
== the database ==
  S1: u = 23
  S2: u = 18
  S3: u = 19
  S4: u = 21
  S5: u = 25
  total utility u(D) = 106

== utility of <{a},{c}> ==
  ending positions in S5: (2, 3)
  instance ending at 2: utility 15
  instance ending at 3: utility 6
  whole-database utility: 36
  remaining utility after c at position 2 of S5: 7

== index structures ==
  SIL of S1: (b,4,19)(f,4,15)/(a,6,9)(e,2,7)/(c,6,1)(e,1,0)
  IChain of <{a}>: {'S1': [(2, 6)], 'S2': [(1, 3), (3, 3)], 'S3': [(3, 9)], 'S5': [(1, 6), (2, 3)]}

== upper bounds ==
  SWU: {'a': 85, 'b': 106, 'c': 87, 'd': 58, 'e': 62, 'f': 88}
  IEU of the item-extension <{ae}>: 20
  IEU of the sequence-extension <{a},{c}>: 53

== mining at xi = 25% (minimum utility 26.5) ==
  a -1 c -1  utility 36
  b f -1  utility 27
  candidates: 65, pruned by IEU: 54, effective search rate: 3.08%

== results file content ==
a -1 c -1 #UTIL: 36
b f -1 #UTIL: 27
"""


def test_running_example_demo_output():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "running_example.py")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == RUNNING_EXAMPLE_OUTPUT
