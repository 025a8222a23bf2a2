"""Make the ``f2cbench`` package importable for its self-tests.

Run with ``pytest benchmarks/f2cbench/tests`` from the repo root (the root
``pytest.ini`` puts ``src`` on the path); these tests are not part of the
tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
