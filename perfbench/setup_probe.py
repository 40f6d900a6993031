"""Time failprop's set-up for one config in a fresh interpreter.

    python3 perfbench/setup_probe.py <config>

Prints the seconds spent on `import failprop`, `config.load_config` and
`config.build_network`; interpreter start-up is not included.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import failprop  # noqa: E402,F401
from failprop import config  # noqa: E402

config.build_network(config.load_config(sys.argv[1]))
print(perf_counter() - t0)
