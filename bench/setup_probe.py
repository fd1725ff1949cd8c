"""Set-up probe: what every fvaudit invocation pays before any mesh exists.

    python bench/setup_probe.py [key=value ...]

Starts the interpreter, imports the CLI (and with it numpy and every layer
module) and parses the given config overrides, then exits.
"""

import sys

from fvaudit import cli, harness  # noqa: F401  (the import is the cost)

if len(sys.argv) > 1:
    harness.parse_config(sys.argv[1:])
