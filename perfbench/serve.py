"""Run ``repro serve`` with the benchmark's optional layer delays.

Usage: ``python3 perfbench/serve.py serve --scenario 3 ...`` -- the
arguments go to the repro CLI unchanged.
"""

import sys

from common import setup_paths

if __name__ == "__main__":
    setup_paths()
    import inject

    inject.apply_from_env()
    inject.apply_from_env(inject.SERVER_ENV)
    from repro.cli import main

    raise SystemExit(main(sys.argv[1:]))
