"""Set-up probe: the work a CLI invocation does before its command starts.

Times ``import telespin.cli``, then ``load_config`` plus ``resolve_ts`` on
a config file.  Run as a script it measures a fresh interpreter and prints
one JSON object::

    python3 perfbench/probe.py SRC_DIR CONFIG
"""

import json
import sys
import time


def measure(src, config) -> dict:
    t0 = time.perf_counter()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import telespin.cli
    t1 = time.perf_counter()
    from telespin.config import load_config
    load_config(config).resolve_ts()
    t2 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "setup_s": t2 - t0,
        "module": telespin.cli.__file__,
    }


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], sys.argv[2])))
