"""Start-up hook of the ledger's traced runs.

Python imports ``sitecustomize`` at start-up from ``sys.path``.  A traced
run puts this directory on ``PYTHONPATH`` and sets ``LEDGER_TRACE_DIR``,
so every process it starts — the workload, its spawned pool workers and
the advisor server — installs the layer wrappers before running any
``repro`` code.  Untraced runs never put this directory on the path.
"""

import os
import sys

if os.environ.get("LEDGER_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.install_from_env()
