"""Pin OpenBLAS to one thread before anything imports numpy.

The ensemble fills of ``fields.ensemble_values`` run one thread per core;
OpenBLAS's own spinning threads would take those cores.  An explicit
``OPENBLAS_NUM_THREADS`` in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
