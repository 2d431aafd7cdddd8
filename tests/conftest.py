"""Pin OpenBLAS to one thread before anything imports numpy.

The ensemble fills of ``fields.ensemble_values`` run one thread per core;
OpenBLAS's own spinning threads would take those cores.  An explicit
``OPENBLAS_NUM_THREADS`` in the environment wins.  The fixture
``drawn_components`` records which amplitude streams a call draws.
"""

import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def drawn_components(monkeypatch):
    """The component of every amplitude stream drawn, in call order."""
    from dynkin_lab import fields
    normals, components = fields._mode_normals, []

    def counted(seed, replicate, component, n_modes, out=None):
        components.append(component)
        return normals(seed, replicate, component, n_modes, out=out)

    monkeypatch.setattr(fields, "_mode_normals", counted)
    return components
