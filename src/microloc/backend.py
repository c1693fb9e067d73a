"""Kernel backend selection: compiled extension if available, numpy otherwise.

Set ``MICROLOC_PURE_PYTHON=1`` to force the pure-Python kernels.  Greedy net
selection is the numpy ``_kernels_py.greedy_select`` on both backends.
"""

from __future__ import annotations

import os

from . import _kernels_py

kernels = _kernels_py
COMPILED = False
if os.environ.get("MICROLOC_PURE_PYTHON") != "1":
    try:
        from . import _kernels as kernels  # type: ignore[no-redef]

        COMPILED = True
    except ImportError:
        pass

greedy_select = _kernels_py.greedy_select
radon_gather = kernels.radon_gather
radon_matrix_block = kernels.radon_matrix_block
