"""Two-source randomness extraction with exact quantum-adversary verification.

The package has three layers: bit-level extractor primitives
(:mod:`qx2src.gf2`, :mod:`qx2src.extractors`), an exact small-dimension
quantum verifier (:mod:`qx2src.qsim`) with concrete adversaries
(:mod:`qx2src.adversaries`), and closed-form parameter calculators
(:mod:`qx2src.bounds`), orchestrated by the ``qx2src`` CLI
(:mod:`qx2src.cli`, :mod:`qx2src.harness`).
"""

import importlib

from .bounds import (BoundReport, ParamSet, knowledge_transfer, storage_transfer,
                     transmission_guess_bound)
from .gf2 import BitMatrix, BitVector, Gf2Poly, find_irreducible, inner_product

__version__ = "0.1.0"

# Names whose modules load on first access (PEP 562), so that importing the
# package, as every CLI command does, loads neither numpy nor the verifier.
_LAZY = {
    **dict.fromkeys(("FlatSource", "SeededExtractorSpec", "compose_two_source",
                     "ip_extract", "multibit_extract", "toeplitz_extract",
                     "trevisan_extract", "weak_design"), "extractors"),
    **dict.fromkeys(("guessing_entropy_bounds", "helstrom_advantage"), "qsim"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)

# The public API.  Every other public definition in the package has a
# caller in src/ or perfbench/ (tests/test_surface.py checks this).
__all__ = [
    "BitMatrix", "BitVector", "BoundReport", "FlatSource", "Gf2Poly",
    "ParamSet", "SeededExtractorSpec", "compose_two_source",
    "find_irreducible", "guessing_entropy_bounds", "helstrom_advantage",
    "inner_product", "ip_extract", "knowledge_transfer", "multibit_extract",
    "storage_transfer", "toeplitz_extract", "transmission_guess_bound",
    "trevisan_extract", "weak_design", "__version__",
]
