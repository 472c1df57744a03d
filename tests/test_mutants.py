"""Mutants of the GF(2) and extractor kernels, each caught by its oracle test.

Each case edits one line of a kernel's source, compiles the edit in the
kernel's module namespace and patches it into that module.  On a fixed
input, the mutant's output must differ from the kernel's (or it must raise),
so the mutant is real, and the named oracle test must fail.  A snippet that
is no longer in the source fails loudly, so a refactor has to update its
mutants.  This is mutation analysis (DeMillo, Lipton and Sayward, IEEE
Computer 1978) in a table, with each oracle run on one small fixed input.
"""

import __future__
import inspect
import sys

import numpy as np
import pytest

import test_extractors
import test_gf2
from qx2src import extractors, gf2

# what a wrong value can raise; a mutant that raises anything else (a
# NameError, say) is broken code, not a wrong kernel, and fails its case
DATA_ERRORS = (ArithmeticError, IndexError, ValueError)

# name -> (kernel, snippet, replacement, fixed input, oracle test on that input)
MUTANTS = {
    # uint8 rows at 9 columns
    "row type one size too narrow": (
        gf2.subset_tables, "(1 << mats[0].cols) - 1", "(1 << mats[0].cols - 1) - 1",
        lambda: (gf2.multiplier_matrices(9, 9),),
        lambda: test_gf2.test_subset_rows_match_subset_matrix_at_type_boundaries(9, 16)),
    # the matrices of a mask's top digit are never added
    "last table dropped": (
        gf2.subset_rows, "enumerate(tables[1:], 1)", "enumerate(tables[1:-1], 1)",
        lambda: (gf2.subset_tables(gf2.multiplier_matrices(64, 64)), test_gf2._top_bit_masks(64)),
        lambda: test_gf2.test_subset_rows_match_subset_matrix_at_type_boundaries(64, 64)),
    # a row that depends on the row above it is counted as independent
    "last pivot row skipped": (
        gf2.batched_rank, "range(len(a) - 1)", "range(len(a) - 2)",
        lambda: (test_gf2._boundary_stack(17),),
        lambda: test_gf2.test_batched_rank_matches_rank_at_type_boundaries(17, 32)),
    # each tap of the modulus' tail reads the term one past its own
    "tail taps shifted by one": (
        gf2.extend_by_modulus, "known - n + j", "known - n + j + 1",
        lambda: (0b1011001, gf2.find_irreducible(7).value, 13),
        test_gf2.test_extend_by_modulus_matches_reduced_powers_exhaustive),
    # one guard bit is left in, so output bit i reads the correlation at i - 1
    "guard bits dropped one short": (
        gf2.correlate, "(acc >> 7)", "(acc >> 6)",
        lambda: (0b101101, 0b110011, 8),
        test_gf2.test_correlate_matches_oracle_exhaustive),
    # a segment's window of b stops one bit early, so the top bit of a full
    # segment never meets b at output bit m - 1 (a's two segments hold
    # bits 0 .. S - 1, all set, and S .. 2S - 2, only the top one set)
    "segment window one bit short": (
        gf2.correlate, "(8 * step + m - 1)", "(8 * step + m - 2)",
        lambda: (1 << 2 * gf2._SEGMENT_BITS - 2 | (1 << gf2._SEGMENT_BITS) - 1,
                 (1 << 2 * gf2._SEGMENT_BITS + 20) - 1, 9),
        lambda: test_gf2.test_correlate_matches_oracle_at_segment_edges(2 * gf2._SEGMENT_BITS)),
    # one squaring too few, so the inner Horner runs at x^(B/2), not x^B
    "one squaring too few for x^B": (
        extractors._horner, "range(block.bit_length() - 1)", "range(block.bit_length() - 2)",
        lambda: (16, list(range(1, 40)), [0, 1, 2, 3, 77]),
        lambda: test_extractors.assert_horner_matches_the_oracle(16, list(range(1, 40)), [2, 77])),
    # coefficient j of design polynomial p is read from the wrong base-t digit
    "reversed digit order": (
        extractors._design_array, "np.arange(digits)[:, None, None]",
        "np.arange(digits)[::-1, None, None]",
        lambda: (16, 4, 2),
        test_extractors.test_trevisan_matches_oracle_t32_n4096),
}


def _mutant(kernel, snippet, replacement):
    """kernel with snippet replaced, compiled in a copy of its module's namespace.

    The source keeps the kernel's decorators, so a cached kernel's mutant
    has a cache of its own.
    """
    function = inspect.unwrap(kernel)
    source = inspect.getsource(function)
    assert source.count(snippet) == 1, f"{kernel.__name__} no longer holds {snippet!r}"
    code = compile(source.replace(snippet, replacement), inspect.getsourcefile(function), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(function.__globals__)
    exec(code, namespace)
    return namespace[kernel.__name__]


def _outcome(function, args):
    """What function returns on args, each array as (dtype, values), or the
    type of the error it raises."""
    try:
        result = function(*args)
    except DATA_ERRORS as error:
        return type(error)
    arrays = result if isinstance(result, tuple) else (result,)
    return [(np.asarray(a).dtype.str, np.asarray(a).tolist()) for a in arrays]


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_changes_its_kernels_output(name):
    kernel, snippet, replacement, fixed_input, _ = MUTANTS[name]
    args = fixed_input()
    assert _outcome(_mutant(kernel, snippet, replacement), args) != _outcome(kernel, args)


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_oracle(name, monkeypatch):
    kernel, snippet, replacement, _, oracle = MUTANTS[name]
    oracle()    # the oracle passes on the kernel itself
    monkeypatch.setattr(sys.modules[kernel.__module__], kernel.__name__,
                        _mutant(kernel, snippet, replacement))
    with pytest.raises((AssertionError, *DATA_ERRORS)):
        oracle()
