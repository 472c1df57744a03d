"""Mutants of the GF(2), extractor, verifier, sampler and attack kernels,
each caught by its oracle test.

Each case edits one line of a kernel's source, compiles the edit in the
kernel's module namespace and patches it into that module.  On a fixed
input, the mutant's output must differ from the kernel's (or it must raise),
so the mutant is real, and the named oracle test must fail.  A snippet that
is no longer in the source fails loudly, so a refactor has to update its
mutants.  This is mutation analysis (DeMillo, Lipton and Sayward, IEEE
Computer 1978) in a table, with each oracle run on one small fixed input.
"""

import __future__
import dataclasses
import inspect
import itertools
import sys

import numpy as np
import pytest

import conftest
import test_adversaries
import test_extractors
import test_gf2
import test_qsim
import test_rng
from qx2src import adversaries, extractors, gf2, qsim, rng

# what a wrong value can raise; a mutant that raises anything else (a
# NameError, say) is broken code, not a wrong kernel, and fails its case
DATA_ERRORS = (ArithmeticError, IndexError, ValueError)

# the pairs a storage strategy's outcome stores, all under its first seed
STORED_PAIRS = (np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]), np.zeros(4, dtype=np.int64))


def _rebound(test_module, kernel, oracle):
    """oracle, run with test_module's own import of kernel pointed at the
    kernel's module's, which may be a mutant."""
    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(test_module, kernel.__name__,
                          getattr(sys.modules[kernel.__module__], kernel.__name__))
            oracle()
    return run


def _storage_stacks_match_per_pair_products(flavor):
    with pytest.MonkeyPatch.context() as patch:
        test_adversaries.test_random_storage_stacks_match_per_pair_products(
            flavor, qsim.STACK_BYTES, patch, conftest._random_storage_oracle)


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
    # a row below the pivot keeps the larger of row and row ^ p, so it gains
    # p's top bit where it lacked it, and two rows can share a top bit
    "larger of row and row ^ pivot kept": (
        gf2.batched_rank, "np.minimum", "np.maximum",
        lambda: (test_gf2._boundary_stack(17),),
        lambda: test_gf2.test_batched_rank_matches_rank_at_type_boundaries(17, 32)),
    # each shifted copy lands one bit above its set bit, so the product gains a factor x
    "shifted copy one bit too high": (
        gf2.poly_mul, "low.bit_length() - 1", "low.bit_length()",
        lambda: (0b101, 0b11),
        test_gf2.test_poly_mul_matches_oracle_exhaustive_7_bits),
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
    # a row past the top is dropped, not folded back by the tail: tails of
    # three bits and more overflow the squarings
    "overflow fold skipped": (
        gf2._rabin_lanes, "r[:, :folded.shape[1]] ^= folded", "pass",
        lambda: (6, list(range(64))),
        lambda: test_gf2.assert_rabin_lanes_match_oracle(6)),
    # every block marks the residues of the first, x^n mod p
    "block start not folded into the residue": (
        gf2._sieve_blocks, "_mod_lanes(r ^ start,", "_mod_lanes(r,",
        lambda: (16, 16),
        lambda: test_gf2.test_sieve_marks_exactly_the_tails_a_small_irreducible_divides(16)),
    # an output no pair has loses its marginal term
    "absent outputs' marginal term dropped": (
        qsim.cq_distance_from_uniform, "(count - held.sum(axis=-1))", "0",
        lambda: (qsim.CqState([1.0, 0.0], [np.eye(2) / 2, np.zeros((2, 2))]),),
        test_qsim.test_cq_distance_matches_per_entry_loop),
    # the state of each instance's second pair is never added
    "second pair dropped": (
        qsim.extractor_output_state, "np.arange(1, len(rows))", "np.arange(2, len(rows))",
        lambda: ([test_qsim._uniform(2)], [test_qsim._uniform(2)],
                 adversaries.classical_block_storage([0], [1], 1, 1)),
        lambda: test_qsim.test_output_state_matches_string_label_oracle(
            "weak", conftest._conditioned_state)),
    # the 2^16 pairs take four chunks of 64 x values; the last is never counted
    "last chunk dropped": (
        adversaries.measure_attack_advantage, "dim if attack.exposed else 0))",
        "dim if attack.exposed else 0))[:-1]",
        lambda: (adversaries.tightness_attack(12, 8, 8, 2, 2, "non-entangled"),),
        lambda: test_adversaries.assert_counts_match_the_one_stack(
            adversaries.tightness_attack(12, 8, 8, 2, 2, "non-entangled"))),
    # 2^15 x values take two chunks for each y; the last is never counted
    "last inner chunk dropped": (
        adversaries.measure_attack_advantage, "for cut in cuts:", "for cut in cuts[:-1]:",
        lambda: (adversaries.tightness_attack(15, 15, 1, 1, 1, "superstrong-entangled"),),
        test_adversaries.test_counted_advantage_cuts_inner_values_at_the_default_size),
    # with Y exposed, a chunk's y values share their basis indices' groups
    "per-chunk group offset dropped": (
        adversaries.measure_attack_advantage, "np.arange(rows)[:, None] * dim", "0",
        lambda: (adversaries.tightness_attack(10, 7, 7, 2, 2, "superstrong-entangled"),),
        lambda: test_adversaries.assert_counts_match_the_one_stack(
            adversaries.tightness_attack(10, 7, 7, 2, 2, "superstrong-entangled"))),
    # each probability is divided by its state's sum, not multiplied by the
    # sum's reciprocal as Generator.dirichlet does: some round one ulp apart
    "probabilities divided by their sum": (
        qsim.random_cq_state, "probs *= 1.0 / np.add", "probs /= np.add",
        lambda: (6, 0, 61, range(8)),
        test_qsim.test_random_cq_state_is_the_per_label_density_draw),
    # a re-keyed stream keeps a spare 32-bit half, so its first 32-bit draw
    # is that half, not the stream's
    "spare 32-bit half kept across a re-key": (
        rng.derive_rngs, '"has_uint32": 0', '"has_uint32": 1',
        lambda: ([(4, 1), (5, 0xC05, 3)],),
        _rebound(test_rng, rng.derive_rngs,
                 test_rng.test_a_key_after_a_spare_32_bit_half_starts_fresh)),
    # each unitary is drawn from its second normal plane plus i times its first
    "unitary's real and imaginary planes swapped": (
        qsim.random_unitary, "qr(g[:, 0] + 1j * g[:, 1])", "qr(g[:, 1] + 1j * g[:, 0])",
        lambda: (4, rng.derive_rngs([(1, 2), (1, 3)])),
        lambda: _storage_stacks_match_per_pair_products("entangled")),
    # the same in a product strategy's purifications
    "purification's real and imaginary planes swapped": (
        adversaries.random_storage, "g = g[:, 0] + 1j * g[:, 1]", "g = g[:, 1] + 1j * g[:, 0]",
        lambda: (1, 1, "product", [17]),
        _rebound(test_adversaries, adversaries.random_storage,
                 lambda: _storage_stacks_match_per_pair_products("product"))),
    # the same in an entangled strategy's shared state
    "shared state's real and imaginary planes swapped": (
        adversaries.random_storage, "g = re + 1j * im", "g = im + 1j * re",
        lambda: (1, 1, "entangled", [17]),
        _rebound(test_adversaries, adversaries.random_storage,
                 lambda: _storage_stacks_match_per_pair_products("entangled"))),
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


def _drawn(item):
    """A yielded generator as its first three 32-bit draws, taken before the
    next yield; any other item as it is."""
    if isinstance(item, np.random.Generator):
        return item.integers(0, 1 << 32, size=3, dtype=np.uint32)
    return item


def _outcome(function, args):
    """What function returns on args, each array as (dtype, values), or the
    type of the error it raises.  A storage strategy is taken as its states
    on STORED_PAIRS, another dataclass as the tuple of its fields, and a
    generator as the items of its first two yields."""
    try:
        result = function(*args)
        if inspect.isgenerator(result):     # the sieve's blocks or re-keyed generators
            result = tuple(itertools.chain(*map(_drawn, itertools.islice(result, 2))))
        if isinstance(result, adversaries.StorageStrategy):
            result = result(*STORED_PAIRS)
    except DATA_ERRORS as error:
        return type(error)
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    arrays = result if isinstance(result, tuple) else (result,)
    return [(np.asarray(a).dtype.str, np.asarray(a).tolist()) for a in arrays]


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_changes_its_kernels_output(name):
    # each side gets its own input, as an input can be a one-pass iterator
    kernel, snippet, replacement, fixed_input, _ = MUTANTS[name]
    mutant = _mutant(kernel, snippet, replacement)
    assert _outcome(mutant, fixed_input()) != _outcome(kernel, fixed_input())


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_oracle(name, monkeypatch):
    kernel, snippet, replacement, _, oracle = MUTANTS[name]
    oracle()    # the oracle passes on the kernel itself
    monkeypatch.setattr(sys.modules[kernel.__module__], kernel.__name__,
                        _mutant(kernel, snippet, replacement))
    with pytest.raises((AssertionError, *DATA_ERRORS)):
        oracle()
