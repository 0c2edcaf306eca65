"""Codecs for reconstructing binary string mixtures from fragment masses.

A tandem mass readout of a pooled set of binary polymers reports the
compositions (zero/one counts) of every prefix and suffix fragment, with
no link between fragments and source strings.  This package provides the
codebooks and codecs that make such pools uniquely decodable, the error
models for missing and mass-reduced fragments, redundancy schemes that
correct them, rate bounds, and brute-force oracles that double-check all
of it at desk scale.
"""

from .bhcode import (
    BhCodebook,
    ParityCheckSpec,
    VerificationResult,
    build_bh_codebook,
    bundled_spec,
    codebook_rate,
    invert_mod2_sum,
    invert_sum,
    verify_bh,
)
from .channel import (
    BurstReport,
    Correction,
    DetectionReport,
    ErasurePattern,
    Removal,
    burst_report,
    count_correctable_multi,
    count_correctable_single,
    detect_substitution,
    erase,
    merge_partials,
    partial_sum_strings,
    substitute_mass_reducing,
)
from .codec import (
    Ambiguous,
    BalancedPair,
    McCodebook,
    McCodeword,
    McLayout,
    Recovered,
    block_balance,
    decode_mixture,
    encode,
    encode_codebook,
    reconstruct_redundancy_free,
    separate_pool,
    sum_from_prefixes,
    unbalance,
)
from .core import (
    BitString,
    Composition,
    CompositionMultiset,
    PartialSumString,
    composition,
    full_multiset,
    is_dyck,
    pool,
    prefix_multiset,
    suffix_multiset,
)
from .errors import MasscodecError

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
