"""The three decode workloads: set-up, input generation and one trial.

A workload's state maps a scheme key to its encoded codebook.  ``setup``
builds the codebooks and ends with one warm-up decode per scheme, so lazy
caches fill inside the timed set-up.  ``trials`` draws inputs from a seeded
``random.Random``.  A trial is split into ``corrupt`` (the channel step after
pooling) and ``decode`` (readout in, source set out).  Package functions are
always reached through their module (``ecc.scheme_decode``, never a local
alias), so a traced run sees every call.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from masscodec import bhcode, channel, codec, core, ecc, linearcode

ROOT = Path(__file__).resolve().parent.parent

# order-2 codebook of 20 strings of length 16, shipped with the package
DESK_MATRIX = "bch_255_cols20"

SCHEMES = (ecc.ONE_STEP, ecc.TWO_STEP, ecc.INTEGRAL, ecc.ONE_STEP_MODP)


def scheme_key(scheme: str) -> str:
    """``one-step-modp`` -> ``one_step_modp``, as in the span and metric names."""
    return scheme.replace("-", "_")


@dataclass(frozen=True)
class Trial:
    """One generated input: the sources, their codewords and the corruption."""

    scheme: str  # key of the codebook the trial is encoded and decoded with
    hbar: int
    sources: frozenset
    words: tuple
    corruption: tuple

    def key(self) -> str:
        """Canonical text of the input, for the input digest."""
        srcs = ",".join(sorted(str(s) for s in self.sources))
        return f"{self.scheme}|{self.hbar}|{srcs}|{self.corruption}"


def reset_package_caches() -> None:
    """Forget codes parsed by earlier set-ups, so each set-up pays for its own.

    Tolerates the cache moving to ``functools.cache``, so that such a change
    cannot make the later set-ups of a run look free.
    """
    bundled = getattr(linearcode, "_BUNDLED", None)
    if bundled is not None:
        bundled.clear()
    for fn in (linearcode.bundled_code, bhcode.bundled_spec):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def words_of(book) -> dict:
    return {cw.origin: cw.bits for cw in book.codewords}


class Workload:
    """Shared trial plumbing; subclasses define the codebooks and inputs."""

    name: str
    combos: tuple  # (scheme key, hbar) pairs that one round of trials visits
    # rounds per requested second: a run's work is fixed by --seconds and this
    # rate, not by the clock, so a seed always yields the same trials
    rounds_per_s: float
    # shape of the table the host-speed probe scans with numpy, if any
    probe_table = None
    setup_spans: tuple  # spans that fire while building the codebooks
    loop_spans: tuple  # spans that fire in the trial loop
    corrupt_span = None  # the loop span of the channel step, outside decode

    @property
    def decode_spans(self) -> tuple:
        return tuple(s for s in self.loop_spans if s not in ("core.pool", self.corrupt_span))

    def setup(self) -> dict:
        raise NotImplementedError

    def trials(self, state: dict, seed: int) -> Iterator[Trial]:
        raise NotImplementedError

    def corrupt(self, trial: Trial, clean):
        raise NotImplementedError

    def decode_with(self, book, readout, hbar: int) -> frozenset:
        raise NotImplementedError

    def decode(self, state: dict, trial: Trial, readout) -> frozenset:
        return self.decode_with(state[trial.scheme], readout, trial.hbar)

    def warm_up(self, book, hbar: int) -> None:
        sources = frozenset(book.base.strings[:hbar])
        words = words_of(book)
        readout = core.pool([words[s] for s in sources])
        if self.decode_with(book, readout, hbar) != sources:
            raise RuntimeError(f"{self.name}: warm-up decode returned a wrong set")


class ErasureT2(Workload):
    """Four correction schemes at t = 2 on the desk codebook, two lost fragments."""

    name = "erasure-t2"
    combos = tuple((scheme_key(s), hbar) for hbar in (1, 2) for s in SCHEMES)
    rounds_per_s = 18
    setup_spans = tuple(f"ecc.{scheme_key(s)}_codebook" for s in SCHEMES)
    corrupt_span = "channel.erase"
    loop_spans = (
        "core.pool",
        "channel.erase",
        "channel.partial_sum_strings",
        *(f"ecc.{scheme_key(s)}_decode" for s in SCHEMES),
        "linearcode.decode_erasures",
        "linearcode.ModpCode.solve_erasures",
        "bhcode.invert_mod2_sum",
    )

    def setup(self) -> dict:
        base = bhcode.build_bh_codebook(2, bhcode.bundled_spec(DESK_MATRIX))
        state = {}
        for scheme in SCHEMES:
            book = ecc.scheme_codebook(scheme, base, 2)
            self.warm_up(book, 2)
            state[scheme_key(scheme)] = book
        return state

    def trials(self, state: dict, seed: int) -> Iterator[Trial]:
        rng = random.Random(seed)
        words = {key: words_of(book) for key, book in state.items()}
        i = 0
        while True:
            key, hbar = self.combos[i % len(self.combos)]
            sources = sorted(rng.sample(state[key].base.strings, hbar))
            codewords = [words[key][s] for s in sources]
            # uniform and adversarial placement mixed, as in the acceptance sweep
            placement = rng.choice(("uniform", "adversarial"))
            pattern = channel.sample_erasure_pattern(codewords, 2, rng, placement)
            yield Trial(key, hbar, frozenset(sources), tuple(codewords), pattern.removals)
            i += 1

    def corrupt(self, trial: Trial, clean):
        return channel.erase(clean, trial.corruption)

    def decode_with(self, book, readout, hbar: int) -> frozenset:
        return ecc.scheme_decode(readout, book, hbar)


def _load_code_tables():
    path = ROOT / "scripts" / "gen_code_tables.py"
    spec = importlib.util.spec_from_file_location("gen_code_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class LookupH3(Workload):
    """Clean pools of three codewords from a 96-string order-3 codebook."""

    name = "lookup-h3"
    combos = (("plain", 3),)
    rounds_per_s = 10
    setup_spans = ("codec.encode",)
    loop_spans = (
        "core.pool",
        "codec.separate_pool",
        "codec.sum_from_prefixes",
        "codec.mixture_mod2_target",
        "bhcode.invert_mod2_sum",
    )
    # first 96 columns of the m = 8 BCH matrix with powers {1, 3, 5}: 24 rows,
    # d = 7, codeword length N = 68; C(96, 3) = 142,880 subsets per lookup
    M, COLUMNS, POWERS, DISTANCE = 8, 96, (1, 3, 5), 7

    def __init__(self) -> None:
        self._tables = _load_code_tables()

    def setup(self) -> dict:
        H = self._tables.alpha_power_pcm(self.M, self.COLUMNS, list(self.POWERS))
        spec = bhcode.ParityCheckSpec(
            tuple(tuple(int(b) for b in row) for row in H), self.DISTANCE
        )
        book = codec.encode_codebook(bhcode.build_bh_codebook(3, spec))
        self.warm_up(book, 3)
        return {"plain": book}

    def trials(self, state: dict, seed: int) -> Iterator[Trial]:
        rng = random.Random(seed)
        book = state["plain"]
        words = words_of(book)
        while True:
            sources = sorted(rng.sample(book.base.strings, 3))
            yield Trial("plain", 3, frozenset(sources), tuple(words[s] for s in sources), ())

    def corrupt(self, trial: Trial, clean):
        return clean

    def decode_with(self, book, readout, hbar: int) -> frozenset:
        return codec.decode_mixture(readout, book)


class SubstitutionT1(Workload):
    """Two-step substitution mode at t = 1: one fragment read lighter."""

    name = "substitution-t1"
    combos = (("two_step", 1), ("two_step", 2))
    rounds_per_s = 13
    # the decode is mostly LinearCode.decode_errors' scan of its 2^16 x 26
    # codeword table, which tracks the host's speed unlike pure Python
    probe_table = (2**16, 26)
    setup_spans = ("ecc.two_step_codebook",)
    corrupt_span = "channel.substitute_mass_reducing"
    loop_spans = (
        "core.pool",
        "channel.substitute_mass_reducing",
        "channel.raw_side_sums",
        "channel.detect_substitution",
        "ecc.two_step_decode",
        "linearcode.decode_errors",
        "bhcode.invert_mod2_sum",
    )

    def setup(self) -> dict:
        base = bhcode.build_bh_codebook(2, bhcode.bundled_spec(DESK_MATRIX))
        book = ecc.two_step_codebook(base, 1, substitutions=True)
        # the warm-up builds the nearest-codeword tables of both codes
        self.warm_up(book, 2)
        return {"two_step": book}

    def trials(self, state: dict, seed: int) -> Iterator[Trial]:
        rng = random.Random(seed)
        book = state["two_step"]
        words = words_of(book)
        i = 0
        while True:
            _, hbar = self.combos[i % len(self.combos)]
            sources = sorted(rng.sample(book.base.strings, hbar))
            codewords = [words[s] for s in sources]
            # any real fragment with a 1 in it, read with fewer ones
            fragments = [
                (side, length, (w.prefix if side == "prefix" else w.suffix)(length).weight())
                for w in codewords
                for length in range(1, len(w) + 1)
                for side in ("prefix", "suffix")
            ]
            side, length, ones = rng.choice([f for f in fragments if f[2] > 0])
            corruption = (side, length, ones, rng.randrange(ones))
            yield Trial("two_step", hbar, frozenset(sources), tuple(codewords), corruption)
            i += 1

    def corrupt(self, trial: Trial, clean):
        side, length, ones, new_ones = trial.corruption
        return channel.substitute_mass_reducing(clean, side, length, new_ones, ones=ones)

    def decode_with(self, book, readout, hbar: int) -> frozenset:
        # as ``masscodec decode --detect``: the detection report, then the decode
        channel.detect_substitution(readout, book.N, hbar)
        return ecc.two_step_decode(readout, book, hbar, substitutions=True)


WORKLOADS = {w.name: w for w in (ErasureT2, LookupH3, SubstitutionT1)}
