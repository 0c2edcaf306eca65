import random

import pytest

from masscodec.bhcode import BhCodebook, ParityCheckSpec, build_bh_codebook, bundled_spec
from masscodec.codec import encode_codebook
from masscodec.core import BitString, Composition, CompositionMultiset, PartialSumString
from masscodec.gf2m import alpha_power_pcm

CRITERION_TITLES = {
    "1": "worked-example fidelity",
    "2": "mixture round-trip at desk scale",
    "3": "balancing invariants",
    "4": "rate-bound table",
    "5": "erasure model",
    "6": "correction schemes",
    "7": "oracle equivalence",
    "8": "substitution detection",
}


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion, printed on every run."""
    buckets: dict[str, list] = {}
    for outcome in ("passed", "failed", "error", "xfailed", "xpassed"):
        for report in terminalreporter.stats.get(outcome, []):
            name = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in name:
                continue
            key = name.split("test_criterion_", 1)[1].split("_", 1)[0]
            buckets.setdefault(key, []).append((name, outcome))
    if not buckets:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(buckets, key=lambda k: (len(k), k)):
        results = buckets[key]
        outcomes = {o for _, o in results}
        if outcomes <= {"passed"}:
            verdict = "PASS"
        elif outcomes <= {"passed", "xfailed"}:
            verdict = "PASS (with a documented expected failure)"
        else:
            verdict = "FAIL"
        title = CRITERION_TITLES.get(key, "")
        terminalreporter.write_line(
            f"ACCEPTANCE {key} ({title}): {verdict}"
            + "".join(
                f"\n    - {n.split('::')[-1]}: {o}" for n, o in sorted(results)
            )
        )


# The paper writes fragments as 0^a 1^b and partial sums as digits with ε for an
# erased symbol.  The package reads neither text (printed text is for display only,
# and 0^21 is both 21 zeros and two zeros with a one), so fixtures written in that
# notation are read here, on the fixtures' own terms.


def read_composition(text: str) -> Composition:
    """``0^a 1^b`` with spaces allowed and exponent one implicit; after ``0^``
    the shortest digit run that leaves a readable ones part is the zeros count."""
    text = text.replace(" ", "")

    def read_ones(rest: str):
        if not rest:
            return 0
        if rest[0] != "1":
            return None
        if len(rest) == 1:
            return 1
        if rest[1] != "^" or not rest[2:].isdigit():
            return None
        return int(rest[2:])

    if text.startswith("0"):
        if text[1:2] == "^":
            digits = 2
            while digits < len(text) and text[digits].isdigit():
                digits += 1
            if digits == 2:
                raise ValueError(f"bad exponent in {text!r}")
            for end in range(3, digits + 1):
                ones = read_ones(text[end:])
                if ones is not None:
                    return Composition(int(text[2:end]), ones)
            raise ValueError(f"bad composition text {text!r}")
        ones = read_ones(text[1:])
        if ones is None:
            raise ValueError(f"bad composition text {text!r}")
        return Composition(1, ones)
    ones = read_ones(text)
    if ones is None or ones == 0:
        raise ValueError(f"bad composition text {text!r}")
    return Composition(0, ones)


def read_multiset(text: str) -> CompositionMultiset:
    """A ``{0, 01, 0^2 1^3, ...}`` listing, one composition per comma."""
    items = (part.strip() for part in text.strip().removeprefix("{").removesuffix("}").split(","))
    return CompositionMultiset(read_composition(item) for item in items if item)


def read_partial_sum(text: str, hbar: int) -> PartialSumString:
    """A partial sum written as its digits, ε for an erased symbol."""
    return PartialSumString([None if c == "ε" else int(c) for c in text], hbar)


@pytest.fixture(scope="session")
def b2_codebook():
    """15 strings of length 8, order-2 distinct sums (distance-5 source)."""
    return build_bh_codebook(2, bundled_spec("bch_15_7"))


@pytest.fixture(scope="session")
def b3_codebook():
    """15 strings of length 10, order-3 distinct sums (distance-7 source)."""
    return build_bh_codebook(3, bundled_spec("bch_15_5"))


@pytest.fixture(scope="session")
def b2_n16_codebook():
    """20 strings of length 16 for the correction-scheme sweeps."""
    return build_bh_codebook(2, bundled_spec("bch_255_cols20"))


@pytest.fixture(scope="session")
def lookup_h3_book():
    """The first 96 columns of the m = 8 BCH matrix with powers {1, 3, 5}
    (d = 7), as an order-3 plain codebook of codeword length N = 68."""
    spec = ParityCheckSpec(alpha_power_pcm(8, 96, [1, 3, 5]), 7)
    return encode_codebook(build_bh_codebook(3, spec))


@pytest.fixture(scope="session")
def mc_codebook(b2_codebook):
    return encode_codebook(b2_codebook)


@pytest.fixture(scope="session")
def mc3_codebook(b3_codebook):
    return encode_codebook(b3_codebook)


@pytest.fixture(scope="session")
def small_explicit_books():
    """The reference triple, a book whose pairs pool alike and 24 seeded books, h = 3."""
    books = [
        BhCodebook.explicit(["110100", "101010", "110010"], 2),
        # 0101 + 1010 and 0110 + 1001 give one readout, so no decoder can tell them apart
        BhCodebook.explicit(["0101", "1010", "0110", "1001"], 2),
    ]
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.choice((4, 5, 6))
        values = rng.sample(range(1, 2**n), 6)
        books.append(BhCodebook.explicit([BitString.from_int(v, n) for v in values], 3))
    return books
