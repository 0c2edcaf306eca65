"""Small linear codes with systematic encoders and erasure solvers.

These are plain table-driven codes: a parity-check matrix, a systematic
encoder derived from it, and decoders that solve for erased positions
(any pattern of up to d-1 erasures is solvable) or correct substitutions
by syndrome decoding: the columns of H that XOR to a word's syndrome are
found by ``bhcode.XorIndex.matches``, the meet-in-the-middle that also
inverts codebook sums.  A matching mod-p variant supports syndrome
protection over a prime field.  The encoder and the Z_p syndrome take a
whole book's words as one array, one matrix product each.

One Gauss-Jordan elimination over GF(p), ``rref``, serves every code:
it reduces binary parity-check matrices not already in reduced form
(p = 2) and, through one erasure solve, fills erased positions of binary
words and of Z_p vectors alike.  Its GF(2) kernel holds each row as one
int and clears a column with one XOR per row.
A complete binary word needs no solve: it is checked by its syndrome, the
XOR of the packed columns of H at its ones.

A code's matrix is read by ``bhcode.binary_rows``, as a codebook's is, and
``from_json_obj`` reads its 0/1 text rows by ``bhcode.text_rows``, as a .pcm's.
``bundled_code`` builds the code of a named matrix of ``gf2m.TABLES``,
through ``bhcode.bundled_spec``, the one builder of every named matrix.
``shipped_code`` is the one chooser: every scheme that takes a default
code asks it for the weakest shipped code that fits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Optional, Sequence

import numpy as np

from .bhcode import DEFAULT_BUDGET, XorIndex, binary_rows, bundled_spec, text_rows
from .errors import (
    ConfigError, DecodeFailure, SearchSpaceTooLarge, TooManyErasures, json_field, json_int
)


def rref(
    mat, p: int = 2, column_order: Optional[Sequence[int]] = None
) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p), p prime, as an int64 array.

    Pivots are chosen scanning columns in the given order (default left to
    right), each from the first row at or below the current one that is
    nonzero in the column.  Returns the nonzero rows and the pivot column
    of each row.  Two kernels give the same rows and pivots: for p = 2 the
    rows are packed into one int each and reduced by ``_rref_gf2``, one XOR
    per row update; for p > 2 each pivot row is scaled to a leading 1 and
    its column is cleared in every other row by one outer-product update.
    """
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    if p == 2:
        if cols < 64:  # an erasure system or a short code: one int64 product packs the rows
            words = (a @ (1 << np.arange(cols))).tolist()
        else:
            packed = np.packbits(a.astype(np.uint8), axis=1, bitorder="little").tobytes()
            size = (cols + 7) // 8
            starts = range(0, rows * size, size)
            words = [int.from_bytes(packed[i : i + size], "little") for i in starts]
        return _rref_gf2(words, cols, column_order)
    order = range(cols) if column_order is None else column_order
    pivots = []
    r = 0
    for c in order:
        if r == rows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        i = r + int(nonzero[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        lead = int(a[r, c])
        if lead != 1:
            a[r] = a[r] * pow(lead, -1, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        if factors.any():  # a column already clear needs no update
            a -= factors[:, None] * a[r]
            a %= p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _rref_gf2(
    rows: list[int], width: int, column_order: Optional[Sequence[int]]
) -> tuple[np.ndarray, list[int]]:
    """``rref`` over GF(2) of rows packed into ints, column c as bit c.

    A pivot is found by a bit test and its column cleared by one XOR per
    row that holds it.
    """
    pivots = []
    for c in range(width) if column_order is None else column_order:
        r = len(pivots)
        if r == len(rows):
            break
        bit = 1 << int(c)
        i = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if i is None:
            continue
        lead = rows[i]
        rows[i] = rows[r]
        rows = [row ^ lead if row & bit else row for row in rows]
        rows[r] = lead
        pivots.append(c)
    size = (width + 7) // 8
    packed = b"".join(row.to_bytes(size, "little") for row in rows[: len(pivots)])
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(len(pivots), size)
    return np.unpackbits(bits, axis=1, count=width, bitorder="little").astype(np.int64), pivots


def _solve_erasures(
    H: np.ndarray, p: int, word: Sequence[Optional[int]], target
) -> tuple[int, ...]:
    """Fill the erased (None) entries of word so that H.word = target mod p.

    Raises DecodeFailure when no filling meets the target (a complete word
    included) and TooManyErasures when more than one does.
    """
    if len(word) != H.shape[1]:
        raise ValueError(f"word length {len(word)} != n={H.shape[1]}")
    erased = [i for i, x in enumerate(word) if x is None]
    known = np.array([0 if x is None else int(x) % p for x in word], dtype=np.int64)
    rhs = (target - H @ known) % p
    if not erased:
        if rhs.any():
            raise DecodeFailure("complete word does not meet its checks")
        return tuple(known.tolist())
    reduced, pivots = rref(np.column_stack([H[:, erased], rhs]), p)
    if len(erased) in pivots:
        raise DecodeFailure("erasure system is inconsistent")
    if len(pivots) < len(erased):
        raise TooManyErasures(
            f"{len(erased)} erasures leave the system underdetermined"
        )
    # full column rank: row j holds the value of the j-th erased position
    known[erased] = reduced[:, -1]
    return tuple(known.tolist())


class LinearCode:
    """[n, k, d] binary code held as a reduced parity-check matrix.

    Pivot columns are chosen as far right as possible, so for matrices in
    (or reducible to) standard form the information set is the first k
    positions and a systematic codeword reads message||parity.
    """

    def __init__(self, name: str, d: int, H: np.ndarray, pivots: Sequence[int]):
        self.name = name
        self.d = d
        self.H = H
        self.pivots = tuple(pivots)
        self.n = H.shape[1]
        self.k = self.n - H.shape[0]
        self.info_positions = tuple(c for c in range(self.n) if c not in self.pivots)
        # decode_errors has found no 1..2*_checked_half columns that XOR to zero
        self._checked_half = 0
        if self.k < 1 or d < 1:
            raise ConfigError(f"bad code parameters n={self.n}, k={self.k}, d={d}")

    @classmethod
    def from_parity_check(cls, rows, d: int, name: str = "custom") -> "LinearCode":
        """The code of H, reduced with pivots chosen from the right.

        A matrix whose last r columns, read right to left, are a permutation
        of the identity (every ``gf2m.cyclic_pcm`` table and every
        ``hamming_code``) is already reduced: ``rref`` would only swap its
        rows so that row i holds the 1 of column n-1-i, with pivots
        n-1 ... n-r.  It is kept with its rows so ordered; any other matrix
        goes through ``rref``.
        """
        H = np.array(binary_rows(rows), dtype=np.uint8)
        r, n = H.shape
        tail = H[:, n - r :][:, ::-1]
        if 0 < r <= n and (tail.sum(axis=0) == 1).all() and (tail.sum(axis=1) == 1).all():
            pivots = range(n - 1, n - r - 1, -1)
            return cls(name=name, d=d, H=H[tail.argmax(axis=0)], pivots=pivots)
        reduced, pivots = rref(H, 2, column_order=range(n - 1, -1, -1))
        return cls(name=name, d=d, H=reduced.astype(np.uint8), pivots=pivots)

    def __repr__(self) -> str:
        return f"LinearCode({self.name}: n={self.n}, k={self.k}, d={self.d})"

    def __eq__(self, other) -> bool:
        # a code is its name, d and reduced H, so a copied book equals its original;
        # what decode_errors has checked so far is not compared
        return (
            isinstance(other, LinearCode)
            and (self.name, self.d, self.pivots) == (other.name, other.d, other.pivots)
            and np.array_equal(self.H, other.H)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.d, self.pivots))

    @property
    def erasure_capability(self) -> int:
        return self.d - 1

    @property
    def error_capability(self) -> int:
        return (self.d - 1) // 2

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Place each message on the information set and read off the parity.

        A (rows, k) 0/1 array of messages gives a (rows, n) uint8 array of
        codewords, one product with the generator.  H is reduced, so the
        pivot positions are H[:, info] . message mod 2.
        """
        rows = np.asarray(messages, dtype=np.int64) & 1
        if rows.ndim != 2 or rows.shape[1] != self.k:
            raise ValueError(f"messages of shape {rows.shape} are not rows of k={self.k} bits")
        return (rows @ self.generator % 2).astype(np.uint8)

    def extract_message(self, word: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(word[pos]) & 1 for pos in self.info_positions)

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """Row i encodes the i-th unit message: the identity on the
        information set and H[:, info] transposed on the pivots."""
        G = np.zeros((self.k, self.n), dtype=np.uint8)
        G[:, list(self.info_positions)] = np.eye(self.k, dtype=np.uint8)
        G[:, list(self.pivots)] = self.H[:, list(self.info_positions)].T
        return G

    def decode_erasures(self, word: Sequence[Optional[int]]) -> tuple[int, ...]:
        """Solve H x = 0 for the erased positions (None entries).

        A complete word is checked by its packed syndrome (``_syndrome``, as
        in ``decode_errors``) and comes back as its bits."""
        if len(word) != self.n or None in word:
            return _solve_erasures(self.H, 2, word, 0)
        bits, syndrome = self._syndrome(word)
        if syndrome:
            raise DecodeFailure("complete word does not meet its checks")
        return tuple(bits)

    @functools.cached_property
    def _column_index(self) -> XorIndex:
        """H's columns for the shared search, check row i as bit i."""
        columns = np.packbits(self.H.T, axis=1, bitorder="little").tolist()
        return XorIndex(int.from_bytes(column, "little") for column in columns)

    def _syndrome(self, word: Sequence[int]) -> tuple[list[int], int]:
        """The word's bits and its packed syndrome: the XOR of H's columns at its ones."""
        bits = [int(b) & 1 for b in word]
        columns = itertools.compress(self._column_index.values, bits)
        return bits, functools.reduce(operator.xor, columns, 0)

    def decode_errors(
        self,
        word: Sequence[int],
        max_errors: Optional[int] = None,
        budget: int = DEFAULT_BUDGET,
    ) -> tuple[int, ...]:
        """The codeword within max_errors flips of word, by syndrome decoding.

        For w = 1..r (r = max_errors), ``XorIndex.matches``, the codebook
        lookup's meet-in-the-middle, lists the w-sets of columns of H that
        XOR to the word's syndrome; the one such pattern flips it.  Up to 2c
        columns that XOR to zero (c >= ceil(r/2), looked for once per code),
        or a second pattern, sought after one of weight w at each w' with
        w + w' > 2c (the two add to a codeword), contradict d: a ``ConfigError``.
        ``budget`` bounds the subsets the search caches and probes, counted
        as 2 * sum_{i <= ceil(r/2)} C(n, i), the halves of the widest search.
        """
        if max_errors is None:
            max_errors = self.error_capability
        if not 0 <= max_errors <= self.error_capability:
            raise ConfigError(
                f"radius {max_errors} is outside 0..{self.error_capability}, "
                f"the error capability of {self.name}"
            )
        half = (max_errors + 1) // 2
        needed = 2 * sum(math.comb(self.n, i) for i in range(half + 1))
        if needed > budget:
            raise SearchSpaceTooLarge(
                f"syndrome lookup at radius {max_errors} needs {needed} "
                f"patterns, over the budget {budget}"
            )
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n={self.n}")
        if None in word:
            raise ValueError(f"symbol {list(word).index(None)} is erased")
        index = self._column_index
        for v in range(2 * self._checked_half + 1, 2 * half + 1):
            if index.matches(0, v, budget):
                raise ConfigError(
                    f"{self.name}: two patterns of weight <= {(v + 1) // 2} share a "
                    f"syndrome, so d={self.d} is wrong"
                )
        self._checked_half = max(self._checked_half, half)
        bits, s = self._syndrome(word)
        if not s:
            return tuple(bits)
        found = []
        for w in range(1, max_errors + 1):
            if not found or w + len(found[0]) > 2 * self._checked_half:
                found += index.matches(s, w, budget)
        if len(found) > 1:
            raise ConfigError(
                f"{self.name}: {len(found)} error patterns of weight <= {max_errors} fit "
                f"the word, so d={self.d} is wrong"
            )
        if not found:
            raise DecodeFailure(f"no codeword within {max_errors} errors")
        return tuple(bit ^ (j in found[0]) for j, bit in enumerate(bits))

    def exact_min_distance(self, budget: int = DEFAULT_BUDGET) -> int:
        """Minimum nonzero codeword weight, streamed in blocks."""
        if 2**self.k > budget:
            raise SearchSpaceTooLarge(
                f"2^{self.k} codewords exceed the budget {budget}"
            )
        if self.k == self.n:
            return 1
        G = self.generator
        best = self.n
        block = 1 << 14
        for start in range(1, 2**self.k, block):
            msgs = np.arange(start, min(start + block, 2**self.k), dtype=np.uint32)
            bits = ((msgs[:, None] >> np.arange(self.k, dtype=np.uint32)) & 1).astype(
                np.uint8
            )
            weights = (bits @ G % 2).sum(axis=1)
            best = min(best, int(weights.min()))
        return best

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "H": ["".join(str(int(b)) for b in row) for row in self.H],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LinearCode":
        """A code from its JSON form, checked against its declared n, k and d.

        The form is the one ``to_json_obj`` writes: ``H`` a list of 0/1 strings,
        ``n``, ``k`` and ``d`` ints (or integer text) and a ``name`` string.  An
        overstated d makes decoders trust a capability the code lacks, so d is
        compared with the exact minimum distance whenever the 2^k codewords fit
        the default search budget.
        """
        H = json_field(obj, "H", "a code", list)
        if not all(isinstance(row, str) for row in H):
            raise ConfigError(f"a code needs 'H' as a list of 0/1 strings, got {H!r}")
        d, n, k = (json_int(obj, key, "a code") for key in ("d", "n", "k"))
        name = json_field(obj, "name", "a code", str, default="custom")
        code = cls.from_parity_check(text_rows(H), d, name)
        if code.n != n or code.k != k:
            raise ConfigError(
                f"declared (n,k)=({n},{k}) but matrix gives ({code.n},{code.k})"
            )
        if 2**code.k <= DEFAULT_BUDGET and (actual := code.exact_min_distance()) < code.d:
            raise ConfigError(
                f"code {code.name} declares d={code.d}, but its minimum distance is {actual}"
            )
        return code


def trivial_code(k: int) -> LinearCode:
    """[k, k, 1]: no redundancy at all."""
    return LinearCode(
        name=f"trivial_{k}", d=1, H=np.zeros((0, k), dtype=np.uint8), pivots=()
    )


def single_parity(k: int) -> LinearCode:
    """[k+1, k, 2]: one overall parity bit; corrects one erasure."""
    return LinearCode(
        name=f"parity_{k}", d=2, H=np.ones((1, k + 1), dtype=np.uint8), pivots=(k,)
    )


def hamming_code(r: int) -> LinearCode:
    """[2^r - 1, 2^r - 1 - r, 3] arranged with information symbols first."""
    n = 2**r - 1
    cols = sorted(range(1, n + 1), key=lambda v: (bin(v).count("1") == 1, v))
    H = np.array(
        [[(c >> b) & 1 for c in cols] for b in range(r - 1, -1, -1)], dtype=np.uint8
    )
    return LinearCode.from_parity_check(H, 3, name=f"hamming_{n}")


def shortened(code: LinearCode, k_target: int) -> LinearCode:
    """Drop leading information positions; distance can only grow."""
    drop = code.k - k_target
    if drop < 0:
        raise ConfigError(f"cannot shorten {code.name} from k={code.k} to {k_target}")
    if drop == 0:
        return code
    dropped = set(code.info_positions[:drop])
    keep = [c for c in range(code.n) if c not in dropped]
    # H without some information columns is still reduced, on the same pivots
    pivots = [keep.index(c) for c in code.pivots]
    return LinearCode(f"{code.name}_s{k_target}", code.d, code.H[:, keep], pivots)


def shipped_code(k: int, need: int, errors: bool = False) -> LinearCode:
    """The weakest shipped code of dimension k that corrects ``need`` erasures,
    or ``need`` errors when ``errors`` is set.  The catalogue, weakest first: no
    redundancy, one parity bit, a shortened Hamming code, ``bch_31_21`` (errors
    only, so erasure-mode books keep ``bch_63_16``) and ``bch_63_16``."""

    def fits(d: int) -> bool:  # d - 1 erasures or (d - 1) // 2 errors
        return (d - 1) // (2 if errors else 1) >= need

    if fits(1):
        return trivial_code(k)
    if fits(2):
        return single_parity(k)
    if fits(3):
        return shortened(hamming_code(next(r for r in itertools.count(2) if 2**r - r > k)), k)
    for name in ("bch_31_21", "bch_63_16") if errors else ("bch_63_16",):
        code = bundled_code(name)
        if k <= code.k and fits(code.d):
            return shortened(code, k)
    kind = "error" if errors else "erasure"
    raise ConfigError(f"no shipped code with k={k} and {kind} capability {need}")


@functools.cache
def bundled_code(name: str) -> LinearCode:
    """The code of a named matrix of ``gf2m.TABLES`` (e.g. ``bch_63_16``)."""
    spec = bundled_spec(name)
    # Tier-1 verifies each declared distance, and 2^16 or 2^21 codewords are
    # too many to enumerate at every load
    return LinearCode.from_parity_check(spec.rows, spec.d, name)


# ---------------------------------------------------------------------------
# prime-field analogue for syndrome protection over Z_p


class ModpCode:
    """Syndrome map H over Z_p with a verified pairwise-column capability."""

    def __init__(self, p: int, H: np.ndarray, capability: int):
        self.p = p
        self.H = H % p
        self.capability = capability
        self.n = H.shape[1]
        self.n_rows = H.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModpCode)
            and (self.p, self.capability) == (other.p, other.capability)
            and np.array_equal(self.H, other.H)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.capability, self.H.shape))

    def syndrome(self, vecs: np.ndarray) -> np.ndarray:
        """H.vec mod p of each row of a (rows, n) array, as a (rows, n_rows)
        int64 array."""
        rows = np.asarray(vecs, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"vectors of shape {rows.shape} are not rows of n={self.n}")
        return rows % self.p @ self.H.T % self.p

    def solve_erasures(
        self,
        vec: Sequence[Optional[int]],
        syndrome: Sequence[Optional[int]],
    ) -> tuple[int, ...]:
        """Fill erased entries so H.vec matches the usable syndrome rows."""
        if len(syndrome) != self.n_rows:
            raise ValueError(f"syndrome length {len(syndrome)} != n_rows={self.n_rows}")
        rows = [r for r, s in enumerate(syndrome) if s is not None]
        target = np.array([int(syndrome[r]) for r in rows], dtype=np.int64)
        return _solve_erasures(self.H[rows], self.p, vec, target)


def modp_code(p: int, n: int) -> ModpCode:
    """Deterministic H over Z_p with every pair of columns independent.

    Columns are canonical projective representatives, so any two are
    linearly independent: erasure capability 2 with full syndrome rows.
    """
    rows = 4
    cols = []
    for val in range(1, p**rows):
        digits = []
        v = val
        for _ in range(rows):
            digits.append(v % p)
            v //= p
        if next(d for d in digits if d) != 1:
            continue
        cols.append(tuple(reversed(digits)))
        if len(cols) == n:
            break
    if len(cols) < n:
        raise ConfigError(f"Z_{p}^{rows} has too few projective columns for n={n}")
    H = np.array(cols, dtype=np.int64).T % p
    return ModpCode(p=p, H=H, capability=2)
