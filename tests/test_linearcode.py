import itertools
import random

import numpy as np
import pytest

from masscodec.bhcode import bundled_spec
from masscodec.errors import (
    ConfigError,
    DecodeFailure,
    SearchSpaceTooLarge,
    TooManyErasures,
)
from masscodec.linearcode import (
    LinearCode,
    ModpCode,
    _solve_erasures,
    bundled_code,
    hamming_code,
    modp_code,
    rref,
    shipped_code,
    shortened,
    single_parity,
    trivial_code,
)


def _encode(code, message):
    """The codeword of one message: row 0 of encoding it as a one-row array."""
    return tuple(code.encode([message])[0].tolist())


def _syndrome(pc, vec):
    """The syndrome of one vector: row 0 of its one-row array."""
    return tuple(pc.syndrome([vec])[0].tolist())


def all_codewords(code):
    for val in range(2**code.k):
        yield _encode(code, [(val >> j) & 1 for j in range(code.k)])


def test_single_parity_roundtrip():
    code = single_parity(4)
    word = _encode(code, [1, 0, 1, 1])
    assert word == (1, 0, 1, 1, 1)
    assert not (code.H @ np.array(word) % 2).any()
    assert code.extract_message(word) == (1, 0, 1, 1)


def test_hamming_is_systematic_and_d3():
    code = hamming_code(3)
    assert (code.n, code.k, code.d) == (7, 4, 3)
    assert code.info_positions == (0, 1, 2, 3)
    assert code.exact_min_distance() == 3


def test_shortening_keeps_distance():
    code = shortened(hamming_code(4), 8)
    assert (code.n, code.k) == (12, 8)
    assert code.info_positions == tuple(range(8))
    assert code.exact_min_distance() >= 3


def test_shortening_slices_the_reduced_matrix_without_reducing_it_again(monkeypatch):
    from masscodec import gf2m, linearcode

    codes = [bundled_code(name) for name in gf2m.TABLES] + [hamming_code(r) for r in range(2, 6)]
    pairs = [(code, k) for code in codes for k in range(1, code.k + 1)]
    reductions = []

    def counted(*args, **kwargs):
        reductions.append(args)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linearcode, "rref", counted)
    short = [shortened(code, k) for code, k in pairs]
    assert reductions == []
    monkeypatch.undo()
    assert len(pairs) == 99
    for (code, k), got in zip(pairs, short):
        keep = [c for c in range(code.n) if c not in code.info_positions[: code.k - k]]
        want = LinearCode.from_parity_check(code.H[:, keep], code.d)
        assert (got.n, got.k, got.d, got.pivots) == (want.n, k, code.d, want.pivots), code.name
        assert got.H.dtype == want.H.dtype and np.array_equal(got.H, want.H), code.name


def test_bundled_codes_have_declared_parameters():
    big = bundled_code("bch_63_16")
    assert (big.n, big.k, big.d) == (63, 16, 23)
    assert big.info_positions == tuple(range(16))
    sub = bundled_code("bch_31_21")
    assert (sub.n, sub.k, sub.d) == (31, 21, 5)


def test_an_unknown_table_name_is_a_config_error():
    with pytest.raises(ConfigError, match="no bundled matrix named 'bch_7_1'"):
        bundled_code("bch_7_1")


def test_erasure_decoding_exhaustive_small():
    code = hamming_code(3)
    rng = random.Random(0)
    for word in itertools.islice(all_codewords(code), 16):
        for erased in itertools.combinations(range(7), 2):
            received = [None if i in erased else b for i, b in enumerate(word)]
            assert code.decode_erasures(received) == word


def test_erasure_decoding_beyond_capability_is_flagged():
    code = single_parity(4)
    word = list(_encode(code, [1, 1, 0, 0]))
    word[0] = word[1] = None
    with pytest.raises(TooManyErasures):
        code.decode_erasures(word)
    with pytest.raises(DecodeFailure):
        code.decode_erasures([1, 0, 0, 0, 0])  # parity violated, no erasures


def test_error_decoding():
    code = shipped_code(8, 2, errors=True)
    assert code.d >= 5 and code.k == 8
    rng = random.Random(1)
    for _ in range(20):
        msg = [rng.randrange(2) for _ in range(8)]
        word = list(_encode(code, msg))
        for pos in rng.sample(range(code.n), 2):
            word[pos] ^= 1
        assert code.extract_message(code.decode_errors(word)) == tuple(msg)


def test_bch_6316_erasure_capability_at_full_load():
    code = bundled_code("bch_63_16")
    rng = random.Random(2)
    msg = [rng.randrange(2) for _ in range(16)]
    word = list(_encode(code, msg))
    for pos in rng.sample(range(63), 22):
        word[pos] = None
    assert code.extract_message(code.decode_erasures(word)) == tuple(msg)


def test_factories_and_json_round_trip():
    assert shipped_code(5, 0).d == 1
    assert shipped_code(5, 1).d == 2
    assert shipped_code(5, 2).d == 3
    assert shipped_code(16, 18).name == "bch_63_16"
    # below k = 16 the same code is shortened; shortening keeps d = 23
    assert (shipped_code(9, 20).k, shipped_code(9, 20).d) == (9, 23)
    with pytest.raises(ConfigError):
        shipped_code(17, 20)
    with pytest.raises(ConfigError):
        shipped_code(9, 23)
    code = shipped_code(5, 2)
    again = LinearCode.from_json_obj(code.to_json_obj())
    assert (again.n, again.k, again.d) == (code.n, code.k, code.d)
    assert np.array_equal(again.H, code.H)


# the two choosers that shipped_code replaced, kept as its referees


def _referee_erasure_code(k, capability):
    if capability <= 0:
        return trivial_code(k)
    if capability == 1:
        return single_parity(k)
    if capability == 2:
        r = 2
        while 2**r - 1 - r < k:
            r += 1
        return shortened(hamming_code(r), k)
    code = bundled_code("bch_63_16")
    if k <= code.k and code.erasure_capability >= capability:
        return shortened(code, k)
    raise ConfigError(f"no shipped code with k={k} and erasure capability {capability}")


def _referee_substitution_code(k, error_capability):
    if error_capability <= 0:
        return trivial_code(k)
    if error_capability == 1:
        r = 2
        while 2**r - 1 - r < k:
            r += 1
        return shortened(hamming_code(r), k)
    if error_capability == 2:
        base = bundled_code("bch_31_21")
        if k <= base.k:
            return shortened(base, k)
    code = bundled_code("bch_63_16")
    if k <= code.k and code.error_capability >= error_capability:
        return shortened(code, k)
    raise ConfigError(f"no shipped code with k={k} and error capability {error_capability}")


def _pick(choose, *args):
    try:
        code = choose(*args)
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)
    return code.name, code.n, code.k, code.d, code.H.tobytes(), code.H.shape


@pytest.mark.parametrize("errors", [False, True], ids=["erasures", "errors"])
def test_shipped_code_makes_the_old_choosers_pick(errors):
    referee = _referee_substitution_code if errors else _referee_erasure_code
    families = ("trivial", "parity", "hamming", "bch_31_21", "bch_63_16")
    picked = set()
    for k in range(1, 70):
        for need in range(-1, 30):
            expected = _pick(referee, k, need)
            assert _pick(shipped_code, k, need, errors) == expected, (k, need)
            if isinstance(expected, type):
                picked.add(expected)
            else:
                picked.add(next(f for f in families if expected[0].startswith(f)))
    # every code of the catalogue that serves this kind is picked somewhere
    if errors:
        assert picked == {"trivial", "hamming", "bch_31_21", "bch_63_16", ConfigError}
    else:
        assert picked == {"trivial", "parity", "hamming", "bch_63_16", ConfigError}


def test_trivial_code():
    code = trivial_code(3)
    assert _encode(code, [1, 0, 1]) == (1, 0, 1)
    assert not (code.H @ np.array([1, 1, 1]) % 2).any()


def test_modp_solver():
    pc = modp_code(3, 20)
    rng = random.Random(3)
    vec = [rng.randrange(3) for _ in range(20)]
    syn = _syndrome(pc, vec)
    for i, j in itertools.combinations(range(20), 2):
        received = list(vec)
        received[i] = received[j] = None
        assert pc.solve_erasures(received, syn) == tuple(vec)


def test_modp_solver_flags_dependent_erasures():
    pc = modp_code(3, 20)
    # find a linearly dependent column triple; its erasure is unsolvable
    def dependent_mod3(cols):
        for coeffs in itertools.product(range(3), repeat=3):
            if not any(coeffs):
                continue
            combo = sum(c * pc.H[:, j] for c, j in zip(coeffs, cols)) % 3
            if not combo.any():
                return True
        return False

    dependent = next(
        (c for c in itertools.combinations(range(20), 3) if dependent_mod3(c)), None
    )
    assert dependent is not None
    vec = [1] * 20
    syn = _syndrome(pc, vec)
    received = list(vec)
    for pos in dependent:
        received[pos] = None
    with pytest.raises(TooManyErasures):
        pc.solve_erasures(received, syn)


def test_modp_with_dropped_syndrome_rows():
    pc = modp_code(3, 20)
    rng = random.Random(4)
    vec = [rng.randrange(3) for _ in range(20)]
    syn = list(_syndrome(pc, vec))
    syn[0] = None
    received = list(vec)
    received[2] = None
    assert pc.solve_erasures(received, syn) == tuple(vec)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_modp_packed_syndrome_matches_the_matrix_product(p):
    # referee: the numpy product that the packed column sums replaced
    rng = random.Random(p)
    codes = [modp_code(p, n) for n in (1, 7, 20, 40)]
    # a random H with entries outside 0..p-1, reduced by the constructor, and 6 rows
    H = np.array([[rng.randrange(-9, 10) for _ in range(13)] for _ in range(6)])
    codes.append(ModpCode(p, H, 2))
    for pc in codes:
        for _ in range(50):
            vec = [rng.randrange(-3 * p, 3 * p) for _ in range(pc.n)]
            assert _syndrome(pc, vec) == tuple(int(x) for x in pc.H @ np.array(vec) % p), vec
        top = tuple(int(x) for x in pc.H.sum(axis=1) * (p - 1) % p)
        assert _syndrome(pc, [p - 1] * pc.n) == top


def test_modp_unmeetable_syndrome_is_a_decode_failure():
    pc = modp_code(3, 20)
    vec = [1, 2, 0, 1] * 5
    syn = list(_syndrome(pc, vec))
    received = list(vec)
    received[7] = None
    # a row that does not see the erased column cannot absorb the change
    row = next(r for r in range(pc.n_rows) if pc.H[r, 7] == 0)
    syn[row] = (syn[row] + 1) % 3
    with pytest.raises(DecodeFailure):
        pc.solve_erasures(received, syn)


# ---------------------------------------------------------------------------
# referees: the two Gauss-Jordan loops that ``rref`` replaced, kept verbatim


def _referee_rref_gf2(mat, column_order=None):
    a = mat.copy() % 2
    rows, cols = a.shape
    order = range(cols) if column_order is None else column_order
    pivots = []
    r = 0
    for c in order:
        pivot = next((i for i in range(r, rows) if a[i, c]), None)
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def _referee_solve_modp(A, b, p):
    """Unique solution of A x = b mod p, or None when not uniquely solvable."""
    A = A.copy() % p
    b = b.copy() % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i, c]), None)
        if pivot is None:
            return None
        A[[r, pivot]] = A[[pivot, r]]
        b[[r, pivot]] = b[[pivot, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        b[r] = (b[r] * inv) % p
        for i in range(rows):
            if i != r and A[i, c]:
                factor = int(A[i, c])
                A[i] = (A[i] - factor * A[r]) % p
                b[i] = (b[i] - factor * b[r]) % p
        r += 1
    for i in range(r, rows):
        if b[i] % p:
            return None
    return b[:cols]


def test_rref_matches_the_gf2_referee():
    rng = np.random.default_rng(6)
    for trial in range(300):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        mat = (rng.random((rows, cols)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        order = None if trial % 2 else [int(c) for c in rng.permutation(cols)]
        got_rows, got_pivots = rref(mat, 2, column_order=order)
        want_rows, want_pivots = _referee_rref_gf2(mat, order)
        assert got_pivots == want_pivots
        assert np.array_equal(got_rows, want_rows)


@pytest.mark.parametrize("p", [3, 5])
def test_modp_erasure_solve_matches_referee_and_brute_force(p):
    """Unique, underdetermined and inconsistent systems over Z_p.

    The referee cannot tell the last two apart, so a brute-force count of
    the fillings that meet the target decides which error is due.
    """
    rng = random.Random(p)
    seen = {"unique": 0, "underdetermined": 0, "inconsistent": 0}
    non_unit_pivots = 0
    for trial in range(300):
        n_rows, n = rng.randint(1, 4), rng.randint(2, 6)
        H = np.array(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n_rows)],
            dtype=np.int64,
        )
        vec = [rng.randrange(p) for _ in range(n)]
        syn = [int(x) for x in H @ np.array(vec) % p]
        if trial % 3 == 0:
            syn = [rng.randrange(p) for _ in range(n_rows)]
        erased = sorted(rng.sample(range(n), rng.randint(1, min(n, 3))))
        received = [None if i in erased else x for i, x in enumerate(vec)]
        known = np.array([0 if x is None else x for x in received], dtype=np.int64)
        A, b = H[:, erased], (np.array(syn) - H @ known) % p
        fillings = [
            fill
            for fill in itertools.product(range(p), repeat=len(erased))
            if not ((A @ np.array(fill) - b) % p).any()
        ]
        non_unit_pivots += any(int(x) not in (0, 1) for x in A[:, 0])
        referee = _referee_solve_modp(A, b, p)
        code = ModpCode(p, H, capability=0)
        if len(fillings) == 1:
            seen["unique"] += 1
            assert tuple(referee) == fillings[0]
            want = list(received)
            for pos, val in zip(erased, fillings[0]):
                want[pos] = val
            assert code.solve_erasures(received, syn) == tuple(want)
        else:
            assert referee is None
            kind = "inconsistent" if not fillings else "underdetermined"
            seen[kind] += 1
            error = DecodeFailure if not fillings else TooManyErasures
            with pytest.raises(error):
                code.solve_erasures(received, syn)
    assert min(seen.values()) >= 20, seen
    assert non_unit_pivots >= 50


def test_rref_over_z5_scales_non_unit_pivots():
    # [[2, 1 | 4], [3, 3 | 4]]: x = (1, 2) mod 5, every pivot needs scaling
    reduced, pivots = rref([[2, 1, 4], [3, 3, 4]], 5)
    assert pivots == [0, 1]
    assert reduced.tolist() == [[1, 0, 1], [0, 1, 2]]
    H = np.array([[2, 1], [3, 3]])
    assert ModpCode(5, H, 2).solve_erasures([None, None], [4, 4]) == (1, 2)


# ---------------------------------------------------------------------------
# referee: the nearest-codeword scan that the syndrome lookup replaced.
# Same table in the same message order; rows are bit-packed so that the
# 2^21 codewords of bch_31_21 fit in 8 MB.


def _referee_table(code):
    """Every codeword in message order; bit j of row m is position j."""
    table = np.zeros(1, dtype=np.uint32 if code.n <= 32 else np.uint64)
    for row in code.generator:
        g = table.dtype.type(sum(1 << int(j) for j in np.flatnonzero(row)))
        table = np.concatenate([table, table ^ g])
    return table


def _referee_nearest(code, table, word):
    """The scan: first codeword at the least distance, and that distance."""
    received = table.dtype.type(sum((int(b) & 1) << j for j, b in enumerate(word)))
    dists = np.bitwise_count(table ^ received)
    best = int(dists.argmin())
    return tuple((int(table[best]) >> j) & 1 for j in range(code.n)), int(dists[best])


def _flip(word, positions):
    out = list(word)
    for j in positions:
        out[j] ^= 1
    return out


def _assert_same_decode(code, table, word, top):
    """Compare at every radius from top down to 0, the error capability at most.

    The largest radius caches the most patterns, so the smaller radii then
    meet cached patterns heavier than their own half.
    """
    nearest, dist = _referee_nearest(code, table, word)
    for radius in range(top, -1, -1):
        if dist > radius:
            with pytest.raises(DecodeFailure):
                code.decode_errors(word, radius)
        else:
            assert code.decode_errors(word, radius) == nearest, (code, word, radius)
    return dist <= top


@pytest.mark.parametrize("capability", [0, 1, 2])
def test_syndrome_decoder_matches_the_scan_on_every_small_code(capability):
    """Every code shipped_code(k, r, errors=True) returns for k <= 21, at radii 0..r.

    Every error pattern of weight <= r on a seeded codeword, plus seeded
    words at weight r+1 and r+2, which may decode elsewhere or raise.
    """
    rng = random.Random(capability)
    decoded = failed = 0
    for k in range(1, 22):
        code = shipped_code(k, capability, errors=True)
        r = code.error_capability
        assert r == capability
        table = _referee_table(code)
        cw = _encode(code, [rng.randrange(2) for _ in range(k)])
        for w in range(r + 1):
            for e in itertools.combinations(range(code.n), w):
                assert _assert_same_decode(code, table, _flip(cw, e), r)
                assert code.decode_errors(_flip(cw, e)) == cw
        for w in range(r + 1, min(r + 2, code.n) + 1):
            for _ in range(10):
                word = _flip(cw, rng.sample(range(code.n), w))
                ok = _assert_same_decode(code, table, word, r)
                decoded += ok
                failed += not ok
    assert decoded > 0
    assert failed > 0 or capability == 0  # a code with d = 1 decodes every word


@pytest.mark.parametrize("k", [16, 8])
def test_syndrome_decoder_matches_the_scan_on_bch_63_16(k):
    code = shipped_code(k, 4, errors=True)
    assert (code.n, code.k, code.d) == (47 + k, k, 23)
    table = _referee_table(code)
    rng = random.Random(k)
    outcomes = set()
    for _ in range(150):
        cw = _encode(code, [rng.randrange(2) for _ in range(k)])
        word = _flip(cw, rng.sample(range(code.n), rng.randint(0, 6)))
        outcomes.add(_assert_same_decode(code, table, word, 4))
    assert outcomes == {True, False}


def test_syndrome_lookup_budget_counts_patterns_and_probes():
    # r = 2 on n = 26: 1 + 26 cached patterns and as many probes
    code = shipped_code(16, 2, errors=True)
    cw = _encode(code, [1, 0] * 8)
    with pytest.raises(SearchSpaceTooLarge):
        code.decode_errors(_flip(cw, [3]), 2, budget=53)
    assert code.decode_errors(_flip(cw, [3]), 2, budget=54) == cw
    # r = 4 on n = 63: 1 + 63 + 1953 cached patterns and as many probes
    code = shipped_code(16, 4, errors=True)
    cw = _encode(code, [1, 0] * 8)
    with pytest.raises(SearchSpaceTooLarge):
        code.decode_errors(_flip(cw, [0, 20, 40, 60]), 4, budget=4033)
    assert code.decode_errors(_flip(cw, [0, 20, 40, 60]), 4, budget=4034) == cw
    # r = 1 on n = 21: 2 x (1 + 21), since the probe for two columns that XOR
    # to zero searches two halves of one column; the search itself needs 42
    code = shipped_code(16, 1, errors=True)
    cw = _encode(code, [1, 0] * 8)
    with pytest.raises(SearchSpaceTooLarge, match="needs 44 patterns, over the budget 43"):
        code.decode_errors(_flip(cw, [3]), 1, budget=43)
    assert code.decode_errors(_flip(cw, [3]), 1, budget=44) == cw


def test_radius_above_error_capability_is_refused():
    code = shipped_code(8, 2, errors=True)
    word = _encode(code, [1, 1, 0, 1, 0, 0, 1, 0])
    assert code.decode_errors(word, 2) == word
    for radius in (3, -1):
        with pytest.raises(ConfigError):
            code.decode_errors(word, radius)


def _bits(*rows: str) -> list[list[int]]:
    """Rows written as 0/1 text, as int rows: ``from_parity_check`` reads no text."""
    return [[int(c) for c in row] for row in rows]


def test_declared_distance_contradicted_by_the_syndromes():
    # columns 0 and 1 of H are equal, so d = 2, not the declared 3
    code = LinearCode.from_parity_check(_bits("1101", "1110"), 3, name="wrong_d")
    with pytest.raises(ConfigError):
        code.decode_errors([0, 0, 0, 0], 1)


def test_json_code_with_overstated_distance_is_refused():
    # the [7,4,3] Hamming matrix declared with d = 5 would let a two-error
    # decode return a wrong codeword without complaint
    obj = {"name": "ham", "n": 7, "k": 4, "H": ["0001111", "0110011", "1010101"]}
    assert LinearCode.from_json_obj({**obj, "d": 3}).d == 3
    with pytest.raises(ConfigError):
        LinearCode.from_json_obj({**obj, "d": 5})
    # from_parity_check still trusts the declared d
    assert LinearCode.from_parity_check(_bits(*obj["H"]), 5).d == 5


# ---------------------------------------------------------------------------
# referee: the row-by-row parity loop that the one-product encoder replaced


def _referee_encode(code, message):
    """Each row of the reduced H sets its pivot from the other positions."""
    word = [0] * code.n
    for pos, bit in zip(code.info_positions, message):
        word[pos] = int(bit) & 1
    for r, pc in enumerate(code.pivots):
        acc = 0
        for c in np.flatnonzero(code.H[r]):
            if c != pc:
                acc ^= word[c]
        word[pc] = acc
    return tuple(word)


@pytest.mark.parametrize(
    "code",
    [
        trivial_code(6),
        single_parity(7),
        hamming_code(3),
        hamming_code(4),
        shortened(hamming_code(4), 8),
        shipped_code(12, 2),
        bundled_code("bch_63_16"),
        shortened(bundled_code("bch_63_16"), 9),
        bundled_code("bch_31_21"),
        shipped_code(11, 2, errors=True),
    ],
    ids=lambda code: code.name,
)
def test_encode_matches_the_row_loop_referee(code):
    rng = random.Random(code.n * 100 + code.k)
    for _ in range(40):
        msg = [rng.randrange(2) for _ in range(code.k)]
        assert _encode(code, msg) == _referee_encode(code, msg), msg
    units = [_referee_encode(code, [int(i == j) for j in range(code.k)]) for i in range(code.k)]
    assert code.generator.dtype == np.uint8
    assert code.generator.tolist() == [list(row) for row in units]


def _referee_rref(mat, p=2, column_order=None):
    """rref as it stood, clearing each pivot column even where it is clear."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
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
        a -= factors[:, None] * a[r]
        a %= p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _gf2_matrices(rng):
    """Seeded 0/1 matrices around word boundaries, with zero, duplicate and
    dependent rows and zero columns, plus a matrix with no rows."""
    yield np.zeros((0, 65), dtype=np.int64)
    for width in (1, 63, 64, 65, 1023):
        for trial in range(8):
            rows = int(rng.integers(1, 9 if trial < 4 else 40))
            mat = (rng.random((rows, width)) < rng.uniform(0.05, 0.9)).astype(np.int64)
            if trial % 2:
                mat[:, rng.random(width) < 0.2] = 0
            if rows >= 3:
                i, j, k = rng.choice(rows, 3, replace=False)
                mat[k] = [0 * mat[k], mat[i], mat[i] ^ mat[j]][trial % 3]
            if trial == 7:  # entries read mod 2
                mat += 2 * rng.integers(-2, 3, mat.shape)
            yield mat


def test_rref_matches_the_unguarded_referee():
    from masscodec import gf2m

    cases = [(build(), 2) for build, _ in gf2m.TABLES.values()]
    cases += [(hamming_code(r).H, 2) for r in range(2, 6)]
    rng = np.random.default_rng(23)
    # the packed GF(2) kernel at and across 64-bit word boundaries
    cases += [(mat, 2) for mat in _gf2_matrices(rng)]
    for p in (2, 3, 5):
        for _ in range(100):
            shape = (int(rng.integers(1, 9)), int(rng.integers(1, 13)))
            # sparse and dense matrices, so some pivot columns are clear already
            kept = rng.random(shape) < rng.uniform(0.1, 0.9)
            cases.append((rng.integers(0, p, shape) * kept, p))
    for mat, p in cases:
        cols = np.shape(mat)[1]
        # left to right, right to left, and permutations, of ints and of numpy ints
        permutation = rng.permutation(cols)
        for order in (None, range(cols - 1, -1, -1), permutation.tolist(), permutation):
            got_rows, got_pivots = rref(mat, p, column_order=order)
            want_rows, want_pivots = _referee_rref(mat, p, order)
            assert got_pivots == want_pivots
            assert got_rows.dtype == np.int64 and np.array_equal(got_rows, want_rows)


def test_erasure_solvers_refuse_a_word_of_the_wrong_length():
    code = shipped_code(16, 1)
    word = list(_encode(code, [1, 0] * 8))
    with pytest.raises(ValueError, match=f"word length {code.n - 1} != n={code.n}"):
        code.decode_erasures(word[:-1])
    pc = modp_code(3, 20)
    vec = [1, 2] * 10
    syn = _syndrome(pc, vec)
    with pytest.raises(ValueError, match="word length 21 != n=20"):
        pc.solve_erasures(vec + [None], syn)
    with pytest.raises(ValueError, match=r"shape \(1, 19\) are not rows of n=20"):
        pc.syndrome([vec[:-1]])
    # one word, not an array of rows, is refused by both
    with pytest.raises(ValueError, match=r"shape \(20,\) are not rows of n=20"):
        pc.syndrome(vec)
    with pytest.raises(ValueError, match=r"shape \(16,\) are not rows of k=16"):
        code.encode([1, 0] * 8)


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_complete_words_are_checked_as_the_erasure_solve_checks_them():
    from masscodec import gf2m

    codes = [bundled_code(name) for name in gf2m.TABLES] + [hamming_code(r) for r in range(2, 6)]
    codes += [shortened(code, k) for code in list(codes) for k in sorted({1, code.k // 2 or 1})]
    codes += [trivial_code(k) for k in (1, 8)] + [single_parity(k) for k in (1, 8)]
    codes += [shipped_code(16, need, errors) for need in (0, 1, 2) for errors in (False, True)]
    rng = random.Random(29)
    seen = set()
    for code in codes:
        for _ in range(4):
            codeword = _encode(code, [rng.randrange(2) for _ in range(code.k)])
            for flips in range(4):
                word = list(codeword)
                for pos in rng.sample(range(code.n), min(flips, code.n)):
                    word[pos] ^= 1
                # integer sums are read mod 2, negative ones too, and so are numpy ints
                sums = [bit + 2 * rng.randint(-3, 3) for bit in word]
                for form in (word, sums, [np.int64(x) for x in sums], np.array(sums)):
                    want = _outcome(_solve_erasures, code.H, 2, form, 0)
                    assert _outcome(code.decode_erasures, form) == want, (code, form)
                    seen.add(want[0] if want[0] is DecodeFailure else "decoded")
        for wrong in (codeword[:-1], codeword + (0,)):
            with pytest.raises(ValueError, match=f"word length {len(wrong)} != n={code.n}"):
                code.decode_erasures(wrong)
    assert seen == {"decoded", DecodeFailure}


def test_modp_solver_refuses_a_short_syndrome():
    # a missing row used to be read as an erased one
    pc = modp_code(3, 20)
    vec = [1, 2] * 10
    syn = _syndrome(pc, vec)
    received = [None] + vec[1:]
    with pytest.raises(ValueError, match=f"syndrome length 3 != n_rows={pc.n_rows}"):
        pc.solve_erasures(received, syn[:-1])


def test_error_decoder_refuses_an_erased_symbol():
    code = shipped_code(8, 2, errors=True)
    word = list(_encode(code, [1, 1, 0, 1, 0, 0, 1, 0]))
    word[5] = word[9] = None
    with pytest.raises(ValueError, match="symbol 5 is erased"):
        code.decode_errors(word, 2)


def test_weight_four_codewords_contradict_a_declared_distance_of_five():
    # the extended Hamming code has d = 4: the word below lies at distance 2
    # from four codewords, so a radius-2 decode must not pick one
    code = LinearCode.from_parity_check(_bits("11110000", "11001100", "10101010", "11111111"), 5)
    with pytest.raises(ConfigError, match="d=5 is wrong"):
        code.decode_errors([0, 0, 0, 0, 1, 1, 0, 0], 2)


def test_every_two_error_word_of_a_hamming_code_declared_d5_is_refused():
    # [7,4,3] declared d = 5: two flips of a codeword also lie one flip from
    # another, so a radius-2 decode has two patterns and must not pick the lighter
    hamming = hamming_code(3)
    code = LinearCode.from_parity_check(hamming.H, 5)
    word = _encode(code, [1, 0, 1, 1])
    for flips in itertools.combinations(range(7), 2):
        wrong = [bit ^ (j in flips) for j, bit in enumerate(word)]
        with pytest.raises(ConfigError, match="so d=5 is wrong"):
            code.decode_errors(wrong, 2)


def test_a_weight_three_codeword_contradicts_a_declared_distance_of_seven():
    # three columns of the [7,4,3] Hamming matrix XOR to zero; a radius-3
    # decode checks every set of up to 4 columns before its first word
    code = LinearCode.from_parity_check(_bits("0001111", "0110011", "1010101"), 7)
    with pytest.raises(ConfigError, match="weight <= 2 share a syndrome, so d=7 is wrong"):
        code.decode_errors([0] * 7, 3)


# ---------------------------------------------------------------------------
# referees: rref on every matrix, and the generator product for encode


def _code_by_rref(mat, d):
    """The code of mat as ``from_parity_check`` built it before reduced tables were kept."""
    H = np.array(mat, dtype=np.uint8) % 2
    reduced, pivots = rref(H, 2, column_order=range(H.shape[1] - 1, -1, -1))
    return LinearCode("referee", d, reduced.astype(np.uint8), pivots)


def _reduced_tail_matrices(rng):
    """Seeded matrices whose last r columns, read right to left, are the identity
    or a row permutation of it, then the same with one extra 1 in the tail."""
    kept, unreduced = [], []
    for _ in range(60):
        r, k = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        left = (rng.random((r, k)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        tail = np.eye(r, dtype=np.uint8)[:, ::-1]
        mat = np.hstack([left, tail])
        kept += [mat, mat[rng.permutation(r)]]
        extra = mat[rng.permutation(r)]
        zeros = np.argwhere(extra[:, k:] == 0)
        if len(zeros):
            row, col = zeros[int(rng.integers(len(zeros)))]
            extra[row, k + col] = 1
            unreduced.append(extra)
    return kept, unreduced


def test_from_parity_check_keeps_reduced_tables_as_rref_leaves_them(monkeypatch):
    from masscodec import gf2m, linearcode

    rng = np.random.default_rng(32)
    kept, unreduced = _reduced_tail_matrices(rng)
    cyclic = ("bch_63_16", "bch_31_21")  # the gf2m.cyclic_pcm tables
    kept += [gf2m.TABLES[name][0]() for name in cyclic]
    kept += [hamming_code(r).H for r in range(2, 7)]
    others = [build() for name, (build, _) in gf2m.TABLES.items() if name not in cyclic]
    # rank-deficient: a row repeated, a row that sums two others, a zero row
    for _ in range(30):
        mat = (rng.random((int(rng.integers(3, 7)), int(rng.integers(8, 14)))) < 0.5).astype(int)
        mat[-1] = [mat[0], mat[0] ^ mat[1], 0 * mat[0]][int(rng.integers(3))]
        unreduced.append(mat)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rref(*args, **kwargs)

    monkeypatch.setattr(linearcode, "rref", counted)
    for matrices, reductions in ((kept, 0), (unreduced, 1), (others, None)):
        for mat in matrices:
            calls.clear()
            got = _outcome(LinearCode.from_parity_check, mat, 1)
            assert reductions is None or len(calls) == reductions, mat
            want = _outcome(_code_by_rref, mat, 1)
            if isinstance(want, LinearCode):
                assert got.H.dtype == want.H.dtype == np.uint8
                assert np.array_equal(got.H, want.H), mat
                assert (got.pivots, got.info_positions) == (want.pivots, want.info_positions)
            else:
                assert got == want
    for name in gf2m.TABLES:
        want = _code_by_rref(bundled_spec(name).rows, 1)
        assert np.array_equal(bundled_code(name).H, want.H)
        assert bundled_code(name).pivots == want.pivots
    for r in range(2, 7):
        assert hamming_code(r).pivots == tuple(range(2**r - 2, 2**r - 2 - r, -1))


def _shipped_and_shortened_codes():
    from masscodec import gf2m

    full = [bundled_code(name) for name in gf2m.TABLES] + [hamming_code(r) for r in range(2, 7)]
    codes = full + [trivial_code(5), single_parity(9)]
    codes += [shortened(code, k) for code in full for k in {1, code.k // 2, code.k - 1} if k]
    codes += [
        shipped_code(k, need, errors)
        for k in (1, 4, 11, 16)
        for need, errors in ((0, False), (1, False), (2, False), (1, True), (2, True))
    ]
    return codes


def test_encode_matches_the_generator_product():
    rng = random.Random(32)
    for code in _shipped_and_shortened_codes():
        G = code.generator.astype(np.int64)
        messages = [[1] * code.k] + [[rng.randrange(2) for _ in range(code.k)] for _ in range(25)]
        for msg in messages:
            want = tuple((np.array(msg) @ G % 2).tolist())
            assert _encode(code, msg) == want, (code.name, msg)


# ---------------------------------------------------------------------------
# referee: ``_solve_erasures`` reducing its system with ``_referee_rref``


def _referee_decode_erasures(code, word):
    """``_solve_erasures`` at p = 2 with the int64 referee reducing the system."""
    erased = [i for i, x in enumerate(word) if x is None]
    known = np.array([0 if x is None else x & 1 for x in word], dtype=np.int64)
    rhs = code.H.astype(np.int64) @ known % 2
    if not erased:
        if rhs.any():
            raise DecodeFailure("complete word does not meet its checks")
        return tuple(known.tolist())
    reduced, pivots = _referee_rref(np.column_stack([code.H[:, erased], rhs]), 2)
    if len(erased) in pivots:
        raise DecodeFailure("erasure system is inconsistent")
    if len(pivots) < len(erased):
        raise TooManyErasures(f"{len(erased)} erasures leave the system underdetermined")
    known[erased] = reduced[:, -1]
    return tuple(known.tolist())


def test_binary_erasure_decoding_matches_the_referee_solve_up_to_d_erasures():
    rng = random.Random(43)
    seen = set()
    for code in _shipped_and_shortened_codes():
        for erasures in range(min(code.d, code.n) + 1):
            for _ in range(3):
                codeword = _encode(code, [rng.randrange(2) for _ in range(code.k)])
                noise = [rng.randrange(2) for _ in range(code.n)]
                flipped = list(codeword)
                flipped[rng.randrange(code.n)] ^= 1
                positions = rng.sample(range(code.n), erasures)
                for word in (list(codeword), flipped, noise):
                    for pos in positions:
                        word[pos] = None
                    want = _outcome(_referee_decode_erasures, code, word)
                    assert _outcome(code.decode_erasures, word) == want, (code, word)
                    seen.add(want[0] if isinstance(want[0], type) else "decoded")
    assert seen == {"decoded", DecodeFailure, TooManyErasures}
