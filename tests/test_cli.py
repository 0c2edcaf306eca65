import hashlib
import json

import pytest

from masscodec.bhcode import ParityCheckSpec, bundled_spec
from masscodec.cli import main
from masscodec.core import pool
from masscodec.errors import ConfigError
from masscodec.linearcode import LinearCode, bundled_code, shortened

RAW_CONFIG = {
    "h": 2,
    "strings": ["110100", "101010", "110010", "111000"],
    "scheme": "raw",
}
PLAIN_CONFIG = {"h": 2, "matrix": "bundled:bch_15_7"}
# the [7,4,3] Hamming code, without its declared distance
HAMMING = {"name": "ham", "n": 7, "k": 4, "H": ["0001111", "0110011", "1010101"]}


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "raw.json").write_text(json.dumps(RAW_CONFIG))
    (tmp_path / "plain.json").write_text(json.dumps(PLAIN_CONFIG))
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_encode_pool_decode_raw(ws, capsys):
    strings = ws / "s.txt"
    strings.write_text("110100\n101010\n")
    assert run("encode", strings, "--config", ws / "raw.json", "-o", ws / "w.json") == 0
    assert run("pool", ws / "w.json", "-o", ws / "p.json") == 0
    pool_obj = json.loads((ws / "p.json").read_text())
    assert pool_obj["N"] == 6
    assert sum(e["mult"] for e in pool_obj["fragments"]) == 24
    assert run("decode", ws / "p.json", "--config", ws / "raw.json", "-o", ws / "d.json") == 0
    out = json.loads((ws / "d.json").read_text())
    assert out == {"status": "ok", "strings": ["101010", "110100"]}


def _erase_raw_pair(ws):
    """Pool two raw-book strings and erase their aligned length-3 fragments."""
    strings = ws / "s.txt"
    strings.write_text("110100\n101010\n")
    run("encode", strings, "--config", ws / "raw.json", "-o", ws / "w.json")
    run("pool", ws / "w.json", "-o", ws / "p.json")
    pattern = {
        "erase": [
            {"side": "prefix", "len": 3, "count": 1},
            {"side": "suffix", "len": 3, "count": 1},
        ]
    }
    (ws / "pat.json").write_text(json.dumps(pattern))
    assert (
        run("corrupt", ws / "p.json", "--pattern", ws / "pat.json", "-o", ws / "e.json")
        == 0
    )


def test_corrupt_then_ambiguous_exit_code(ws):
    _erase_raw_pair(ws)
    code = run("decode", ws / "e.json", "--config", ws / "raw.json", "--hbar", 2,
               "-o", ws / "out.json")
    assert code == 3
    out = json.loads((ws / "out.json").read_text())
    assert out["status"] == "ambiguous"
    assert sorted(out["witnesses"]) == [
        ["101010", "110100"],
        ["101010", "111000"],
    ]


def test_ambiguous_decode_over_its_budget_writes_null_witnesses(ws):
    # the witness search enumerates 4 + 4 half-subsets: none searched is not none found
    _erase_raw_pair(ws)
    assert run("--budget", 1, "decode", ws / "e.json", "--config", ws / "raw.json",
               "-o", ws / "out.json") == 3
    out = json.loads((ws / "out.json").read_text())
    assert out["status"] == "ambiguous"
    assert out["witnesses"] is None


def test_encoded_pipeline_with_scheme(ws):
    cfg = {
        "h": 2,
        "matrix": "bundled:bch_255_cols20",
        "scheme": {"name": "integral", "t": 2},
    }
    (ws / "cfg.json").write_text(json.dumps(cfg))
    from masscodec.bhcode import build_bh_codebook, bundled_spec

    base = build_bh_codebook(2, bundled_spec("bch_255_cols20"))
    strings = ws / "s.txt"
    strings.write_text(f"{base.strings[0]}\n{base.strings[7]}\n")
    run("encode", strings, "--config", ws / "cfg.json", "-o", ws / "w.json")
    run("pool", ws / "w.json", "-o", ws / "p.json")
    pattern = {"erase": [{"side": "prefix", "len": 20, "count": 1}]}
    (ws / "pat.json").write_text(json.dumps(pattern))
    run("corrupt", ws / "p.json", "--pattern", ws / "pat.json", "--seed", 4,
        "-o", ws / "e.json")
    assert run("decode", ws / "e.json", "--config", ws / "cfg.json", "--hbar", 2,
               "-o", ws / "out.json") == 0
    out = json.loads((ws / "out.json").read_text())
    assert out["status"] == "ok"
    assert out["strings"] == sorted([str(base.strings[0]), str(base.strings[7])])


def test_encode_pool_decode_plain(ws):
    from masscodec.bhcode import build_bh_codebook, bundled_spec

    base = build_bh_codebook(2, bundled_spec("bch_15_7"))
    sources = sorted(str(s) for s in base.strings[2:4])
    strings = ws / "s.txt"
    strings.write_text("\n".join(sources) + "\n")
    assert run("encode", strings, "--config", ws / "plain.json", "-o", ws / "w.json") == 0
    assert run("pool", ws / "w.json", "-o", ws / "p.json") == 0
    assert run("decode", ws / "p.json", "--config", ws / "plain.json", "--detect",
               "-o", ws / "d.json") == 0
    out = json.loads((ws / "d.json").read_text())
    assert out["status"] == "ok" and out["strings"] == sources
    assert out["detection"]["clean"]
    # one lost prefix fragment: the redundancy-free merge still recovers the pair
    (ws / "pat.json").write_text(json.dumps({"erase": [{"side": "prefix", "len": 5}]}))
    assert run("corrupt", ws / "p.json", "--pattern", ws / "pat.json",
               "-o", ws / "e.json") == 0
    assert run("decode", ws / "e.json", "--config", ws / "plain.json", "--hbar", 2,
               "-o", ws / "out.json") == 0
    out = json.loads((ws / "out.json").read_text())
    assert out == {"status": "ok", "strings": sources}


def _encode_and_pool(ws, config: dict, sources: list[str]):
    """encode -> pool of the sources under a config, as cfg.json, s.txt, w.json, p.json."""
    (ws / "cfg.json").write_text(json.dumps(config))
    (ws / "s.txt").write_text("\n".join(sources) + "\n")
    assert run("encode", ws / "s.txt", "--config", ws / "cfg.json", "-o", ws / "w.json") == 0
    assert run("pool", ws / "w.json", "-o", ws / "p.json") == 0


def test_a_lighter_reading_that_decoded_to_a_wrong_set_is_a_decode_failure(ws):
    # the prefix side of this readout is that of 0000000000001000 alone
    _encode_and_pool(ws, {"h": 2, "matrix": "bundled:bch_255_cols20"}, ["0000000000000100"])
    subst = {"side": "prefix", "len": 27, "ones_from": 17, "ones_to": 16}
    (ws / "pat.json").write_text(json.dumps({"subst": [subst]}))
    assert run("corrupt", ws / "p.json", "--pattern", ws / "pat.json",
               "-o", ws / "c.json") == 0
    for detect in ((), ("--detect",)):
        assert run("decode", ws / "c.json", "--config", ws / "cfg.json", *detect,
                   "-o", ws / "d.json") == 4
        assert json.loads((ws / "d.json").read_text())["status"] == "decode-failure"


def test_decode_reads_hbar_off_an_erased_pool(ws):
    from masscodec.bhcode import build_bh_codebook, bundled_spec

    base = build_bh_codebook(2, bundled_spec("bch_255_cols20"))
    sources = sorted(str(s) for s in base.strings[:2])
    _encode_and_pool(ws, {"h": 2, "matrix": "bundled:bch_255_cols20"}, sources)
    (ws / "pat.json").write_text(json.dumps({"erase": [{"side": "prefix", "len": 5}]}))
    assert run("corrupt", ws / "p.json", "--pattern", ws / "pat.json",
               "-o", ws / "e.json") == 0
    # no --hbar: every length but 5 still holds four fragments
    assert run("decode", ws / "e.json", "--config", ws / "cfg.json", "-o", ws / "d.json") == 0
    assert json.loads((ws / "d.json").read_text()) == {"status": "ok", "strings": sources}


BCH20 = {"h": 2, "matrix": "bundled:bch_255_cols20"}  # a book of 20 strings


# sha256 of the file ``decode --detect`` wrote for two sources of BCH20 under each
# pattern, and its exit code, recorded when the CLI built the report's JSON itself;
# "lighter" re-recorded when every plain readout went to the merge, whose error
# (a negative sum symbol) replaced the split's certificate refusal
DETECT_OUTPUTS = {
    "clean": ({}, 0, "306d04ef5e742bb0c026c9b60253744bbf75a4d4d9dbc6dd407d289a0a962891"),
    "erased": (
        {"erase": [{"side": "prefix", "len": 5}]},
        0,
        "d359b7aa0381634e6d8aeb210e24b0d0e48cb7fe4c090f6e64a371f85628963c",
    ),
    "lighter": (
        {"subst": [{"side": "suffix", "len": 38, "ones_from": 14, "ones_to": 13}]},
        4,
        "eadc9a525da36d3dcef7ee64147746d8bfa3447425c7c6983fdda99411e7db92",
    ),
}


@pytest.mark.parametrize("case", sorted(DETECT_OUTPUTS))
def test_decode_detect_writes_the_pinned_bytes(ws, case):
    pattern, exit_code, digest = DETECT_OUTPUTS[case]
    _encode_and_pool(ws, BCH20, ["0000000000000100", "0000000000001000"])
    (ws / "pat.json").write_text(json.dumps(pattern))
    assert run("corrupt", ws / "p.json", "--pattern", ws / "pat.json", "-o", ws / "c.json") == 0
    assert run("decode", ws / "c.json", "--config", ws / "cfg.json", "--detect",
               "-o", ws / "d.json") == exit_code
    assert hashlib.sha256((ws / "d.json").read_bytes()).hexdigest() == digest


def test_a_readout_that_does_not_split_keeps_its_decode_failure_payload(ws, capsys):
    # CountMismatch from the split went past the decode's handler and wrote nothing;
    # the merge reads this readout, and its certificate refuses the answer
    _encode_and_pool(ws, BCH20, ["1000000000000000", "0000001000000000"])
    subst = {"side": "prefix", "len": 20, "ones_from": 14, "ones_to": 9}
    (ws / "pat.json").write_text(json.dumps({"subst": [subst]}))
    assert run("corrupt", ws / "p.json", "--pattern", ws / "pat.json", "-o", ws / "c.json") == 0
    assert run("decode", ws / "c.json", "--config", ws / "cfg.json", "--detect",
               "-o", ws / "d.json") == 4
    out = json.loads((ws / "d.json").read_text())
    assert out["status"] == "decode-failure"
    assert out["error"] == "the pool of the decoded set is not the readout"
    assert not out["detection"]["clean"]
    assert capsys.readouterr().err == ""


def test_a_clean_size_plain_readout_goes_to_the_merge(ws):
    # one lighter reading: the split refused the readout (exit 4), and the merge
    # leaves two sum symbols erased and finds no subset that explains it
    _encode_and_pool(ws, BCH20, ["0000000100000000", "0100000000000000"])
    subst = {"side": "prefix", "len": 25, "ones_from": 18, "ones_to": 7}
    (ws / "pat.json").write_text(json.dumps({"subst": [subst]}))
    assert run("corrupt", ws / "p.json", "--pattern", ws / "pat.json", "-o", ws / "c.json") == 0
    assert run("decode", ws / "c.json", "--config", ws / "cfg.json", "-o", ws / "d.json") == 3
    out = json.loads((ws / "d.json").read_text())
    assert out["status"] == "ambiguous" and out["witnesses"] == []
    assert out["partial_sum"].count("ε") == 2


# two pairs that pool alike, so a complete sum names both: a plain book, and a raw
# book whose first two strings pool as its last two do
POOLED_ALIKE = {
    "plain": ({"h": 2, "strings": ["0101", "1010", "0110", "1001"]}, ["0101", "1010"]),
    "raw": (
        {"h": 2, "strings": ["110100", "101010", "110010", "101100"], "scheme": "raw"},
        ["110100", "101010"],
    ),
}


@pytest.mark.parametrize("case", sorted(POOLED_ALIKE))
def test_a_complete_sum_two_subsets_explain_exits_3_as_ambiguous(ws, capsys, case):
    # AmbiguousSolution exited 4 with "decode-failure", which is exit 3's meaning
    config, sources = POOLED_ALIKE[case]
    _encode_and_pool(ws, config, sources)
    for detect in ((), ("--detect",)):
        assert run("decode", ws / "p.json", "--config", ws / "cfg.json", *detect,
                   "-o", ws / "d.json") == 3
        out = json.loads((ws / "d.json").read_text())
        assert out["status"] == "ambiguous" and out["error"].startswith("both ")
        assert ("detection" in out) == bool(detect)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("detect", [(), ("--detect",)])
@pytest.mark.parametrize("hbar", [21, 0, -1])
def test_decode_refuses_an_hbar_outside_one_to_the_book_size(ws, capsys, hbar, detect):
    # 21 was decoded to an ambiguous result; 0 and -1 failed inside the decoder
    _encode_and_pool(ws, BCH20, ["0000000000000100", "0000000000001000"])
    assert run("decode", ws / "p.json", "--config", ws / "cfg.json", "--hbar", hbar,
               *detect, "-o", ws / "d.json") == 2
    message = f"a decode needs 1 <= hbar <= 20, got hbar={hbar}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "d.json").exists()


@pytest.mark.parametrize("detect", [(), ("--detect",)])
def test_decode_refuses_an_hbar_below_the_readout_order(ws, capsys, detect):
    # was an "ambiguous" all-erased sum with no witnesses (exit 3)
    _encode_and_pool(ws, BCH20, ["0000000000000100", "0000000000001000"])
    assert run("decode", ws / "p.json", "--config", ws / "cfg.json", "--hbar", 1,
               *detect, "-o", ws / "d.json") == 4
    message = "the pool needs hbar >= 2, got hbar=1"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "d.json").exists()


@pytest.mark.parametrize("detect", [(), ("--detect",)])
def test_an_empty_readout_fails_one_way_with_or_without_detect(ws, capsys, detect):
    _encode_and_pool(ws, BCH20, ["0000000000000100"])
    N = json.loads((ws / "p.json").read_text())["N"]
    (ws / "e.json").write_text(json.dumps({"N": N, "fragments": []}))
    assert run("decode", ws / "e.json", "--config", ws / "cfg.json", *detect,
               "-o", ws / "d.json") == 4
    message = f"the pool holds no fragment of length 1..{N}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_decode_refuses_a_pool_of_another_length(ws, capsys):
    # a raw pool of length 6 against the plain book of bch_15_7, N = 36
    strings = ws / "s.txt"
    strings.write_text("110100\n101010\n")
    assert run("encode", strings, "--config", ws / "raw.json", "-o", ws / "w.json") == 0
    assert run("pool", ws / "w.json", "-o", ws / "p.json") == 0
    capsys.readouterr()
    assert run("decode", ws / "p.json", "--config", ws / "plain.json", "-o", ws / "d.json") == 2
    assert capsys.readouterr().err == "error: pool says N=6, codebook says N=36\n"


def test_budget_reaches_decode(ws):
    from masscodec.bhcode import build_bh_codebook, bundled_spec

    base = build_bh_codebook(2, bundled_spec("bch_15_7"))
    strings = ws / "s.txt"
    strings.write_text(f"{base.strings[2]}\n{base.strings[3]}\n")
    run("encode", strings, "--config", ws / "plain.json", "-o", ws / "w.json")
    run("pool", ws / "w.json", "-o", ws / "p.json")
    # the mod-2 lookup of a pair enumerates more than one half-subset
    assert run("--budget", 1, "decode", ws / "p.json", "--config", ws / "plain.json",
               "-o", ws / "d.json") == 5
    assert run("decode", ws / "p.json", "--config", ws / "plain.json",
               "-o", ws / "d.json") == 0


def test_plain_config_with_protection_exits_2(ws):
    cfg = ws / "plain_t3.json"
    cfg.write_text(json.dumps({**PLAIN_CONFIG, "scheme": {"name": "plain", "t": 3}}))
    strings = ws / "s.txt"
    strings.write_text("")
    assert run("encode", strings, "--config", cfg, "-o", ws / "w.json") == 2


@pytest.mark.parametrize("scheme", [
    {"name": "one-step", "t": 1, "code_flag": "bundled:bch_63_16"},
    {"name": "one-step-modp", "t": 1, "code": "bundled:bch_63_16"},
])
def test_scheme_config_with_a_setting_it_does_not_take_exits_2(ws, capsys, scheme):
    cfg = ws / "cfg.json"
    cfg.write_text(json.dumps({"h": 2, "matrix": "bundled:bch_255_cols20", "scheme": scheme}))
    strings = ws / "s.txt"
    strings.write_text("")
    assert run("encode", strings, "--config", cfg, "-o", ws / "w.json") == 2
    assert capsys.readouterr().err.startswith("error: ")


# a scheme's t that is no integer is refused naming it, never truncated or crashed on
SCHEME_T = {"null": None, "list": [1], "fraction": 1.9, "true": True, "text": "x"}


@pytest.mark.parametrize("case", sorted(SCHEME_T))
def test_a_scheme_t_that_is_not_an_int_exits_2_naming_it(ws, capsys, case):
    cfg = ws / "cfg.json"
    scheme = {"name": "two-step", "t": SCHEME_T[case]}
    cfg.write_text(json.dumps({"h": 2, "matrix": "bundled:bch_255_cols20", "scheme": scheme}))
    (ws / "s.txt").write_text("")
    assert run("encode", ws / "s.txt", "--config", cfg, "-o", ws / "w.json") == 2
    err = capsys.readouterr().err
    assert err == f"error: a scheme needs an int 't', got {SCHEME_T[case]!r}\n"


@pytest.mark.parametrize("t", ["2", 2.0])
def test_a_scheme_t_in_integer_text_or_a_whole_float_reads_as_the_int(ws, t):
    (ws / "s.txt").write_text("")
    layouts = []
    for value in (2, t):
        cfg = ws / "cfg.json"
        scheme = {"name": "two-step", "t": value}
        cfg.write_text(json.dumps({"h": 2, "matrix": "bundled:bch_255_cols20", "scheme": scheme}))
        assert run("encode", ws / "s.txt", "--config", cfg, "-o", ws / "w.json") == 0
        layouts.append(json.loads((ws / "w.json").read_text())["layout"])
    assert layouts[0] == layouts[1]


def test_inline_code_with_overstated_distance_exits_2(ws):
    # the [7,4,3] Hamming matrix declared with d = 5 would let a two-error
    # decode return a wrong codeword without complaint
    strings = ws / "s.txt"
    strings.write_text("1100\n")
    for d, exit_code in ((3, 0), (5, 2)):
        cfg = ws / f"ham_d{d}.json"
        cfg.write_text(json.dumps({
            "h": 1,
            "strings": ["1100", "1010", "0110"],
            "scheme": {"name": "one-step", "t": 0, "code": {**HAMMING, "d": d}},
        }))
        assert run("encode", strings, "--config", cfg, "-o", ws / "w.json") == exit_code


def _encode_with_code(ws, code: dict) -> int:
    """Encode 1100 under a one-step config whose code is given inline."""
    (ws / "s.txt").write_text("1100\n")
    scheme = {"name": "one-step", "t": 0, "code": code}
    config = {"h": 1, "strings": ["1100", "1010", "0110"], "scheme": scheme}
    (ws / "cfg.json").write_text(json.dumps(config))
    return run("encode", ws / "s.txt", "--config", ws / "cfg.json", "-o", ws / "w.json")


# an inline code's field -> a value that is no integer, or no list of 0/1 strings
CODE_FIELDS = {
    "d-text": ("d", "three", "a code needs an int 'd', got 'three'"),
    "d-fraction": ("d", 3.5, "a code needs an int 'd', got 3.5"),
    "k-true": ("k", True, "a code needs an int 'k', got True"),
    "n-null": ("n", None, "a code needs an int 'n', got None"),
    "name-int": ("name", 7, "a code needs a str 'name', got 7"),
    "H-one-string": ("H", "0001111", "a code needs a list 'H', got '0001111'"),
    "H-int-rows": (
        "H", [[0, 1, 1], [1, 0, 1]],
        "a code needs 'H' as a list of 0/1 strings, got [[0, 1, 1], [1, 0, 1]]",
    ),
}


@pytest.mark.parametrize("case", sorted(CODE_FIELDS))
def test_an_inline_code_field_of_another_type_exits_2_naming_it(ws, capsys, case):
    key, value, message = CODE_FIELDS[case]
    assert _encode_with_code(ws, {**HAMMING, "d": 3, key: value}) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "w.json").exists()


@pytest.mark.parametrize("key", ["n", "k", "d"])
def test_an_inline_code_size_in_integer_text_reads_as_the_int(ws, key):
    # as a scheme's t and a pool file's N do
    code = {**HAMMING, "d": 3}
    assert _encode_with_code(ws, code) == 0
    want = (ws / "w.json").read_text()
    assert _encode_with_code(ws, {**code, key: str(code[key])}) == 0
    assert (ws / "w.json").read_text() == want


NOT_BINARY = "parity-check entries must be 0/1"
# a malformed matrix as a library caller passes it, the same defect in a config's
# inline "H" (a 0/1 string per row, where each character is one entry, as in the
# rows of a .pcm file), and the message every entry point refuses it with
MALFORMED_MATRICES = {
    "not-binary": (
        [[0, 0, 0, 1, 1, 2, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]],
        ["0001121", "0110011", "1010101"],
        NOT_BINARY,
    ),
    "float entries": ([[0.0, 1.0], [1.0, 0.0]], ["0.01.0", "1.00.0"], NOT_BINARY),
    "string entries": ([["0", "1"], ["1", "0"]], ["0 1", "1 0"], NOT_BINARY),
    "tuple entries": (((0, (1,)), ((1,), 0)), ["0(1,)", "(1,)0"], NOT_BINARY),
    "ragged": (((1, 0), (1,)), ["10", "1"], "ragged parity-check matrix"),
    "empty": ((), [], "empty parity-check matrix"),
    "empty row": (((),), [""], "empty parity-check matrix"),
    "3-D": ([[[0, 1]], [[1, 0]]], ["[0, 1]", "[1, 0]"], NOT_BINARY),
    # a 1-D matrix has no rows: its config form is one string, which the field refuses
    "1-D": (
        (0, 1, 1), "011",
        ("a parity-check matrix is a 2-D array of 0/1 ints", "a code needs a list 'H', got '011'"),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
def test_a_malformed_matrix_is_refused_alike_at_every_entry_point(ws, capsys, case):
    rows, H, message = MALFORMED_MATRICES[case]
    given, written = message if isinstance(message, tuple) else (message, message)
    refusals = (
        (lambda: ParityCheckSpec(rows, 3), given),
        (lambda: LinearCode.from_parity_check(rows, 3), given),
        (lambda: LinearCode.from_json_obj({**HAMMING, "d": 3, "H": H}), written),
    )
    if isinstance(H, list):  # the same rows as a .pcm file
        (ws / "bad.pcm").write_text("d=3\n" + "\n".join(H))
        refusals += ((lambda: ParityCheckSpec.load(ws / "bad.pcm"), written),)
    for read, want in refusals:
        with pytest.raises(ConfigError) as refused:
            read()
        assert str(refused.value) == want
    assert _encode_with_code(ws, {**HAMMING, "d": 3, "H": H}) == 2
    assert capsys.readouterr().err == f"error: {written}\n"


# a [26, 16, 5] code absorbs 4 erasures; two-step t = 5 needs 5
WEAK_SCHEME = {
    "name": "two-step", "t": 5, "code": shortened(bundled_code("bch_31_21"), 16).to_json_obj()
}
# raised while the codebook is built, before any pool is read: a configuration error
WEAK_CONFIGS = {
    "distance": (
        {"h": 3, "matrix": "bundled:bch_15_7"}, "distance 5 < 7 required for multiplicity 3"
    ),
    "capability": (
        {"h": 2, "matrix": "bundled:bch_255_cols20", "scheme": WEAK_SCHEME},
        "payload erasure capability 4 < 5",
    ),
}


@pytest.mark.parametrize("case", sorted(WEAK_CONFIGS))
def test_a_code_too_weak_for_its_config_exits_2(ws, capsys, case):
    config, message = WEAK_CONFIGS[case]
    (ws / "cfg.json").write_text(json.dumps(config))
    (ws / "s.txt").write_text("")
    assert run("encode", ws / "s.txt", "--config", ws / "cfg.json", "-o", ws / "w.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "w.json").exists()


def test_empty_input_is_ok(ws):
    empty = ws / "none.txt"
    empty.write_text("")
    assert run("encode", empty, "--config", ws / "raw.json", "-o", ws / "w.json") == 0
    assert json.loads((ws / "w.json").read_text())["codewords"] == []


VALID_POOL = {"N": 6, "fragments": [{"zeros": 0, "ones": 1, "mult": 1}]}
ARGV = {
    "decode": ("in.json", "--config", "raw.json", "--hbar", 1),
    "corrupt": ("in.json", "--pattern", "pat.json"),
    "encode": ("s.txt", "--config", "cfg.json"),
    "pool": ("in.json",),
}


def _corrupt_with(kind: str, **entry):
    """A corrupt case whose pattern has one erase or subst entry at prefix length 1."""
    pattern = {kind: [{"side": "prefix", "len": 1, **entry}]}
    return "corrupt", {"in.json": VALID_POOL, "pat.json": pattern}


def _encode_with(**config):
    """An encode case of s.txt (1100) under one config."""
    return "encode", {"cfg.json": config}


DYCK_PAIR = ["1100", "1010"]


LONG_FRAGMENT = {"zeros": 1500, "ones": 1500}
LENGTH_7 = {"zeros": 3, "ones": 4}

# case -> (command, the JSON files it reads)
MALFORMED = {
    "pool-without-N": ("decode", {"in.json": {"fragments": []}}),
    "fragment-without-ones": ("decode", {"in.json": {"N": 6, "fragments": [{"zeros": 1}]}}),
    "erase-without-len": (
        "corrupt", {"in.json": VALID_POOL, "pat.json": {"erase": [{"side": "prefix"}]}}
    ),
    "subst-without-ones_to": (
        "corrupt", {"in.json": VALID_POOL, "pat.json": {"subst": [{"side": "prefix", "len": 1}]}}
    ),
    "pattern-not-an-object": ("corrupt", {"in.json": VALID_POOL, "pat.json": []}),
    "code-without-d": (
        "encode",
        {"cfg.json": {"strings": ["1100"], "scheme": {"name": "one-step", "code": HAMMING}}},
    ),
    "config-not-an-object": ("encode", {"cfg.json": [RAW_CONFIG]}),
    "scheme-not-an-object": ("encode", {"cfg.json": {**RAW_CONFIG, "scheme": ["raw"]}}),
    "codewords-missing": ("pool", {"in.json": {"sources": []}}),
    # list fields that hold something else
    "codewords-numbers": ("pool", {"in.json": {"codewords": [1100, 1010]}}),
    "codewords-a-string": ("pool", {"in.json": {"codewords": "1100"}}),
    "codewords-bare-list-of-numbers": ("pool", {"in.json": [1100, 1010]}),
    "fragments-a-number": ("decode", {"in.json": {"N": 6, "fragments": 5}}),
    # a fragment longer than the file's N, which the count table would be sized by
    "fragment-longer-than-N-corrupt": (
        "corrupt",
        {
            "in.json": {"N": 6, "fragments": [*VALID_POOL["fragments"], LONG_FRAGMENT]},
            "pat.json": {"erase": [{"side": "prefix", "len": 1}]},
        },
    ),
    "fragment-longer-than-N-decode": (
        "decode",
        {"in.json": {"N": 6, "fragments": [*pool(["110100"]).to_json_obj(), LENGTH_7]}},
    ),
    "erase-a-number": ("corrupt", {"in.json": VALID_POOL, "pat.json": {"erase": 5}}),
    "subst-a-number": ("corrupt", {"in.json": VALID_POOL, "pat.json": {"subst": 5}}),
    # wrongly typed integer fields
    "erase-len-a-string": _corrupt_with("erase", len="1"),
    "erase-len-fractional": _corrupt_with("erase", len=1.5),
    "erase-count-a-string": _corrupt_with("erase", count="1"),
    "erase-ones-a-string": _corrupt_with("erase", ones="1"),
    "subst-ones_to-a-string": _corrupt_with("subst", ones_to="0"),
    "subst-ones_from-a-string": _corrupt_with("subst", ones_to=0, ones_from="1"),
    "subst-side-unknown": _corrupt_with("subst", side="banana", ones_to=0),
    # JSON booleans are no numbers, although they were read as 1 and 0
    "erase-count-true": _corrupt_with("erase", count=True),
    "subst-ones_to-false": _corrupt_with("subst", ones_to=False),
    "fragment-ones-a-string": (
        "decode", {"in.json": {"N": 6, "fragments": [{"zeros": 0, "ones": "1"}]}}
    ),
    # config fields of the wrong type or out of range
    "config-h-a-string": _encode_with(h="2", strings=DYCK_PAIR, scheme="raw"),
    "config-h-zero": _encode_with(h=0, strings=DYCK_PAIR, scheme="raw"),
    "config-h-true": _encode_with(h=True, strings=DYCK_PAIR, scheme="raw"),
    "config-take-a-string": _encode_with(matrix="bundled:bch_15_7", take="3"),
    "config-matrix-a-number": _encode_with(matrix=5),
    "config-strings-numbers": _encode_with(strings=[1100, 1010], scheme="raw"),
    "config-strings-empty": _encode_with(strings=[], scheme="raw"),
    "config-strings-a-string": _encode_with(strings="1100", scheme="raw"),
    "scheme-t-negative": _encode_with(
        h=1, strings=[*DYCK_PAIR, "0110"], scheme={"name": "two-step", "t": -1}
    ),
    # no fragment has a negative length
    "pool-N-negative": ("corrupt", {"in.json": {"N": -1, "fragments": []}, "pat.json": {}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_2(ws, capsys, case):
    command, files = MALFORMED[case]
    for name, obj in files.items():
        (ws / name).write_text(json.dumps(obj))
    (ws / "s.txt").write_text("1100\n")
    argv = [ws / a if str(a).endswith((".json", ".txt")) else a for a in ARGV[command]]
    assert run(command, *argv, "-o", ws / "out.json") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_pool_file_of_length_zero_still_reads(ws):
    (ws / "in.json").write_text(json.dumps({"N": 0, "fragments": []}))
    (ws / "pat.json").write_text("{}")
    assert run("corrupt", ws / "in.json", "--pattern", ws / "pat.json", "-o", ws / "out.json") == 0
    assert json.loads((ws / "out.json").read_text()) == {"N": 0, "fragments": []}


# a file that is not JSON at all, named by the file the command cannot parse
NOT_JSON = {
    "pattern": ("corrupt", "pat.json", {"in.json": VALID_POOL}),
    "pool": ("corrupt", "in.json", {"pat.json": {}}),
    "encode-file": ("pool", "in.json", {}),
    "config": ("encode", "cfg.json", {}),
}


@pytest.mark.parametrize("case", sorted(NOT_JSON))
def test_a_file_that_is_not_json_is_named(ws, capsys, case):
    command, broken, files = NOT_JSON[case]
    for name, obj in files.items():
        (ws / name).write_text(json.dumps(obj))
    (ws / broken).write_text("not json\n")
    (ws / "s.txt").write_text("1100\n")
    argv = [ws / a if str(a).endswith((".json", ".txt")) else a for a in ARGV[command]]
    assert run(command, *argv, "-o", ws / "out.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ws / broken} is not JSON: Expecting value"), err


# a string where a list belongs must be named as such, not read character by
# character into an error about a list entry (codewords are in MALFORMED above)
LIST_FIELDS = {
    "erase": (
        ("corrupt", {"in.json": VALID_POOL, "pat.json": {"erase": "prefix"}}),
        "a pattern needs a list 'erase', got 'prefix'",
    ),
    "subst": (
        ("corrupt", {"in.json": VALID_POOL, "pat.json": {"subst": "prefix"}}),
        "a pattern needs a list 'subst', got 'prefix'",
    ),
    "fragments": (
        ("decode", {"in.json": {"N": 6, "fragments": "01"}}),
        "a pool file needs a list 'fragments', got '01'",
    ),
}


@pytest.mark.parametrize("case", sorted(LIST_FIELDS))
def test_a_list_field_of_another_type_is_named(ws, capsys, case):
    (command, files), message = LIST_FIELDS[case]
    for name, obj in files.items():
        (ws / name).write_text(json.dumps(obj))
    argv = [ws / a if str(a).endswith(".json") else a for a in ARGV[command]]
    assert run(command, *argv, "-o", ws / "out.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# a pattern entry whose ones do not fit its length (prefix length 1)
ONES_OUT_OF_RANGE = {
    "erase-ones-above-len": (_corrupt_with("erase", ones=99), 99),
    "erase-ones-negative": (_corrupt_with("erase", ones=-1), -1),
    "subst-ones_from-above-len": (_corrupt_with("subst", ones_to=0, ones_from=99), 99),
}


@pytest.mark.parametrize("case", sorted(ONES_OUT_OF_RANGE))
def test_pattern_ones_outside_the_length_exit_2_naming_the_entry(ws, capsys, case):
    (command, files), ones = ONES_OUT_OF_RANGE[case]
    for name, obj in files.items():
        (ws / name).write_text(json.dumps(obj))
    argv = [ws / a if str(a).endswith(".json") else a for a in ARGV[command]]
    assert run(command, *argv, "-o", ws / "out.json") == 2
    err = capsys.readouterr().err
    assert err == f"error: a prefix fragment of length 1 cannot hold {ones} ones\n"


def test_loosely_typed_json_that_worked_still_works(ws):
    # a string N and mult, float-written integers and a null "ones" were read before
    (ws / "in.json").write_text(
        json.dumps({"N": "6", "fragments": [{"zeros": 0.0, "ones": 1.0, "mult": "2"}]})
    )
    pattern = {"erase": [{"side": "prefix", "len": 1, "ones": None}]}
    (ws / "pat.json").write_text(json.dumps(pattern))
    assert run("corrupt", ws / "in.json", "--pattern", ws / "pat.json", "-o", ws / "o.json") == 0
    out = json.loads((ws / "o.json").read_text())
    assert out == {"N": 6, "fragments": [{"zeros": 0, "ones": 1, "mult": 1}]}


# a fractional or boolean count is refused, not truncated to an int
POOL_COUNTS = {
    "N-fractional": ("N", 6.5, "a pool file needs an int 'N', got 6.5"),
    "mult-fractional": ("mult", 2.7, "a fragment needs an int 'mult', got 2.7"),
    "mult-true": ("mult", True, "a fragment needs an int 'mult', got True"),
}


@pytest.mark.parametrize("case", sorted(POOL_COUNTS))
def test_pool_counts_that_are_not_ints_exit_2_naming_the_field(ws, capsys, case):
    key, value, message = POOL_COUNTS[case]
    (ws / "s.txt").write_text("110100\n101010\n")
    run("encode", ws / "s.txt", "--config", ws / "raw.json", "-o", ws / "w.json")
    run("pool", ws / "w.json", "-o", ws / "p.json")
    pool_obj = json.loads((ws / "p.json").read_text())
    if key == "N":
        pool_obj["N"] = value
    else:
        pool_obj["fragments"][0]["mult"] = value
    (ws / "p.json").write_text(json.dumps(pool_obj))
    assert run("decode", ws / "p.json", "--config", ws / "raw.json", "-o", ws / "d.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_matrix_exits_2(ws, capsys):
    bad = ws / "bad.pcm"
    bad.write_text("not a matrix\n")
    cfg = ws / "badcfg.json"
    cfg.write_text(json.dumps({"h": 2, "matrix": str(bad)}))
    strings = ws / "s.txt"
    strings.write_text("01\n")
    assert run("encode", strings, "--config", cfg, "-o", ws / "w.json") == 2


def test_bounds_table_formats(ws):
    assert run("bounds", "--h", "4,6,8", "--format", "csv", "-o", ws / "b.csv") == 0
    rows = (ws / "b.csv").read_text().strip().splitlines()
    assert rows[0].startswith("h,")
    assert rows[1].split(",")[1] == "0.5118"
    assert run("bounds", "--h", "4", "--format", "json", "-o", ws / "b.json") == 0
    data = json.loads((ws / "b.json").read_text())
    assert data[0]["even_upper"] == "0.4406"


def test_bounds_writes_markdown_by_default(ws):
    assert run("bounds", "--h", "4", "-o", ws / "b.md") == 0
    assert (ws / "b.md").read_text() == (
        "| h | naive_upper | even_upper | mc_upper | mc_lower | gap |\n"
        "|---|---|---|---|---|---|\n"
        "| 4 | 0.5118 | 0.4406 | 3/5 | 1/4 | 0.0882 |\n"
    )


def test_verify_subcommand(ws):
    strings = ws / "cb.txt"
    strings.write_text("110100\n101010\n110010\n")
    assert run("verify", strings, "--h", 2, "--property", "bh", "-o", ws / "v.json") == 0
    strings.write_text("110100\n101010\n110010\n101100\n")
    assert run("verify", strings, "--h", 2, "--property", "bh", "-o", ws / "v.json") == 4
    out = json.loads((ws / "v.json").read_text())
    assert out["status"] == "collision"


# a string and its reversal read alike in full, prefixes and suffixes, but
# not by their prefixes alone, and their sums differ
@pytest.mark.parametrize("prop, code", [(None, 4), ("hmc", 4), ("prefix", 0), ("bh", 0)])
def test_verify_reads_the_property_it_is_given_hmc_by_default(ws, prop, code):
    (ws / "r.txt").write_text("0001\n1000\n")
    chosen = () if prop is None else ("--property", prop)
    assert run("verify", ws / "r.txt", "--h", 2, *chosen, "-o", ws / "v.json") == code
    out = json.loads((ws / "v.json").read_text())
    if code:
        assert out == {"status": "collision", "subset_a": ["0001"], "subset_b": ["1000"]}
    else:
        assert out == {"status": "valid"}


def test_search_subcommand(ws):
    assert run("search", "--n", 4, "--h", 2, "--mode", "exact-max",
               "-o", ws / "s.json") == 0
    out = json.loads((ws / "s.json").read_text())
    assert out["size"] == 6


def test_experiment_determinism(ws):
    args = ("experiment", "--matrix", "bundled:bch_15_7", "--h", 2, "--hbar", 2,
            "--t", 1, "--trials", 6, "--seed", 5)
    assert run(*args, "-o", ws / "a.csv") == 0
    assert run(*args, "-o", ws / "b.csv") == 0
    a, b = (ws / "a.csv").read_bytes(), (ws / "b.csv").read_bytes()
    assert a == b
    assert all(line.endswith(",exact") for line in a.decode().strip().splitlines()[1:])



def test_experiment_on_an_empty_strings_file_exits_2(ws, capsys):
    empty = ws / "none.txt"
    empty.write_text("")
    args = ("experiment", empty, "--h", 2, "--hbar", 1, "--trials", 2, "-o", ws / "a.csv")
    assert run(*args) == 2
    assert capsys.readouterr().err == "error: an explicit codebook needs at least one string\n"


EXPERIMENT = ("experiment", "--matrix", "bundled:bch_255_cols20", "--trials", 2)
# an order or size outside its range is refused with a message naming the value
OUT_OF_RANGE = {
    "experiment-hbar-zero": ((*EXPERIMENT, "--hbar", 0), "1 <= hbar <= 20, got hbar=0"),
    "experiment-hbar-negative": ((*EXPERIMENT, "--hbar", -1), "1 <= hbar <= 20, got hbar=-1"),
    "experiment-t-negative": ((*EXPERIMENT, "--t", -1), "got t=-1"),
    "experiment-trials-negative": ((*EXPERIMENT, "--trials", -3), "got trials=-3"),
    "experiment-t-past-the-pool": (
        (*EXPERIMENT, "--t", 10_000, "--placement", "adversarial"), "got t=10000"
    ),
    "experiment-h-zero": ((*EXPERIMENT, "--h", 0), "a codebook needs h >= 1, got 0"),
    "verify-h-zero": (
        ("verify", "--matrix", "bundled:bch_15_7", "--h", 0), "a codebook needs h >= 1, got 0"
    ),
    "search-h-zero": (("search", "--n", 4, "--h", 0), "a codebook needs h >= 1, got 0"),
    "search-n-zero": (("search", "--n", 0, "--h", 2), "a search needs n >= 1, got n=0"),
    "search-n-negative": (("search", "--n", -1, "--h", 2), "a search needs n >= 1, got n=-1"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_an_order_or_size_out_of_range_exits_2(ws, capsys, case):
    argv, message = OUT_OF_RANGE[case]
    assert run(*argv, "-o", ws / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert not (ws / "out").exists()


def test_search_refuses_h_zero_before_searching(ws, capsys, monkeypatch):
    from masscodec import oracle

    def no_search(*args):
        raise AssertionError("the search ran")

    # 2^20 candidates: the search would take minutes, and here it fails at once
    monkeypatch.setattr(oracle, "_all_strings", no_search)
    assert run("search", "--n", 20, "--h", 0, "-o", ws / "out") == 2
    assert capsys.readouterr().err == "error: a codebook needs h >= 1, got 0\n"
    assert not (ws / "out").exists()


# a strings file to verify is a codebook too; each of these was reported valid
NOT_A_CODEBOOK = {
    "h-zero": ("110100\n101010\n", 0, "a codebook needs h >= 1, got 0"),
    "empty": ("", 2, "an explicit codebook needs at least one string"),
    "duplicate": ("110100\n110100\n", 2, "codebook strings must be pairwise distinct"),
    "unequal-lengths": (
        "110100\n1101\n", 2, "codebook strings must all have the declared length"
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_A_CODEBOOK))
@pytest.mark.parametrize("prop", ["bh", "hmc"])
def test_verify_refuses_a_strings_file_that_is_no_codebook(ws, capsys, case, prop):
    text, h, message = NOT_A_CODEBOOK[case]
    (ws / "s.txt").write_text(text)
    assert run("verify", ws / "s.txt", "--h", h, "--property", prop, "-o", ws / "v.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# malformed strings are bad input, not failed decodes: each of these exited 4
MALFORMED_STRINGS = {
    "pool-unequal-lengths": (
        ("pool", "w.json"), {"w.json": ["1100", "110100"]},
        "pooled strings must share length 4, got 6",
    ),
    "pool-repeated-codeword": (
        ("pool", "w.json"), {"w.json": {"codewords": ["110100", "110100"]}},
        "pooled strings must be pairwise distinct",
    ),
    "encode-repeated-strings": (
        ("encode", "s.txt", "--config", "cfg.json"),
        {"cfg.json": {"h": 2, "strings": ["110100", "110100", "101010"]}},
        "codebook strings must be pairwise distinct",
    ),
    "encode-raw-odd-length": (
        ("encode", "s.txt", "--config", "cfg.json"),
        {"cfg.json": {"h": 2, "strings": ["110", "101"], "scheme": "raw"}},
        "Dyck property needs even length, got 3",
    ),
    "decode-raw-odd-length": (
        ("decode", "p.json", "--config", "cfg.json"),
        {"p.json": VALID_POOL, "cfg.json": {"h": 2, "strings": ["110", "101"], "scheme": "raw"}},
        "Dyck property needs even length, got 3",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STRINGS))
def test_malformed_strings_exit_2(ws, capsys, case):
    argv, files, message = MALFORMED_STRINGS[case]
    (ws / "s.txt").write_text("")
    for name, obj in files.items():
        (ws / name).write_text(json.dumps(obj))
    # every argument with a dot is a file in the workspace
    assert run(*(ws / a if "." in a else a for a in argv), "-o", ws / "out.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "out.json").exists()


@pytest.mark.parametrize("take", [0, -3])
@pytest.mark.parametrize("command", ["encode", "decode"])
def test_a_take_below_one_exits_2(ws, capsys, take, command):
    # take 0 built an empty book, whose layout raised IndexError; take -3 kept 17 of 20
    config = {"h": 2, "matrix": "bundled:bch_255_cols20", "take": take}
    (ws / "cfg.json").write_text(json.dumps(config))
    first = str(bundled_spec("bch_255_cols20").columns()[0])
    (ws / "s.txt").write_text("" if take == 0 else first + "\n")
    (ws / "p.json").write_text(json.dumps(VALID_POOL))
    source = ws / ("s.txt" if command == "encode" else "p.json")
    assert run(command, source, "--config", ws / "cfg.json", "-o", ws / "out.json") == 2
    assert capsys.readouterr().err == f"error: a config's 'take' must be at least 1, got {take}\n"


def test_take_applies_to_a_strings_config(ws, capsys):
    # take was applied to a matrix config only, so 111000 encoded with exit 0
    config = {"h": 2, "strings": ["110100", "101010", "111000"], "take": 1}
    (ws / "cfg.json").write_text(json.dumps(config))
    for source, exit_code in (("111000", 2), ("110100", 0)):
        (ws / "s.txt").write_text(source + "\n")
        assert run("encode", ws / "s.txt", "--config", ws / "cfg.json",
                   "-o", ws / "w.json") == exit_code
    assert capsys.readouterr().err == "error: 111000 is not a codebook string\n"


# a raw book's strings are its codewords, so it takes no code, as a plain one does
NO_CODE = "the raw scheme takes no t, code or code_flag"
RAW_SETTINGS = {
    "t-and-code": ({"t": 3, "code": "bundled:bch_63_16"}, NO_CODE),
    "t": ({"t": 1}, NO_CODE),
    "negative-t": ({"t": -1}, "a scheme corrects t >= 0 errors, got t=-1"),
    "code": ({"code": "bundled:bch_63_16"}, NO_CODE),
    "code_flag": (
        {"code_flag": "bundled:bch_63_16"}, "only the two-step scheme takes a code_flag, not 'raw'"
    ),
}


@pytest.mark.parametrize("case", sorted(RAW_SETTINGS))
@pytest.mark.parametrize("command", ["encode", "decode"])
def test_a_raw_config_with_a_t_or_a_code_exits_2(ws, capsys, case, command):
    settings, message = RAW_SETTINGS[case]
    config = {**RAW_CONFIG, "scheme": {"name": "raw", **settings}}
    (ws / "cfg.json").write_text(json.dumps(config))
    (ws / "s.txt").write_text("110100\n")
    (ws / "p.json").write_text(json.dumps(VALID_POOL))
    source = ws / ("s.txt" if command == "encode" else "p.json")
    assert run(command, source, "--config", ws / "cfg.json", "-o", ws / "out.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "out.json").exists()


def test_a_raw_config_reads_code_auto_as_no_code(ws):
    config = {**RAW_CONFIG, "scheme": {"name": "raw", "code": "auto"}}
    (ws / "cfg.json").write_text(json.dumps(config))
    (ws / "s.txt").write_text("110100\n")
    assert run("encode", ws / "s.txt", "--config", ws / "cfg.json", "-o", ws / "w.json") == 0
    assert json.loads((ws / "w.json").read_text())["codewords"] == ["110100"]


def test_budget_reaches_experiment(ws):
    args = ("experiment", "--matrix", "bundled:bch_15_7", "--h", 2, "--hbar", 2,
            "--t", 1, "--trials", 3, "--seed", 5, "-o", ws / "a.csv")
    assert run("--budget", 1, *args) == 0
    rows = (ws / "a.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",error") for row in rows)
