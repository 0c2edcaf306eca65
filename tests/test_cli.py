import json

import pytest

from masscodec.cli import main

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


def test_corrupt_then_ambiguous_exit_code(ws):
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
    code = run("decode", ws / "e.json", "--config", ws / "raw.json", "--hbar", 2,
               "-o", ws / "out.json")
    assert code == 3
    out = json.loads((ws / "out.json").read_text())
    assert out["status"] == "ambiguous"
    assert sorted(out["witnesses"]) == [
        ["101010", "110100"],
        ["101010", "111000"],
    ]


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
    # wrongly typed integer fields
    "erase-len-a-string": _corrupt_with("erase", len="1"),
    "erase-len-fractional": _corrupt_with("erase", len=1.5),
    "erase-count-a-string": _corrupt_with("erase", count="1"),
    "erase-ones-a-string": _corrupt_with("erase", ones="1"),
    "subst-ones_to-a-string": _corrupt_with("subst", ones_to="0"),
    "subst-ones_from-a-string": _corrupt_with("subst", ones_to=0, ones_from="1"),
    # JSON booleans are no numbers, although they were read as 1 and 0
    "erase-count-true": _corrupt_with("erase", count=True),
    "subst-ones_to-false": _corrupt_with("subst", ones_to=False),
    "fragment-ones-a-string": (
        "decode", {"in.json": {"N": 6, "fragments": [{"zeros": 0, "ones": "1"}]}}
    ),
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


def test_verify_subcommand(ws):
    strings = ws / "cb.txt"
    strings.write_text("110100\n101010\n110010\n")
    assert run("verify", strings, "--h", 2, "--property", "bh", "-o", ws / "v.json") == 0
    strings.write_text("110100\n101010\n110010\n101100\n")
    assert run("verify", strings, "--h", 2, "--property", "bh", "-o", ws / "v.json") == 4
    out = json.loads((ws / "v.json").read_text())
    assert out["status"] == "collision"


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



def test_budget_reaches_experiment(ws):
    args = ("experiment", "--matrix", "bundled:bch_15_7", "--h", 2, "--hbar", 2,
            "--t", 1, "--trials", 3, "--seed", 5, "-o", ws / "a.csv")
    assert run("--budget", 1, *args) == 0
    rows = (ws / "a.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",error") for row in rows)
