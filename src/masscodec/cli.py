"""Command-line front end: encode, pool, corrupt, decode, and reports.

Every subcommand is a thin wrapper over the library; file formats are the
JSON forms defined by the owning modules.  Exit codes: 0 success, 2 bad
usage or configuration, 3 ambiguous reconstruction, 4 decode failure,
5 search budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import ecc, oracle
from .bhcode import (
    DEFAULT_BUDGET,
    BhCodebook,
    ParityCheckSpec,
    build_bh_codebook,
    bundled_spec,
    verify_bh,
)
from .channel import (
    Ambiguous,
    ErasurePattern,
    detect_substitution,
    erase,
    reconstruct_redundancy_free,
    run_erasure_experiment,
    substitute_mass_reducing,
)
from .codec import PLAIN
from .core import BitString, CompositionMultiset, pool as make_pool
from .errors import (
    AmbiguousSolution,
    ConfigError,
    DecodeFailure,
    MasscodecError,
    SearchSpaceTooLarge,
    TooManyErasures,
    json_field,
)
from .linearcode import LinearCode, bundled_code

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AMBIGUOUS = 3
EXIT_DECODE = 4
EXIT_BUDGET = 5

RAW = "raw"  # codebook strings used as codewords directly (must be Dyck)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_spec(ref: str) -> ParityCheckSpec:
    if ref.startswith("bundled:"):
        return bundled_spec(ref.split(":", 1)[1])
    return ParityCheckSpec.load(ref)


def _load_code(ref, fallback=None) -> LinearCode | None:
    if ref is None or ref == "auto":
        return fallback
    if isinstance(ref, dict):
        code = LinearCode.from_json_obj(ref)
        # an overstated d makes decoders trust a capability the code lacks,
        # so inline codes small enough to enumerate are checked; bundled
        # codes are verified when their tables are generated
        if 2**code.k <= DEFAULT_BUDGET:
            actual = code.exact_min_distance()
            if actual < code.d:
                raise ConfigError(
                    f"inline code {code.name} declares d={code.d}, "
                    f"but its minimum distance is {actual}"
                )
        return code
    if isinstance(ref, str) and ref.startswith("bundled:"):
        return bundled_code(ref.split(":", 1)[1])
    raise ConfigError(f"cannot interpret code reference {ref!r}")


def load_config(path: str):
    """Build the base codebook, the scheme codebook and the scheme name.

    Schema: {"h": int, "matrix": "bundled:name"|path, "take": int?,
             "strings": [..]?, "scheme": {"name": str, "t": int,
             "code": ..., "code_flag": ...}?}
    """
    obj = json.loads(_read_text(path))
    if not isinstance(obj, dict):
        raise ConfigError("a config must be a JSON object")
    h = obj.get("h", 2)
    if "matrix" in obj:
        spec = _load_spec(obj["matrix"])
        base = build_bh_codebook(h, spec)
        if "take" in obj:
            base = BhCodebook(
                n=base.n, h=h, strings=base.strings[: obj["take"]], source=spec
            )
    elif "strings" in obj:
        base = BhCodebook.explicit(obj["strings"], h)
    else:
        raise ConfigError("config needs a 'matrix' or a 'strings' entry")
    scheme_obj = obj.get("scheme", {"name": PLAIN})
    if isinstance(scheme_obj, str):
        scheme_obj = {"name": scheme_obj}
    if not isinstance(scheme_obj, dict):
        raise ConfigError("a scheme must be a name or a JSON object")
    name = scheme_obj.get("name", PLAIN)
    t = int(scheme_obj.get("t", 0))
    if name == RAW:
        from .core import is_dyck

        if not all(is_dyck(s) for s in base.strings):
            raise ConfigError("raw codebooks must consist of Dyck strings")
        return base, base, RAW
    code = _load_code(scheme_obj.get("code"))
    flag = _load_code(scheme_obj.get("code_flag"))
    book = ecc.scheme_codebook(name, base, t, code, flag)
    return base, book, name


def _pool_to_json(poolset: CompositionMultiset, N: int) -> str:
    return json.dumps({"N": N, "fragments": poolset.to_json_obj()}, indent=1) + "\n"


def _pool_from_json(text: str) -> tuple[CompositionMultiset, int]:
    obj = json.loads(text)
    fragments, N = (json_field(obj, key, "a pool file") for key in ("fragments", "N"))
    return CompositionMultiset.from_json_obj(fragments), int(N)


def cmd_encode(args) -> int:
    base, book, scheme = load_config(args.config)
    lines = [ln.strip() for ln in _read_text(args.input).splitlines() if ln.strip()]
    sources = [BitString(ln) for ln in lines]
    known = set(base.strings)
    for s in sources:
        if s not in known:
            raise ConfigError(f"{s} is not a codebook string")
    if scheme == RAW:
        bits = [str(s) for s in sources]
        layout = {"N": base.n}
    else:
        bits = [str(book.bits_for(s)) for s in sources]
        layout = book.layout.to_json_obj()
    out = {
        "scheme": scheme,
        "layout": layout,
        "sources": [str(s) for s in sources],
        "codewords": bits,
    }
    _write_text(args.output, json.dumps(out, indent=1) + "\n")
    return EXIT_OK


def cmd_pool(args) -> int:
    obj = json.loads(_read_text(args.input))
    words = json_field(obj, "codewords", "an encode file") if isinstance(obj, dict) else obj
    if not words:
        _write_text(args.output, _pool_to_json(CompositionMultiset(), 0))
        return EXIT_OK
    poolset = make_pool(words)
    _write_text(args.output, _pool_to_json(poolset, len(words[0])))
    return EXIT_OK


def cmd_corrupt(args) -> int:
    import random

    poolset, N = _pool_from_json(_read_text(args.input))
    pattern = json.loads(_read_text(args.pattern))
    if not isinstance(pattern, dict):
        raise ConfigError("a pattern must be a JSON object")
    rng = random.Random(args.seed)
    erased = erase(poolset, ErasurePattern.from_json_obj(pattern), rng=rng)
    what = "a subst entry"
    for sub in pattern.get("subst", []):
        erased = substitute_mass_reducing(
            erased,
            json_field(sub, "side", what),
            json_field(sub, "len", what, int),
            json_field(sub, "ones_to", what, int),
            ones=json_field(sub, "ones_from", what, int, default=None),
            rng=rng,
        )
    _write_text(args.output, _pool_to_json(erased, N))
    return EXIT_OK


def cmd_decode(args) -> int:
    base, book, scheme = load_config(args.config)
    poolset, N = _pool_from_json(_read_text(args.input))
    book_N = base.n if scheme == RAW else book.N
    if N != book_N:
        raise ConfigError(f"pool says N={N}, codebook says N={book_N}")
    hbar = args.hbar
    if hbar is None:
        if poolset.total % (2 * book_N):
            raise ConfigError("erased pools need an explicit --hbar")
        hbar = poolset.total // (2 * book_N)
    report = None
    if args.detect:
        report = detect_substitution(poolset, book_N, hbar)
    try:
        # a plain pool that lost fragments needs the redundancy-free merge
        if scheme == RAW or (scheme == PLAIN and poolset.total != 2 * book_N * hbar):
            outcome = reconstruct_redundancy_free(
                poolset, book_N, hbar, codebook=book, budget=args.budget
            )
            if isinstance(outcome, Ambiguous):
                payload = {
                    "status": "ambiguous",
                    "partial_sum": str(outcome.partial),
                    "witnesses": [
                        sorted(str(s) for s in w) for w in (outcome.witnesses or ())
                    ],
                }
                _write_text(args.output, json.dumps(payload, indent=1) + "\n")
                return EXIT_AMBIGUOUS
            strings = outcome.strings
        else:
            strings = ecc.scheme_decode(poolset, book, hbar, args.budget)
    except (DecodeFailure, TooManyErasures, AmbiguousSolution) as exc:
        payload = {"status": "decode-failure", "error": str(exc)}
        if report is not None:
            payload["detection"] = _report_json(report)
        _write_text(args.output, json.dumps(payload, indent=1) + "\n")
        return EXIT_DECODE
    payload = {"status": "ok", "strings": sorted(str(s) for s in strings)}
    if report is not None:
        payload["detection"] = _report_json(report)
    _write_text(args.output, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def _report_json(report) -> dict:
    return {
        "clean": report.is_clean,
        "prefix_count_dev": list(report.prefix_count_dev),
        "suffix_count_dev": list(report.suffix_count_dev),
        "prefix_bad_increments": list(report.prefix_bad_increments),
        "suffix_bad_increments": list(report.suffix_bad_increments),
        "incompatible_lengths": list(report.incompatible_lengths),
        "candidate_sums": [str(s) for s in report.candidate_sums],
        "corrections": [
            {
                "side": c.side,
                "len": c.length,
                "observed": str(c.observed),
                "restored": str(c.restored),
            }
            for c in report.corrections
        ],
    }


def _fmt_float(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return f"{float(x):.4f}"


def cmd_bounds(args) -> int:
    hs = [int(x) for x in args.h.split(",")]
    rows = bounds_mod.bounds_table(hs, args.mode)
    gaps = {g.h: g for g in bounds_mod.gap_table(hs, args.mode)}
    header = ["h", "naive_upper", "even_upper", "mc_upper", "mc_lower", "gap"]
    table = []
    for r in rows:
        table.append(
            [
                str(r.h),
                _fmt_float(r.naive),
                _fmt_float(r.even_bound) if r.even_bound is not None else "-",
                _fmt_float(r.mc_upper_value),
                _fmt_float(r.mc_lower),
                _fmt_float(gaps[r.h].gap),
            ]
        )
    _write_text(args.output, _format_table(header, table, args.format))
    return EXIT_OK


def _format_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "json":
        return (
            json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"
        )
    if fmt == "csv":
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    # markdown
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(["---"] * len(header)) + "|")
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if args.matrix:
        base = build_bh_codebook(args.h, _load_spec(args.matrix))
        strings = list(base.strings)
    else:
        strings = [
            BitString(ln.strip())
            for ln in _read_text(args.input).splitlines()
            if ln.strip()
        ]
    if args.property == "bh":
        res = verify_bh(strings, args.h, budget=args.budget)
    else:
        side = "prefix" if args.property == "prefix" else "full"
        res = oracle.verify_hmc(strings, args.h, side=side, budget=args.budget)
    if res.valid:
        _write_text(args.output, json.dumps({"status": "valid"}) + "\n")
        return EXIT_OK
    a, b = res.witness[0], res.witness[1]
    payload = {
        "status": "collision",
        "subset_a": sorted(str(s) for s in a),
        "subset_b": sorted(str(s) for s in b),
    }
    _write_text(args.output, json.dumps(payload, indent=1) + "\n")
    return EXIT_DECODE


def cmd_search(args) -> int:
    seed_strings = args.seed_strings.split(",") if args.seed_strings else ()
    book = oracle.exhaustive_bh_search(
        args.n, args.h, mode=args.mode, seed=seed_strings, budget=args.budget
    )
    payload = {"n": args.n, "h": args.h, "size": len(book),
               "strings": [str(s) for s in book.strings]}
    _write_text(args.output, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.matrix:
        base = build_bh_codebook(args.h, _load_spec(args.matrix))
    else:
        strings = [
            BitString(ln.strip())
            for ln in _read_text(args.input).splitlines()
            if ln.strip()
        ]
        base = BhCodebook.explicit(strings, args.h)
    rows = run_erasure_experiment(
        base, args.hbar, args.t, args.trials, args.seed, args.placement, args.budget
    )
    import io

    buf = io.StringIO()
    # an error row's reason stays out of the CSV, whose columns are fixed
    writer = csv.DictWriter(
        buf,
        fieldnames=["seed", "trial", "n", "hbar", "t", "outcome"],
        extrasaction="ignore",
    )
    writer.writeheader()
    writer.writerows(rows)
    _write_text(args.output, buf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masscodec",
        description="codecs for string mixtures read as prefix/suffix fragment masses",
    )
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode codebook strings into codewords")
    p.add_argument("input", help="file of binary strings, one per line ('-' stdin)")
    p.add_argument("--config", required=True)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("pool", help="pool codewords into a fragment multiset")
    p.add_argument("input", help="codeword JSON from 'encode' ('-' stdin)")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("corrupt", help="apply an erasure/substitution pattern")
    p.add_argument("input", help="pool JSON ('-' stdin)")
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", help="decode a pooled readout")
    p.add_argument("input", help="pool JSON ('-' stdin)")
    p.add_argument("--config", required=True)
    p.add_argument("--hbar", type=int, default=None)
    p.add_argument("--detect", action="store_true", help="attach a corruption report")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bounds", help="rate-bound table")
    p.add_argument("--h", default="2,3,4,6,8")
    p.add_argument("--mode", choices=["exact", "gaussian"], default="gaussian")
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="brute-force codebook verification")
    p.add_argument("input", nargs="?", default="-", help="strings file ('-' stdin)")
    p.add_argument("--matrix", default=None, help="or a parity-check matrix")
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--property", choices=["bh", "hmc", "prefix"], default="hmc")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="grow or maximize a distinct-sums codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--mode", choices=["max-greedy", "exact-max"], default="max-greedy")
    p.add_argument("--seed-strings", default="")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("experiment", help="seeded Monte-Carlo erasure trials")
    p.add_argument("input", nargs="?", default="-", help="strings file ('-' stdin)")
    p.add_argument("--matrix", default=None)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--hbar", type=int, default=2)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--placement", choices=["uniform", "adversarial"], default="uniform")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MasscodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECODE


if __name__ == "__main__":
    sys.exit(main())
