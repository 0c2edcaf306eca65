"""Command-line front end: encode, pool, corrupt, decode, and reports.

Every subcommand is a thin wrapper over the library; file formats are the
JSON forms defined by the owning modules.  Each kind of file is read or
written by one helper (a JSON object, a strings file, a pool, a JSON
result), every config field is read through ``errors.json_field``, and each
command writes its one result in one place.  Exit codes: 0 success, 2 bad
usage or configuration, 3 ambiguous reconstruction, 4 decode failure,
5 search budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import replace
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
    Recovered,
    detect_substitution,
    erase,
    mixture_order,
    reconstruct_redundancy_free,
    run_erasure_experiment,
    substitute_mass_reducing,
)
from .codec import PLAIN
from .core import BitString, CompositionMultiset, is_dyck, pool as make_pool
from .errors import (
    AmbiguousSolution,
    ConfigError,
    DecodeFailure,
    InconsistentPoolSize,
    MasscodecError,
    SearchSpaceTooLarge,
    TooManyErasures,
    json_field,
    json_int,
)
from .linearcode import LinearCode, bundled_code

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AMBIGUOUS = 3
EXIT_DECODE = 4
EXIT_BUDGET = 5

# the first entry that matches an error decides its exit code
_EXIT_CODES = (
    (SearchSpaceTooLarge, EXIT_BUDGET),
    ((ConfigError, OSError, ValueError), EXIT_CONFIG),
    (MasscodecError, EXIT_DECODE),
)

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


def _read_json(path: str):
    """The JSON value of a file; a file that does not parse is named in the error."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise ConfigError(f"{name} is not JSON: {exc}") from None


def _read_object(path: str, what: str) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return obj


def _read_strings(path: str) -> list[BitString]:
    """The binary strings of a file, one per line; blank lines are skipped."""
    return [BitString(ln.strip()) for ln in _read_text(path).splitlines() if ln.strip()]


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=1) + "\n")


def _bundled_name(ref) -> str | None:
    """The name in a ``bundled:<name>`` reference, or None for any other value."""
    if isinstance(ref, str) and ref.startswith("bundled:"):
        return ref.split(":", 1)[1]
    return None


def _load_spec(ref: str) -> ParityCheckSpec:
    name = _bundled_name(ref)
    return ParityCheckSpec.load(ref) if name is None else bundled_spec(name)


def _load_code(ref) -> LinearCode | None:
    if ref is None or ref == "auto":
        return None
    if isinstance(ref, dict):
        return LinearCode.from_json_obj(ref)
    name = _bundled_name(ref)
    if name is None:
        raise ConfigError(f"cannot interpret code reference {ref!r}")
    return bundled_code(name)


def _base_codebook(h: int, matrix: str | None, strings) -> BhCodebook:
    """The codebook of a parity-check matrix reference, else of explicit strings."""
    if matrix:
        return build_bh_codebook(h, _load_spec(matrix))
    if strings is None:
        raise ConfigError("config needs a 'matrix' or a 'strings' entry")
    return BhCodebook.explicit(strings, h)


def load_config(path: str):
    """Build the base codebook, the scheme codebook and the scheme name.

    Schema: {"h": int, "matrix": "bundled:name"|path, "take": int?,
             "strings": [..]?, "scheme": {"name": str, "t": int,
             "code": ..., "code_flag": ...}?}
    """
    what = "a config"
    obj = _read_object(path, what)
    h = json_field(obj, "h", what, int, default=2)
    matrix = json_field(obj, "matrix", what, str, default=None)
    strings = json_field(obj, "strings", what, list, default=None)
    if strings is not None and not (strings and all(isinstance(s, str) for s in strings)):
        raise ConfigError("a config's 'strings' must be a nonempty list of binary strings")
    base = _base_codebook(h, matrix, strings)
    take = json_field(obj, "take", what, int, default=None)
    if matrix and take is not None:
        base = replace(base, strings=base.strings[:take])
    scheme_obj = obj.get("scheme", {"name": PLAIN})
    if isinstance(scheme_obj, str):
        scheme_obj = {"name": scheme_obj}
    if not isinstance(scheme_obj, dict):
        raise ConfigError("a scheme must be a name or a JSON object")
    name = json_field(scheme_obj, "name", "a scheme", str, default=PLAIN)
    t = json_int(scheme_obj, "t", "a scheme", default=0)
    if name == RAW:
        if not all(is_dyck(s) for s in base.strings):
            raise ConfigError("raw codebooks must consist of Dyck strings")
        return base, base, RAW
    code = _load_code(scheme_obj.get("code"))
    flag = _load_code(scheme_obj.get("code_flag"))
    book = ecc.scheme_codebook(name, base, t, code, flag)
    return base, book, name


def _read_pool(path: str) -> tuple[CompositionMultiset, int]:
    obj = _read_json(path)
    what = "a pool file"
    fragments, N = json_field(obj, "fragments", what, list), json_int(obj, "N", what)
    # an N past the longest fragment stays legal, as a pool can lose every
    # full-length fragment; decode refuses an N that is not its book's
    if N < 0:
        raise ConfigError(f"a pool file's N must not be negative, got N={N}")
    # the count table grows with the square of the longest fragment, so check first
    for entry in fragments:
        zeros, ones = (json_field(entry, key, "a fragment", int) for key in ("zeros", "ones"))
        if zeros + ones > N:
            raise ConfigError(f"a fragment of {zeros} zeros and {ones} ones is longer than N={N}")
    return CompositionMultiset.from_json_obj(fragments), N


def cmd_encode(args) -> int:
    base, book, scheme = load_config(args.config)
    sources = _read_strings(args.input)
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
    _write_json(args.output, out)
    return EXIT_OK


def cmd_pool(args) -> int:
    obj = _read_json(args.input)
    words = json_field(obj, "codewords", "an encode file", list) if isinstance(obj, dict) else obj
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ConfigError(f"an encode file needs a list of codeword strings, got {words!r}")
    N = len(words[0]) if words else 0
    _write_json(args.output, {"N": N, "fragments": make_pool(words or ()).to_json_obj()})
    return EXIT_OK


def cmd_corrupt(args) -> int:
    poolset, N = _read_pool(args.input)
    pattern = _read_object(args.pattern, "a pattern")
    rng = random.Random(args.seed)
    erased = erase(poolset, ErasurePattern.from_json_obj(pattern), rng=rng)
    what = "a subst entry"
    for sub in json_field(pattern, "subst", "a pattern", list, default=[]):
        erased = substitute_mass_reducing(
            erased,
            json_field(sub, "side", what),
            json_field(sub, "len", what, int),
            json_field(sub, "ones_to", what, int),
            ones=json_field(sub, "ones_from", what, int, default=None),
            rng=rng,
        )
    _write_json(args.output, {"N": N, "fragments": erased.to_json_obj()})
    return EXIT_OK


def cmd_decode(args) -> int:
    base, book, scheme = load_config(args.config)
    poolset, N = _read_pool(args.input)
    book_N = base.n if scheme == RAW else book.N
    if N != book_N:
        raise ConfigError(f"pool says N={N}, codebook says N={book_N}")
    # hbar is checked here, once, so a report and a decode see the same one
    order = mixture_order(poolset, book_N)
    hbar = order if args.hbar is None else args.hbar
    if args.hbar is not None and not 1 <= hbar <= len(base):
        raise ConfigError(f"a decode needs 1 <= hbar <= {len(base)}, got hbar={hbar}")
    if hbar == 0:
        raise InconsistentPoolSize(f"the pool holds no fragment of length 1..{book_N}")
    if order > hbar:  # lost fragments and lighter readings never add a fragment to a length
        raise InconsistentPoolSize(f"the pool needs hbar >= {order}, got hbar={hbar}")
    report = detect_substitution(poolset, book_N, hbar) if args.detect else None
    try:
        # a plain pool that lost fragments needs the redundancy-free merge
        if scheme == RAW or (scheme == PLAIN and poolset.total != 2 * book_N * hbar):
            outcome = reconstruct_redundancy_free(
                poolset, book_N, hbar, codebook=book, budget=args.budget
            )
        else:
            outcome = ecc.scheme_decode(poolset, book, hbar, args.budget)
    except (DecodeFailure, TooManyErasures, AmbiguousSolution) as exc:
        code, payload = EXIT_DECODE, {"status": "decode-failure", "error": str(exc)}
    else:
        if isinstance(outcome, Ambiguous):
            code, payload = EXIT_AMBIGUOUS, {
                "status": "ambiguous",
                "partial_sum": str(outcome.partial),
                # null: not searched (no universe or over budget); []: no subset explains the pool
                "witnesses": outcome.witnesses and [sorted(map(str, w)) for w in outcome.witnesses],
            }
        else:
            strings = outcome.strings if isinstance(outcome, Recovered) else outcome
            code, payload = EXIT_OK, {"status": "ok", "strings": sorted(str(s) for s in strings)}
    # an ambiguous result lists its witnesses instead of the report
    if report is not None and code != EXIT_AMBIGUOUS:
        payload["detection"] = _report_json(report)
    _write_json(args.output, payload)
    return code


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
                _fmt_float(r.gap),
            ]
        )
    _write_text(args.output, _format_table(header, table, args.format))
    return EXIT_OK


def _format_table(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        return (
            json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"
        )
    if fmt == "csv":
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
    strings = None if args.matrix else _read_strings(args.input)
    strings = _base_codebook(args.h, args.matrix, strings).strings
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
    _write_json(args.output, payload)
    return EXIT_DECODE


def cmd_search(args) -> int:
    seed_strings = args.seed_strings.split(",") if args.seed_strings else ()
    book = oracle.exhaustive_bh_search(
        args.n, args.h, mode=args.mode, seed=seed_strings, budget=args.budget
    )
    payload = {"n": args.n, "h": args.h, "size": len(book),
               "strings": [str(s) for s in book.strings]}
    _write_json(args.output, payload)
    return EXIT_OK


def cmd_experiment(args) -> int:
    strings = None if args.matrix else _read_strings(args.input)
    base = _base_codebook(args.h, args.matrix, strings)
    rows = run_erasure_experiment(
        base, args.hbar, args.t, args.trials, args.seed, args.placement, args.budget
    )
    # an error row's reason stays out of the CSV, whose columns are fixed
    header = ["seed", "trial", "n", "hbar", "t", "outcome"]
    table = [[row[key] for key in header] for row in rows]
    _write_text(args.output, _format_table(header, table, "csv"))
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
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("pool", help="pool codewords into a fragment multiset")
    p.add_argument("input", help="codeword JSON from 'encode' ('-' stdin)")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("corrupt", help="apply an erasure/substitution pattern")
    p.add_argument("input", help="pool JSON ('-' stdin)")
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", help="decode a pooled readout")
    p.add_argument("input", help="pool JSON ('-' stdin)")
    p.add_argument("--config", required=True)
    p.add_argument("--hbar", type=int, default=None)
    p.add_argument("--detect", action="store_true", help="attach a corruption report")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bounds", help="rate-bound table")
    p.add_argument("--h", default="2,3,4,6,8")
    p.add_argument("--mode", choices=["exact", "gaussian"], default="gaussian")
    p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="brute-force codebook verification")
    p.add_argument("input", nargs="?", default="-", help="strings file ('-' stdin)")
    p.add_argument("--matrix", default=None, help="or a parity-check matrix")
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--property", choices=["bh", "hmc", "prefix"], default="hmc")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="grow or maximize a distinct-sums codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--mode", choices=["max-greedy", "exact-max"], default="max-greedy")
    p.add_argument("--seed-strings", default="")
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
    p.set_defaults(func=cmd_experiment)

    # every subcommand writes one result; declared last, it keeps its place in --help
    for p in sub.choices.values():
        p.add_argument("--output", "-o", default="-")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MasscodecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
