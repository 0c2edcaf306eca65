"""Stage spans and end-to-end numbers of the benchmark's three workloads.  Run from
anywhere in the checkout:

    python3 scripts/stage_report.py

For each workload it runs ``bench/run.py`` for 2 s at seed 5 twice, traced and
untraced, and prints the end-to-end metrics that gains are claimed on from the
untraced run, then each set-up span's calls, self time per call and self time
per set-up, and each stage's self time per call and share of a decode, from the
traced one.  A set-up span's calls count what one set-up asks of it, so its
self time per set-up compares across changes that batch those calls (one
``codec.encode`` call frames a whole book), and its time per call does not.

Then it times in process, best of 5, what no declared set-up span covers: the
build of each named table of ``masscodec.gf2m.TABLES`` (``bundled_spec``) and of
the ``lookup-h3`` matrix, ``alpha_power_pcm(8, 96, [1, 3, 5])``.  Last, the one
readout check, ``codec.explains``, per call with the answer's pool built: at
clean size on the ``lookup-h3`` book (N = 68, hbar 3), and with and without
``lighter`` on the t = 1 two-step substitution book of ``bch_255_cols20``
(N = 154, hbar 2), on a readout with one fragment read lighter.

The numbers gate nothing: the script exits 1, naming the workloads, only when a
run fails or answers a wrong set (``bench/run.py`` then exits nonzero), after
printing that run's output.
"""

from __future__ import annotations

import functools
import json
import pathlib
import subprocess
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("erasure-t2", "lookup-h3", "substitution-t1")
# set-ups a traced ``bench/run.py`` run traces: it builds its books once under the tracer
TRACED_SETUPS = 1


def report(workload: str) -> bool:
    """Print the workload's numbers; False when a run failed."""
    argv = [str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "2"]
    runs = [
        subprocess.run(
            [sys.executable, *argv, "--trace", trace], capture_output=True, text=True, cwd=ROOT
        )
        for trace in ("1", "0")
    ]
    if any(run.returncode for run in runs):
        for run in runs:
            print(run.stdout, run.stderr, sep="\n")
        return False
    # the last line is the result and the one before it the record
    record = json.loads(runs[0].stdout.splitlines()[-2])
    metrics = json.loads(runs[1].stdout.splitlines()[-1])["metrics"]
    print(f"{workload}: untraced", ", ".join(
        f"{name} {metrics[name]['value']:.3f}"
        for name in ("decode_ms_p50", "trials_per_s", "peak_rss_mb")
    ), f"setup_s {metrics['setup_s']['value']:.5f}")
    print(f"{workload}: set-up spans, calls, self ms per call and self ms per set-up")
    for name, span in record["spans"].items():
        if "self_s" in span:
            per_call = 1000 * span["self_s"] / span["calls"]
            per_setup = 1000 * span["self_s"] / TRACED_SETUPS
            print(f"  {name:36} {span['calls']:8d} {per_call:8.3f} {per_setup:8.3f}")
    print(f"{workload}: self ms per call, share of decode")
    for name, span in record["spans"].items():
        if "self_ms_per_call" in span:
            share = span.get("share_of_decode")
            share = "-" if share is None else f"{share:.2f}"
            print(f"  {name:36} {span['self_ms_per_call']:8.3f} {share:>6}")
    return True


def table_builds() -> None:
    """Print the build time of each named table and of the lookup-h3 matrix."""
    from masscodec import bhcode, gf2m

    builds = {name: functools.partial(bhcode.bundled_spec, name) for name in gf2m.TABLES}
    builds["alpha_power_pcm(8, 96, [1, 3, 5])"] = functools.partial(
        gf2m.alpha_power_pcm, 8, 96, [1, 3, 5]
    )
    print("named tables: build ms, best of 5")
    for label, build in builds.items():
        print(f"  {label:36} {1000 * min(timeit.repeat(build, number=1, repeat=5)):8.3f}")


def readout_checks() -> None:
    """Print ``codec.explains`` µs per call on the lookup-h3 and substitution-t1 books."""
    from masscodec import bhcode, channel, codec, ecc, gf2m

    spec = bhcode.ParityCheckSpec(gf2m.alpha_power_pcm(8, 96, [1, 3, 5]), 7)
    h3 = codec.encode_codebook(bhcode.build_bh_codebook(3, spec))
    clean = h3.pool_of(h3.base.strings[:3])
    base = bhcode.build_bh_codebook(2, bhcode.bundled_spec("bch_255_cols20"))
    book = ecc.two_step_codebook(base, 1, substitutions=True)
    held = book.pool_of(base.strings[:2])
    length = book.N // 2
    ones = book.bits_for(base.strings[0]).prefix(length).weight()
    lighter = channel.substitute_mass_reducing(held, "prefix", length, ones - 1, ones=ones)
    checks = {
        f"lookup-h3 clean size (N = {h3.N})": (clean, clean, False),
        f"substitution-t1 without lighter (N = {book.N})": (lighter, held, False),
        f"substitution-t1 with lighter (N = {book.N})": (lighter, held, True),
    }
    print("codec.explains: us per call, best of 5")
    for label, (readout, pool, light) in checks.items():
        check = functools.partial(codec.explains, readout, pool, lighter=light)
        best = min(timeit.repeat(check, number=200, repeat=5)) / 200
        print(f"  {label:48} {1e6 * best:8.1f}")


def main() -> None:
    failed = [workload for workload in WORKLOADS if not report(workload)]
    sys.path.insert(0, str(ROOT / "src"))
    table_builds()
    readout_checks()
    sys.exit(f"failed: {', '.join(failed)}" if failed else None)


if __name__ == "__main__":
    main()
