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

Then it runs each workload in process, as ``bench/run.py`` does but untraced and
unscaled: five set-ups, then a fixed run of trials drawn at seed 5, and prints the
µs and the minor page faults (``ru_minflt`` of ``getrusage(RUSAGE_SELF)``) per
set-up and per trial in pool, corrupt and decode, for the workload and for each of
its codebooks.  A count table that lands on fresh pages shows there as faults.
How many depends on the heap the process built up before (imports, earlier
workloads), so compare two commits with this one script, not with a bench run.

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
import resource
import statistics
import subprocess
import sys
import timeit
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("erasure-t2", "lookup-h3", "substitution-t1")
# set-ups a traced ``bench/run.py`` run traces: it builds its books once under the tracer
TRACED_SETUPS = 1
# set-ups and trials of each workload's in-process run, and the seed its trials are drawn at
STAGE_SETUPS, STAGE_TRIALS, STAGE_SEED = 5, 800, 5
STAGES = ("pool", "corrupt", "decode")


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


def clock() -> tuple[float, int]:
    """The time and this process's minor page faults so far."""
    return perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def stage_costs(workload) -> tuple[list, dict, list]:
    """The (µs, faults) of each set-up, the state of the last, and for each trial of
    a fixed seeded run its codebook and the (µs, faults) of each of its stages."""
    from masscodec import core
    from masscodec.errors import MasscodecError
    from workloads import reset_package_caches

    setups = []
    for _ in range(STAGE_SETUPS):
        reset_package_caches()
        t0, f0 = clock()
        state = workload.setup()
        t1, f1 = clock()
        setups.append((1e6 * (t1 - t0), f1 - f0))
    rows = []
    trials = workload.trials(state, STAGE_SEED)
    for _ in range(STAGE_TRIALS):
        trial = next(trials)  # drawn outside the timed stages, as bench/run.py does
        marks = [clock()]
        clean = core.pool(trial.words)
        marks.append(clock())
        readout = workload.corrupt(trial, clean)
        marks.append(clock())
        try:
            workload.decode(state, trial, readout)
        except MasscodecError:
            pass
        marks.append(clock())
        costs = [(1e6 * (t1 - t0), f1 - f0) for (t0, f0), (t1, f1) in zip(marks, marks[1:])]
        rows.append((trial.scheme, costs))
    return setups, state, rows


def stage_line(label: str, setup, trials: list) -> str:
    """One row of the table: the set-up's (µs, faults), if any, then each stage's
    mean µs and faults over the trials' costs."""
    cells = ["-" if setup is None else f"{setup[0]:8.0f} {setup[1]:7.1f}"]
    for stage in zip(*trials):
        us, faults = zip(*stage)
        cells.append(f"{statistics.fmean(us):8.1f} {statistics.fmean(faults):7.2f}")
    return f"  {label:26}" + "".join(f" {cell:>16}" for cell in cells)


def stage_table() -> None:
    """Print each workload's µs and minor page faults per set-up and per trial stage,
    and per codebook for a workload of several."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS as BENCH_WORKLOADS

    print(
        f"in process: µs and minor page faults per set-up (median of {STAGE_SETUPS}) and"
        f" per trial ({STAGE_TRIALS} trials at seed {STAGE_SEED})"
    )
    print(f"  {'':26} {'set-up':>16}" + "".join(f" {stage:>16}" for stage in STAGES))
    for name in WORKLOADS:
        setups, state, rows = stage_costs(BENCH_WORKLOADS[name]())
        setup = [statistics.median(x) for x in zip(*setups)]
        print(stage_line(name, setup, [costs for _, costs in rows]))
        keys = dict.fromkeys(key for key, _ in rows)
        for key in keys if len(keys) > 1 else ():
            trials = [costs for k, costs in rows if k == key]
            print(stage_line(f"  {key} (N = {state[key].N})", None, trials))


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
    stage_table()
    table_builds()
    readout_checks()
    sys.exit(f"failed: {', '.join(failed)}" if failed else None)


if __name__ == "__main__":
    main()
