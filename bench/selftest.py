"""Fast self-test of the benchmark.  Run from the checkout root:

    python3 bench/selftest.py

Runs every workload for a fraction of a second, untraced and traced, and
checks that the metric names and units match ``BENCHMARK.json``, and that
two runs with the same seed draw the same inputs and count the same attempted
and failed decodes.  Then plants
a wrong answer in the trial loop and checks that the correctness gate fails
the run (exit 1, ``"correct": false``), and checks that a directory without
the package sources exits with 2 and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SECONDS = 0.3  # at least two rounds of every workload, so p90 is defined


def expected_units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def run_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, out.getvalue()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.use_checkout_sources()
    run.SETUPS = 2
    import workloads

    names = sorted(w["name"] for w in spec["workloads"])
    assert names == sorted(workloads.WORKLOADS), (names, sorted(workloads.WORKLOADS))
    wanted = {False: expected_units(spec, "end_to_end"), True: expected_units(spec, "per_layer")}
    for name in names:
        for trace in (False, True):
            result, _ = run.run(name, seed=1, seconds=SECONDS, trace=trace)
            assert result["correct"], (name, trace)
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], (name, trace, set(got) ^ set(wanted[trace]))
            print(f"ok   {name} trace={int(trace)}: {len(got)} metrics")
        runs = [run.run(name, seed=2, seconds=SECONDS, trace=False) for _ in range(2)]
        counts = [(r["attempted"], r["failed"], rec["inputs"]) for r, rec in runs]
        assert counts[0] == counts[1], (name, counts)
        print(f"ok   {name}: the same seed gives the same inputs and outcome counts")

    honest = workloads.Workload.decode

    def drop_one_source(self, state, trial, readout):
        return frozenset(list(honest(self, state, trial, readout))[1:])

    workloads.Workload.decode = drop_one_source
    try:
        for name in names:
            code, out = run_main(["--workload", name, "--seed", "1", "--seconds", str(SECONDS)])
            last = json.loads(out.splitlines()[-1])
            assert code == 1 and last["correct"] is False, (name, code, last["correct"])
            print(f"ok   {name}: a planted wrong answer fails the gate")
    finally:
        workloads.Workload.decode = honest

    run.ROOT = run.ROOT / "bench"  # a directory without src/
    code, out = run_main(["--workload", names[0], "--seed", "1", "--seconds", str(SECONDS)])
    assert code == 2 and not out, (code, out)
    print("ok   without package sources the run exits 2 and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
