"""Self-test of the benchmark's checks: each must pass real output and fail a wrong answer.

    python3 perfbench/selftest.py

Runs a few small operations through the same code as the benchmark, checks
that their genuine outputs pass, then feeds each check a corrupted copy (a
biased rate, a shifted key count, a flipped key bit, a wrong oracle column,
a transcript out of wire order) and requires that it fail.  Also checks
that BENCHMARK.json names exactly the metrics run.py prints, with the same
units.  Exits 0 when every case behaves, 1 otherwise.
"""

import dataclasses
import json
import sys

import run

run.import_program()

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

N = 18_000  # large enough that the biases below sit far outside Z standard errors
M = 8


def session(protocol, transcripts=False):
    op = workloads.simulate(protocol, N, M if protocol == "bb84" else None, 2, transcripts)
    return op, op.run(7)


def judged(op, output):
    """Run one operation's check and its pooled rates; True when they pass."""
    tally = checks.RateTally()
    try:
        op.check(output, tally)
        tally.check()
    except checks.CheckFailed:
        return False
    return True


def edit(text, change):
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def flip_key_bit(doc):
    agreement = doc["trials"][0]["key_agreement"]
    agreement.update(matching=agreement["length"] - 1, differing=1, keys_match=False)


def _shift(doc, field, share):
    """Add ``share`` of each trial's photons to ``field`` and to the key,
    keeping key + auth == confirmed and the agreement counts consistent."""
    for t in doc["trials"]:
        extra = int(N * share)
        t["counts"][field] += extra
        if field != "key":
            t["counts"]["key"] += extra
        t["key_agreement"]["length"] += extra
        t["key_agreement"]["matching"] += extra
        if field == "key":
            t["counts"]["auth"] -= extra
            t["tamper"]["auth_checked"] -= extra
    doc["aggregate"]["totals"] = {
        k: sum(t["counts"][k] for t in doc["trials"]) for k in doc["aggregate"]["totals"]
    }


def shift_key_count(doc):
    _shift(doc, "key", 0.05)


def bias_confirmed(doc):
    _shift(doc, "confirmed", 0.05)


def bb84_off_by_one(doc):
    t = doc["trials"][0]
    t["counts"]["key"] -= 1
    t["key_agreement"]["length"] -= 1
    t["key_agreement"]["matching"] -= 1
    doc["aggregate"]["totals"]["key"] -= 1


def swap_transcript(doc):
    entries = doc["trials"][0]["transcript"]
    entries[0], entries[1] = entries[1], entries[0]


def main():
    cases = []

    def expect(name, passes, want):
        cases.append((name, passes == want))

    op, text = session("three_state")
    expect("three_state: genuine output", judged(op, text), True)
    expect("three_state: flipped key bit", judged(op, edit(text, flip_key_bit)), False)
    expect("three_state: key count shifted by 5% of n", judged(op, edit(text, shift_key_count)), False)
    expect("three_state: confirmed rate biased by 5% of n", judged(op, edit(text, bias_confirmed)), False)

    op, text = session("bb84", transcripts=True)
    expect("bb84: genuine output with transcripts", judged(op, text), True)
    expect("bb84: final key != sifted - m", judged(op, edit(text, bb84_off_by_one)), False)
    expect("bb84: flipped key bit", judged(op, edit(text, flip_key_bit)), False)
    expect("bb84: transcript out of wire order", judged(op, edit(text, swap_transcript)), False)

    op = workloads.sweep_cell("uniform", "nothing", 1.0, N, 1)
    row, csv_text = op.run(7)
    expect("sweep: genuine cell", judged(op, (row, csv_text)), True)
    biased = dataclasses.replace(row, empirical_failure=row.empirical_failure + 0.1)
    expect("sweep: auth-failure rate biased by 0.1", judged(op, (biased, csv_text)), False)
    wrong_oracle = dataclasses.replace(row, oracle_failure=row.paper_model)
    expect("sweep: oracle_failure column off the reference", judged(op, (wrong_oracle, csv_text)), False)
    drifted = dataclasses.replace(row, key_error_rate=row.key_error_rate * 1.3)
    expect("sweep: key-error rate biased 30%", judged(op, (drifted, csv_text)), False)
    half = workloads.sweep_cell("uniform", "nothing", 0.5, N, 1)
    expect("sweep: full-fraction row judged as a half-fraction cell", judged(half, (row, csv_text)), False)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect("BENCHMARK.json: end-to-end metrics and units", want == run.END_TO_END_UNITS, True)
    names = list(tracer.Tracer().layer_metrics()) + ["trace.untraced_wall_s", "trace.overhead_s"]
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("BENCHMARK.json: per-layer metrics and units", want == {n: run.unit_of(n) for n in names}, True)

    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
