#!/usr/bin/env python3
"""Pin the benchmark's simulated metrics bit for bit.

The simulated end-to-end metrics of a perfbench run are a pure function
of the workload and the seed, so a change that means to leave the device
model alone must reproduce them exactly. This script compares the JSON
result line (the last line of standard output) of fresh runs against the
lines committed in `results/perfbench_seed7.jsonl`:

    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \\
        --workload kron-batch --seed 7 --seconds 1 --trace 0 > kron-batch.out
    python3 .github/scripts/perfbench_pin.py check results/perfbench_seed7.jsonl kron-batch.out

Each output file is named after its workload (`<workload>.out`). `check`
exits 1 if `correct`, `attempted` or `failed` differ, or if any metric
other than the host-clock ones (`setup_s`, `peak_rss_mb`) differs from
the pinned value in any bit or is missing on either side.

When a change means to move the model, run the pinned workloads at seed
7 and rewrite their lines with

    python3 .github/scripts/perfbench_pin.py write results/perfbench_seed7.jsonl \\
        kron-batch.out road-batch.out kron-verify.out

then commit the new file together with the reason the numbers moved.
`write` prints every simulated metric it changes as old -> new (xratio),
so the moves a regeneration declares are on record.
"""

import json
import os
import struct
import sys

HOST_METRICS = {"setup_s", "peak_rss_mb"}
COUNTS = ("correct", "attempted", "failed")


def result_line(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"{path}: no output")
    return json.loads(lines[-1])


def workload_of(path):
    name = os.path.basename(path)
    if not name.endswith(".out"):
        sys.exit(f"{path}: expected a file named <workload>.out")
    return name[: -len(".out")]


def bits(value):
    return struct.pack("<d", float(value))


def moves(pinned, fresh):
    """The simulated metrics that differ, as `name: old -> new (xratio)`."""
    old, new = pinned["metrics"], fresh["metrics"]
    lines = []
    for name in sorted((set(old) | set(new)) - HOST_METRICS):
        a = old.get(name, {}).get("value")
        b = new.get(name, {}).get("value")
        if a is None or b is None:
            lines.append(f"{name}: {a!r} -> {b!r}")
        elif bits(a) != bits(b):
            ratio = f"x{b / a:.4f}" if a else "no ratio, old is 0"
            lines.append(f"{name}: {a!r} -> {b!r} ({ratio})")
    return lines


def differences(pinned, fresh):
    diffs = [
        f"{key}: pinned {pinned.get(key)!r}, got {fresh.get(key)!r}"
        for key in COUNTS
        if pinned.get(key) != fresh.get(key)
    ]
    old, new = pinned["metrics"], fresh["metrics"]
    for name in sorted((set(old) | set(new)) - HOST_METRICS):
        if name not in old or name not in new:
            diffs.append(f"{name}: present on one side only")
        elif bits(old[name]["value"]) != bits(new[name]["value"]):
            diffs.append(f"{name}: pinned {old[name]['value']!r}, got {new[name]['value']!r}")
    return diffs


def main(argv):
    if len(argv) < 4 or argv[1] not in ("check", "write"):
        sys.exit(__doc__)
    mode, pin_path, outs = argv[1], argv[2], argv[3:]
    pinned = {}
    if os.path.exists(pin_path):
        with open(pin_path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    entry = json.loads(line)
                    pinned[entry["workload"]] = entry
    failed = False
    for out in outs:
        workload, fresh = workload_of(out), result_line(out)
        if mode == "write":
            if workload in pinned:
                changed = moves(pinned[workload]["result"], fresh)
                for line in changed:
                    print(f"{workload}: {line}")
                print(f"{workload}: {len(changed)} simulated metric(s) changed")
            else:
                print(f"{workload}: new pinned line")
            pinned[workload] = {"workload": workload, "seed": 7, "result": fresh}
            continue
        if workload not in pinned:
            print(f"{workload}: no pinned line in {pin_path}")
            failed = True
            continue
        diffs = differences(pinned[workload]["result"], fresh)
        for d in diffs:
            print(f"{workload}: {d}")
        print(f"{workload}: {'DIFFERS from' if diffs else 'bit-identical to'} {pin_path}")
        failed |= bool(diffs)
    if mode == "write":
        with open(pin_path, "w", encoding="utf-8") as f:
            for entry in pinned.values():
                f.write(json.dumps(entry) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
