"""Self-test of the benchmark at tiny sizes; takes a few seconds.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at a small size and
checks that each metric named in BENCHMARK.json is emitted with its unit,
that a correct program passes, and that a deliberately wrong reference
value is counted as a failed operation.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys

import run

WRONG_REFERENCE = {
    "transient-2d": {"final_energy": [1e3, 1e-9]},
    "spectrum-1d": {"gap": [1e3, 1e-8]},
    "fields-2d": {"field_norm_sq": [1e3, 1e-9]},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(run.COMMANDS), f"workloads {names} != {sorted(run.COMMANDS)}")
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in names:
        tiny = run.TINY_SIZES[workload]
        expect(
            run.make_config(workload, 7, tiny) == run.make_config(workload, 7, tiny)
            and run.make_config(workload, 7, tiny) != run.make_config(workload, 8, tiny),
            f"{workload}: config text is not a function of the seed",
        )
        for trace in (0, 1):
            full, result = run.measure(workload, 7, 0.0, bool(trace), sizes=tiny)
            expect(result["correct"], f"{workload} trace={trace}: {full['failures']}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == wanted[trace], f"{workload} trace={trace}: emitted {emitted}")
            expect(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{workload} trace={trace}: a metric value is not a number",
            )
        full, result = run.measure(
            workload, 7, 0.0, False, sizes=tiny, references=WRONG_REFERENCE[workload]
        )
        expect(
            not result["correct"] and result["failed"] >= 1 and full["error_rate"] > 0,
            f"{workload}: a wrong reference value was not counted as a failure",
        )
        print(f"selftest {workload}: ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
